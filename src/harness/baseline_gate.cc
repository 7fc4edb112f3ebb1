#include "harness/baseline_gate.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace iceb::harness
{

namespace
{

std::string
formatted(const char *format, double a, double b, double c)
{
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer), format, a, b, c);
    return buffer;
}

} // namespace

GateResult
gateRatio(const std::string &metric, double measured, double baseline,
          double tolerance)
{
    const double floor = baseline * (1.0 - tolerance);
    GateResult result;
    result.ok = measured >= floor;
    result.message = "[" + metric + "] " +
        (result.ok
             ? formatted("measured %.5f meets floor %.5f "
                         "(baseline %.5f)",
                         measured, floor, baseline)
             : formatted("measured %.5f fell below floor %.5f "
                         "(baseline %.5f)",
                         measured, floor, baseline));
    return result;
}

GateResult
gateBestOf(const std::string &metric, double first,
           const std::function<double()> &remeasure, double baseline,
           double tolerance)
{
    const double floor = baseline * (1.0 - tolerance);
    double best = first;
    int taken = 1;
    std::string rounds = formatted("%.5f", first, 0.0, 0.0);
    while (best < floor && taken < kGateRounds) {
        const double again = remeasure();
        ++taken;
        rounds += formatted(" %.5f", again, 0.0, 0.0);
        best = std::max(best, again);
    }
    GateResult result = gateRatio(metric, best, baseline, tolerance);
    if (taken > 1)
        result.message += "; best of rounds " + rounds;
    return result;
}

GateResult
gateDigest(const std::string &metric, const std::string &measured,
           const std::string &committed)
{
    GateResult result;
    result.ok = measured == committed;
    result.message = "[" + metric + "] " +
        (result.ok ? "digest " + measured + " matches the baseline"
                   : "measured " + measured +
               " != committed " + committed);
    return result;
}

namespace
{

/** Position just past `"key":` (skipping whitespace), or npos. */
std::size_t
valueStart(const std::string &text, const std::string &key)
{
    const std::string quoted = "\"" + key + "\"";
    std::size_t pos = text.find(quoted);
    if (pos == std::string::npos)
        return std::string::npos;
    pos += quoted.size();
    while (pos < text.size() &&
           (std::isspace(static_cast<unsigned char>(text[pos])) ||
            text[pos] == ':')) {
        ++pos;
    }
    return pos;
}

} // namespace

std::optional<double>
findJsonNumber(const std::string &text, const std::string &key)
{
    const std::size_t pos = valueStart(text, key);
    if (pos == std::string::npos || pos >= text.size())
        return std::nullopt;
    char *end = nullptr;
    const double value = std::strtod(text.c_str() + pos, &end);
    if (end == text.c_str() + pos)
        return std::nullopt;
    return value;
}

std::optional<std::string>
findJsonString(const std::string &text, const std::string &key)
{
    const std::size_t pos = valueStart(text, key);
    if (pos == std::string::npos || pos >= text.size() ||
        text[pos] != '"') {
        return std::nullopt;
    }
    const std::size_t close = text.find('"', pos + 1);
    if (close == std::string::npos)
        return std::nullopt;
    return text.substr(pos + 1, close - pos - 1);
}

} // namespace iceb::harness
