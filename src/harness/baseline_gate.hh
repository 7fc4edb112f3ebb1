/**
 * @file
 * Named baseline gates for the bench binaries.
 *
 * A bench that gates against a committed baseline file has several
 * independent things to check (a speedup ratio, a determinism
 * digest, ...). A bare nonzero exit hides WHICH check tripped; these
 * helpers produce one GateResult per check whose message always leads
 * with the metric's name in brackets — "[speedup ratio]", "[metrics
 * digest]" — so a CI log names the failing metric on its FAIL line.
 * gateBestOf is the one re-measure-on-a-miss loop every timed ratio
 * gate of bench_fip, bench_sim and bench_scale goes through.
 *
 * Also here: the flat JSON scrapers the benches use to read fields
 * back out of the baseline files they themselves wrote. They perform
 * a plain string scan, which is exactly enough for that self-written,
 * non-nested-key format — not a general JSON parser.
 */

#ifndef ICEB_HARNESS_BASELINE_GATE_HH
#define ICEB_HARNESS_BASELINE_GATE_HH

#include <functional>
#include <optional>
#include <string>

namespace iceb::harness
{

/** One named baseline check's outcome. */
struct GateResult
{
    bool ok = false;
    /** Human-readable verdict, leading with "[<metric>]". */
    std::string message;
};

/**
 * Gate a measured rate ratio against a committed baseline value:
 * passes while measured >= baseline * (1 - tolerance). The message
 * names the metric, the floor, and both values either way.
 */
GateResult gateRatio(const std::string &metric, double measured,
                     double baseline, double tolerance);

/** Most measurement rounds gateBestOf takes, the first one included. */
inline constexpr int kGateRounds = 5;

/**
 * gateRatio over the best of up to kGateRounds measurements. @p first
 * is round 1's value; while the best value so far misses the floor,
 * @p remeasure is called for another round. Contention on a shared
 * host only ever lowers a measured rate ratio, so the retry sheds
 * noise while a genuine regression depresses every round and still
 * fails. After a re-measure the message lists every round's value.
 */
GateResult gateBestOf(const std::string &metric, double first,
                      const std::function<double()> &remeasure,
                      double baseline, double tolerance);

/**
 * Gate a determinism digest against the committed one: passes only on
 * exact string equality. The message names the metric and shows both
 * digests on mismatch.
 */
GateResult gateDigest(const std::string &metric,
                      const std::string &measured,
                      const std::string &committed);

/**
 * First number following `"key":` in @p text, or nullopt if the key
 * is absent or not followed by a number.
 */
std::optional<double> findJsonNumber(const std::string &text,
                                     const std::string &key);

/**
 * First string literal following `"key":` in @p text, or nullopt if
 * the key is absent or not followed by a quoted string. No escape
 * handling: the benches only write plain identifiers.
 */
std::optional<std::string> findJsonString(const std::string &text,
                                          const std::string &key);

} // namespace iceb::harness

#endif // ICEB_HARNESS_BASELINE_GATE_HH
