#include "checks.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench
{

namespace
{

constexpr std::size_t kMaxNotes = 8;

void
failInterval(Verdict &v, std::size_t iv, const std::string &what)
{
    if (!v.interval_failed[iv] && v.interval_notes.size() < kMaxNotes)
        v.interval_notes.push_back("interval " + std::to_string(iv) +
                                   ": " + what);
    v.interval_failed[iv] = 1;
}

bool
closeTo(double a, double b)
{
    return std::fabs(a - b) <=
        1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

void
checkOutcomes(const PassRecord &rec, const Expected &exp, Verdict &v)
{
    const iceb::sim::SimulationMetrics &m = rec.metrics;
    if (m.invocations != exp.total)
        v.run_failures.push_back(
            "invocations " + std::to_string(m.invocations) +
            " != input rows sum " + std::to_string(exp.total));
    if (m.warm_starts + m.cold_starts != m.invocations)
        v.run_failures.push_back("warm + cold != invocations");
    if (m.cold_no_container + m.cold_all_busy + m.cold_setup_attach !=
        m.cold_starts)
        v.run_failures.push_back("cold causes do not sum to cold starts");
    if (!closeTo(m.sum_service_ms, m.sum_wait_ms + m.sum_cold_ms +
                     m.sum_exec_ms + m.sum_overhead_ms))
        v.run_failures.push_back(
            "sum_service != wait + cold + exec + overhead");
    if (m.service_times_ms.size() != m.invocations)
        v.run_failures.push_back("service sample count != invocations");
    for (float s : m.service_times_ms) {
        if (s < static_cast<float>(rec.overhead_ms)) {
            v.run_failures.push_back(
                "a service time is below the scheme's overheadMs()");
            break;
        }
    }
}

} // namespace

std::size_t
Verdict::failedIntervals() const
{
    return static_cast<std::size_t>(
        std::count(interval_failed.begin(), interval_failed.end(), 1));
}

Verdict
evaluate(const PassRecord &rec, const Expected &exp,
         const iceb::core::IceBreakerConfig &cfg)
{
    Verdict v;
    const std::size_t n = rec.num_functions;
    const std::size_t ivs = rec.num_intervals;
    v.interval_failed.assign(ivs, 0);
    if (n != exp.num_functions || ivs != exp.num_intervals ||
        rec.delivered.size() != n * ivs ||
        rec.was_delivered.size() != ivs || rec.memory.size() != ivs) {
        v.run_failures.push_back("pass geometry differs from input");
        return v;
    }

    // Arrival counts delivered to the scheme == the input rows. Every
    // interval but the last is closed (and so delivered) in-run.
    for (std::size_t iv = 0; iv < ivs; ++iv) {
        if (!rec.was_delivered[iv]) {
            if (iv + 1 < ivs)
                failInterval(v, iv, "arrival counts never delivered");
            continue;
        }
        if (std::memcmp(&rec.delivered[iv * n], &exp.rows[iv * n],
                        n * sizeof(std::uint32_t)) != 0)
            failInterval(v, iv, "delivered arrival counts != input rows");
    }

    // Warm memory on each tier stays within that tier's total.
    for (std::size_t iv = 0; iv < ivs; ++iv) {
        const TierMemory &mem = rec.memory[iv];
        for (int t = 0; t < iceb::kNumTiers; ++t) {
            if (mem.vacant[t] < 0 || mem.vacant[t] > mem.total[t])
                failInterval(v, iv, "tier memory exceeds its total");
        }
    }

    // Every warm-up of a sampled function is backed by a shadow
    // forecast above the deadband and respects the concurrency cap
    // (max observed so far, from the benchmark's own input rows).
    const std::size_t samples = rec.sample_fns.size();
    std::vector<std::size_t> sample_of(n, samples);
    for (std::size_t s = 0; s < samples; ++s)
        sample_of[rec.sample_fns[s]] = s;
    for (const WarmupCall &call : rec.warmups) {
        const std::size_t iv = call.interval;
        if (iv >= ivs || call.fn >= n || sample_of[call.fn] == samples) {
            v.run_failures.push_back("warm-up record out of range");
            continue;
        }
        const double pred = rec.shadow_pred[iv * samples + sample_of[call.fn]];
        if (!(pred > cfg.count_deadband))
            failInterval(v, iv, "warm-up of fn " + std::to_string(call.fn) +
                                    " with shadow forecast " +
                                    std::to_string(pred) +
                                    " <= deadband");
        std::uint32_t max_obs = 0;
        for (std::size_t j = 0; j < iv; ++j)
            max_obs = std::max(max_obs, exp.rows[j * n + call.fn]);
        const auto cap = static_cast<std::size_t>(
            cfg.concurrency_cap_factor *
                static_cast<double>(std::max<std::uint32_t>(1, max_obs)) +
            1.0);
        if (call.count > cap)
            failInterval(v, iv, "warm-up of fn " + std::to_string(call.fn) +
                                    " requests " +
                                    std::to_string(call.count) +
                                    " > cap " + std::to_string(cap));
    }

    // Sentinels continue their polynomial once the window holds at
    // least min_samples points (below that the FIP predicts the mean).
    if (rec.sentinel_pred.size() != ivs * kSentinels.size()) {
        v.run_failures.push_back("sentinel forecasts missing");
    } else {
        for (std::size_t iv = cfg.fip.min_samples; iv < ivs; ++iv) {
            for (std::size_t k = 0; k < kSentinels.size(); ++k) {
                const double want =
                    kSentinels[k].at(static_cast<double>(iv));
                const double got = rec.sentinel_pred[iv * kSentinels.size() + k];
                const double err =
                    std::fabs(got - want) / std::max(1.0, std::fabs(want));
                v.sentinel_max_error = std::max(v.sentinel_max_error, err);
                if (!(err <= kSentinelTolerance))
                    failInterval(v, iv,
                                 "sentinel " + std::to_string(k) +
                                     " forecast " + std::to_string(got) +
                                     " != " + std::to_string(want));
            }
        }
    }

    checkOutcomes(rec, exp, v);
    return v;
}

bool
sameOutcomes(const iceb::sim::SimulationMetrics &a,
             const iceb::sim::SimulationMetrics &b)
{
    if (a.invocations != b.invocations || a.cold_starts != b.cold_starts ||
        a.warm_starts != b.warm_starts ||
        a.cold_no_container != b.cold_no_container ||
        a.cold_all_busy != b.cold_all_busy ||
        a.cold_setup_attach != b.cold_setup_attach ||
        a.sum_service_ms != b.sum_service_ms ||
        a.sum_wait_ms != b.sum_wait_ms || a.sum_cold_ms != b.sum_cold_ms ||
        a.sum_exec_ms != b.sum_exec_ms ||
        a.sum_overhead_ms != b.sum_overhead_ms ||
        a.service_times_ms != b.service_times_ms ||
        a.per_function.size() != b.per_function.size())
        return false;
    for (int t = 0; t < iceb::kNumTiers; ++t) {
        if (a.keep_alive[t].successful_cost !=
                b.keep_alive[t].successful_cost ||
            a.keep_alive[t].wasteful_cost != b.keep_alive[t].wasteful_cost ||
            a.keep_alive[t].wasted_mb_ms != b.keep_alive[t].wasted_mb_ms)
            return false;
    }
    for (std::size_t fn = 0; fn < a.per_function.size(); ++fn) {
        const iceb::sim::FunctionMetrics &x = a.per_function[fn];
        const iceb::sim::FunctionMetrics &y = b.per_function[fn];
        if (x.invocations != y.invocations ||
            x.cold_starts != y.cold_starts ||
            x.sum_service_ms != y.sum_service_ms ||
            x.keep_alive_cost != y.keep_alive_cost)
            return false;
    }
    return true;
}

} // namespace perfbench
