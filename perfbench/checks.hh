/**
 * @file
 * Correctness checks of one simulated pass, computed by the benchmark
 * itself: against the input rows it generated, against identities the
 * simulator's accounting must satisfy, and against properties the
 * IceBreaker method must have. None of them compares against a saved
 * copy of earlier output.
 *
 * Everything a check needs is captured into a PassRecord while the
 * pass runs (plain copies, no verdicts), and evaluated afterwards,
 * outside the timed region. The self-test doctors a PassRecord and
 * confirms the matching check fires.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "core/icebreaker.hh"
#include "sim/metrics.hh"

namespace perfbench
{

using iceb::FunctionId;
using iceb::IntervalIndex;
using iceb::MemoryMb;
using iceb::TimeMs;

/**
 * Shadow-pool sentinel lanes: series that are exactly constant,
 * linear and quadratic in the interval index. The FIP's trend fit is
 * quadratic, so its forecast must continue each of them.
 */
struct Sentinel
{
    double c0 = 0.0;
    double c1 = 0.0;
    double c2 = 0.0;

    double at(double t) const { return c0 + c1 * t + c2 * t * t; }
};

inline constexpr std::array<Sentinel, 3> kSentinels = {{
    {3.0, 0.0, 0.0},
    {2.0, 0.25, 0.0},
    {1.5, 0.125, 0.001},
}};

/** Largest |forecast - polynomial| allowed, relative to max(1, |p|). */
inline constexpr double kSentinelTolerance = 1e-9;

/** One warm-up request the scheme issued for a sampled function. */
struct WarmupCall
{
    IntervalIndex interval = 0;
    FunctionId fn = 0;
    std::size_t count = 0;
};

/** Tier memory seen through the WarmupInterface after a decision. */
struct TierMemory
{
    std::array<MemoryMb, iceb::kNumTiers> vacant{};
    std::array<MemoryMb, iceb::kNumTiers> total{};
};

/** What one pass captured for the checks. */
struct PassRecord
{
    std::size_t num_functions = 0;
    std::size_t num_intervals = 0;

    /** delivered[iv * n + fn]: counts pushed to onIntervalObserved. */
    std::vector<std::uint32_t> delivered;
    /** Which intervals were delivered (the last one never is). */
    std::vector<std::uint8_t> was_delivered;

    /** Tier memory after each interval's decision. */
    std::vector<TierMemory> memory;

    /** Sampled functions and their shadow forecast per interval:
     * shadow_pred[iv * samples + s]. */
    std::vector<FunctionId> sample_fns;
    std::vector<double> shadow_pred;
    std::vector<WarmupCall> warmups;

    /** Sentinel forecasts per interval: sentinel_pred[iv * 3 + k]. */
    std::vector<double> sentinel_pred;

    iceb::sim::SimulationMetrics metrics;
    TimeMs overhead_ms = 0;
};

/** Per-interval counts the benchmark derived from its own input. */
struct Expected
{
    std::size_t num_functions = 0;
    std::size_t num_intervals = 0;
    /** rows[iv * n + fn]. */
    std::vector<std::uint32_t> rows;
    std::uint64_t total = 0;
};

/** Outcome of evaluating one PassRecord. */
struct Verdict
{
    /** Per-interval failure flag (one operation = one interval). */
    std::vector<std::uint8_t> interval_failed;
    /** Descriptions of violated per-interval checks (first few). */
    std::vector<std::string> interval_notes;
    /** Violated whole-run checks; any entry fails the run. */
    std::vector<std::string> run_failures;
    /** Largest sentinel deviation observed, in units of max(1,|p|). */
    double sentinel_max_error = 0.0;

    std::size_t failedIntervals() const;
};

/** Evaluate every check against @p rec for a scheme configured by
 * @p cfg. */
Verdict evaluate(const PassRecord &rec, const Expected &exp,
                 const iceb::core::IceBreakerConfig &cfg);

/** Exact equality of every simulated output (worker-count check). */
bool sameOutcomes(const iceb::sim::SimulationMetrics &a,
                  const iceb::sim::SimulationMetrics &b);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
