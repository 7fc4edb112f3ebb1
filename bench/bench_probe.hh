/**
 * @file
 * Measurement helpers shared by the self-gating benches (bench_fip,
 * bench_sim, bench_scale): a process-wide allocation counter, the
 * best-of-N wall timer, the FNV-1a digests their byte-identity gates
 * compare, and the baseline-file reader.
 *
 * bench_probe.cc replaces the global operator new/delete to count
 * allocations, so it is linked only into those three binaries, never
 * into iceb_bench_util (which every figure bench links).
 */

#ifndef ICEB_BENCH_BENCH_PROBE_HH
#define ICEB_BENCH_BENCH_PROBE_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "sim/metrics.hh"

namespace bench
{

/**
 * operator new calls made by the whole process so far. Take deltas
 * around single-threaded measurement regions only.
 */
long long allocationCount();

/** Wall milliseconds elapsed since @p start. */
inline double
elapsedMs(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Best-of-N wall time of @p run_fn in milliseconds: contention on a
 * shared machine only adds time, so the minimum is the observation
 * closest to the true cost, and a ratio of two minima (what the
 * baseline gates compare) is far more stable than one of medians.
 */
template <typename RunFn>
double
bestOfMs(RunFn &&run_fn, std::size_t repeats)
{
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < repeats; ++r) {
        const auto start = std::chrono::steady_clock::now();
        run_fn();
        best = std::min(best, elapsedMs(start));
    }
    return best;
}

/** FNV-1a digest of every SimulationMetrics result field. */
std::uint64_t hashMetrics(const iceb::sim::SimulationMetrics &m);

/** FNV-1a digest of the bytes of @p text, starting from @p basis. */
std::uint64_t hashText(std::string_view text, std::uint64_t basis);

/** A digest as "0x" plus 16 lower-case hex digits. */
std::string digestHex(std::uint64_t digest);

/**
 * Whole baseline file as a string; prints "<program>: cannot read
 * baseline <path>" and exits 1 if it cannot be read.
 */
std::string readBaselineFile(const char *program, const std::string &path);

} // namespace bench

#endif // ICEB_BENCH_BENCH_PROBE_HH
