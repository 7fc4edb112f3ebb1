/**
 * @file
 * Measurement helpers shared by the self-gating benches (bench_fip,
 * bench_sim, bench_scale): a process-wide allocation counter, the
 * SimulationMetrics digest their byte-identity gates compare, and the
 * baseline-file reader.
 *
 * bench_probe.cc replaces the global operator new/delete to count
 * allocations, so it is linked only into those three binaries, never
 * into iceb_bench_util (which every figure bench links).
 */

#ifndef ICEB_BENCH_BENCH_PROBE_HH
#define ICEB_BENCH_BENCH_PROBE_HH

#include <cstdint>
#include <string>

#include "sim/metrics.hh"

namespace bench
{

/**
 * operator new calls made by the whole process so far. Take deltas
 * around single-threaded measurement regions only.
 */
long long allocationCount();

/** FNV-1a digest of every SimulationMetrics result field. */
std::uint64_t hashMetrics(const iceb::sim::SimulationMetrics &m);

/** A digest as "0x" plus 16 lower-case hex digits. */
std::string digestHex(std::uint64_t digest);

/**
 * Whole baseline file as a string; prints "<program>: cannot read
 * baseline <path>" and exits 1 if it cannot be read.
 */
std::string readBaselineFile(const char *program, const std::string &path);

} // namespace bench

#endif // ICEB_BENCH_BENCH_PROBE_HH
