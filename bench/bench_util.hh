/**
 * @file
 * Shared helpers for the bench binaries: the one flag parser every
 * bench's command line goes through (parseFlags), standard workload
 * geometries (kept small enough that the whole bench suite runs in
 * minutes), the common figure-bench CLI (--threads / --seeds /
 * --repeats), and runner-driven scheme-comparison helpers.
 *
 * All comparison output is byte-identical across --threads values:
 * the ExperimentRunner's determinism contract fixes every run's RNG
 * stream from (base seed, replicate index), results return in grid
 * order, and nothing thread-count-dependent is printed.
 */

#ifndef ICEB_BENCH_BENCH_UTIL_HH
#define ICEB_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.hh"
#include "harness/experiment.hh"
#include "harness/observe.hh"
#include "harness/report.hh"
#include "harness/runner.hh"

namespace bench
{

/**
 * One flag of a bench's command line, for parseFlags. Build it with
 * switchFlag, textFlag or numberFlag.
 */
struct Flag
{
    std::string name; //!< e.g. "--functions"
    std::string meta; //!< value placeholder ("N", "PATH"); "" = switch
    std::string help; //!< usage text; '\n' continues on a new line
    bool numeric = false;
    std::uint64_t min = 0; //!< smallest accepted number
    /** Stores the flag: its text, or its number when numeric. */
    std::function<void(const char *text, std::uint64_t number)> set;
};

/** A flag without a value that sets @p target to true. */
Flag switchFlag(std::string name, std::string help, bool &target);

/** A flag whose value text is stored in @p target. */
Flag textFlag(std::string name, std::string meta, std::string help,
              std::string &target);

/**
 * A flag whose value is an unsigned integer (decimal, 0x-hex or
 * 0-octal, no sign) of at least @p min, stored in @p target.
 */
template <typename T>
Flag
numberFlag(std::string name, std::string meta, std::string help,
           T &target, std::uint64_t min = 0)
{
    return Flag{std::move(name), std::move(meta), std::move(help), true,
                min, [&target](const char *, std::uint64_t number) {
                    target = static_cast<T>(number);
                }};
}

/**
 * Parse argv against @p flags. --help (or -h) prints a usage message
 * built from the flags, then @p note, to stdout and exits 0. An
 * unknown flag, a missing value, a value that is not a plain unsigned
 * integer, or one below the flag's minimum prints an error that names
 * the flag and then the usage to stderr, and exits 1.
 */
void parseFlags(int argc, char **argv, const std::vector<Flag> &flags,
                const std::string &note = "");

/**
 * The standard evaluation workload: Azure-like synthetic trace with
 * matched ServerlessBench-style profiles. 420 functions x 12 hours by
 * default -- enough functions that keep-alive demand oversubscribes
 * the default cluster's memory, the regime the paper's trace replay
 * operates in (a scheme must *choose* what stays warm).
 */
iceb::harness::Workload standardWorkload(std::size_t num_functions = 420,
                                         std::size_t num_intervals = 720);

/** Smaller geometry for the sweep benches (Figs. 12 and 13). */
iceb::harness::Workload sweepWorkload();

/**
 * Common bench CLI options.
 *
 *   --threads N       worker threads (0 = hardware concurrency, default)
 *   --shards N        intra-run shard workers (0 = classic engine,
 *                     default; sharded results are identical for any
 *                     N >= 1 but differ from the classic engine)
 *   --max-cells M     ceiling for the sharded engine's auto cell
 *                     count (0 = built-in default of 16; part of the
 *                     partition model, so results depend on it)
 *   --seeds S         base seed for the run's derived RNG streams
 *   --repeats R       seed replicates per cell (mean +- stddev columns)
 *   --smoke           shrunken workload for CI smoke runs
 *   --trace-out F     write a Chrome trace_event JSON of every run
 *   --probe-out F     write interval/forecast probe series as CSV
 *   --hist-out F      write latency histograms as tidy CSV
 *   --manifest-out F  write one JSON manifest line per run
 */
struct BenchOptions
{
    std::size_t threads = 0;
    std::size_t shards = 0;
    std::size_t max_cells = 0;
    std::size_t repeats = 1;
    std::uint64_t base_seed = iceb::harness::kDefaultBaseSeed;
    bool smoke = false;
    iceb::harness::ObservationOptions observation;
};

/** The --smoke workload geometry (shared by the figure benches). */
iceb::harness::Workload smokeWorkload();

/** Parse the common flags (parseFlags rules for --help and errors). */
BenchOptions parseBenchOptions(int argc, char **argv);

/** Convert BenchOptions to the harness runner options. */
iceb::harness::RunnerOptions runnerOptions(const BenchOptions &options);

/**
 * The five-scheme comparison through the parallel runner: every
 * scheme runs options.repeats replicates, aggregated per scheme.
 */
std::vector<iceb::harness::SchemeSummary>
compareSchemes(const iceb::harness::Workload &workload,
               const iceb::sim::ClusterConfig &cluster,
               const BenchOptions &options);

/**
 * Five-scheme run returning one pooled SimulationMetrics per scheme
 * (replicates merged), for benches that analyse per-function or
 * per-sample detail downstream. Ordered as allSchemes().
 */
std::vector<iceb::harness::SchemeResult>
runSchemesParallel(const iceb::harness::Workload &workload,
                   const iceb::sim::ClusterConfig &cluster,
                   const BenchOptions &options);

/**
 * Print the Fig. 6-style comparison: keep-alive cost and mean service
 * time of every scheme as absolute values and improvements over the
 * first scheme (the OpenWhisk baseline). With more than one replicate
 * the absolute columns read "mean +-stddev".
 */
void printSchemeComparison(
    const std::string &title,
    const std::vector<iceb::harness::SchemeSummary> &results);

/** One column of a grid comparison: registry key + display name. */
struct ComparisonScheme
{
    std::string key;     //!< PolicyRegistry name
    std::string display; //!< table row label
};

/** The five paper schemes as ComparisonSchemes (baseline first). */
std::vector<ComparisonScheme> paperSchemes();

/**
 * The shared sweep/ablation skeleton (Figs. 12, 13, ablations): run
 * schemes[0..n) on every sweep point through one runner invocation
 * and print, per point, each non-baseline scheme's keep-alive and
 * service-time improvement over schemes[0], paired per replicate and
 * reported mean +- stddev.
 *
 * @param label_header Header of the sweep-point column; empty hides
 *                     the column (single-point grids).
 * @param show_warm    Append the warm-start-fraction column.
 */
void runGridComparison(const std::string &title,
                       const std::string &label_header,
                       const iceb::harness::Workload &workload,
                       const std::vector<iceb::harness::SweepPoint> &points,
                       const std::vector<ComparisonScheme> &schemes,
                       const BenchOptions &options, bool show_warm = true);

} // namespace bench

#endif // ICEB_BENCH_BENCH_UTIL_HH
