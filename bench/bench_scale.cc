/**
 * @file
 * Out-of-core ingestion benchmark: the Azure-scale streaming pipeline
 * (chunked CSV reader -> external-memory arrival generator ->
 * TraceSource windows) against the materializing path on the same
 * workload.
 *
 * Three quantities matter at 100k+ functions:
 *
 *  * ingest rate -- rows/sec through the chunked CSV parser and the
 *    synthetic row stream (spill-sorting included);
 *  * end-to-end simulation rate -- events/sec of a run fed by the
 *    streamed source vs one fed by a materialized trace;
 *  * peak RSS -- the streamed phase must stay bounded by its chunk
 *    and read-buffer sizes while the materializing phase grows
 *    linearly with the horizon (VmHWM is reset between phases via
 *    /proc/self/clear_refs, so each phase owns its own peak).
 *
 * The bench always self-gates on correctness: the streamed run's
 * metrics must be byte-identical to the materialized run's, in the
 * classic engine AND the sharded engine (--shards workers), and a
 * hinted streamed re-run must perform zero allocations (the merge
 * loop's zero-steady-state-allocation contract, measured end to end).
 * In --smoke mode the chunk size is forced tiny so the external
 * spill/merge path is exercised and must still agree.
 *
 * Flags (parsed by bench_util's parseFlags, like every bench: a bad
 * or non-positive value exits 1 with a usage message naming the flag):
 *   --functions N / --intervals N   workload size (default 100000 x
 *                                   1440: one synthetic Azure day)
 *   --repeats R                     timed runs per engine (default 3)
 *   --shards N                      workers for the sharded rows
 *                                   (default 4)
 *   --json PATH                     output (default BENCH_scale.json,
 *                                   or none with --baseline; refuses
 *                                   the --baseline file itself)
 *   --smoke                         small workload + forced spill;
 *                                   correctness gates only
 *   --baseline PATH                 gate against the committed
 *                                   BENCH_scale.json: [telemetry
 *                                   overhead] -- the histograms-on/off
 *                                   events/s ratio of the streamed
 *                                   core must stay within 2% of 1.0
 *                                   (harness::gateBestOf: best of up
 *                                   to 5 rounds, measured in the
 *                                   streamed phase);
 *                                   [metrics digest]
 *                                   -- the fixed-geometry streamed
 *                                   sharded digest must match exactly
 *                                   (machine-independent); [stream
 *                                   rate ratio] -- streamed events/sec
 *                                   over materialized events/sec,
 *                                   same process and machine so
 *                                   runner speed cancels, must stay
 *                                   within 10% of the committed
 *                                   value (best of up to 5 rounds).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_probe.hh"
#include "bench/bench_util.hh"
#include "core/icebreaker.hh"
#include "harness/baseline_gate.hh"
#include "obs/recorder.hh"
#include "policies/openwhisk_policy.hh"
#include "sim/cluster_config.hh"
#include "sim/sharded_simulator.hh"
#include "sim/simulator.hh"
#include "sim/trace_source.hh"
#include "trace/azure_loader.hh"
#include "trace/stream_reader.hh"
#include "trace/synthetic.hh"
#include "workload/benchmark_suite.hh"
#include "workload/profile_matcher.hh"

namespace
{

using namespace iceb;
using bench::digestHex;
using bench::hashMetrics;
using Clock = std::chrono::steady_clock;

struct BenchConfig
{
    std::size_t num_functions = 100'000;
    std::size_t num_intervals = 1440; //!< one day of 1-minute slots
    std::size_t repeats = 3;
    std::size_t shards = 4;
    std::string json_path;
    std::string baseline_path;
    bool smoke = false;
};

// Fixed geometry for the machine-independent digest row: its digest
// must stay comparable across every invocation that ever wrote a
// baseline file, independent of --smoke and --functions.
constexpr std::size_t kFixedFunctions = 1024;
constexpr std::size_t kFixedIntervals = 120;

// CSV ingest is timed on a capped subset: the CSV text itself is
// generated in memory, and 100k rows of 1440 columns would spend the
// bench's whole budget on serialization rather than parsing.
constexpr std::size_t kMaxCsvRows = 4096;

// --------------------------------------------------------------- peak RSS

/** VmHWM (peak resident set) of this process in KiB, or 0. */
std::size_t
peakRssKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return static_cast<std::size_t>(
                std::strtoull(line.c_str() + 6, nullptr, 10));
    }
    return 0;
}

/**
 * Reset the kernel's peak-RSS watermark so the next peakRssKb() read
 * covers only the work done since. Returns false where unsupported
 * (non-Linux); peaks then accumulate monotonically across phases.
 */
bool
resetPeakRss()
{
    std::FILE *f = std::fopen("/proc/self/clear_refs", "w");
    if (f == nullptr)
        return false;
    const bool ok = std::fputs("5", f) >= 0;
    std::fclose(f);
    return ok;
}

// ------------------------------------------------------------- workload

trace::SyntheticConfig
scaleWorkloadConfig(const BenchConfig &cfg)
{
    return trace::azureScaleConfig(cfg.num_functions, cfg.num_intervals);
}

/**
 * Cluster sized to the function count: the paper's default
 * composition, scaled from its 400-function figure workloads so
 * per-function pressure stays comparable at any --functions.
 */
sim::ClusterConfig
scaleCluster(std::size_t num_functions)
{
    sim::ClusterConfig cluster = sim::defaultHeterogeneousCluster();
    const std::size_t scale = std::max<std::size_t>(
        1, (num_functions + 399) / 400);
    for (int t = 0; t < kNumTiers; ++t)
        cluster.tiers[static_cast<std::size_t>(t)].server_count *= scale;
    return cluster;
}

// ------------------------------------------------------------ phase rows

struct IngestRow
{
    double wall_ms = 0.0;
    double rows_per_sec = 0.0;
};

struct CsvRow
{
    std::size_t rows = 0;
    std::size_t minute_cells = 0;
    double wall_ms = 0.0;
    double rows_per_sec = 0.0;
    double cells_per_sec = 0.0;
};

struct RunRow
{
    double events_per_sec = 0.0;
    std::size_t peak_rss_kb = 0;
};

struct FixedRow
{
    std::size_t workers = 0;
    std::string metrics_digest;
};

/** The telemetry-overhead row: histograms on vs off, streamed core. */
struct TelemetryRow
{
    double events_per_sec_off = 0.0;
    double events_per_sec_on = 0.0;
    double overhead_ratio = 0.0; //!< on / off (1.0 = free)
};

// ---------------------------------------------------------------- phases

/**
 * CSV ingest rate: serialize a capped subset of the workload to the
 * Azure CSV schema in memory, then time the chunked reader draining
 * it row by row.
 */
CsvRow
runCsvPhase(const BenchConfig &cfg)
{
    trace::SyntheticConfig sub = scaleWorkloadConfig(cfg);
    sub.num_functions = std::min(cfg.num_functions, kMaxCsvRows);
    const trace::Trace tr =
        trace::SyntheticTraceGenerator(sub).generate();
    std::ostringstream csv;
    trace::writeAzureCsv(csv, tr);
    const std::string text = csv.str();

    CsvRow row;
    row.rows = tr.numFunctions();
    row.minute_cells = tr.numFunctions() * tr.numIntervals();

    std::istringstream in(text);
    const auto start = Clock::now();
    trace::AzureCsvRowStream stream(in);
    trace::FunctionRow fn_row;
    std::size_t rows = 0;
    while (stream.next(fn_row))
        ++rows;
    row.wall_ms = bench::elapsedMs(start);

    if (rows != row.rows) {
        std::fprintf(stderr,
                     "FAIL: CSV stream produced %zu rows, wrote %zu\n",
                     rows, row.rows);
        std::exit(1);
    }
    row.rows_per_sec =
        static_cast<double>(row.rows) / (row.wall_ms / 1000.0);
    row.cells_per_sec =
        static_cast<double>(row.minute_cells) / (row.wall_ms / 1000.0);
    return row;
}

/** The same workload both ways at once, for re-measure rounds. */
struct BothPipelines
{
    trace::SyntheticRowStream rows;
    sim::StreamingWorkloadSource source;
    std::vector<workload::FunctionProfile> stream_profiles;
    trace::Trace tr;
    std::vector<workload::FunctionProfile> trace_profiles;

    BothPipelines(const trace::SyntheticConfig &config,
                  const sim::StreamingSourceOptions &options,
                  const workload::ProfileMatcher &matcher)
        : rows(config), source(rows, options),
          stream_profiles(sim::matchStreamedProfiles(source, matcher)),
          tr(trace::SyntheticTraceGenerator(config).generate()),
          trace_profiles(matcher.profilesFor(tr))
    {
    }
};

sim::SimCapacityHints
hintsFrom(const sim::SimulationMetrics &m)
{
    sim::SimCapacityHints hints;
    hints.containers = m.event_loop.peak_live_containers;
    hints.events = m.event_loop.peak_pending_events;
    hints.events_per_bucket = m.event_loop.peak_bucket_events;
    hints.evict_entries = m.event_loop.peak_evict_entries;
    hints.wait_queue = m.event_loop.peak_wait_queue;
    return hints;
}

// ----------------------------------------------------------------- json

void
writeJson(const BenchConfig &cfg, std::uint64_t arrivals,
          std::uint64_t invocations, std::uint64_t events,
          const CsvRow &csv, const IngestRow &stream_ingest,
          std::size_t spill_runs, std::uint64_t spilled_bytes,
          const IngestRow &materialize, const RunRow &streamed,
          const RunRow &materialized, bool agree, bool sharded_agree,
          long long hinted_allocs, const FixedRow &fixed,
          const TelemetryRow &telemetry)
{
    const double rss_ratio = streamed.peak_rss_kb > 0
        ? static_cast<double>(materialized.peak_rss_kb) /
            static_cast<double>(streamed.peak_rss_kb)
        : 0.0;
    std::ofstream out(cfg.json_path);
    out << "{\n";
    out << "  \"bench\": \"scale\",\n";
    out << "  \"workload\": {\"functions\": " << cfg.num_functions
        << ", \"intervals\": " << cfg.num_intervals
        << ", \"arrivals\": " << arrivals
        << ", \"invocations\": " << invocations
        << ", \"events\": " << events << "},\n";
    out << "  \"repeats\": " << cfg.repeats << ",\n";
    out << "  \"csv_ingest\": {\"rows\": " << csv.rows
        << ", \"minute_cells\": " << csv.minute_cells
        << ", \"wall_ms\": " << csv.wall_ms
        << ", \"rows_per_sec\": " << csv.rows_per_sec
        << ", \"cells_per_sec\": " << csv.cells_per_sec << "},\n";
    out << "  \"stream_ingest\": {\"wall_ms\": " << stream_ingest.wall_ms
        << ", \"rows_per_sec\": " << stream_ingest.rows_per_sec
        << ", \"spill_runs\": " << spill_runs
        << ", \"spilled_mb\": "
        << static_cast<double>(spilled_bytes) / (1024.0 * 1024.0)
        << "},\n";
    out << "  \"materialize\": {\"wall_ms\": " << materialize.wall_ms
        << ", \"rows_per_sec\": " << materialize.rows_per_sec << "},\n";
    out << "  \"streamed\": {\"events_per_sec\": "
        << streamed.events_per_sec
        << ", \"peak_rss_mb\": "
        << static_cast<double>(streamed.peak_rss_kb) / 1024.0 << "},\n";
    out << "  \"materialized\": {\"events_per_sec\": "
        << materialized.events_per_sec
        << ", \"peak_rss_mb\": "
        << static_cast<double>(materialized.peak_rss_kb) / 1024.0
        << "},\n";
    out << "  \"stream_rate_ratio\": "
        << streamed.events_per_sec / materialized.events_per_sec << ",\n";
    out << "  \"rss_ratio\": " << rss_ratio << ",\n";
    out << "  \"agreement\": " << (agree ? "true" : "false") << ",\n";
    out << "  \"sharded_agreement\": "
        << (sharded_agree ? "true" : "false") << ",\n";
    out << "  \"allocations\": {\"hinted_run\": " << hinted_allocs
        << "},\n";
    out << "  \"telemetry\": {\"events_per_sec_off\": "
        << telemetry.events_per_sec_off
        << ", \"events_per_sec_on\": " << telemetry.events_per_sec_on
        << ", \"overhead_ratio\": " << telemetry.overhead_ratio
        << "},\n";
    out << "  \"fixed\": {\"functions\": " << kFixedFunctions
        << ", \"intervals\": " << kFixedIntervals
        << ", \"scheme\": \"icebreaker\""
        << ", \"workers\": " << fixed.workers
        << ", \"metrics_digest\": \"" << fixed.metrics_digest << "\"}\n";
    out << "}\n";
}

BenchConfig
parseArgs(int argc, char **argv)
{
    BenchConfig cfg;
    bench::parseFlags(
        argc, argv,
        {bench::numberFlag("--functions", "N",
                           "workload functions (default 100000)",
                           cfg.num_functions, 1),
         bench::numberFlag("--intervals", "N",
                           "workload intervals (default 1440)",
                           cfg.num_intervals, 1),
         bench::numberFlag("--repeats", "R",
                           "timed runs per engine (default 3)",
                           cfg.repeats, 1),
         bench::numberFlag("--shards", "N",
                           "workers for the sharded rows (default 4)",
                           cfg.shards, 1),
         bench::textFlag("--json", "PATH",
                         "output path (default BENCH_scale.json; none "
                         "with --baseline)",
                         cfg.json_path),
         bench::switchFlag("--smoke",
                           "small workload + forced spill; correctness "
                           "gates only",
                           cfg.smoke),
         bench::textFlag("--baseline", "PATH",
                         "gate against a committed BENCH_scale.json",
                         cfg.baseline_path)});
    cfg.json_path = bench::jsonOutputPath("bench_scale", cfg.json_path,
                                          cfg.baseline_path,
                                          "BENCH_scale.json");
    if (cfg.smoke) {
        cfg.num_functions = 768;
        cfg.num_intervals = 96;
        cfg.repeats = 3;
    }
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchConfig cfg = parseArgs(argc, argv);
    const trace::SyntheticConfig workload_config =
        scaleWorkloadConfig(cfg);
    const sim::ClusterConfig cluster = scaleCluster(cfg.num_functions);
    const workload::BenchmarkSuite suite =
        workload::BenchmarkSuite::sebs();
    const workload::ProfileMatcher matcher(suite);
    const bool rss_resets = resetPeakRss();
    if (!rss_resets)
        std::printf("note: peak-RSS reset unsupported; phase peaks "
                    "accumulate\n");

    // ------------------------------------------------- CSV ingest rate
    const CsvRow csv = runCsvPhase(cfg);
    std::printf("csv ingest: %zu rows (%zu cells) in %.1f ms -> "
                "%.0f rows/sec, %.2fM cells/sec\n",
                csv.rows, csv.minute_cells, csv.wall_ms,
                csv.rows_per_sec, csv.cells_per_sec / 1e6);

    // ------------------------------------------------- streamed phase
    // Runs FIRST so its peak RSS cannot inherit pages the
    // materializing phase touched.
    (void)resetPeakRss();
    sim::StreamingSourceOptions stream_options;
    if (cfg.smoke) {
        // Force the external spill/merge path even on a tiny horizon:
        // the smoke gate must exercise the same code CI ships.
        stream_options.chunk_records = 512;
        stream_options.read_records = 128;
    }

    IngestRow stream_ingest;
    RunRow streamed;
    std::uint64_t arrivals = 0;
    std::uint64_t invocations = 0;
    std::uint64_t events = 0;
    std::uint64_t digest_streamed = 0;
    std::uint64_t digest_streamed_sharded = 0;
    std::size_t spill_runs = 0;
    std::uint64_t spilled_bytes = 0;
    long long hinted_allocs = 0;
    double streamed_best_ms = 0.0;
    sim::SimCapacityHints hints;
    TelemetryRow telemetry;
    harness::GateResult telemetry_gate;
    {
        const auto ingest_start = Clock::now();
        trace::SyntheticRowStream rows(workload_config);
        sim::StreamingWorkloadSource source(rows, stream_options);
        stream_ingest.wall_ms = bench::elapsedMs(ingest_start);
        stream_ingest.rows_per_sec =
            static_cast<double>(cfg.num_functions) /
            (stream_ingest.wall_ms / 1000.0);
        arrivals = source.totalArrivals();
        spill_runs = source.spillRuns();
        spilled_bytes = source.spilledBytes();
        std::printf("stream ingest: %zu fns, %llu arrivals in %.1f ms "
                    "-> %.0f rows/sec (%zu spill runs, %.1f MB "
                    "spilled)\n",
                    cfg.num_functions,
                    static_cast<unsigned long long>(arrivals),
                    stream_ingest.wall_ms, stream_ingest.rows_per_sec,
                    spill_runs,
                    static_cast<double>(spilled_bytes) /
                        (1024.0 * 1024.0));
        if (cfg.smoke && spill_runs == 0) {
            std::fprintf(stderr,
                         "FAIL: smoke run never spilled; the external "
                         "merge path went untested\n");
            return 1;
        }

        const std::vector<workload::FunctionProfile> profiles =
            sim::matchStreamedProfiles(source, matcher);

        // Calibration run: digest, event count, capacity hints.
        policies::OpenWhiskPolicy policy;
        const sim::SimulationMetrics calib = sim::runSimulation(
            source, profiles, cluster, policy, {});
        digest_streamed = hashMetrics(calib);
        invocations = calib.invocations;
        events = calib.event_loop.totalPopped();
        hints = hintsFrom(calib);

        // Zero-allocation gate: a hinted re-run's run() must not
        // allocate -- beginRun() rewinds the spill cursors and the
        // merge loop reuses every buffer sized during ingest.
        {
            sim::SimulatorOptions options;
            options.hints = hints;
            sim::Simulator hinted(source, profiles, cluster, policy,
                                  options);
            const long long before = bench::allocationCount();
            (void)hinted.run();
            hinted_allocs = bench::allocationCount() - before;
        }
        std::printf("allocations in hinted streamed run(): %lld\n",
                    hinted_allocs);

        // Timed streamed runs (hinted, best-of-N).
        streamed_best_ms = bench::bestOfMs(
            [&] {
                sim::SimulatorOptions options;
                options.hints = hints;
                (void)sim::runSimulation(source, profiles, cluster,
                                         policy, options);
            },
            cfg.repeats);
        streamed.events_per_sec = static_cast<double>(events) /
            (streamed_best_ms / 1000.0);

        // The RSS sample covers exactly ingest + profiles + classic
        // runs; the sharded agreement run below allocates per-cell
        // engine state that belongs to neither pipeline.
        streamed.peak_rss_kb = peakRssKb();

        // Telemetry overhead row: the same hinted streamed run with
        // latency histograms attached, best-of-N on both sides so the
        // ratio is a ratio of minima. The gate's re-measure rounds run
        // here (not in the gate block) while the source is still
        // alive; the JSON row keeps the best round.
        {
            obs::ObsConfig obs_config;
            obs_config.histograms = true;
            obs::RunRecorder recorder(obs_config);
            sim::SimulatorOptions plain_options;
            plain_options.hints = hints;
            sim::SimulatorOptions hist_options;
            hist_options.hints = hints;
            hist_options.recorder = &recorder;
            const auto measure = [&] {
                TelemetryRow row;
                const double off_ms = bench::bestOfMs(
                    [&] {
                        (void)sim::runSimulation(source, profiles,
                                                 cluster, policy,
                                                 plain_options);
                    },
                    cfg.repeats);
                const double on_ms = bench::bestOfMs(
                    [&] {
                        (void)sim::runSimulation(source, profiles,
                                                 cluster, policy,
                                                 hist_options);
                    },
                    cfg.repeats);
                row.events_per_sec_off =
                    static_cast<double>(events) / (off_ms / 1000.0);
                row.events_per_sec_on =
                    static_cast<double>(events) / (on_ms / 1000.0);
                row.overhead_ratio =
                    row.events_per_sec_on / row.events_per_sec_off;
                return row;
            };
            telemetry = measure();
            telemetry_gate = harness::gateBestOf(
                "telemetry overhead", telemetry.overhead_ratio,
                [&] {
                    const TelemetryRow again = measure();
                    if (again.overhead_ratio > telemetry.overhead_ratio)
                        telemetry = again;
                    return again.overhead_ratio;
                },
                1.0, 0.02);
        }
        std::printf("telemetry: %8.0f events/sec histograms off, "
                    "%8.0f events/sec on (ratio %.4f)\n",
                    telemetry.events_per_sec_off,
                    telemetry.events_per_sec_on,
                    telemetry.overhead_ratio);

        // Sharded engine fed by the streamed source (the coordinator
        // scatters each global window to the cells). OpenWhisk keeps
        // the at-scale digest about the engine's window path; the
        // paper scheme runs in the fixed digest row instead.
        {
            policies::OpenWhiskPolicy sharded_policy;
            sim::SimulatorOptions options;
            options.shards = cfg.shards;
            digest_streamed_sharded = hashMetrics(sim::runSimulation(
                source, profiles, cluster, sharded_policy, options));
        }
        std::printf("streamed run: %8.0f events/sec, peak RSS %.1f "
                    "MB\n",
                    streamed.events_per_sec,
                    static_cast<double>(streamed.peak_rss_kb) / 1024.0);
    }

    // --------------------------------------------- materialized phase
    (void)resetPeakRss();
    IngestRow materialize;
    RunRow materialized;
    std::uint64_t digest_materialized = 0;
    std::uint64_t digest_materialized_sharded = 0;
    double materialized_best_ms = 0.0;
    {
        const auto build_start = Clock::now();
        const trace::Trace tr =
            trace::SyntheticTraceGenerator(workload_config).generate();
        const std::vector<workload::FunctionProfile> profiles =
            matcher.profilesFor(tr);
        materialize.wall_ms = bench::elapsedMs(build_start);
        materialize.rows_per_sec =
            static_cast<double>(cfg.num_functions) /
            (materialize.wall_ms / 1000.0);

        policies::OpenWhiskPolicy policy;
        {
            const sim::SimulationMetrics calib = sim::runSimulation(
                tr, profiles, cluster, policy, {});
            digest_materialized = hashMetrics(calib);
        }
        materialized_best_ms = bench::bestOfMs(
            [&] {
                sim::SimulatorOptions options;
                options.hints = hints;
                (void)sim::runSimulation(tr, profiles, cluster, policy,
                                         options);
            },
            cfg.repeats);
        materialized.events_per_sec = static_cast<double>(events) /
            (materialized_best_ms / 1000.0);

        materialized.peak_rss_kb = peakRssKb();

        {
            policies::OpenWhiskPolicy sharded_policy;
            sim::SimulatorOptions options;
            options.shards = cfg.shards;
            digest_materialized_sharded = hashMetrics(sim::runSimulation(
                tr, profiles, cluster, sharded_policy, options));
        }
        std::printf("materialized: built in %.1f ms; %8.0f events/sec, "
                    "peak RSS %.1f MB\n",
                    materialize.wall_ms, materialized.events_per_sec,
                    static_cast<double>(materialized.peak_rss_kb) /
                        1024.0);
    }

    const bool agree = digest_streamed == digest_materialized;
    const bool sharded_agree =
        digest_streamed_sharded == digest_materialized_sharded;
    std::printf("agreement (streamed == materialized): classic %s, "
                "sharded x%zu %s\n",
                agree ? "OK" : "MISMATCH", cfg.shards,
                sharded_agree ? "OK" : "MISMATCH");
    if (streamed.peak_rss_kb > 0 && rss_resets) {
        std::printf("peak RSS ratio (materialized / streamed): %.2fx\n",
                    static_cast<double>(materialized.peak_rss_kb) /
                        static_cast<double>(streamed.peak_rss_kb));
    }

    // ------------------------------------------- fixed digest row
    // Machine-independent: fixed geometry, default chunking, the paper
    // scheme on the sharded engine, digest identical for every worker
    // count by the sharded determinism contract.
    FixedRow fixed;
    fixed.workers = cfg.shards;
    {
        trace::SyntheticRowStream rows(
            trace::azureScaleConfig(kFixedFunctions, kFixedIntervals));
        sim::StreamingWorkloadSource source(rows);
        const std::vector<workload::FunctionProfile> profiles =
            sim::matchStreamedProfiles(source, matcher);
        core::IceBreakerPolicy policy;
        sim::SimulatorOptions options;
        options.shards = cfg.shards;
        fixed.metrics_digest = digestHex(hashMetrics(sim::runSimulation(
            source, profiles, scaleCluster(kFixedFunctions), policy,
            options)));
    }
    std::printf("fixed row (%zux%zu, icebreaker, streamed+sharded): "
                "digest %s\n",
                kFixedFunctions, kFixedIntervals,
                fixed.metrics_digest.c_str());

    if (!cfg.json_path.empty()) {
        writeJson(cfg, arrivals, invocations, events, csv, stream_ingest,
                  spill_runs, spilled_bytes, materialize, streamed,
                  materialized, agree, sharded_agree, hinted_allocs, fixed,
                  telemetry);
        std::printf("wrote %s\n", cfg.json_path.c_str());
    }

    // ------------------------------------------------------------ gates
    if (!agree) {
        std::fprintf(stderr,
                     "FAIL: streamed and materialized metrics differ: "
                     "%s != %s\n",
                     digestHex(digest_streamed).c_str(),
                     digestHex(digest_materialized).c_str());
        return 1;
    }
    if (!sharded_agree) {
        std::fprintf(stderr,
                     "FAIL: sharded streamed and materialized metrics "
                     "differ: %s != %s\n",
                     digestHex(digest_streamed_sharded).c_str(),
                     digestHex(digest_materialized_sharded).c_str());
        return 1;
    }
    if (hinted_allocs != 0) {
        std::fprintf(stderr,
                     "FAIL: hinted streamed run() performed %lld "
                     "allocations\n",
                     hinted_allocs);
        return 1;
    }
    if (!cfg.baseline_path.empty()) {
        const std::string baseline =
            bench::readBaselineFile("bench_scale", cfg.baseline_path);

        // The fixed digest is machine-independent: exact equality.
        const std::optional<std::string> committed =
            harness::findJsonString(baseline, "metrics_digest");
        if (!committed) {
            std::fprintf(stderr,
                         "bench_scale: no metrics_digest in %s\n",
                         cfg.baseline_path.c_str());
            return 1;
        }
        const harness::GateResult digest_gate = harness::gateDigest(
            "metrics digest", fixed.metrics_digest, *committed);
        std::printf("%s\n", digest_gate.message.c_str());
        if (!digest_gate.ok) {
            std::fprintf(stderr, "FAIL: %s\n",
                         digest_gate.message.c_str());
            return 1;
        }

        // Telemetry gates against 1.0, not the baseline file: the
        // histogram pillar must stay within 2% of free on the
        // streamed core (measured in the streamed phase).
        // Geometry-independent, so smoke runs gate it too.
        std::printf("%s\n", telemetry_gate.message.c_str());
        if (!telemetry_gate.ok) {
            std::fprintf(stderr, "FAIL: %s\n",
                         telemetry_gate.message.c_str());
            return 1;
        }

        // Streamed vs materialized events/sec in the same process:
        // machine speed cancels, leaving what the streaming window
        // path costs relative to serving slices of a prebuilt array.
        // A miss is re-measured (gateBestOf). The ratio is NOT
        // geometry-independent (a smoke-sized workload fits in cache
        // on both paths, shrinking the streamed advantage), so it
        // only gates runs at the baseline's own scale.
        if (cfg.smoke) {
            std::printf("[stream rate ratio] smoke geometry is not "
                        "comparable to the committed full-scale "
                        "ratio; gate skipped\n");
            return 0;
        }
        const std::optional<double> base =
            harness::findJsonNumber(baseline, "stream_rate_ratio");
        if (!base) {
            std::fprintf(stderr,
                         "bench_scale: no stream_rate_ratio in %s\n",
                         cfg.baseline_path.c_str());
            return 1;
        }
        // Re-measure rounds need both workloads alive again; the
        // first one rebuilds them, and every round times both.
        std::optional<BothPipelines> both;
        policies::OpenWhiskPolicy policy;
        sim::SimulatorOptions options;
        options.hints = hints;
        const harness::GateResult ratio_gate = harness::gateBestOf(
            "stream rate ratio",
            streamed.events_per_sec / materialized.events_per_sec,
            [&] {
                if (!both)
                    both.emplace(workload_config, stream_options, matcher);
                const double s_ms = bench::bestOfMs(
                    [&] {
                        (void)sim::runSimulation(both->source,
                                                 both->stream_profiles,
                                                 cluster, policy, options);
                    },
                    cfg.repeats);
                const double m_ms = bench::bestOfMs(
                    [&] {
                        (void)sim::runSimulation(both->tr,
                                                 both->trace_profiles,
                                                 cluster, policy, options);
                    },
                    cfg.repeats);
                return m_ms / s_ms;
            },
            *base, 0.10);
        std::printf("%s\n", ratio_gate.message.c_str());
        if (!ratio_gate.ok) {
            std::fprintf(stderr, "FAIL: %s\n",
                         ratio_gate.message.c_str());
            return 1;
        }
    }
    return 0;
}
