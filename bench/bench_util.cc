#include "bench/bench_util.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <string_view>

#include "common/logging.hh"
#include "sim/metrics_summary.hh"

namespace bench
{

using namespace iceb;

harness::Workload
standardWorkload(std::size_t num_functions, std::size_t num_intervals)
{
    trace::SyntheticConfig config;
    config.num_functions = num_functions;
    config.num_intervals = num_intervals;
    config.min_memory_mb = 256;
    return harness::makeWorkload(config);
}

harness::Workload
sweepWorkload()
{
    return standardWorkload(260, 360);
}

harness::Workload
smokeWorkload()
{
    return standardWorkload(48, 60);
}

namespace
{

/** "mean +-stddev" with pct formatting; bare mean for single runs. */
std::string
pctWithSpread(const sim::ValueStats &stats)
{
    std::string cell = TextTable::pct(stats.mean);
    if (stats.count > 1)
        cell += " +-" + TextTable::pct(stats.stddev);
    return cell;
}

/** "mean +-stddev" with num formatting; bare mean for single runs. */
std::string
numWithSpread(const sim::ValueStats &stats, int precision)
{
    std::string cell = TextTable::num(stats.mean, precision);
    if (stats.count > 1)
        cell += " +-" + TextTable::num(stats.stddev, precision);
    return cell;
}

/** A bench's command line as parseFlags sees it. */
struct CommandLine
{
    std::string prog; //!< argv[0] without its directory
    const std::vector<Flag> &flags;
    const std::string &note;

    /** Usage built from the flags, then the note; exits @p status. */
    [[noreturn]] void usage(std::ostream &out, int status) const
    {
        std::size_t width = 0;
        for (const Flag &flag : flags)
            width = std::max(width, flag.name.size() + flag.meta.size() + 5);
        const auto lead = [width](std::string text) {
            text.resize(std::max(width, text.size() + 2), ' ');
            return text;
        };
        out << "usage: " << prog << " [options]\n";
        for (const Flag &flag : flags) {
            out << lead("  " + flag.name +
                        (flag.meta.empty() ? "" : " " + flag.meta));
            for (const char c : flag.help)
                out << c << (c == '\n' ? std::string(width, ' ') : "");
            out << "\n";
        }
        out << lead("  --help") << "this message\n";
        if (!note.empty())
            out << "\n" << note << "\n";
        std::exit(status);
    }

    /** "<prog>: <message>", then the usage on stderr; exits 1. */
    [[noreturn]] void fail(const std::string &message) const
    {
        std::cerr << prog << ": " << message << "\n";
        usage(std::cerr, 1);
    }
};

} // namespace

Flag
switchFlag(std::string name, std::string help, bool &target)
{
    return Flag{std::move(name), "", std::move(help), false, 0,
                [&target](const char *, std::uint64_t) { target = true; }};
}

Flag
textFlag(std::string name, std::string meta, std::string help,
         std::string &target)
{
    return Flag{std::move(name), std::move(meta), std::move(help), false,
                0, [&target](const char *text, std::uint64_t) {
                    target = text;
                }};
}

void
parseFlags(int argc, char **argv, const std::vector<Flag> &flags,
           const std::string &note)
{
    const std::string_view path = argc > 0 ? argv[0] : "bench";
    const CommandLine cli{
        std::string(path.substr(path.find_last_of('/') + 1)), flags, note};

    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--help" || arg == "-h")
            cli.usage(std::cout, 0);
        const auto flag =
            std::find_if(flags.begin(), flags.end(),
                         [&](const Flag &f) { return f.name == arg; });
        if (flag == flags.end())
            cli.fail("unknown option '" + std::string(arg) + "'");
        if (flag->meta.empty()) {
            flag->set("", 0);
            continue;
        }
        if (i + 1 >= argc)
            cli.fail(flag->name + " needs a value");
        const char *text = argv[++i];
        if (!flag->numeric) {
            flag->set(text, 0);
            continue;
        }
        // strtoull alone would accept a sign ("-1" wraps to 2^64-1),
        // leading blanks and out-of-range values.
        char *end = nullptr;
        errno = 0;
        const unsigned long long value = std::strtoull(text, &end, 0);
        if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
            *end != '\0' || errno == ERANGE) {
            cli.fail("bad value '" + std::string(text) + "' for " +
                     flag->name + " (want an unsigned integer)");
        }
        if (value < flag->min)
            cli.fail(flag->name + " must be >= " +
                     std::to_string(flag->min));
        flag->set(text, value);
    }
}

BenchOptions
parseBenchOptions(int argc, char **argv)
{
    BenchOptions options;
    harness::ObservationOptions &obs = options.observation;
    parseFlags(
        argc, argv,
        {numberFlag("--threads", "N",
                    "worker threads (0 = hardware concurrency; "
                    "default 0)",
                    options.threads),
         numberFlag("--shards", "N",
                    "intra-run shard workers (0 = classic engine; "
                    "default 0).\nSharded output is identical for "
                    "every N >= 1 but differs\nfrom the classic engine "
                    "(partitioned memory model)",
                    options.shards),
         numberFlag("--max-cells", "M",
                    "ceiling for the sharded engine's auto cell count\n"
                    "(0 = built-in default of 16; results depend on "
                    "the\ncell partition, never on --shards)",
                    options.max_cells),
         numberFlag("--seeds", "S",
                    "base seed for derived per-run RNG streams",
                    options.base_seed),
         numberFlag("--seed", "S", "same as --seeds", options.base_seed),
         numberFlag("--repeats", "R",
                    "seed replicates per experiment cell (default 1)",
                    options.repeats, 1),
         switchFlag("--smoke", "shrunken workload for CI smoke runs",
                    options.smoke),
         textFlag("--trace-out", "F",
                  "write Chrome trace_event JSON (Perfetto-viewable)",
                  obs.trace_path),
         textFlag("--probe-out", "F",
                  "write interval/forecast probes as CSV",
                  obs.probe_path),
         textFlag("--hist-out", "F",
                  "write latency histograms as tidy CSV", obs.hist_path),
         textFlag("--manifest-out", "F",
                  "write one JSON manifest line per run",
                  obs.manifest_path)},
        "Output (stdout and observability files) is byte-identical for "
        "every\n--threads value.");
    return options;
}

harness::RunnerOptions
runnerOptions(const BenchOptions &options)
{
    harness::RunnerOptions ro;
    ro.threads = options.threads;
    ro.shards = options.shards;
    ro.max_cells = options.max_cells;
    ro.repeats = options.repeats;
    ro.base_seed = options.base_seed;
    if (options.observation.enabled())
        ro.observation = &options.observation;
    return ro;
}

std::vector<harness::SchemeSummary>
compareSchemes(const harness::Workload &workload,
               const sim::ClusterConfig &cluster,
               const BenchOptions &options)
{
    return harness::runAllSchemesParallel(workload, cluster,
                                          runnerOptions(options));
}

std::vector<harness::SchemeResult>
runSchemesParallel(const harness::Workload &workload,
                   const sim::ClusterConfig &cluster,
                   const BenchOptions &options)
{
    std::vector<harness::SchemeSummary> summaries =
        compareSchemes(workload, cluster, options);
    std::vector<harness::SchemeResult> results;
    results.reserve(summaries.size());
    for (harness::SchemeSummary &summary : summaries) {
        harness::SchemeResult result;
        result.scheme = summary.scheme;
        result.metrics = std::move(summary.summary.pooled);
        results.push_back(std::move(result));
    }
    return results;
}

void
printSchemeComparison(const std::string &title,
                      const std::vector<harness::SchemeSummary> &results)
{
    const sim::MetricsSummary &baseline = results.front().summary;
    TextTable table(title);
    table.setHeader({"scheme", "keep-alive $", "ka impr.", "svc (ms)",
                     "svc impr.", "warm", "cold (ms)", "wait (ms)"});
    for (const auto &result : results) {
        const sim::MetricsSummary &s = result.summary;
        table.addRow({
            harness::schemeName(result.scheme),
            numWithSpread(s.keep_alive_cost, 3),
            TextTable::pct(harness::improvementOver(
                baseline.keep_alive_cost.mean,
                s.keep_alive_cost.mean)),
            numWithSpread(s.mean_service_ms, 0),
            TextTable::pct(harness::improvementOver(
                baseline.mean_service_ms.mean, s.mean_service_ms.mean)),
            TextTable::pct(s.warm_start_fraction.mean),
            TextTable::num(s.mean_cold_ms.mean, 0),
            TextTable::num(s.mean_wait_ms.mean, 1),
        });
    }
    table.print(std::cout);
}

std::vector<ComparisonScheme>
paperSchemes()
{
    std::vector<ComparisonScheme> schemes;
    for (harness::Scheme scheme : harness::allSchemes())
        schemes.push_back(ComparisonScheme{
            harness::schemeKey(scheme), harness::schemeName(scheme)});
    return schemes;
}

void
runGridComparison(const std::string &title,
                  const std::string &label_header,
                  const harness::Workload &workload,
                  const std::vector<harness::SweepPoint> &points,
                  const std::vector<ComparisonScheme> &schemes,
                  const BenchOptions &options, bool show_warm)
{
    ICEB_ASSERT(schemes.size() >= 2,
                "grid comparison needs a baseline plus >= 1 scheme");
    std::vector<std::string> keys;
    keys.reserve(schemes.size());
    for (const ComparisonScheme &scheme : schemes)
        keys.push_back(scheme.key);

    std::vector<harness::RunSpec> grid = harness::buildGrid(
        keys, workload, points, options.base_seed, options.repeats);
    for (harness::RunSpec &spec : grid) {
        spec.shards = options.shards;
        spec.max_cells = options.max_cells;
    }
    harness::ExperimentRunner runner(options.threads);
    if (options.observation.enabled())
        runner.setObservation(options.observation);
    const std::vector<harness::RunResult> results = runner.run(grid);

    const std::size_t repeats = options.repeats;
    const std::size_t point_stride = schemes.size() * repeats;

    TextTable table(title);
    std::vector<std::string> header;
    if (!label_header.empty())
        header.push_back(label_header);
    header.insert(header.end(), {"scheme", "ka impr.", "svc impr."});
    if (show_warm)
        header.push_back("warm");
    table.setHeader(header);

    for (std::size_t p = 0; p < points.size(); ++p) {
        const std::size_t base_off = p * point_stride;
        bool first = true;
        for (std::size_t s = 1; s < schemes.size(); ++s) {
            const std::size_t scheme_off = base_off + s * repeats;
            // Pair replicate r of this scheme with replicate r of the
            // baseline: both saw the same derived arrival jitter, so
            // the improvement distribution is the paired one.
            std::vector<double> ka_impr, svc_impr, warm;
            ka_impr.reserve(repeats);
            svc_impr.reserve(repeats);
            warm.reserve(repeats);
            for (std::size_t r = 0; r < repeats; ++r) {
                const sim::SimulationMetrics &base =
                    results[base_off + r].metrics;
                const sim::SimulationMetrics &run =
                    results[scheme_off + r].metrics;
                ka_impr.push_back(harness::improvementOver(
                    base.totalKeepAliveCost(),
                    run.totalKeepAliveCost()));
                svc_impr.push_back(harness::improvementOver(
                    base.meanServiceMs(), run.meanServiceMs()));
                warm.push_back(run.warmStartFraction());
            }
            std::vector<std::string> row;
            if (!label_header.empty())
                row.push_back(first ? points[p].label : "");
            row.push_back(schemes[s].display);
            row.push_back(pctWithSpread(sim::ValueStats::of(ka_impr)));
            row.push_back(pctWithSpread(sim::ValueStats::of(svc_impr)));
            if (show_warm)
                row.push_back(
                    pctWithSpread(sim::ValueStats::of(warm)));
            table.addRow(std::move(row));
            first = false;
        }
        if (p + 1 < points.size())
            table.addRule();
    }
    table.print(std::cout);
}

} // namespace bench
