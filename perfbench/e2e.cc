/**
 * @file
 * End-to-end, layer-by-layer benchmark of the IceBreaker decision
 * loop. One workload per invocation:
 *
 *   perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1
 *   perfbench_e2e --self-test
 *
 * A run repeats whole passes (set-up, then one simulation of the
 * whole horizon) for about S seconds. With --trace 0 every
 * pass is untraced and the run reports the end-to-end metrics; with
 * --trace 1 untraced and traced passes alternate and the run reports
 * the per-layer split plus the tracing overhead. Every pass is
 * checked (checks.hh) outside its timed region. The last line of
 * stdout is one JSON object: correct, attempted, failed, metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "checks.hh"
#include "harness/registry.hh"
#include "layers.hh"
#include "serve/decision_engine.hh"
#include "serve/drivers.hh"
#include "sim/cluster_config.hh"
#include "sim/simulator.hh"
#include "sim/trace_source.hh"
#include "trace/azure_loader.hh"
#include "trace/synthetic.hh"
#include "workload/benchmark_suite.hh"
#include "workload/profile_matcher.hh"

namespace perfbench
{
namespace
{

using namespace iceb;

// ------------------------------------------------------------ workloads

enum class Input
{
    Synthetic, //!< SyntheticRowStream straight into the streaming source
    AzureCsv,  //!< an Azure-schema CSV written before timing, then parsed
    Burst,     //!< BurstRows straight into the streaming source
};

enum class Engine
{
    Classic, //!< sim::runSimulation, single-shard engine
    Sharded, //!< sim::runSimulation with SimulatorOptions::shards
    Serve,   //!< serve::SimDriver over a serve::DecisionEngine
};

struct Workload
{
    const char *name;
    const char *scheme;
    Input input;
    Engine engine;
    /** Worker count of the sharded engine's invariance-check pass
     * (0 = no such pass); timed and traced passes use 1 worker. */
    std::size_t check_workers;
    std::size_t tail_pct;  //!< decision_tail_ms percentile
    trace::SyntheticConfig (*config)(std::uint64_t seed);
    std::size_t cluster_scale;
};

trace::SyntheticConfig
azureSteadyConfig(std::uint64_t seed)
{
    trace::SyntheticConfig c = trace::azureScaleConfig(1000, 480);
    c.seed = seed;
    return c;
}

trace::SyntheticConfig
azureRestartConfig(std::uint64_t seed)
{
    trace::SyntheticConfig c = trace::azureScaleConfig(4000, 120);
    c.seed = seed;
    return c;
}

/**
 * burst-hot's rows: sixteen functions at figure-style within-the-hour
 * cadence (the generator's raised-cosine burst trains) with raised
 * concurrency. Periods, burst widths, levels and resource hints are
 * spread evenly over fixed ranges by function index; the seed draws
 * each train's phase, its slow modulation and the per-interval noise.
 * Stratifying the shape keeps the fleet's total load the same from
 * seed to seed, which independent log-uniform draws for so few
 * functions would not.
 */
class BurstRows final : public trace::FunctionRowSource
{
  public:
    static constexpr std::size_t kFunctions = 16;
    static constexpr std::size_t kIntervals = 1440;
    static constexpr double kLevel = 1000.0;

    explicit BurstRows(std::uint64_t seed) : master_(seed) {}

    TimeMs intervalMs() const override { return 60'000; }

    bool next(trace::FunctionRow &row) override
    {
        const std::size_t i = next_;
        if (i >= kFunctions)
            return false;
        ++next_;
        const double at = (static_cast<double>(i) + 0.5) / kFunctions;
        const double mixed =
            (static_cast<double>((i * 5) % kFunctions) + 0.5) / kFunctions;
        constexpr int kWidths[] = {2, 3, 4, 6};
        constexpr MemoryMb kMemory[] = {256, 512, 1024, 2048};
        constexpr TimeMs kExec[] = {150, 400, 1000, 2500};

        Rng rng = master_.fork(i + 1);
        trace::BurstTrain train;
        train.period = 8.0 * std::pow(60.0 / 8.0, at);
        train.phase = rng.uniform(0.0, train.period);
        train.burst_len = std::min(kWidths[i % 4],
                                   static_cast<int>(train.period / 2.0));
        train.amplitude = kLevel * (0.75 + 0.5 * mixed);
        train.mod_period = rng.uniform(120.0, 720.0);
        train.mod_phase = rng.uniform(0.0, 2.0 * M_PI);
        train.mod_depth = rng.uniform(0.1, 0.35);
        counts_.assign(kIntervals, 0);
        for (std::size_t t = 0; t < kIntervals; ++t) {
            double v = trace::evaluateBurstTrain(train, static_cast<double>(t));
            if (v > 0.0)
                v += rng.gaussian(0.0, 0.1 * train.amplitude);
            counts_[t] = v <= 0.0 ? 0 : static_cast<std::uint32_t>(v + 0.5);
        }
        name_ = "burst-" + std::to_string(i);
        row.id = static_cast<FunctionId>(i);
        row.name = name_;
        row.cls = trace::FunctionClass::Periodic;
        row.memory_mb = kMemory[(i / 4) % 4];
        row.avg_exec_ms = kExec[(i + i / 4) % 4];
        row.counts = counts_.data();
        row.num_intervals = kIntervals;
        return true;
    }

  private:
    Rng master_;
    std::size_t next_ = 0;
    std::vector<std::uint32_t> counts_;
    std::string name_;
};

const Workload kWorkloads[] = {
    {"azure-steady", "icebreaker-fastfip", Input::Synthetic,
     Engine::Classic, 0, 97, azureSteadyConfig, 3},
    {"azure-restart", "icebreaker", Input::AzureCsv, Engine::Serve, 0, 90,
     azureRestartConfig, 10},
    {"burst-hot", "icebreaker", Input::Burst, Engine::Sharded, 2, 99,
     nullptr, 16},
};

std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

sim::ClusterConfig
clusterFor(const Workload &w)
{
    // The paper's default composition, scaled with the fleet so the
    // per-function memory pressure matches the 400-function figures.
    sim::ClusterConfig cluster = sim::defaultHeterogeneousCluster();
    for (auto &tier : cluster.tiers)
        tier.server_count *= w.cluster_scale;
    return cluster;
}

// --------------------------------------------------------------- inputs

/** The run's inputs: rows (or the CSV) plus the checks' expectation. */
struct Inputs
{
    std::uint64_t workload_seed = 0;
    trace::SyntheticConfig config; //!< Synthetic and AzureCsv inputs
    std::uint64_t jitter_seed = 0;
    std::string csv_path;
    Expected expected;
};

/** The checks' expectation from per-function count series. */
Expected
expectationOf(const std::vector<std::vector<std::uint32_t>> &series)
{
    Expected exp;
    exp.num_functions = series.size();
    exp.num_intervals = series.empty() ? 0 : series.front().size();
    exp.rows.assign(exp.num_functions * exp.num_intervals, 0);
    for (std::size_t fn = 0; fn < exp.num_functions; ++fn) {
        for (std::size_t iv = 0; iv < exp.num_intervals; ++iv) {
            exp.rows[iv * exp.num_functions + fn] = series[fn][iv];
            exp.total += series[fn][iv];
        }
    }
    return exp;
}

std::vector<std::vector<std::uint32_t>>
drain(trace::FunctionRowSource &rows)
{
    std::vector<std::vector<std::uint32_t>> series;
    trace::FunctionRow row;
    while (rows.next(row))
        series.emplace_back(row.counts, row.counts + row.num_intervals);
    return series;
}

Inputs
makeInputs(const Workload &w, std::uint64_t seed)
{
    Inputs in;
    in.workload_seed = mix(seed ^ 0x1CEB'0001ull);
    in.jitter_seed = mix(seed ^ 0x1CEB'0002ull);
    if (w.config != nullptr)
        in.config = w.config(in.workload_seed);
    if (w.input == Input::AzureCsv) {
        const trace::Trace tr =
            trace::SyntheticTraceGenerator(in.config).generate();
        std::vector<std::vector<std::uint32_t>> series;
        for (const trace::FunctionSeries &fn : tr.functions())
            series.push_back(fn.concurrency);
        in.expected = expectationOf(series);
        in.csv_path = ".bench_build/perfbench-" + std::string(w.name) +
            "-" + std::to_string(seed) + ".csv";
        std::ofstream out(in.csv_path);
        trace::writeAzureCsv(out, tr);
        if (!out)
            throw std::runtime_error("cannot write " + in.csv_path);
    } else if (w.input == Input::Burst) {
        BurstRows rows(in.workload_seed);
        in.expected = expectationOf(drain(rows));
    } else {
        trace::SyntheticRowStream rows(in.config);
        in.expected = expectationOf(drain(rows));
    }
    return in;
}

/** One pass's set-up product and its timings. */
struct Prepared
{
    std::unique_ptr<sim::StreamingWorkloadSource> source;
    std::vector<workload::FunctionProfile> profiles;
    double setup_s = 0.0;
    double ingest_s = 0.0;     //!< rows + spill-sort (source construction)
    double row_source_s = 0.0; //!< inside FunctionRowSource::next
    double match_s = 0.0;
    std::size_t rows = 0;
    std::uint64_t arrivals = 0;
    std::size_t spill_runs = 0;
    std::uint64_t spilled_bytes = 0;
};

Prepared
prepare(const Workload &w, const Inputs &in,
        const workload::ProfileMatcher &matcher)
{
    Prepared p;
    sim::StreamingSourceOptions opts;
    opts.seed = in.jitter_seed;
    const auto t0 = Clock::now();
    const auto ingest = [&](trace::FunctionRowSource &rows) {
        TimedRowSource timed(rows);
        p.source = std::make_unique<sim::StreamingWorkloadSource>(timed, opts);
        p.row_source_s = timed.seconds();
        p.rows = timed.rows();
    };
    if (w.input == Input::AzureCsv) {
        std::ifstream file(in.csv_path);
        trace::AzureCsvRowStream rows(file, {}, in.csv_path);
        ingest(rows);
    } else if (w.input == Input::Burst) {
        BurstRows rows(in.workload_seed);
        ingest(rows);
    } else {
        trace::SyntheticRowStream rows(in.config);
        ingest(rows);
    }
    p.ingest_s = secondsSince(t0);
    p.arrivals = p.source->totalArrivals();
    p.spill_runs = p.source->spillRuns();
    p.spilled_bytes = p.source->spilledBytes();
    const auto m0 = Clock::now();
    p.profiles = sim::matchStreamedProfiles(*p.source, matcher);
    p.match_s = secondsSince(m0);
    p.setup_s = secondsSince(t0);
    return p;
}

// ---------------------------------------------------------------- passes

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Pass
{
    bool traced = false;
    Prepared prep;
    PassRecord rec;
    LayerTimes times;
    Verdict verdict;
    std::vector<double> setup_s; //!< every set-up repetition
    double run_s = 0.0; //!< simulation wall time, shadow work excluded
    double cpu_s = 0.0;
    std::size_t decisions = 0; //!< serve::DecisionEngine log size
};

/** The configuration the registry builds the workload's scheme with
 * (harness/registry.cc); the checks and shadow pools follow it. */
core::IceBreakerConfig
schemeConfig(const Workload &w)
{
    core::IceBreakerConfig cfg;
    cfg.fip_fast_batch = std::strcmp(w.scheme, "icebreaker-fastfip") == 0;
    return cfg;
}

/** Functions whose warm-ups the checks follow: an even stride. */
std::vector<FunctionId>
sampleFunctions(std::size_t n)
{
    constexpr std::size_t kSample = 32;
    const std::size_t s = std::min(n, kSample);
    std::vector<FunctionId> out;
    for (std::size_t i = 0; i < s; ++i)
        out.push_back(static_cast<FunctionId>(i * n / s));
    return out;
}

constexpr std::size_t kSetupRepeats = 3;

void
runPass(const Workload &w, const Inputs &in,
        const workload::ProfileMatcher &matcher, bool traced,
        std::size_t workers, Pass &pass)
{
    pass.traced = traced;
    // Set-up is short next to a simulation, so it is repeated for a
    // steadier median; the last repetition feeds the pass.
    for (std::size_t i = 0; i < kSetupRepeats; ++i) {
        pass.prep = prepare(w, in, matcher);
        pass.setup_s.push_back(pass.prep.setup_s);
    }
    const core::IceBreakerConfig cfg = schemeConfig(w);
    pass.rec.num_intervals = in.expected.num_intervals;
    pass.rec.sample_fns = sampleFunctions(in.expected.num_functions);

    auto timed = std::make_unique<TimedPolicy>(
        harness::makePolicyByName(w.scheme), cfg, traced, pass.rec,
        pass.times);
    const sim::ClusterConfig cluster = clusterFor(w);
    sim::SimulatorOptions opts;
    opts.seed = in.jitter_seed;
    if (w.engine == Engine::Sharded)
        opts.shards = workers;

    const double c0 = cpuSeconds();
    const auto t0 = Clock::now();
    if (w.engine == Engine::Serve) {
        serve::DecisionEngine engine(std::move(timed));
        serve::SimDriver replay(*pass.prep.source, pass.prep.profiles,
                                cluster, engine, opts);
        pass.rec.metrics = replay.run();
        pass.run_s = secondsSince(t0);
        pass.decisions = engine.decisionCount();
    } else {
        pass.rec.metrics = sim::runSimulation(
            *pass.prep.source, pass.prep.profiles, cluster, *timed, opts);
        pass.run_s = secondsSince(t0);
    }
    pass.cpu_s = cpuSeconds() - c0 - pass.times.shadow_s;
    pass.run_s -= pass.times.shadow_s;
    pass.verdict = evaluate(pass.rec, in.expected, cfg);
    pass.prep.source.reset();
    pass.prep.profiles.clear();
}

/** Drop a checked pass's bulk data so memory does not grow with the
 * pass count (peak RSS is a reported metric). */
void
trim(Pass &pass)
{
    PassRecord &rec = pass.rec;
    rec.delivered = {};
    rec.memory = {};
    rec.shadow_pred = {};
    rec.sentinel_pred = {};
    rec.warmups = {};
    rec.metrics.service_times_ms = {};
    rec.metrics.service_times_high_ms = {};
    rec.metrics.service_times_low_ms = {};
    rec.metrics.per_function = {};
}

// --------------------------------------------------------------- metrics

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 != 0 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/** Nearest-rank percentile. */
template <typename T>
double
percentile(std::vector<T> v, double pct)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(v.size())));
    return static_cast<double>(v[std::max<std::size_t>(rank, 1) - 1]);
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Median over passes of one per-pass quantity. */
template <typename F>
double
medianOf(const std::vector<const Pass *> &passes, F f)
{
    std::vector<double> v;
    for (const Pass *p : passes)
        v.push_back(f(*p));
    return median(v);
}

std::vector<Metric>
endToEnd(const Workload &w, const std::vector<const Pass *> &passes,
         double peak_rss_mb)
{
    std::vector<double> decisions, setups;
    for (const Pass *p : passes) {
        decisions.insert(decisions.end(), p->times.decision_ms.begin(),
                         p->times.decision_ms.end());
        setups.insert(setups.end(), p->setup_s.begin(), p->setup_s.end());
    }
    const sim::SimulationMetrics &m = passes.front()->rec.metrics;
    return {
        {"setup_s", median(setups), "s"},
        {"run_s", medianOf(passes, [](const Pass &p) { return p.run_s; }), "s"},
        {"cpu_s", medianOf(passes, [](const Pass &p) { return p.cpu_s; }), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"decision_p50_ms", percentile(decisions, 50), "ms"},
        {"decision_tail_ms", percentile(decisions, static_cast<double>(w.tail_pct)), "ms"},
        {"keepalive_cost_usd", m.totalKeepAliveCost(), "USD"},
        {"service_time_mean_ms", m.meanServiceMs(), "ms"},
        {"service_time_p99_ms", percentile(m.service_times_ms, 99), "ms"},
        {"warm_start_pct", 100.0 * m.warmStartFraction(), "%"},
    };
}

/** Lane kinds per interval, from the observation history. */
struct LaneCounts
{
    std::uint64_t warmup = 0, full = 0, silent = 0;
};

LaneCounts
laneCounts(const PassRecord &rec, const core::IceBreakerConfig &cfg)
{
    // At interval iv a lane holds min(iv, window) observations; it is
    // silent when none of them is non-zero (count 0 included).
    LaneCounts lc;
    const std::size_t n = rec.num_functions;
    const std::size_t w = cfg.fip.window;
    std::vector<std::int64_t> last_nonzero(n, -1);
    for (std::size_t iv = 0; iv < rec.num_intervals; ++iv) {
        const std::size_t held = std::min(iv, w);
        for (std::size_t fn = 0; fn < n; ++fn) {
            const bool silent = last_nonzero[fn] < 0 ||
                static_cast<std::size_t>(last_nonzero[fn]) + held < iv;
            if (silent)
                ++lc.silent;
            else if (held < w)
                ++lc.warmup;
            else
                ++lc.full;
        }
        for (std::size_t fn = 0; fn < n; ++fn)
            if (rec.delivered[iv * n + fn] != 0)
                last_nonzero[fn] = static_cast<std::int64_t>(iv);
    }
    return lc;
}

std::vector<Metric>
perLayer(const Workload &w, const std::vector<const Pass *> &traced,
         const std::vector<const Pass *> &untraced)
{
    const core::IceBreakerConfig cfg = schemeConfig(w);
    const Pass &first = *traced.front();
    const sim::SimulationMetrics &m = first.rec.metrics;
    // The run's first pass is untraced and keeps its full record.
    const LaneCounts lanes = laneCounts(untraced.front()->rec, cfg);
    const auto med = [&traced](auto f) { return medianOf(traced, f); };
    const auto forecast_s = [](const Pass &p) {
        return p.times.forecast_warmup_s + p.times.forecast_steady_s;
    };
    const auto decide_s = [](const Pass &p) {
        return p.times.start_s - p.times.actions_s;
    };
    const auto loop_s = [](const Pass &p) {
        return p.run_s - p.times.init_s - p.times.observe_s -
            p.times.start_s - p.times.hooks_s;
    };
    const double requested =
        static_cast<double>(first.times.instances_requested);
    const double granted = static_cast<double>(first.times.instances_granted);
    const double events = static_cast<double>(m.event_loop.totalPopped());
    const double busy_lanes = static_cast<double>(lanes.warmup + lanes.full);
    const double traced_run = med([](const Pass &p) { return p.run_s; });
    const double untraced_run =
        medianOf(untraced, [](const Pass &p) { return p.run_s; });
    return {
        {"trace.ingest_s", med([](const Pass &p) { return p.prep.ingest_s; }), "s"},
        {"trace.row_source_s", med([](const Pass &p) { return p.prep.row_source_s; }), "s"},
        {"trace.rows", static_cast<double>(first.prep.rows), "count"},
        {"trace.arrivals", static_cast<double>(first.prep.arrivals), "count"},
        {"trace.spill_runs", static_cast<double>(first.prep.spill_runs), "count"},
        {"trace.spilled_mb", static_cast<double>(first.prep.spilled_bytes) / (1024.0 * 1024.0), "MB"},
        {"workload.match_s", med([](const Pass &p) { return p.prep.match_s; }), "s"},
        {"predictors.forecast_s", med(forecast_s), "s"},
        {"predictors.forecast_warmup_s", med([](const Pass &p) { return p.times.forecast_warmup_s; }), "s"},
        {"predictors.forecast_steady_s", med([](const Pass &p) { return p.times.forecast_steady_s; }), "s"},
        {"predictors.lanes_warmup", static_cast<double>(lanes.warmup), "count"},
        {"predictors.lanes_full", static_cast<double>(lanes.full), "count"},
        {"predictors.lanes_silent", static_cast<double>(lanes.silent), "count"},
        {"predictors.us_per_forecast", busy_lanes > 0 ? med(forecast_s) * 1e6 / busy_lanes : 0.0, "us"},
        {"core.init_s", med([](const Pass &p) { return p.times.init_s; }), "s"},
        {"core.observe_s", med([](const Pass &p) { return p.times.observe_s; }), "s"},
        {"core.decide_s", med(decide_s), "s"},
        {"core.pdm_s", med([&](const Pass &p) { return decide_s(p) - forecast_s(p); }), "s"},
        {"core.hooks_s", med([](const Pass &p) { return p.times.hooks_s; }), "s"},
        {"core.hook_calls", static_cast<double>(first.times.hook_calls), "count"},
        {"core.intervals", static_cast<double>(first.times.intervals), "count"},
        {"sim.loop_s", med(loop_s), "s"},
        {"sim.warmup_s", med([](const Pass &p) { return p.times.actions_s; }), "s"},
        {"sim.warmup_calls", static_cast<double>(first.times.warmup_calls), "count"},
        {"sim.instances_requested", requested, "count"},
        {"sim.instances_granted", granted, "count"},
        {"sim.grant_ratio", requested > 0 ? granted / requested : 0.0, "ratio"},
        {"sim.prewarms_wasted", static_cast<double>(first.times.prewarms_wasted), "count"},
        {"sim.waste_ratio", granted > 0 ? static_cast<double>(first.times.prewarms_wasted) / granted : 0.0, "ratio"},
        {"sim.events", events, "count"},
        {"sim.ns_per_event", events > 0 ? med(loop_s) * 1e9 / events : 0.0, "ns"},
        {"sim.invocations", static_cast<double>(m.invocations), "count"},
        {"sim.cold_no_container", static_cast<double>(m.cold_no_container), "count"},
        {"sim.cold_all_busy", static_cast<double>(m.cold_all_busy), "count"},
        {"sim.cold_setup_attach", static_cast<double>(m.cold_setup_attach), "count"},
        {"sim.stale_expiry_events", static_cast<double>(m.event_loop.stale_expiry_events), "count"},
        {"sim.eviction_victims_examined", static_cast<double>(m.event_loop.eviction_victims_examined), "count"},
        {"sim.peak_live_containers", static_cast<double>(m.event_loop.peak_live_containers), "count"},
        {"sim.peak_wait_queue", static_cast<double>(m.event_loop.peak_wait_queue), "count"},
        {"serve.decisions", static_cast<double>(first.decisions), "count"},
        {"bench.shadow_s", med([](const Pass &p) { return p.times.shadow_s; }), "s"},
        {"bench.run_s_traced", traced_run, "s"},
        {"bench.tracing_overhead", untraced_run > 0 ? traced_run / untraced_run : 0.0, "ratio"},
    };
}

// ------------------------------------------------------------- reporting

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printHost()
{
    std::printf("host: cpus=%u compiler=\"%s\" build=%s flags=\"%s\"\n",
                std::thread::hardware_concurrency(), __VERSION__,
                PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += "\"" + metrics[i].name + "\": {\"value\": " +
            jsonNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

// ------------------------------------------------------------- self-test

/** Feeds each check a doctored copy of a real pass; 0 = all caught. */
int
selfTest()
{
    // A small figure-style workload: enough intervals for both FIP
    // paths, busy enough that sampled functions get warm-ups.
    const Workload w = {"self-test", "icebreaker", Input::Synthetic,
                        Engine::Classic, 0, 90,
                        [](std::uint64_t seed) {
                            trace::SyntheticConfig c;
                            c.num_functions = 16;
                            c.num_intervals = 160;
                            c.seed = seed;
                            c.frac_infrequent = 0.0;
                            c.frac_random = 0.0;
                            return c;
                        },
                        1};
    const Inputs in = makeInputs(w, 7);
    const workload::BenchmarkSuite suite = workload::BenchmarkSuite::sebs();
    const workload::ProfileMatcher matcher(suite);
    Pass pass;
    runPass(w, in, matcher, false, 1, pass);
    const core::IceBreakerConfig cfg = schemeConfig(w);

    int bad = 0;
    const auto expect = [&bad](const char *what, bool ok) {
        std::printf("self-test: %-40s %s\n", what, ok ? "ok" : "FAILED");
        bad += ok ? 0 : 1;
    };
    const auto fails = [&](const PassRecord &rec) {
        const Verdict v = evaluate(rec, in.expected, cfg);
        return v.failedIntervals() > 0 || !v.run_failures.empty();
    };
    expect("genuine pass passes every check", !fails(pass.rec));
    expect("genuine pass has sampled warm-ups", !pass.rec.warmups.empty());

    {
        PassRecord rec = pass.rec;
        sim::SimulationMetrics &m = rec.metrics;
        const double s = m.service_times_ms.back();
        m.service_times_ms.pop_back();
        --m.invocations;
        --m.warm_starts;
        m.sum_service_ms -= s;
        expect("dropped invocation is caught", fails(rec));
    }
    {
        PassRecord rec = pass.rec;
        const std::size_t n = rec.num_functions;
        bool shifted = false;
        for (std::size_t i = 0; i + 2 < rec.num_intervals && !shifted; ++i) {
            for (std::size_t fn = 0; fn < n && !shifted; ++fn) {
                if (rec.delivered[i * n + fn] > 0) {
                    --rec.delivered[i * n + fn];
                    ++rec.delivered[(i + 1) * n + fn];
                    shifted = true;
                }
            }
        }
        expect("shifted per-interval count is caught",
               shifted && evaluate(rec, in.expected, cfg).failedIntervals() == 2);
    }
    {
        PassRecord rec = pass.rec;
        bool doctored = false;
        if (!rec.warmups.empty()) {
            const WarmupCall &call = rec.warmups.front();
            const auto s = static_cast<std::size_t>(
                std::find(rec.sample_fns.begin(), rec.sample_fns.end(),
                          call.fn) -
                rec.sample_fns.begin());
            rec.shadow_pred[call.interval * rec.sample_fns.size() + s] =
                cfg.count_deadband;
            doctored = true;
        }
        expect("sub-deadband warm-up is caught", doctored && fails(rec));
    }
    {
        PassRecord rec = pass.rec;
        rec.warmups.front().count = 1000;
        expect("over-cap warm-up is caught", fails(rec));
    }
    for (std::size_t path = 0; path < 2; ++path) {
        // One interval on the warm-up path, one on the full window.
        PassRecord rec = pass.rec;
        const std::size_t iv = path == 0 ? cfg.fip.window / 2
                                         : rec.num_intervals - 1;
        rec.sentinel_pred[iv * kSentinels.size() + 2] *= 1.0 + 1e-7;
        expect(path == 0 ? "perturbed sentinel (warm-up path) is caught"
                         : "perturbed sentinel (full window) is caught",
               fails(rec));
    }
    {
        PassRecord rec = pass.rec;
        rec.memory[3].vacant[0] = rec.memory[3].total[0] + 1;
        expect("tier memory above total is caught", fails(rec));
    }
    {
        PassRecord rec = pass.rec;
        rec.metrics.service_times_ms.front() = 0.0f;
        expect("service time below overhead is caught", fails(rec));
    }
    {
        sim::SimulationMetrics other = pass.rec.metrics;
        other.keep_alive[0].wasteful_cost += 1e-9;
        expect("worker-count divergence is caught",
               !sameOutcomes(pass.rec.metrics, other) &&
                   sameOutcomes(pass.rec.metrics, pass.rec.metrics));
    }
    return bad;
}

// ------------------------------------------------------------------ main

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool self_test = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "error: %s\nusage: perfbench_e2e --workload "
                 "azure-steady|azure-restart|burst-hot --seed N "
                 "--seconds S --trace 0|1\n       perfbench_e2e "
                 "--self-test\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--self-test") {
            a.self_test = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 0);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (!(a.seconds > 0.0))
                usage("--seconds must be positive");
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else {
            usage(("unknown option " + k).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("bad number for " + k).c_str());
    }
    return a;
}

int
run(const Args &args)
{
    const Workload *w = nullptr;
    for (const Workload &cand : kWorkloads)
        if (args.workload == cand.name)
            w = &cand;
    if (w == nullptr)
        usage(("unknown workload '" + args.workload + "'").c_str());

    printHost();
    const bool checks_ok = selfTest() == 0;

    const Inputs in = makeInputs(*w, args.seed);
    const workload::BenchmarkSuite suite = workload::BenchmarkSuite::sebs();
    const workload::ProfileMatcher matcher(suite);

    // Whole passes until the run length is spent: untraced only, or
    // untraced and traced alternating. Each pass is checked as soon as
    // it ends; all but the first are then trimmed to their summary.
    const std::size_t min_passes = args.trace ? 2 : 1;
    std::vector<std::unique_ptr<Pass>> passes;
    bool correct = checks_ok;
    std::size_t attempted = 0, failed = 0;
    const auto check = [&](const Pass &p) {
        attempted += p.rec.num_intervals;
        failed += p.verdict.failedIntervals();
        for (const std::string &note : p.verdict.interval_notes)
            std::fprintf(stderr, "check: %s\n", note.c_str());
        for (const std::string &f : p.verdict.run_failures) {
            std::fprintf(stderr, "check: run: %s\n", f.c_str());
            correct = false;
        }
        // Simulated outputs depend on the seed alone: not on the pass,
        // the tracing, or the sharded engine's worker count.
        if (!sameOutcomes(p.rec.metrics, passes.front()->rec.metrics)) {
            std::fprintf(stderr, "check: run: simulated outputs differ "
                                 "between passes\n");
            correct = false;
        }
    };
    // Peak RSS as of the first pass: later passes only add allocator
    // reuse patterns that depend on how many passes fit in the run.
    double peak_rss_mb = 0.0;
    bool workers_checked = false;
    // Stop once another pass would end more than half a pass late.
    double last_pass_s = 0.0;
    const auto start = Clock::now();
    while (passes.size() < min_passes ||
           secondsSince(start) + 0.5 * last_pass_s < args.seconds) {
        const auto pass_start = Clock::now();
        const bool traced = args.trace && passes.size() % 2 == 1;
        passes.push_back(std::make_unique<Pass>());
        Pass &p = *passes.back();
        runPass(*w, in, matcher, traced, 1, p);
        check(p);
        if (passes.size() == 1)
            peak_rss_mb = peakRssMb();
        else
            trim(p);
        // Once per traced run, the sharded engine repeats the pass on
        // more workers; check() holds it to the 1-worker outputs.
        if (traced && w->check_workers > 1 && !workers_checked) {
            Pass multi;
            runPass(*w, in, matcher, false, w->check_workers, multi);
            check(multi);
            workers_checked = true;
        }
        last_pass_s = secondsSince(pass_start);
    }
    std::vector<const Pass *> traced, untraced;
    for (const auto &p : passes)
        (p->traced ? traced : untraced).push_back(p.get());
    double sentinel_err = 0.0;
    for (const auto &p : passes)
        sentinel_err = std::max(sentinel_err, p->verdict.sentinel_max_error);
    std::printf("workload=%s scheme=%s seed=%llu passes=%zu "
                "sentinel_max_rel_error=%.3g\n",
                w->name, w->scheme,
                static_cast<unsigned long long>(args.seed), passes.size(),
                sentinel_err);

    if (!in.csv_path.empty())
        std::remove(in.csv_path.c_str());
    printResult(correct, attempted, failed,
                args.trace ? perLayer(*w, traced, untraced)
                           : endToEnd(*w, untraced, peak_rss_mb));
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    const perfbench::Args args = perfbench::parseArgs(argc, argv);
    if (args.self_test) {
        perfbench::printHost();
        return perfbench::selfTest() == 0 ? 0 : 1;
    }
    return perfbench::run(args);
}
