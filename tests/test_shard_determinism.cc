/**
 * @file
 * Determinism lockdown for the sharded discrete-event engine.
 *
 * The contract under test (sim/sharded_simulator.hh): a sharded run's
 * results are a pure function of the workload, the cluster and the
 * logical cell partition — NEVER of the worker count. The sweep here
 * drives every scheme across shards {1, 2, 4} (and the runner's
 * outer thread pool on top) and demands bitwise-equal metrics and
 * byte-equal probe CSV against the 1-worker reference; satellite
 * tests pin the cross-cell boundary semantics (tier spillover,
 * eviction ordering, keep-alive expiry exactly on the barrier) and
 * the named baseline-gate messages bench_sim prints on failure.
 */

#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/units.hh"
#include "core/icebreaker.hh"
#include "harness/baseline_gate.hh"
#include "harness/observe.hh"
#include "harness/registry.hh"
#include "harness/runner.hh"
#include "policies/faascache_policy.hh"
#include "policies/openwhisk_policy.hh"
#include "serve/decision_engine.hh"
#include "serve/drivers.hh"
#include "sim/sharded_simulator.hh"
#include "sim/simulator.hh"

namespace
{

using namespace iceb;
using namespace iceb::sim;

/**
 * Hand-built workload with mid-run churn: a third of the functions
 * are present from the start, a third ARRIVE mid-run (all-zero
 * concurrency until their debut interval), a third RETIRE mid-run
 * (all-zero after their last interval). Deterministic in shape — the
 * per-invocation jitter comes from the simulator's seeded RNG.
 */
struct TestWorkload
{
    trace::Trace tr{1, kMsPerMinute};
    std::vector<workload::FunctionProfile> profiles;
};

TestWorkload
churnWorkload(std::size_t num_fns = 24, std::size_t num_intervals = 20)
{
    TestWorkload w;
    w.tr = trace::Trace(num_intervals, kMsPerMinute);
    for (std::size_t fn = 0; fn < num_fns; ++fn) {
        trace::FunctionSeries series;
        series.name = "fn" + std::to_string(fn);
        series.memory_mb = 128 + 128 * static_cast<MemoryMb>(fn % 3);
        series.avg_exec_ms = 500 + 250 * static_cast<TimeMs>(fn % 4);
        series.concurrency.assign(num_intervals, 0);
        const std::size_t debut =
            fn % 3 == 1 ? num_intervals / 2 : 0; // mid-run arrival
        const std::size_t last = fn % 3 == 2
            ? num_intervals / 3      // mid-run retirement
            : num_intervals - 1;
        for (std::size_t iv = debut; iv <= last; ++iv)
            series.concurrency[iv] =
                static_cast<std::uint32_t>(1 + (fn + iv) % 4);
        w.tr.addFunction(series);

        workload::FunctionProfile profile;
        profile.name = series.name;
        profile.memory_mb = series.memory_mb;
        profile.cold_start_ms = {800 + 100 * static_cast<TimeMs>(fn % 5),
                                 2500};
        profile.exec_ms = {series.avg_exec_ms, 2 * series.avg_exec_ms};
        w.profiles.push_back(profile);
    }
    return w;
}

ClusterConfig
testCluster()
{
    ClusterConfig config = defaultHeterogeneousCluster();
    config.spec(Tier::HighEnd).server_count = 6;
    config.spec(Tier::HighEnd).memory_per_server_mb = 4096;
    config.spec(Tier::LowEnd).server_count = 9;
    config.spec(Tier::LowEnd).memory_per_server_mb = 3072;
    return config;
}

/** Exact (bitwise for floats) equality of two runs' metrics. */
void
expectMetricsIdentical(const SimulationMetrics &a,
                       const SimulationMetrics &b)
{
    EXPECT_EQ(a.invocations, b.invocations);
    EXPECT_EQ(a.cold_starts, b.cold_starts);
    EXPECT_EQ(a.warm_starts, b.warm_starts);
    EXPECT_EQ(a.cold_no_container, b.cold_no_container);
    EXPECT_EQ(a.cold_all_busy, b.cold_all_busy);
    EXPECT_EQ(a.cold_setup_attach, b.cold_setup_attach);
    EXPECT_EQ(a.sum_service_ms, b.sum_service_ms);
    EXPECT_EQ(a.sum_wait_ms, b.sum_wait_ms);
    EXPECT_EQ(a.sum_cold_ms, b.sum_cold_ms);
    EXPECT_EQ(a.sum_exec_ms, b.sum_exec_ms);
    EXPECT_EQ(a.sum_overhead_ms, b.sum_overhead_ms);
    EXPECT_EQ(a.service_times_ms, b.service_times_ms);
    EXPECT_EQ(a.service_times_high_ms, b.service_times_high_ms);
    EXPECT_EQ(a.service_times_low_ms, b.service_times_low_ms);
    ASSERT_EQ(a.per_function.size(), b.per_function.size());
    for (std::size_t fn = 0; fn < a.per_function.size(); ++fn) {
        EXPECT_EQ(a.per_function[fn].invocations,
                  b.per_function[fn].invocations);
        EXPECT_EQ(a.per_function[fn].cold_starts,
                  b.per_function[fn].cold_starts);
        EXPECT_EQ(a.per_function[fn].sum_service_ms,
                  b.per_function[fn].sum_service_ms);
        EXPECT_EQ(a.per_function[fn].keep_alive_cost,
                  b.per_function[fn].keep_alive_cost);
    }
    for (std::size_t t = 0; t < kNumTiers; ++t) {
        EXPECT_EQ(a.keep_alive[t].successful_cost,
                  b.keep_alive[t].successful_cost);
        EXPECT_EQ(a.keep_alive[t].wasteful_cost,
                  b.keep_alive[t].wasteful_cost);
        EXPECT_EQ(a.keep_alive[t].wasted_mb_ms,
                  b.keep_alive[t].wasted_mb_ms);
    }
}

SimulationMetrics
runShardedScheme(const TestWorkload &w, const ClusterConfig &cluster,
                 const std::string &scheme, std::size_t shards,
                 std::uint64_t seed)
{
    const std::unique_ptr<Policy> policy =
        harness::makePolicyByName(scheme);
    SimulatorOptions options;
    options.seed = seed;
    options.shards = shards;
    return runSimulation(w.tr, w.profiles, cluster, *policy, options);
}

// ------------------------------------------------------- ShardPlan

TEST(ShardPlanTest, ClampsToSmallestPopulatedTier)
{
    const TestWorkload w = churnWorkload();
    // Default geometry: HighEnd 10 servers, LowEnd 18. Every cell
    // must own a server of EVERY tier, so 10 bounds the auto count.
    const ShardPlan plan =
        ShardPlan::build(w.tr.numFunctions(), defaultHeterogeneousCluster());
    EXPECT_EQ(plan.num_cells, 10u);

    // An explicit request below the bound is honoured as-is.
    const ShardPlan small =
        ShardPlan::build(w.tr.numFunctions(), defaultHeterogeneousCluster(), 4);
    EXPECT_EQ(small.num_cells, 4u);

    // A request above it is clamped back down.
    const ShardPlan big =
        ShardPlan::build(w.tr.numFunctions(), defaultHeterogeneousCluster(), 64);
    EXPECT_EQ(big.num_cells, 10u);
}

TEST(ShardPlanTest, ClampsToFunctionCount)
{
    const TestWorkload w = churnWorkload(3);
    const ShardPlan plan =
        ShardPlan::build(w.tr.numFunctions(), defaultHeterogeneousCluster());
    EXPECT_EQ(plan.num_cells, 3u);
}

TEST(ShardPlanTest, CellConfigSplitsServersAcrossCells)
{
    const TestWorkload w = churnWorkload();
    const ClusterConfig cluster = testCluster(); // 6 high, 9 low
    const ShardPlan plan = ShardPlan::build(w.tr.numFunctions(), cluster, 4);
    ASSERT_EQ(plan.num_cells, 4u);

    std::size_t high_total = 0;
    std::size_t low_total = 0;
    for (std::size_t cell = 0; cell < plan.num_cells; ++cell) {
        const ClusterConfig cc = plan.cellConfig(cluster, cell);
        // Every cell owns at least one server of every tier, with
        // per-server memory untouched.
        EXPECT_GE(cc.spec(Tier::HighEnd).server_count, 1u);
        EXPECT_GE(cc.spec(Tier::LowEnd).server_count, 1u);
        EXPECT_EQ(cc.spec(Tier::HighEnd).memory_per_server_mb,
                  cluster.spec(Tier::HighEnd).memory_per_server_mb);
        EXPECT_EQ(cc.spec(Tier::LowEnd).memory_per_server_mb,
                  cluster.spec(Tier::LowEnd).memory_per_server_mb);
        // The remainder lands on the first cells, so counts differ by
        // at most one.
        EXPECT_LE(cc.spec(Tier::HighEnd).server_count, 6u / 4 + 1);
        EXPECT_LE(cc.spec(Tier::LowEnd).server_count, 9u / 4 + 1);
        high_total += cc.spec(Tier::HighEnd).server_count;
        low_total += cc.spec(Tier::LowEnd).server_count;
    }
    // No server is lost or duplicated by the split.
    EXPECT_EQ(high_total, 6u);
    EXPECT_EQ(low_total, 9u);
}

TEST(ShardPlanTest, CellOfCoversEveryCell)
{
    const TestWorkload w = churnWorkload(24);
    const ShardPlan plan =
        ShardPlan::build(w.tr.numFunctions(), defaultHeterogeneousCluster(), 5);
    std::vector<std::size_t> population(plan.num_cells, 0);
    for (FunctionId fn = 0; fn < 24; ++fn) {
        ASSERT_LT(plan.cellOf(fn), plan.num_cells);
        ++population[plan.cellOf(fn)];
    }
    for (std::size_t cell = 0; cell < plan.num_cells; ++cell)
        EXPECT_GT(population[cell], 0u);
}

// ------------------------------------------- determinism sweep

TEST(ShardDeterminismTest, DigestInvariantAcrossWorkerCounts)
{
    // The property sweep: every scheme x seeds x shards {2, 4} must
    // reproduce the 1-worker reference bit for bit, on a workload
    // with mid-run function arrival and retirement.
    const TestWorkload w = churnWorkload();
    const ClusterConfig cluster = testCluster();
    const std::vector<std::string> schemes = {
        "openwhisk", "wild", "faascache", "icebreaker", "oracle"};
    const std::vector<std::uint64_t> seeds = {0x51AB'1CEBull,
                                              0xD15C'0B0Eull};
    for (const std::string &scheme : schemes) {
        for (const std::uint64_t seed : seeds) {
            const SimulationMetrics reference =
                runShardedScheme(w, cluster, scheme, 1, seed);
            for (const std::size_t shards : {2u, 4u}) {
                SCOPED_TRACE(scheme + " shards=" +
                             std::to_string(shards) + " seed=" +
                             std::to_string(seed));
                expectMetricsIdentical(
                    reference,
                    runShardedScheme(w, cluster, scheme, shards, seed));
            }
        }
    }
}

TEST(ShardDeterminismTest, SerialFallbackForIncompatiblePolicies)
{
    // FaasCache does not declare shardCompatible, so its cells run
    // serially -- parallel() stays false at any worker count and the
    // results still match across worker counts (previous test). A
    // compatible scheme on the same geometry does go parallel.
    const TestWorkload w = churnWorkload();
    const ClusterConfig cluster = testCluster();

    policies::FaasCachePolicy faascache;
    ASSERT_FALSE(faascache.shardCompatible());
    SimulatorOptions options;
    options.shards = 4;
    const ShardedSimulator serial(w.tr, w.profiles, cluster, faascache,
                                  options);
    EXPECT_FALSE(serial.parallel());

    core::IceBreakerPolicy icebreaker;
    ASSERT_TRUE(icebreaker.shardCompatible());
    const ShardedSimulator threaded(w.tr, w.profiles, cluster,
                                    icebreaker, options);
    EXPECT_TRUE(threaded.parallel());

    // One worker never pays for a pool, compatible or not.
    options.shards = 1;
    const ShardedSimulator single(w.tr, w.profiles, cluster, icebreaker,
                                  options);
    EXPECT_FALSE(single.parallel());
}

TEST(ShardDeterminismTest, IncrementalApiMatchesRun)
{
    // start / advanceInterval / finish must replay exactly what run()
    // does -- the serving drivers depend on it.
    const TestWorkload w = churnWorkload();
    const ClusterConfig cluster = testCluster();
    SimulatorOptions options;
    options.shards = 2;

    core::IceBreakerPolicy batch_policy;
    ShardedSimulator batch(w.tr, w.profiles, cluster, batch_policy,
                           options);
    const SimulationMetrics whole = batch.run();

    core::IceBreakerPolicy step_policy;
    ShardedSimulator stepped(w.tr, w.profiles, cluster, step_policy,
                             options);
    stepped.start();
    ASSERT_TRUE(stepped.nextBarrierTime().has_value());
    EXPECT_EQ(*stepped.nextBarrierTime(), 0u);

    TimeMs last_now = 0;
    while (stepped.advanceInterval()) {
        EXPECT_GE(stepped.now(), last_now);
        last_now = stepped.now();
    }
    EXPECT_FALSE(stepped.nextBarrierTime().has_value());
    EXPECT_EQ(stepped.intervalsStarted(), w.tr.numIntervals());
    expectMetricsIdentical(whole, stepped.finish());
}

TEST(ShardDeterminismTest, ProbeCsvByteIdenticalAcrossWorkerCounts)
{
    // The streaming probe CSV -- sampled serially at each barrier --
    // must be byte-identical for every worker count.
    const TestWorkload w = churnWorkload();
    const ClusterConfig cluster = testCluster();

    const auto replay = [&](std::size_t shards, std::string &csv) {
        serve::DecisionEngine engine(
            std::make_unique<core::IceBreakerPolicy>());
        std::ostringstream out;
        serve::ReplayOptions options;
        options.probe_csv = &out;
        options.sim.shards = shards;
        serve::ReplayDriver driver(w.tr, w.profiles, cluster, engine,
                                   options);
        const SimulationMetrics metrics = driver.run();
        csv = out.str();
        return metrics;
    };

    std::string csv1;
    std::string csv4;
    const SimulationMetrics m1 = replay(1, csv1);
    const SimulationMetrics m4 = replay(4, csv4);
    expectMetricsIdentical(m1, m4);
    EXPECT_FALSE(csv1.empty());
    EXPECT_EQ(csv1, csv4);
}

TEST(ShardDeterminismTest, ObservationFilesByteIdenticalAcrossWorkers)
{
    // The full observability surface of a sharded run — per-cell
    // Chrome trace tracks, the latency-histogram CSV, and manifest
    // lines with folded histogram digests — is a pure function of the
    // cell partition: byte-identical for every shards x threads
    // combination.
    const harness::Workload workload = [] {
        trace::SyntheticConfig config;
        config.num_functions = 18;
        config.num_intervals = 30;
        return harness::makeWorkload(config);
    }();
    const std::string dir = testing::TempDir();

    const auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        return std::string((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    };
    const auto runGrid = [&](std::size_t threads, std::size_t shards,
                             const std::string &tag) {
        harness::ObservationOptions obs;
        obs.trace_path = dir + "/shard_trace_" + tag + ".json";
        obs.hist_path = dir + "/shard_hist_" + tag + ".csv";
        obs.manifest_path = dir + "/shard_manifest_" + tag + ".jsonl";
        std::vector<harness::RunSpec> grid = harness::buildGrid(
            {"openwhisk", "icebreaker"}, workload,
            {{"base", testCluster()}});
        for (harness::RunSpec &spec : grid)
            spec.shards = shards;
        harness::ExperimentRunner runner(threads);
        runner.setObservation(obs);
        runner.run(grid);
        return std::array<std::string, 3>{slurp(obs.trace_path),
                                          slurp(obs.hist_path),
                                          slurp(obs.manifest_path)};
    };

    const std::array<std::string, 3> reference = runGrid(1, 1, "ref");
    // The reference actually exercises every pillar: per-cell tracks
    // and barrier spans in the trace, latency rows in the CSV, and
    // histogram digests folded into the manifest.
    EXPECT_NE(reference[0].find("\"cell0\""), std::string::npos);
    EXPECT_NE(reference[0].find("serial-barrier"), std::string::npos);
    EXPECT_NE(reference[0].find("parallel-cells"), std::string::npos);
    EXPECT_NE(reference[1].find("cold_start_ms"), std::string::npos);
    EXPECT_NE(reference[2].find("\"histograms\""), std::string::npos);
    EXPECT_NE(reference[2].find("cold_start_ms/high-end"),
              std::string::npos);

    for (const std::size_t threads : {1u, 4u}) {
        for (const std::size_t shards : {2u, 4u}) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " shards=" + std::to_string(shards));
            const std::array<std::string, 3> result =
                runGrid(threads, shards,
                        std::to_string(threads) + "x" +
                            std::to_string(shards));
            EXPECT_EQ(reference[0], result[0]);
            EXPECT_EQ(reference[1], result[1]);
            EXPECT_EQ(reference[2], result[2]);
        }
    }
}

TEST(ShardDeterminismTest, SimDriverMatchesBareSimulation)
{
    // The batch driver forwards shards through SimulatorOptions: an
    // engine-wrapped sharded run equals the bare sharded run.
    const TestWorkload w = churnWorkload();
    const ClusterConfig cluster = testCluster();
    SimulatorOptions options;
    options.shards = 2;

    core::IceBreakerPolicy bare;
    const SimulationMetrics direct =
        runSimulation(w.tr, w.profiles, cluster, bare, options);

    serve::DecisionEngine engine(
        std::make_unique<core::IceBreakerPolicy>());
    serve::SimDriver driver(w.tr, w.profiles, cluster, engine, options);
    expectMetricsIdentical(direct, driver.run());
}

TEST(ShardDeterminismTest, RunnerGridByteIdenticalAcrossThreads)
{
    // Outer thread pool x inner worker threads: RunSpec::shards rides
    // the runner's determinism contract, so any (threads, shards)
    // combination reproduces the serial single-worker grid.
    const harness::Workload workload = [] {
        trace::SyntheticConfig config;
        config.num_functions = 18;
        config.num_intervals = 30;
        return harness::makeWorkload(config);
    }();

    const auto runGrid = [&](std::size_t threads, std::size_t shards) {
        std::vector<harness::RunSpec> grid = harness::buildGrid(
            {"openwhisk", "icebreaker"}, workload,
            {{"base", testCluster()}});
        for (harness::RunSpec &spec : grid)
            spec.shards = shards;
        return harness::ExperimentRunner(threads).run(grid);
    };

    const std::vector<harness::RunResult> reference = runGrid(1, 1);
    for (const std::size_t threads : {1u, 4u}) {
        for (const std::size_t shards : {2u, 4u}) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " shards=" + std::to_string(shards));
            const std::vector<harness::RunResult> result =
                runGrid(threads, shards);
            ASSERT_EQ(result.size(), reference.size());
            for (std::size_t i = 0; i < result.size(); ++i)
                expectMetricsIdentical(reference[i].metrics,
                                       result[i].metrics);
        }
    }
}

// ------------------------------------------- cross-cell boundaries

TEST(ShardBoundaryTest, ColdPlacementSpillsToOtherTierWhenFull)
{
    // One cell whose high-end slice fits a single container: a burst
    // of two concurrent invocations must spill the second cold start
    // to the low-end tier, exactly as the classic engine places it.
    TestWorkload w;
    w.tr = trace::Trace(3, kMsPerMinute);
    trace::FunctionSeries series;
    series.name = "f0";
    series.memory_mb = 256;
    series.avg_exec_ms = 70'000;
    series.concurrency = {2, 0, 0};
    w.tr.addFunction(series);
    workload::FunctionProfile profile;
    profile.name = "f0";
    profile.memory_mb = 256;
    profile.cold_start_ms = {1000, 1000};
    // Executions outlast the interval, so the two arrivals overlap no
    // matter where the jitter lands them: the second cannot reuse the
    // first's container and must place cold.
    profile.exec_ms = {70'000, 70'000};
    w.profiles.push_back(profile);

    ClusterConfig cluster = defaultHeterogeneousCluster();
    cluster.spec(Tier::HighEnd).server_count = 1;
    cluster.spec(Tier::HighEnd).memory_per_server_mb = 256;
    cluster.spec(Tier::LowEnd).server_count = 1;
    cluster.spec(Tier::LowEnd).memory_per_server_mb = 4096;

    policies::OpenWhiskPolicy classic_policy;
    const SimulationMetrics classic =
        runSimulation(w.tr, w.profiles, cluster, classic_policy);

    policies::OpenWhiskPolicy sharded_policy;
    SimulatorOptions options;
    options.shards = 2;
    const SimulationMetrics sharded = runSimulation(
        w.tr, w.profiles, cluster, sharded_policy, options);

    // One service on each tier: the spillover happened, and the
    // single-cell sharded engine reproduces the classic placement.
    EXPECT_EQ(sharded.service_times_high_ms.size(), 1u);
    EXPECT_EQ(sharded.service_times_low_ms.size(), 1u);
    expectMetricsIdentical(classic, sharded);
}

/**
 * Deterministic eviction order: priority == function id, so the
 * lowest id is always reclaimed first; records victims for the test.
 */
class EvictLowestIdPolicy : public policies::OpenWhiskPolicy
{
  public:
    double evictionPriority(FunctionId fn, Tier, TimeMs,
                            TimeMs) override
    {
        return static_cast<double>(fn);
    }

    void onEviction(FunctionId fn, Tier, TimeMs) override
    {
        victims.push_back(fn);
    }

    std::vector<FunctionId> victims;
};

TEST(ShardBoundaryTest, EvictionOrderFollowsPolicyPriorityPerCell)
{
    // Three idle containers (fns 0..2) fill the only server; a burst
    // from fn 3 must evict them in priority order 0, 1, 2.
    TestWorkload w;
    w.tr = trace::Trace(12, kMsPerMinute);
    for (std::size_t fn = 0; fn < 4; ++fn) {
        trace::FunctionSeries series;
        series.name = "f" + std::to_string(fn);
        series.memory_mb = 256;
        series.avg_exec_ms = 1000;
        series.concurrency.assign(12, 0);
        if (fn < 3)
            series.concurrency[0] = 1; // idle residents after iv 0
        else
            series.concurrency[2] = 3; // the evicting burst
        w.tr.addFunction(series);
        workload::FunctionProfile profile;
        profile.name = series.name;
        profile.memory_mb = 256;
        profile.cold_start_ms = {1000, 1000};
        // Residents finish fast and sit idle; the burst's executions
        // outlast the interval so its three arrivals need three
        // simultaneous containers regardless of jitter.
        const TimeMs exec = fn < 3 ? 1000 : 70'000;
        profile.exec_ms = {exec, exec};
        w.profiles.push_back(profile);
    }
    ClusterConfig cluster = defaultHeterogeneousCluster();
    cluster.spec(Tier::HighEnd).server_count = 1;
    cluster.spec(Tier::HighEnd).memory_per_server_mb = 3 * 256;
    cluster.spec(Tier::LowEnd).server_count = 1;
    cluster.spec(Tier::LowEnd).memory_per_server_mb = 0;

    const auto run = [&](std::size_t shards) {
        EvictLowestIdPolicy policy;
        SimulatorOptions options;
        options.shards = shards;
        (void)runSimulation(w.tr, w.profiles, cluster, policy, options);
        return policy.victims;
    };

    const std::vector<FunctionId> serial = run(1);
    ASSERT_EQ(serial.size(), 3u);
    EXPECT_EQ(serial[0], 0u);
    EXPECT_EQ(serial[1], 1u);
    EXPECT_EQ(serial[2], 2u);
    EXPECT_EQ(serial, run(4));
}

/** Grants keep-alives that expire exactly ON the next barrier. */
class BarrierKeepAlivePolicy : public policies::OpenWhiskPolicy
{
  public:
    TimeMs keepAliveAfterExecutionMs(FunctionId, Tier,
                                     TimeMs now) override
    {
        const TimeMs next_barrier =
            (now / kMsPerMinute + 1) * kMsPerMinute;
        return next_barrier - now;
    }
};

TEST(ShardBoundaryTest, KeepAliveExpiringOnBarrierIsDeterministic)
{
    // Container expiries landing exactly on the interval barrier are
    // the sharpest edge of the barrier protocol: the expiry event
    // carries the barrier's own timestamp, so it must sort against
    // the next interval's prewarms and arrivals identically in every
    // configuration. With one cell the sharded engine must also match
    // the classic engine exactly.
    const TestWorkload base = churnWorkload(1, 16);
    const ClusterConfig cluster = testCluster();

    BarrierKeepAlivePolicy classic_policy;
    const SimulationMetrics classic = runSimulation(
        base.tr, base.profiles, cluster, classic_policy);

    const auto sharded = [&](std::size_t shards) {
        BarrierKeepAlivePolicy policy;
        SimulatorOptions options;
        options.shards = shards;
        return runSimulation(base.tr, base.profiles, cluster, policy,
                             options);
    };
    const SimulationMetrics one = sharded(1);
    expectMetricsIdentical(classic, one);
    expectMetricsIdentical(one, sharded(2));
    expectMetricsIdentical(one, sharded(4));
}

// ------------------------------------------- named baseline gates

TEST(BaselineGateTest, RatioGateNamesMetricAndFloor)
{
    const harness::GateResult pass =
        harness::gateRatio("speedup ratio", 2.5, 2.4, 0.02);
    EXPECT_TRUE(pass.ok);
    EXPECT_NE(pass.message.find("[speedup ratio]"), std::string::npos);
    EXPECT_NE(pass.message.find("meets floor"), std::string::npos);

    const harness::GateResult fail =
        harness::gateRatio("speedup ratio", 2.0, 2.4, 0.02);
    EXPECT_FALSE(fail.ok);
    EXPECT_NE(fail.message.find("[speedup ratio]"), std::string::npos);
    EXPECT_NE(fail.message.find("fell below floor"), std::string::npos);
    EXPECT_NE(fail.message.find("2.00000"), std::string::npos);

    // Exactly on the floor still passes.
    EXPECT_TRUE(harness::gateRatio("r", 0.98, 1.0, 0.02).ok);
}

/** A scripted measurement sequence for gateBestOf's re-measure hook. */
struct ScriptedRounds
{
    std::vector<double> values;
    std::size_t calls = 0;

    std::function<double()> hook()
    {
        return [this] { return values.at(calls++); };
    }
};

TEST(BaselineGateTest, BestOfPassesOnFloorWithoutRemeasure)
{
    ScriptedRounds script;
    const harness::GateResult gate = harness::gateBestOf(
        "speedup ratio", 0.98, script.hook(), 1.0, 0.02);
    EXPECT_TRUE(gate.ok);
    EXPECT_EQ(script.calls, 0u);
    EXPECT_NE(gate.message.find("[speedup ratio]"), std::string::npos);
    EXPECT_EQ(gate.message.find("rounds"), std::string::npos);
}

TEST(BaselineGateTest, BestOfPassesOnSecondRoundAfterMiss)
{
    ScriptedRounds script{{1.01}};
    const harness::GateResult gate = harness::gateBestOf(
        "speedup ratio", 0.90, script.hook(), 1.0, 0.02);
    EXPECT_TRUE(gate.ok);
    EXPECT_EQ(script.calls, 1u);
    EXPECT_NE(gate.message.find("meets floor"), std::string::npos);
    EXPECT_NE(gate.message.find("measured 1.01000"), std::string::npos);
    EXPECT_NE(gate.message.find("rounds 0.90000 1.01000"),
              std::string::npos);
}

TEST(BaselineGateTest, BestOfFailsAfterEveryRoundMisses)
{
    ScriptedRounds script{{0.95, 0.97, 0.96, 0.94, 2.0}};
    const harness::GateResult gate = harness::gateBestOf(
        "telemetry overhead", 0.90, script.hook(), 1.0, 0.02);
    EXPECT_FALSE(gate.ok);
    // Five rounds in all: the first measurement plus four re-measures;
    // the passing sixth value is never asked for.
    EXPECT_EQ(script.calls,
              static_cast<std::size_t>(harness::kGateRounds - 1));
    EXPECT_EQ(harness::kGateRounds, 5);
    EXPECT_EQ(gate.message.rfind("[telemetry overhead] ", 0), 0u);
    EXPECT_NE(gate.message.find("measured 0.97000 fell below floor "
                                "0.98000"),
              std::string::npos);
}

TEST(BaselineGateTest, DigestGateNamesMetricAndBothDigests)
{
    const harness::GateResult pass = harness::gateDigest(
        "metrics digest", "0xabc", "0xabc");
    EXPECT_TRUE(pass.ok);
    EXPECT_NE(pass.message.find("[metrics digest]"), std::string::npos);

    const harness::GateResult fail = harness::gateDigest(
        "metrics digest", "0xabc", "0xdef");
    EXPECT_FALSE(fail.ok);
    EXPECT_NE(fail.message.find("[metrics digest]"), std::string::npos);
    EXPECT_NE(fail.message.find("0xabc"), std::string::npos);
    EXPECT_NE(fail.message.find("0xdef"), std::string::npos);
}

TEST(BaselineGateTest, FlatJsonScrapers)
{
    const std::string text = R"({
  "speedup_vs_legacy": 2.625,
  "sharded": {"metrics_digest": "0x74c3670947bc06f0", "workers": 4}
})";
    const std::optional<double> number =
        harness::findJsonNumber(text, "speedup_vs_legacy");
    ASSERT_TRUE(number.has_value());
    EXPECT_DOUBLE_EQ(*number, 2.625);
    EXPECT_EQ(harness::findJsonString(text, "metrics_digest"),
              std::optional<std::string>("0x74c3670947bc06f0"));

    EXPECT_FALSE(
        harness::findJsonNumber(text, "no_such_key").has_value());
    EXPECT_FALSE(
        harness::findJsonString(text, "no_such_key").has_value());
    // Type confusion is rejected, not coerced.
    EXPECT_FALSE(
        harness::findJsonNumber(text, "metrics_digest").has_value());
    EXPECT_FALSE(
        harness::findJsonString(text, "workers").has_value());
}

} // namespace
