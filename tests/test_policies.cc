/**
 * @file
 * Tests for the competing policies: OpenWhisk, Serverless in the
 * Wild, FaasCache and the Oracle, plus the shared warm-with-spill
 * helper, and the harness/report utilities.
 */

#include <gtest/gtest.h>

#include "common/units.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "policies/faascache_policy.hh"
#include "policies/openwhisk_policy.hh"
#include "policies/oracle_policy.hh"
#include "policies/wild_policy.hh"

namespace
{

using namespace iceb;
using namespace iceb::policies;

// --------------------------------------------------------------- Shared

harness::Workload
smallWorkload(std::size_t fns = 60, std::size_t intervals = 360)
{
    trace::SyntheticConfig config;
    config.num_functions = fns;
    config.num_intervals = intervals;
    return harness::makeWorkload(config);
}

// ------------------------------------------------------------- OpenWhisk

TEST(OpenWhiskPolicyTest, FixedKeepAlive)
{
    OpenWhiskPolicy policy;
    EXPECT_EQ(policy.keepAliveAfterExecutionMs(0, Tier::HighEnd, 12345),
              10 * kMsPerMinute);
    OpenWhiskPolicy custom(5 * kMsPerMinute);
    EXPECT_EQ(custom.keepAliveAfterExecutionMs(9, Tier::LowEnd, 0),
              5 * kMsPerMinute);
    EXPECT_EQ(policy.overheadMs(), 0);
}

TEST(OpenWhiskPolicyTest, HighEndFirstPlacement)
{
    OpenWhiskPolicy policy;
    const auto order = policy.coldPlacementOrder(0);
    EXPECT_EQ(order[0], Tier::HighEnd);
    EXPECT_EQ(order[1], Tier::LowEnd);
}

// ------------------------------------------------------------- FaasCache

TEST(FaasCachePolicyTest, PriorityUsesFrequencyCostAndSize)
{
    trace::Trace tr(10, 60'000);
    for (int i = 0; i < 2; ++i) {
        trace::FunctionSeries fn;
        std::string name = "f";
        name += std::to_string(i);
        fn.name = std::move(name);
        fn.memory_mb = 256;
        fn.avg_exec_ms = 500;
        fn.concurrency.assign(10, 0);
        tr.addFunction(fn);
    }
    workload::FunctionProfile cheap;
    cheap.name = "cheap";
    cheap.memory_mb = 1024;
    cheap.cold_start_ms = {500, 500};
    cheap.exec_ms = {100, 200};
    workload::FunctionProfile dear;
    dear.name = "dear";
    dear.memory_mb = 128;
    dear.cold_start_ms = {3000, 3000};
    dear.exec_ms = {100, 200};
    std::vector<workload::FunctionProfile> profiles{cheap, dear};
    const sim::ClusterConfig cluster =
        sim::defaultHeterogeneousCluster();

    FaasCachePolicy policy;
    sim::SimContext ctx;
    ctx.num_functions = tr.numFunctions();
    ctx.profiles = &profiles;
    ctx.cluster = &cluster;
    ctx.interval_ms = 60'000;
    policy.initialize(ctx);

    // Same usage count each: the small, expensive-to-rebuild function
    // must have the higher (more protected) priority.
    policy.onExecutionStart(0, Tier::HighEnd, true, 0);
    policy.onExecutionStart(1, Tier::HighEnd, true, 0);
    const double p_cheap =
        policy.evictionPriority(0, Tier::HighEnd, 0, 0);
    const double p_dear =
        policy.evictionPriority(1, Tier::HighEnd, 0, 0);
    EXPECT_GT(p_dear, p_cheap);

    // Frequency raises priority.
    policy.onExecutionStart(0, Tier::HighEnd, false, 0);
    policy.onExecutionStart(0, Tier::HighEnd, false, 0);
    EXPECT_GT(policy.evictionPriority(0, Tier::HighEnd, 0, 0), p_cheap);

    // Eviction advances the clock (aging).
    EXPECT_DOUBLE_EQ(policy.clock(), 0.0);
    policy.onEviction(0, Tier::HighEnd, 0);
    EXPECT_GT(policy.clock(), 0.0);
}

// ------------------------------------------------------------------ Wild

TEST(WildPolicyTest, RunsAndImprovesWarmRateForRegularFunctions)
{
    // A single perfectly regular function: Wild's histogram should
    // warm it ahead of each arrival.
    trace::Trace tr(400, 60'000);
    trace::FunctionSeries fn;
    fn.name = "regular";
    fn.memory_mb = 256;
    fn.avg_exec_ms = 800;
    fn.concurrency.assign(400, 0);
    for (std::size_t t = 5; t < 400; t += 25)
        fn.concurrency[t] = 1;
    tr.addFunction(fn);

    workload::FunctionProfile profile;
    profile.name = "p";
    profile.memory_mb = 256;
    profile.cold_start_ms = {1000, 1000};
    profile.exec_ms = {800, 1600};
    std::vector<workload::FunctionProfile> profiles{profile};
    const sim::ClusterConfig cluster =
        sim::defaultHeterogeneousCluster();

    OpenWhiskPolicy base;
    const auto base_m =
        sim::runSimulation(tr, profiles, cluster, base);
    WildPolicy wild;
    const auto wild_m =
        sim::runSimulation(tr, profiles, cluster, wild);

    // 25-minute gaps defeat the 10-minute fixed keep-alive but not
    // the histogram.
    EXPECT_LT(base_m.warmStartFraction(), 0.2);
    EXPECT_GT(wild_m.warmStartFraction(), 0.6);
    EXPECT_LT(wild_m.totalKeepAliveCost(),
              base_m.totalKeepAliveCost());
}

TEST(WildPolicyTest, EndToEndSmoke)
{
    const harness::Workload workload = smallWorkload();
    const auto result = harness::runScheme(
        harness::Scheme::Wild, workload,
        sim::defaultHeterogeneousCluster());
    EXPECT_GT(result.metrics.invocations, 0u);
    EXPECT_GT(result.metrics.warm_starts, 0u);
}

// ---------------------------------------------------------------- Oracle

TEST(OraclePolicyTest, ZeroKeepAliveAfterExecution)
{
    OraclePolicy policy;
    EXPECT_EQ(policy.keepAliveAfterExecutionMs(0, Tier::HighEnd, 999),
              0);
}

TEST(OraclePolicyTest, BestServiceTimeOfAllSchemes)
{
    const harness::Workload workload = smallWorkload();
    const sim::ClusterConfig cluster =
        sim::defaultHeterogeneousCluster();
    const auto results = harness::runAllSchemes(workload, cluster);
    const auto &oracle = results.back();
    ASSERT_EQ(oracle.scheme, harness::Scheme::Oracle);
    for (const auto &other : results) {
        EXPECT_LE(oracle.metrics.meanServiceMs(),
                  other.metrics.meanServiceMs() + 1e-9)
            << harness::schemeName(other.scheme);
        EXPECT_LE(oracle.metrics.totalKeepAliveCost(),
                  other.metrics.totalKeepAliveCost() + 1e-9);
    }
    EXPECT_GT(oracle.metrics.warmStartFraction(), 0.99);
}

// --------------------------------------------------------------- Harness

TEST(HarnessTest, SchemeNamesAndFactory)
{
    EXPECT_EQ(harness::allSchemes().size(), 5u);
    for (harness::Scheme scheme : harness::allSchemes()) {
        const auto policy = harness::makePolicy(scheme);
        ASSERT_NE(policy, nullptr);
        EXPECT_STRNE(policy->name(), "");
    }
    EXPECT_STREQ(harness::schemeName(harness::Scheme::IceBreaker),
                 "IceBreaker");
}

TEST(HarnessTest, ImprovementMath)
{
    EXPECT_DOUBLE_EQ(harness::improvementOver(100.0, 60.0), 0.4);
    EXPECT_DOUBLE_EQ(harness::improvementOver(100.0, 130.0), -0.3);
    EXPECT_DOUBLE_EQ(harness::improvementOver(0.0, 50.0), 0.0);
}

TEST(HarnessTest, ServiceSummary)
{
    const std::vector<float> samples{100.0f, 200.0f, 300.0f, 400.0f,
                                     10000.0f};
    const harness::ServiceSummary summary =
        harness::summarizeService(samples);
    EXPECT_DOUBLE_EQ(summary.median_ms, 300.0);
    EXPECT_GT(summary.p95_ms, 400.0);
    EXPECT_NEAR(summary.mean_ms, 2200.0, 1e-9);
}

TEST(HarnessTest, CohortsArePlausible)
{
    const harness::Workload workload = smallWorkload(100, 720);
    const sim::ClusterConfig cluster =
        sim::defaultHeterogeneousCluster();
    const auto base = harness::runScheme(harness::Scheme::OpenWhisk,
                                         workload, cluster);
    const harness::Cohorts cohorts =
        harness::buildCohorts(workload.trace, base.metrics);
    EXPECT_GT(cohorts.hard_to_predict.size(), 5u);
    EXPECT_GT(cohorts.infrequent.size(), 5u);
    EXPECT_GT(cohorts.frequent.size(), 5u);
    EXPECT_GT(cohorts.spiky.size(), 5u);

    // Infrequent cohort's functions really are less invoked than the
    // frequent cohort's.
    auto invocations = [&](FunctionId fn) {
        return base.metrics.per_function[fn].invocations;
    };
    std::uint64_t max_infrequent = 0;
    for (FunctionId fn : cohorts.infrequent)
        max_infrequent = std::max(max_infrequent, invocations(fn));
    std::uint64_t min_frequent = UINT64_MAX;
    for (FunctionId fn : cohorts.frequent)
        min_frequent = std::min(min_frequent, invocations(fn));
    EXPECT_LE(max_infrequent, min_frequent);
}

TEST(HarnessTest, PerFunctionImprovementVectors)
{
    const harness::Workload workload = smallWorkload(50, 300);
    const sim::ClusterConfig cluster =
        sim::defaultHeterogeneousCluster();
    const auto base = harness::runScheme(harness::Scheme::OpenWhisk,
                                         workload, cluster);
    const auto oracle = harness::runScheme(harness::Scheme::Oracle,
                                           workload, cluster);
    const std::vector<double> improvement =
        harness::perFunctionServiceImprovement(base.metrics,
                                               oracle.metrics);
    EXPECT_FALSE(improvement.empty());
    // The Oracle never degrades a function's mean service time.
    for (double value : improvement)
        EXPECT_GE(value, -1e-9);
}

} // namespace
