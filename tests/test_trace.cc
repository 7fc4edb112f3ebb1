/**
 * @file
 * Tests for the trace substrate: container types, the synthetic
 * generator's statistical properties, the Azure CSV loader, and the
 * trace characterisation used by Fig. 5.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "trace/azure_loader.hh"
#include "trace/synthetic.hh"
#include "trace/trace.hh"
#include "trace/trace_stats.hh"

namespace
{

using namespace iceb;
using namespace iceb::trace;

FunctionSeries
makeSeries(std::vector<std::uint32_t> counts)
{
    FunctionSeries series;
    series.name = std::string("t");
    series.memory_mb = 128;
    series.avg_exec_ms = 500;
    series.concurrency = std::move(counts);
    return series;
}

// ----------------------------------------------------------------- Trace

TEST(TraceTest, AddFunctionAssignsDenseIds)
{
    Trace trace(4, 60'000);
    const FunctionId a = trace.addFunction(makeSeries({0, 1, 2, 0}));
    const FunctionId b = trace.addFunction(makeSeries({1, 0, 0, 1}));
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(trace.numFunctions(), 2u);
    EXPECT_EQ(trace.function(a).id, a);
}

TEST(TraceTest, TotalsAndHorizon)
{
    Trace trace(4, 60'000);
    trace.addFunction(makeSeries({0, 1, 2, 0}));
    trace.addFunction(makeSeries({1, 0, 0, 1}));
    EXPECT_EQ(trace.totalInvocations(), 5u);
    EXPECT_EQ(trace.horizonMs(), 240'000);
    EXPECT_EQ(trace.intervalMs(), 60'000);
}

TEST(TraceTest, SeriesAccessors)
{
    const FunctionSeries s = makeSeries({0, 3, 0, 2});
    EXPECT_EQ(s.totalInvocations(), 5u);
    EXPECT_EQ(s.activeIntervals(), 2u);
    EXPECT_EQ(s.at(1), 3u);
    EXPECT_EQ(s.at(-1), 0u);
    EXPECT_EQ(s.at(99), 0u);
}

TEST(TraceDeathTest, MismatchedSeriesLengthPanics)
{
    Trace trace(4, 60'000);
    EXPECT_DEATH(trace.addFunction(makeSeries({1, 2})), "length");
}

TEST(TraceTest, ClassNames)
{
    EXPECT_STREQ(functionClassName(FunctionClass::Periodic), "periodic");
    EXPECT_STREQ(functionClassName(FunctionClass::Infrequent),
                 "infrequent");
    EXPECT_STREQ(functionClassName(FunctionClass::Random), "random");
}

// ------------------------------------------------------------- Synthetic

TEST(SyntheticTest, GeneratesRequestedGeometry)
{
    SyntheticConfig config;
    config.num_functions = 30;
    config.num_intervals = 200;
    const Trace trace = SyntheticTraceGenerator(config).generate();
    EXPECT_EQ(trace.numFunctions(), 30u);
    EXPECT_EQ(trace.numIntervals(), 200u);
    for (const auto &fn : trace.functions()) {
        EXPECT_EQ(fn.concurrency.size(), 200u);
        EXPECT_GT(fn.memory_mb, 0);
        EXPECT_GT(fn.avg_exec_ms, 0);
    }
}

TEST(SyntheticTest, DeterministicForSameSeed)
{
    SyntheticConfig config;
    config.num_functions = 20;
    config.num_intervals = 150;
    const Trace a = SyntheticTraceGenerator(config).generate();
    const Trace b = SyntheticTraceGenerator(config).generate();
    ASSERT_EQ(a.numFunctions(), b.numFunctions());
    for (FunctionId fn = 0; fn < a.numFunctions(); ++fn)
        EXPECT_EQ(a.function(fn).concurrency,
                  b.function(fn).concurrency);
}

TEST(SyntheticTest, DifferentSeedsDiffer)
{
    SyntheticConfig config;
    config.num_functions = 10;
    config.num_intervals = 100;
    const Trace a = SyntheticTraceGenerator(config).generate();
    config.seed += 1;
    const Trace b = SyntheticTraceGenerator(config).generate();
    bool any_diff = false;
    for (FunctionId fn = 0; fn < a.numFunctions(); ++fn)
        if (a.function(fn).concurrency != b.function(fn).concurrency)
            any_diff = true;
    EXPECT_TRUE(any_diff);
}

TEST(SyntheticTest, ClassMixMatchesConfig)
{
    SyntheticConfig config;
    config.num_functions = 200;
    config.num_intervals = 100;
    const Trace trace = SyntheticTraceGenerator(config).generate();
    std::size_t infrequent = 0;
    std::size_t random = 0;
    for (const auto &fn : trace.functions()) {
        if (fn.cls == FunctionClass::Infrequent)
            ++infrequent;
        if (fn.cls == FunctionClass::Random)
            ++random;
    }
    EXPECT_EQ(infrequent,
              static_cast<std::size_t>(200 * config.frac_infrequent + 0.5));
    EXPECT_EQ(random,
              static_cast<std::size_t>(200 * config.frac_random + 0.5));
}

TEST(SyntheticTest, InfrequentFunctionsAreSparse)
{
    SyntheticConfig config;
    config.num_functions = 60;
    config.num_intervals = 2880; // two days
    const Trace trace = SyntheticTraceGenerator(config).generate();
    for (const auto &fn : trace.functions()) {
        if (fn.cls != FunctionClass::Infrequent)
            continue;
        EXPECT_LE(fn.totalInvocations(), 4u);
        EXPECT_GE(fn.totalInvocations(), 1u);
    }
}

TEST(SyntheticTest, SingleSeriesGeneration)
{
    SyntheticConfig config;
    config.num_intervals = 300;
    const SyntheticTraceGenerator gen(config);
    const FunctionSeries s =
        gen.generateSeries(FunctionClass::PeriodShift, 7);
    EXPECT_EQ(s.cls, FunctionClass::PeriodShift);
    EXPECT_EQ(s.concurrency.size(), 300u);
    EXPECT_GT(s.totalInvocations(), 0u);
}

TEST(SyntheticTest, BurstTrainEvaluation)
{
    BurstTrain train;
    train.period = 10.0;
    train.phase = 0.0;
    train.burst_len = 1;
    train.amplitude = 4.0;
    train.mod_depth = 0.0;
    // Active exactly at multiples of the period.
    EXPECT_GT(evaluateBurstTrain(train, 0.0), 3.9);
    EXPECT_DOUBLE_EQ(evaluateBurstTrain(train, 5.0), 0.0);
    EXPECT_GT(evaluateBurstTrain(train, 20.0), 3.9);
}

TEST(SyntheticTest, BurstTrainHumpShape)
{
    BurstTrain train;
    train.period = 20.0;
    train.phase = 0.0;
    train.burst_len = 6;
    train.amplitude = 10.0;
    train.mod_depth = 0.0;
    // Rises toward the middle of the burst, falls at the edges.
    const double edge = evaluateBurstTrain(train, 0.0);
    const double mid = evaluateBurstTrain(train, 2.5);
    EXPECT_GT(mid, edge);
    EXPECT_GT(mid, 8.0);
    EXPECT_DOUBLE_EQ(evaluateBurstTrain(train, 7.0), 0.0);
}

TEST(SyntheticTest, PeriodSwitchSignalChangesPeriod)
{
    const std::vector<double> signal =
        makePeriodSwitchSignal(200, 10.0, 20.0, 100, 5.0, 3.0);
    ASSERT_EQ(signal.size(), 200u);
    // All values within [level - amp, level + amp].
    for (double v : signal) {
        EXPECT_GE(v, 2.0 - 1e-9);
        EXPECT_LE(v, 8.0 + 1e-9);
    }
}

TEST(SyntheticDeathTest, OverfullClassMixIsFatal)
{
    SyntheticConfig config;
    config.frac_multi_harmonic = 0.9;
    config.frac_infrequent = 0.9;
    EXPECT_EXIT(SyntheticTraceGenerator{config},
                ::testing::ExitedWithCode(1), "fractions");
}

/** Every class generates non-degenerate series. */
class SyntheticClassTest
    : public ::testing::TestWithParam<FunctionClass>
{
};

TEST_P(SyntheticClassTest, SeriesHasInvocationsAndCorrectClass)
{
    SyntheticConfig config;
    config.num_intervals = 1440;
    const SyntheticTraceGenerator gen(config);
    const FunctionSeries s = gen.generateSeries(GetParam(), 11);
    EXPECT_EQ(s.cls, GetParam());
    EXPECT_GT(s.totalInvocations(), 0u);
    EXPECT_LT(s.activeIntervals(), s.concurrency.size());
}

INSTANTIATE_TEST_SUITE_P(
    Classes, SyntheticClassTest,
    ::testing::Values(FunctionClass::Periodic,
                      FunctionClass::MultiHarmonic,
                      FunctionClass::PeriodShift, FunctionClass::Spiky,
                      FunctionClass::Infrequent, FunctionClass::Random));

// ---------------------------------------------------------- Azure loader

TEST(AzureLoaderTest, ParsesSchema)
{
    std::istringstream in(
        "name,memory_mb,avg_exec_ms,m1,m2,m3\n"
        "fnA,256,700,0,2,1\n"
        "fnB,512,1200,3,0,0\n");
    const Trace trace = loadAzureCsv(in);
    ASSERT_EQ(trace.numFunctions(), 2u);
    EXPECT_EQ(trace.numIntervals(), 3u);
    EXPECT_EQ(trace.function(0).name, "fnA");
    EXPECT_EQ(trace.function(0).memory_mb, 256);
    EXPECT_EQ(trace.function(0).avg_exec_ms, 700);
    EXPECT_EQ(trace.function(0).concurrency,
              (std::vector<std::uint32_t>{0, 2, 1}));
    EXPECT_EQ(trace.function(1).at(0), 3u);
}

TEST(AzureLoaderTest, MaxFunctionsCap)
{
    std::istringstream in(
        "name,memory_mb,avg_exec_ms,m1\n"
        "a,1,1,1\nb,1,1,1\nc,1,1,1\n");
    AzureLoadOptions options;
    options.max_functions = 2;
    const Trace trace = loadAzureCsv(in, options);
    EXPECT_EQ(trace.numFunctions(), 2u);
}

TEST(AzureLoaderTest, RoundTripThroughWriter)
{
    SyntheticConfig config;
    config.num_functions = 8;
    config.num_intervals = 60;
    const Trace original = SyntheticTraceGenerator(config).generate();
    std::ostringstream out;
    writeAzureCsv(out, original);
    std::istringstream in(out.str());
    const Trace loaded = loadAzureCsv(in);
    ASSERT_EQ(loaded.numFunctions(), original.numFunctions());
    for (FunctionId fn = 0; fn < loaded.numFunctions(); ++fn) {
        EXPECT_EQ(loaded.function(fn).concurrency,
                  original.function(fn).concurrency);
        EXPECT_EQ(loaded.function(fn).memory_mb,
                  original.function(fn).memory_mb);
    }
}

TEST(AzureLoaderDeathTest, RejectsMalformedRows)
{
    std::istringstream in(
        "name,memory_mb,avg_exec_ms,m1,m2\n"
        "a,1,1,1,2\n"
        "b,1,1,1\n"); // second row is one minute column short
    EXPECT_EXIT(loadAzureCsv(in), ::testing::ExitedWithCode(1),
                "minute columns");
}

TEST(AzureLoaderDeathTest, RejectsNegativeCounts)
{
    std::istringstream in(
        "name,memory_mb,avg_exec_ms,m1\n"
        "a,1,1,-4\n");
    EXPECT_EXIT(loadAzureCsv(in), ::testing::ExitedWithCode(1),
                "negative");
}

// ------------------------------------------------------------ TraceStats

TEST(TraceStatsTest, PeriodicCensusFindsStructure)
{
    SyntheticConfig config;
    config.num_functions = 120;
    config.num_intervals = 720;
    const Trace trace = SyntheticTraceGenerator(config).generate();
    const TraceCharacter character = characterizeTrace(trace);
    // The generator plants ~88% structurally periodic functions; the
    // census should find most of them, and the bulk should have
    // fewer than ten significant harmonics (paper Fig. 5b; sharp
    // single-minute pulse trains legitimately exceed ten).
    EXPECT_GT(character.fraction_periodic, 0.6);
    EXPECT_GT(character.fraction_under_ten, 0.3);
    EXPECT_GT(character.fraction_multi_harmonic, 0.2);
    EXPECT_EQ(character.functions.size(), trace.numFunctions());
}

TEST(TraceStatsTest, InterArrivalGaps)
{
    const FunctionSeries s = makeSeries({1, 0, 0, 2, 1, 0, 1});
    const std::vector<double> gaps = interArrivalIntervals(s);
    EXPECT_EQ(gaps, (std::vector<double>{3.0, 1.0, 2.0}));
}

TEST(TraceStatsTest, NoArrivalsNoGaps)
{
    const FunctionSeries s = makeSeries({0, 0, 0});
    EXPECT_TRUE(interArrivalIntervals(s).empty());
}

} // namespace
