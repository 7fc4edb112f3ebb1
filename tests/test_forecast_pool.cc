/**
 * @file
 * Tests for the batched SoA forecasting engine: the ForecastPool and
 * its block kernels against the scalar FftPredictor golden reference.
 *
 * The central contract is bitwise: in exact mode (the policy default)
 * every forecast value the pool produces must match
 * FftPredictor::forecastHorizon bit for bit, across power-of-two and
 * Bluestein window lengths, during warm-up and steady state, for any
 * thread count. Fast mode is held to a 1e-9 agreement budget.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "math/fft.hh"
#include "predictors/fft_predictor.hh"
#include "predictors/forecast_kernels.hh"
#include "predictors/forecast_pool.hh"

namespace
{

using namespace iceb;
using namespace iceb::predictors;

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/**
 * Deterministic synthetic workload: periodic structure plus a
 * hash-scrambled irregular component, distinct per function. Always
 * non-negative; occasionally exactly zero (exercising the predictor's
 * max(0,.) clamp inputs without silencing whole windows).
 */
double
signalAt(std::size_t fn, std::size_t t)
{
    const double phase = static_cast<double>(fn % 17) * 0.37;
    double v = 4.0 + 3.0 * std::sin(0.23 * static_cast<double>(t) + phase) +
        1.5 * std::cos(0.071 * static_cast<double>(t));
    std::uint64_t h = (fn + 1) * 0x9e3779b97f4a7c15ull + t * 0xbf58476d1ce4e5b9ull;
    h ^= h >> 29;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 32;
    v += static_cast<double>(h % 1000) / 250.0;
    if (h % 13 == 0)
        return 0.0;
    return v;
}

void
expectHorizonBitsEqual(const double *pool_out,
                       const std::vector<double> &scalar_out,
                       std::size_t fn, std::size_t t)
{
    for (std::size_t step = 0; step < scalar_out.size(); ++step) {
        ASSERT_EQ(bits(pool_out[step]), bits(scalar_out[step]))
            << "fn=" << fn << " t=" << t << " step=" << step
            << " pool=" << pool_out[step]
            << " scalar=" << scalar_out[step];
    }
}

/**
 * Roll `intervals` observation/forecast rounds over `functions`
 * functions with the given config, asserting the pool matches the
 * scalar predictor bit for bit at every round (including warm-up,
 * where lanes take the scalar core).
 */
void
rollAndCompare(const FftPredictorConfig &config, std::size_t functions,
               std::size_t intervals, std::size_t horizon,
               std::size_t threads = 1)
{
    ForecastPoolOptions opts;
    opts.threads = threads;
    ForecastPool pool(opts);
    std::vector<FftPredictor> scalar;
    scalar.reserve(functions);
    for (std::size_t fn = 0; fn < functions; ++fn) {
        EXPECT_EQ(pool.addFunction(config), fn);
        scalar.emplace_back(config);
    }

    std::vector<double> golden;
    for (std::size_t t = 0; t < intervals; ++t) {
        for (std::size_t fn = 0; fn < functions; ++fn) {
            const double v = signalAt(fn, t);
            pool.observe(fn, v);
            scalar[fn].observe(v);
        }
        pool.forecastAll(horizon);
        for (std::size_t fn = 0; fn < functions; ++fn) {
            scalar[fn].forecastHorizon(horizon, golden);
            expectHorizonBitsEqual(pool.forecast(fn), golden, fn, t);
        }
    }
}

// --------------------------------------------------- exact equivalence

TEST(ForecastPoolTest, BitIdenticalPow2Windows)
{
    for (const std::size_t window : {8u, 16u, 32u, 64u, 128u}) {
        FftPredictorConfig config;
        config.window = window;
        // Cover warm-up, the first full window, and ring wrap-around.
        rollAndCompare(config, 5, window + window / 2 + 3, 11);
    }
}

TEST(ForecastPoolTest, BitIdenticalBluesteinWindows)
{
    for (const std::size_t window : {12u, 24u, 60u, 120u}) {
        FftPredictorConfig config;
        config.window = window;
        rollAndCompare(config, 5, window + window / 2 + 3, 11);
    }
}

TEST(ForecastPoolTest, BitIdenticalOddWindows)
{
    // Odd lengths take forwardReal's full-complex fallback.
    for (const std::size_t window : {9u, 15u, 21u}) {
        FftPredictorConfig config;
        config.window = window;
        config.min_samples = 4;
        rollAndCompare(config, 4, 2 * window + 3, 7);
    }
}

TEST(ForecastPoolTest, BitIdenticalBelowBatchThreshold)
{
    // window < 8 never qualifies for the batch kernels: the scalar
    // core must still match (including the min_samples mean path).
    FftPredictorConfig config;
    config.window = 6;
    config.min_samples = 4;
    rollAndCompare(config, 3, 15, 5);
}

TEST(ForecastPoolTest, BitIdenticalMoreLanesThanOneBlock)
{
    // > kLanes functions forces multiple blocks incl. a partial tail.
    FftPredictorConfig config;
    config.window = 16;
    rollAndCompare(config, kernels::kLanes * 2 + 3, 40, 11);
}

TEST(ForecastPoolTest, SilentFunctionForecastsZeros)
{
    FftPredictorConfig config;
    config.window = 16;
    ForecastPool pool;
    const std::size_t slot = pool.addFunction(config);
    for (std::size_t t = 0; t < 40; ++t)
        pool.observe(slot, 0.0);
    pool.forecastAll(6);
    for (std::size_t step = 0; step < 6; ++step)
        EXPECT_EQ(bits(pool.forecast(slot)[step]), bits(0.0));
}

TEST(ForecastPoolTest, MixedConfigPools)
{
    // Functions with different configs land in different groups but
    // one forecastAll covers them all, each bit-identical to its own
    // scalar reference.
    std::vector<FftPredictorConfig> configs(4);
    configs[0].window = 16;
    configs[1].window = 60;
    configs[2].window = 16;
    configs[2].harmonics = 3;
    configs[3].window = 120;

    ForecastPool pool;
    std::vector<FftPredictor> scalar;
    const std::size_t functions = 12;
    for (std::size_t fn = 0; fn < functions; ++fn) {
        const FftPredictorConfig &config = configs[fn % configs.size()];
        EXPECT_EQ(pool.addFunction(config), fn);
        scalar.emplace_back(config);
    }
    std::vector<double> golden;
    for (std::size_t t = 0; t < 150; ++t) {
        for (std::size_t fn = 0; fn < functions; ++fn) {
            const double v = signalAt(fn, t);
            pool.observe(fn, v);
            scalar[fn].observe(v);
        }
        pool.forecastAll(11);
        for (std::size_t fn = 0; fn < functions; ++fn) {
            scalar[fn].forecastHorizon(11, golden);
            expectHorizonBitsEqual(pool.forecast(fn), golden, fn, t);
        }
    }
}

// ------------------------------------------------- pool slot lifecycle

TEST(ForecastPoolTest, MidStreamArrivalAndRetirement)
{
    FftPredictorConfig config;
    config.window = 16;
    ForecastPool pool;
    std::vector<std::unique_ptr<FftPredictor>> scalar;
    std::vector<std::size_t> slots;
    for (std::size_t fn = 0; fn < 6; ++fn) {
        slots.push_back(pool.addFunction(config));
        scalar.push_back(std::make_unique<FftPredictor>(config));
    }

    std::vector<double> golden;
    const auto step_all = [&](std::size_t t) {
        for (std::size_t i = 0; i < slots.size(); ++i) {
            if (scalar[i] == nullptr)
                continue;
            const double v = signalAt(i, t);
            pool.observe(slots[i], v);
            scalar[i]->observe(v);
        }
        pool.forecastAll(9);
        for (std::size_t i = 0; i < slots.size(); ++i) {
            if (scalar[i] == nullptr)
                continue;
            scalar[i]->forecastHorizon(9, golden);
            expectHorizonBitsEqual(pool.forecast(slots[i]), golden, i, t);
        }
    };

    std::size_t t = 0;
    for (; t < 25; ++t)
        step_all(t);

    // Retire two mid-stream functions...
    pool.removeFunction(slots[1]);
    scalar[1].reset();
    pool.removeFunction(slots[4]);
    scalar[4].reset();
    EXPECT_EQ(pool.size(), 4u);
    for (; t < 40; ++t)
        step_all(t);

    // ...then add new arrivals, which must reuse the freed slots and
    // start from an empty history.
    const std::size_t reused = pool.addFunction(config);
    EXPECT_TRUE(reused == slots[1] || reused == slots[4]);
    slots.push_back(reused);
    scalar.push_back(std::make_unique<FftPredictor>(config));
    const std::size_t reused2 = pool.addFunction(config);
    EXPECT_TRUE(reused2 == slots[1] || reused2 == slots[4]);
    EXPECT_NE(reused2, reused);
    slots.push_back(reused2);
    scalar.push_back(std::make_unique<FftPredictor>(config));
    EXPECT_EQ(pool.size(), 6u);
    for (; t < 70; ++t)
        step_all(t);
}

TEST(ForecastPoolTest, ResetMirrorsScalarReset)
{
    FftPredictorConfig config;
    config.window = 12;
    ForecastPool pool;
    FftPredictor scalar(config);
    const std::size_t slot = pool.addFunction(config);
    std::vector<double> golden;
    for (std::size_t t = 0; t < 30; ++t) {
        const double v = signalAt(0, t);
        pool.observe(slot, v);
        scalar.observe(v);
        if (t == 20) {
            pool.reset(slot);
            scalar.reset();
        }
        pool.forecastAll(5);
        scalar.forecastHorizon(5, golden);
        expectHorizonBitsEqual(pool.forecast(slot), golden, 0, t);
        EXPECT_EQ(pool.sampleCount(slot), scalar.sampleCount());
    }
}

// ------------------------------------------------------------ threads

TEST(ForecastPoolTest, ThreadCountDoesNotChangeBits)
{
    // One pool per thread count, reused by every forecastAll round:
    // its persistent workers must reproduce the inline bits at every
    // round, not only the last.
    FftPredictorConfig config;
    config.window = 60;
    const std::size_t functions = 37;
    const std::size_t horizon = 11;

    const auto run = [&](std::size_t threads) {
        ForecastPoolOptions opts;
        opts.threads = threads;
        ForecastPool pool(opts);
        for (std::size_t fn = 0; fn < functions; ++fn)
            pool.addFunction(config);
        std::vector<double> out;
        for (std::size_t t = 0; t < 90; ++t) {
            for (std::size_t fn = 0; fn < functions; ++fn)
                pool.observe(fn, signalAt(fn, t));
            pool.forecastAll(horizon);
            for (std::size_t fn = 0; fn < functions; ++fn)
                out.insert(out.end(), pool.forecast(fn),
                           pool.forecast(fn) + horizon);
        }
        return out;
    };

    const std::vector<double> one = run(1);
    for (const std::size_t threads : {2u, 4u}) {
        const std::vector<double> many = run(threads);
        ASSERT_EQ(one.size(), many.size());
        for (std::size_t i = 0; i < one.size(); ++i)
            ASSERT_EQ(bits(one[i]), bits(many[i]))
                << "threads=" << threads << " round="
                << i / (functions * horizon) << " i=" << i;
    }
}

TEST(ForecastPoolTest, ThreadedExactModeMatchesScalar)
{
    FftPredictorConfig config;
    config.window = 120;
    rollAndCompare(config, 2 * kernels::kLanes + 1, 140, 11,
                   /*threads=*/4);
}

// ---------------------------------------------------------- fast mode

TEST(ForecastPoolTest, FastModeWithinTolerance)
{
    for (const std::size_t window : {16u, 60u, 120u}) {
        FftPredictorConfig config;
        config.window = window;
        ForecastPoolOptions opts;
        opts.fast_path = true;
        ForecastPool pool(opts);
        FftPredictor scalar(config);
        const std::size_t slot = pool.addFunction(config);
        std::vector<double> golden;
        for (std::size_t t = 0; t < 2 * window; ++t) {
            const double v = signalAt(3, t);
            pool.observe(slot, v);
            scalar.observe(v);
            pool.forecastAll(11);
            scalar.forecastHorizon(11, golden);
            for (std::size_t step = 0; step < golden.size(); ++step) {
                EXPECT_NEAR(pool.forecast(slot)[step], golden[step],
                            1e-9)
                    << "window=" << window << " t=" << t
                    << " step=" << step;
            }
        }
    }
}

// ------------------------------------------------------- FFT kernels

TEST(ForecastKernelsTest, ForwardRealBatchMatchesPlanBitwise)
{
    using kernels::kLanes;
    for (const std::size_t n : {8u, 9u, 12u, 15u, 16u, 60u, 64u, 120u,
                                128u}) {
        const auto plan = math::fftPlanFor(n);
        std::vector<double> in(n * kLanes);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t l = 0; l < kLanes; ++l)
                in[i * kLanes + l] =
                    signalAt(l, i) - 3.0 * std::sin(0.01 * i);

        kernels::BlockContext ctx;
        ctx.plan = plan.get();
        ctx.window = n;
        kernels::BlockScratch scratch;
        scratch.prepare(ctx);
        std::vector<double> out_re((n / 2 + 1) * kLanes);
        std::vector<double> out_im((n / 2 + 1) * kLanes);
        kernels::forwardRealBatch(*plan, in.data(), out_re.data(),
                                  out_im.data(), scratch);

        std::vector<double> lane(n);
        std::vector<math::Complex> spectrum(n);
        math::FftScratch fft_ws;
        for (std::size_t l = 0; l < kLanes; ++l) {
            for (std::size_t i = 0; i < n; ++i)
                lane[i] = in[i * kLanes + l];
            plan->forwardReal(lane.data(), spectrum.data(), fft_ws);
            for (std::size_t k = 0; k <= n / 2; ++k) {
                ASSERT_EQ(bits(out_re[k * kLanes + l]),
                          bits(spectrum[k].real()))
                    << "n=" << n << " lane=" << l << " bin=" << k;
                ASSERT_EQ(bits(out_im[k * kLanes + l]),
                          bits(spectrum[k].imag()))
                    << "n=" << n << " lane=" << l << " bin=" << k;
            }
        }
    }
}

} // namespace
