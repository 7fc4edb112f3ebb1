/**
 * @file
 * FIP hot-path microbenchmark: ns/forecast and allocations/forecast
 * for the predict-per-interval loop, across a functions x intervals
 * grid, against a frozen copy of the pre-optimisation predictor.
 *
 * Two measured modes:
 *   legacy       the predictor as it stood before the plan-cached
 *                rewrite (vector-erase window, per-call Bluestein
 *                FFT, Matrix-based least squares) -- frozen below so
 *                the speedup baseline cannot drift as src/ evolves;
 *   plan         today's scalar FIP (plan-cached FFT, ring buffer,
 *                reused workspaces). The complex FFT plans are
 *                bit-identical to the legacy code; the real-input
 *                packing reorders roundoff, so end-to-end forecasts
 *                match legacy to ~1e-12 (figure outputs stay
 *                byte-identical).
 *
 * Also times the raw non-power-of-two real FFT (legacy per-call
 * Bluestein vs cached plan) since that is the single hottest kernel.
 *
 * A many-function *batch* section times the ForecastPool's
 * SoA block engine against a fleet of scalar FftPredictor instances:
 * ns/forecast and forecasts/sec for scalar vs pool-exact
 * (bit-identical mode) vs pool-fast (rotation-recurrence trig,
 * <= 1e-9), at --batch-functions scale (default 10000, accepted up to
 * 1M synthetic histories). It also walks the warm-up ramp of a fleet
 * restarting from empty histories (at most 1024 functions): every
 * fill level min_samples..window-1, timed per mode and checked at
 * every level.
 *
 * Flags (parsed by bench_util's parseFlags, like every bench: a bad
 * or non-positive value exits 1 with a usage message naming the flag):
 *   --functions N / --intervals N   grid size (default 64 x 400)
 *   --window N                      FIP window (default 120, non-pow2)
 *   --threads N                     shard functions across N threads
 *   --batch-functions N             batch-section fleet size
 *                                   (default 10000, capped at 1M)
 *   --batch-intervals N             timed rounds per batch mode
 *                                   (default 3)
 *   --json PATH                     output path (default BENCH_fip.json,
 *                                   or none with --baseline; refuses
 *                                   the --baseline file itself)
 *   --smoke                         tiny grid + correctness gates:
 *                                   exits non-zero if the plan path
 *                                   allocates in steady state, drifts
 *                                   from legacy, the batch pool
 *                                   diverges (exact must be
 *                                   bit-identical, fast <= 1e-9, in
 *                                   steady state and at every warm-up
 *                                   fill level), or the pool
 *                                   allocates in steady state.
 *                                   Absolute timings are NOT gated
 *                                   (CI noise).
 *   --baseline PATH                 [batch speedup] -- gate the batch
 *                                   fast-vs-scalar speedup against a
 *                                   committed BENCH_fip.json: re-runs
 *                                   at the committed batch scale and
 *                                   fails if more than 2% below it
 *                                   (harness::gateBestOf: best of up
 *                                   to 5 rounds). Refuses loudly if the
 *                                   committed config digest does not
 *                                   match its recorded window/horizon/
 *                                   batch geometry (stale baseline) or
 *                                   does not match this run's window
 *                                   and horizon.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_probe.hh"
#include "bench/bench_util.hh"
#include "common/worker_pool.hh"
#include "harness/baseline_gate.hh"
#include "math/fft.hh"
#include "math/harmonics.hh"
#include "math/matrix.hh"
#include "math/polyfit.hh"
#include "math/stats.hh"
#include "predictors/fft_predictor.hh"
#include "predictors/forecast_pool.hh"

namespace legacy
{

// ---------------------------------------------------------------------------
// Frozen pre-optimisation implementation (the seed's src/math FFT +
// least-squares path and the vector-erase predictor window). Kept
// verbatim so `speedup_vs_legacy` always compares against the same
// baseline, independent of future src/ changes. Do not "fix" or
// modernise this code.
// ---------------------------------------------------------------------------

using iceb::math::Complex;

std::size_t
bitReverse(std::size_t i, int log2n)
{
    std::size_t out = 0;
    for (int b = 0; b < log2n; ++b) {
        out = (out << 1) | (i & 1);
        i >>= 1;
    }
    return out;
}

void
fftPow2Impl(std::vector<Complex> &data, bool inverse)
{
    const std::size_t n = data.size();
    int log2n = 0;
    while ((std::size_t{1} << log2n) < n)
        ++log2n;

    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t j = bitReverse(i, log2n);
        if (j > i)
            std::swap(data[i], data[j]);
    }

    for (std::size_t len = 2; len <= n; len <<= 1) {
        const double angle =
            (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
        const Complex w_len(std::cos(angle), std::sin(angle));
        for (std::size_t start = 0; start < n; start += len) {
            Complex w(1.0, 0.0);
            for (std::size_t k = 0; k < len / 2; ++k) {
                const Complex even = data[start + k];
                const Complex odd = data[start + k + len / 2] * w;
                data[start + k] = even + odd;
                data[start + k + len / 2] = even - odd;
                w *= w_len;
            }
        }
    }

    if (inverse) {
        const double scale = 1.0 / static_cast<double>(n);
        for (auto &value : data)
            value *= scale;
    }
}

std::vector<Complex>
bluestein(const std::vector<Complex> &data, bool inverse)
{
    const std::size_t n = data.size();
    std::size_t m = 1;
    while (m < 2 * n + 1)
        m <<= 1;

    const double sign = inverse ? 1.0 : -1.0;
    std::vector<Complex> chirp(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double angle = sign * M_PI *
            static_cast<double>(i) * static_cast<double>(i) /
            static_cast<double>(n);
        chirp[i] = Complex(std::cos(angle), std::sin(angle));
    }

    std::vector<Complex> a(m, Complex(0.0, 0.0));
    std::vector<Complex> b(m, Complex(0.0, 0.0));
    for (std::size_t i = 0; i < n; ++i)
        a[i] = data[i] * chirp[i];
    b[0] = std::conj(chirp[0]);
    for (std::size_t i = 1; i < n; ++i)
        b[i] = b[m - i] = std::conj(chirp[i]);

    fftPow2Impl(a, false);
    fftPow2Impl(b, false);
    for (std::size_t i = 0; i < m; ++i)
        a[i] *= b[i];
    fftPow2Impl(a, true);

    std::vector<Complex> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = a[i] * chirp[i];
    if (inverse) {
        const double scale = 1.0 / static_cast<double>(n);
        for (auto &value : out)
            value *= scale;
    }
    return out;
}

std::vector<Complex>
fft(const std::vector<Complex> &data)
{
    if (iceb::math::isPowerOfTwo(data.size())) {
        std::vector<Complex> copy = data;
        fftPow2Impl(copy, false);
        return copy;
    }
    return bluestein(data, false);
}

std::vector<Complex>
fftReal(const std::vector<double> &data)
{
    std::vector<Complex> complex_data;
    complex_data.reserve(data.size());
    for (double value : data)
        complex_data.emplace_back(value, 0.0);
    return fft(complex_data);
}

std::vector<double>
solveLinearSystem(const iceb::math::Matrix &a,
                  const std::vector<double> &b, bool *singular)
{
    const std::size_t n = a.rows();
    if (singular)
        *singular = false;

    std::vector<std::vector<double>> work(n, std::vector<double>(n + 1));
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c)
            work[r][c] = a.at(r, c);
        work[r][n] = b[r];
    }

    for (std::size_t col = 0; col < n; ++col) {
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < n; ++r)
            if (std::fabs(work[r][col]) > std::fabs(work[pivot][col]))
                pivot = r;
        if (std::fabs(work[pivot][col]) < 1e-12) {
            if (singular) {
                *singular = true;
                return std::vector<double>(n, 0.0);
            }
            std::abort();
        }
        std::swap(work[col], work[pivot]);

        for (std::size_t r = col + 1; r < n; ++r) {
            const double factor = work[r][col] / work[col][col];
            if (factor == 0.0)
                continue;
            for (std::size_t c = col; c <= n; ++c)
                work[r][c] -= factor * work[col][c];
        }
    }

    std::vector<double> x(n, 0.0);
    for (std::size_t r = n; r-- > 0;) {
        double acc = work[r][n];
        for (std::size_t c = r + 1; c < n; ++c)
            acc -= work[r][c] * x[c];
        x[r] = acc / work[r][r];
    }
    return x;
}

iceb::math::Polynomial
polyfitSeries(const std::vector<double> &y, std::size_t degree)
{
    const std::size_t terms = degree + 1;
    std::vector<double> x(y.size());
    std::iota(x.begin(), x.end(), 0.0);

    iceb::math::Matrix ata(terms, terms);
    std::vector<double> aty(terms, 0.0);
    std::vector<double> powers(2 * degree + 1, 0.0);
    for (std::size_t i = 0; i < x.size(); ++i) {
        double xk = 1.0;
        for (std::size_t k = 0; k < powers.size(); ++k) {
            powers[k] += xk;
            if (k < terms)
                aty[k] += xk * y[i];
            xk *= x[i];
        }
    }
    for (std::size_t r = 0; r < terms; ++r)
        for (std::size_t c = 0; c < terms; ++c)
            ata.at(r, c) = powers[r + c];

    bool singular = false;
    std::vector<double> coeffs =
        legacy::solveLinearSystem(ata, aty, &singular);
    if (singular) {
        const double mean = std::accumulate(y.begin(), y.end(), 0.0) /
            static_cast<double>(y.size());
        std::vector<double> fallback(terms, 0.0);
        fallback[0] = mean;
        return iceb::math::Polynomial(std::move(fallback));
    }
    return iceb::math::Polynomial(std::move(coeffs));
}

std::vector<double>
detrend(const std::vector<double> &y, const iceb::math::Polynomial &trend)
{
    std::vector<double> out(y.size());
    for (std::size_t i = 0; i < y.size(); ++i)
        out[i] = y[i] - trend.evaluate(static_cast<double>(i));
    return out;
}

std::vector<iceb::math::Harmonic>
decompose(const std::vector<double> &series, std::size_t max_components)
{
    const std::size_t n = series.size();
    if (n < 2)
        return {};

    const std::vector<Complex> spectrum = fftReal(series);
    std::vector<iceb::math::Harmonic> harmonics;
    harmonics.reserve(n / 2);

    const double scale = 2.0 / static_cast<double>(n);
    for (std::size_t k = 1; k <= n / 2; ++k) {
        const bool nyquist = (n % 2 == 0) && (k == n / 2);
        const double amp =
            std::abs(spectrum[k]) * (nyquist ? 0.5 * scale : scale);
        if (amp < 1e-12)
            continue;
        iceb::math::Harmonic h;
        h.amplitude = amp;
        h.frequency = static_cast<double>(k) / static_cast<double>(n);
        h.phase = std::arg(spectrum[k]);
        harmonics.push_back(h);
    }

    std::sort(harmonics.begin(), harmonics.end(),
              [](const iceb::math::Harmonic &a,
                 const iceb::math::Harmonic &b) {
                  return a.amplitude > b.amplitude;
              });
    if (max_components > 0 && harmonics.size() > max_components)
        harmonics.resize(max_components);
    return harmonics;
}

std::vector<iceb::math::Harmonic>
decomposeForExtrapolation(const std::vector<double> &series,
                          std::size_t max_components)
{
    const std::size_t n = series.size();
    if (n < 8 || max_components == 0)
        return decompose(series, max_components);

    const std::vector<Complex> spectrum = fftReal(series);
    const std::size_t half = n / 2;

    std::vector<double> magnitude(half + 1, 0.0);
    for (std::size_t k = 1; k <= half; ++k)
        magnitude[k] = std::abs(spectrum[k]);

    struct Peak
    {
        std::size_t bin;
        double magnitude;
    };
    std::vector<Peak> peaks;
    for (std::size_t k = 1; k <= half; ++k) {
        const double left = k > 1 ? magnitude[k - 1] : 0.0;
        const double right = k < half ? magnitude[k + 1] : 0.0;
        if (magnitude[k] >= left && magnitude[k] >= right &&
            magnitude[k] > 1e-12) {
            peaks.push_back(Peak{k, magnitude[k]});
        }
    }
    if (peaks.empty())
        return {};
    std::sort(peaks.begin(), peaks.end(),
              [](const Peak &a, const Peak &b) {
                  return a.magnitude > b.magnitude;
              });
    if (peaks.size() > max_components)
        peaks.resize(max_components);

    std::vector<double> frequencies;
    for (const Peak &peak : peaks) {
        double delta = 0.0;
        const std::size_t k = peak.bin;
        if (k > 1 && k < half) {
            const double lm = std::log(magnitude[k - 1] + 1e-12);
            const double cm = std::log(magnitude[k] + 1e-12);
            const double rm = std::log(magnitude[k + 1] + 1e-12);
            const double denom = lm - 2.0 * cm + rm;
            if (std::fabs(denom) > 1e-12)
                delta = std::clamp(0.5 * (lm - rm) / denom, -0.5, 0.5);
        }
        frequencies.push_back(
            (static_cast<double>(k) + delta) / static_cast<double>(n));
    }

    const std::size_t terms = 2 * frequencies.size();
    iceb::math::Matrix xtx(terms, terms);
    std::vector<double> xty(terms, 0.0);
    std::vector<double> row(terms, 0.0);
    for (std::size_t t = 0; t < n; ++t) {
        for (std::size_t i = 0; i < frequencies.size(); ++i) {
            const double angle = 2.0 * M_PI * frequencies[i] *
                static_cast<double>(t);
            row[2 * i] = std::cos(angle);
            row[2 * i + 1] = std::sin(angle);
        }
        for (std::size_t a = 0; a < terms; ++a) {
            xty[a] += row[a] * series[t];
            for (std::size_t b = 0; b < terms; ++b)
                xtx.at(a, b) += row[a] * row[b];
        }
    }
    for (std::size_t a = 0; a < terms; ++a)
        xtx.at(a, a) += 1e-9;
    bool singular = false;
    const std::vector<double> coeffs =
        legacy::solveLinearSystem(xtx, xty, &singular);
    if (singular)
        return decompose(series, max_components);

    std::vector<iceb::math::Harmonic> harmonics;
    harmonics.reserve(frequencies.size());
    for (std::size_t i = 0; i < frequencies.size(); ++i) {
        const double a = coeffs[2 * i];
        const double b = coeffs[2 * i + 1];
        iceb::math::Harmonic h;
        h.amplitude = std::sqrt(a * a + b * b);
        h.frequency = frequencies[i];
        h.phase = std::atan2(-b, a);
        harmonics.push_back(h);
    }
    std::sort(harmonics.begin(), harmonics.end(),
              [](const iceb::math::Harmonic &x,
                 const iceb::math::Harmonic &y) {
                  return x.amplitude > y.amplitude;
              });
    return harmonics;
}

/** The pre-rewrite FftPredictor: erase-from-front window, fresh
 * allocations on every forecast. */
class Predictor
{
  public:
    explicit Predictor(iceb::predictors::FftPredictorConfig config)
        : config_(config)
    {
        window_.reserve(config_.window);
    }

    void
    observe(double concurrency)
    {
        if (window_.size() == config_.window)
            window_.erase(window_.begin());
        window_.push_back(std::max(0.0, concurrency));
    }

    std::vector<double>
    forecastHorizon(std::size_t horizon)
    {
        std::vector<double> out(horizon, 0.0);
        if (window_.empty())
            return out;
        const bool all_zero = std::all_of(
            window_.begin(), window_.end(),
            [](double v) { return v == 0.0; });
        if (all_zero)
            return out;
        if (window_.size() < config_.min_samples) {
            std::fill(out.begin(), out.end(),
                      std::max(0.0, iceb::math::mean(window_)));
            return out;
        }

        const iceb::math::Polynomial trend =
            polyfitSeries(window_, config_.poly_degree);
        const std::vector<double> residual =
            legacy::detrend(window_, trend);
        const std::vector<iceb::math::Harmonic> harmonics =
            decomposeForExtrapolation(residual, config_.harmonics);

        for (std::size_t step = 0; step < horizon; ++step) {
            const double t =
                static_cast<double>(window_.size() + step);
            const double forecast = trend.evaluate(t) +
                iceb::math::evaluateHarmonics(harmonics, t);
            out[step] = std::max(0.0, forecast);
        }
        return out;
    }

  private:
    iceb::predictors::FftPredictorConfig config_;
    std::vector<double> window_;
};

} // namespace legacy

namespace
{

// ---------------------------------------------------------------------------
// Workload: deterministic per-function concurrency signals (mixed
// periods, trends and phases -- enough spectral content to keep the
// harmonic path hot, like the active functions of an Azure trace).
// ---------------------------------------------------------------------------

struct BenchConfig
{
    std::size_t functions = 64;
    std::size_t intervals = 400;
    std::size_t window = 120;
    std::size_t horizon = 11;
    std::size_t threads = 1;
    std::size_t batch_functions = 10000;
    std::size_t batch_intervals = 3;
    std::string json_path;
    std::string baseline_path;
    bool smoke = false;
};

double
signalAt(std::size_t fn, std::size_t t)
{
    const double ft = static_cast<double>(t);
    const double base = 4.0 + static_cast<double>(fn % 7);
    const double p1 = 12.0 + static_cast<double>(fn % 5) * 7.0;
    const double p2 = 4.7 + static_cast<double>(fn % 3) * 1.9;
    const double phase = 0.37 * static_cast<double>(fn);
    const double trend = 0.004 * static_cast<double>((fn % 4)) * ft;
    const double value = base +
        3.0 * std::cos(2.0 * M_PI * ft / p1 + phase) +
        1.5 * std::cos(2.0 * M_PI * ft / p2) + trend;
    return std::max(0.0, value);
}

struct ModeResult
{
    double ns_per_forecast = 0.0;
    double allocs_per_forecast = 0.0;
    double checksum = 0.0;
};

using Clock = std::chrono::steady_clock;

/**
 * Run the grid for one mode. The callback owns per-function predictor
 * state; it is handed (function, interval) and returns the first
 * horizon step so the checksum defends against dead-code elimination.
 *
 * The warm-up pass (window fill + first forecasts) runs untimed so
 * the timed region is the steady state the simulator actually spends
 * its intervals in.
 */
template <typename MakeState, typename Step>
ModeResult
runGrid(const BenchConfig &cfg, MakeState make_state, Step step)
{
    const std::size_t warmup = cfg.window + 8;
    std::vector<decltype(make_state(std::size_t{0}))> states;
    states.reserve(cfg.functions);
    for (std::size_t fn = 0; fn < cfg.functions; ++fn)
        states.push_back(make_state(fn));

    for (std::size_t fn = 0; fn < cfg.functions; ++fn)
        for (std::size_t t = 0; t < warmup; ++t)
            step(states[fn], fn, t);

    const std::size_t total =
        cfg.functions * cfg.intervals;
    std::vector<double> checksums(std::max<std::size_t>(1, cfg.threads),
                                  0.0);

    // Spawned before the timed, allocation-counted region.
    iceb::WorkerPool pool(cfg.threads);
    const long long allocs_before = bench::allocationCount();
    const auto start = Clock::now();

    if (cfg.threads <= 1) {
        double acc = 0.0;
        for (std::size_t t = 0; t < cfg.intervals; ++t)
            for (std::size_t fn = 0; fn < cfg.functions; ++fn)
                acc += step(states[fn], fn, warmup + t);
        checksums[0] = acc;
    } else {
        // Shard functions across workers; shard w walks its own
        // predictors through every interval (the parallel-runner
        // geometry: functions are independent, intervals are not).
        pool.run(cfg.threads, [&](std::size_t w, std::size_t) {
            double acc = 0.0;
            for (std::size_t fn = w; fn < cfg.functions;
                 fn += cfg.threads) {
                for (std::size_t t = 0; t < cfg.intervals; ++t)
                    acc += step(states[fn], fn, warmup + t);
            }
            checksums[w] = acc;
        });
    }

    const double elapsed_ms = bench::elapsedMs(start);
    const long long allocs_after = bench::allocationCount();

    ModeResult result;
    result.ns_per_forecast = elapsed_ms * 1e6 / static_cast<double>(total);
    result.allocs_per_forecast =
        static_cast<double>(allocs_after - allocs_before) /
        static_cast<double>(total);
    result.checksum =
        std::accumulate(checksums.begin(), checksums.end(), 0.0);
    return result;
}

/**
 * Steady-state allocation probe: one predictor on a fixed-spectrum
 * stream, counted after every workspace capacity has converged. This
 * is the zero-allocation claim the smoke gate enforces; the grid's
 * allocs/forecast column additionally amortises one-off capacity
 * growth (new peak-count maxima) over the run.
 */
double
steadyStateAllocs(const BenchConfig &cfg)
{
    iceb::predictors::FftPredictorConfig fip;
    fip.window = cfg.window;
    iceb::predictors::FftPredictor predictor(fip);
    std::vector<double> out;
    for (std::size_t t = 0; t < cfg.window + 128; ++t) {
        predictor.observe(signalAt(3, t));
        predictor.forecastHorizon(cfg.horizon, out);
    }
    const int iters = 512;
    const long long before = bench::allocationCount();
    for (int i = 0; i < iters; ++i) {
        predictor.observe(
            signalAt(3, cfg.window + 128 + static_cast<std::size_t>(i)));
        predictor.forecastHorizon(cfg.horizon, out);
    }
    const long long after = bench::allocationCount();
    return static_cast<double>(after - before) / iters;
}

/** Raw non-power-of-two real-FFT kernel: per-call Bluestein vs plan. */
void
benchFftKernel(const BenchConfig &cfg, double &legacy_ns, double &plan_ns)
{
    std::vector<double> series(cfg.window);
    for (std::size_t t = 0; t < cfg.window; ++t)
        series[t] = signalAt(1, t);

    const int iters = cfg.smoke ? 50 : 2000;
    double sink = 0.0;

    auto start = Clock::now();
    for (int i = 0; i < iters; ++i) {
        series[0] = static_cast<double>(i % 17);
        sink += std::abs(legacy::fftReal(series)[3]);
    }
    legacy_ns = bench::elapsedMs(start) * 1e6 / iters;

    const auto plan = iceb::math::fftPlanFor(cfg.window);
    iceb::math::FftScratch scratch;
    std::vector<iceb::math::Complex> spectrum(cfg.window);
    // Prime the scratch so the timed loop is allocation-free.
    plan->forwardReal(series.data(), spectrum.data(), scratch);

    start = Clock::now();
    for (int i = 0; i < iters; ++i) {
        series[0] = static_cast<double>(i % 17);
        plan->forwardReal(series.data(), spectrum.data(), scratch);
        sink += std::abs(spectrum[3]);
    }
    plan_ns = bench::elapsedMs(start) * 1e6 / iters;

    if (sink == 42.0)
        std::cout << "";
}

/**
 * Forecast-agreement sweep (independent of the timed runs): walks one
 * function's stream through the legacy and plan predictors and
 * returns the worst per-step divergence (the smoke gate allows 1e-9).
 */
double
checkAgreement(const BenchConfig &cfg)
{
    iceb::predictors::FftPredictorConfig fip;
    fip.window = cfg.window;
    legacy::Predictor old_p(fip);
    iceb::predictors::FftPredictor plan_p(fip);

    double plan_vs_legacy = 0.0;
    std::vector<double> plan_out;
    const std::size_t steps = cfg.window + (cfg.smoke ? 40 : 200);
    for (std::size_t t = 0; t < steps; ++t) {
        const double v = signalAt(3, t);
        old_p.observe(v);
        plan_p.observe(v);
        const std::vector<double> old_out =
            old_p.forecastHorizon(cfg.horizon);
        plan_p.forecastHorizon(cfg.horizon, plan_out);
        for (std::size_t h = 0; h < cfg.horizon; ++h) {
            plan_vs_legacy = std::max(
                plan_vs_legacy, std::fabs(plan_out[h] - old_out[h]));
        }
    }
    return plan_vs_legacy;
}

// ---------------------------------------------------------------------------
// Batch section: the ForecastPool SoA engine vs a scalar predictor
// fleet at --batch-functions scale.
// ---------------------------------------------------------------------------

struct BatchResult
{
    std::size_t functions = 0;
    std::size_t intervals = 0;
    /** Functions the scalar fleet actually timed/verified (capped so
     * a 1M-function batch run does not also build 1M scalar
     * predictor objects; per-forecast scalar cost is scale-free). */
    std::size_t scalar_sample = 0;
    double scalar_ns = 0.0;
    double exact_ns = 0.0;
    double fast_ns = 0.0;
    double exact_diff = 0.0; //!< max |pool_exact - scalar| (gate: 0)
    long long exact_bit_mismatches = 0;
    double fast_diff = 0.0; //!< max |pool_fast - scalar| (gate: 1e-9)
    double steady_allocs = 0.0; //!< pool allocs per (function,interval)
};

BatchResult
runBatch(const BenchConfig &cfg)
{
    using iceb::predictors::FftPredictor;
    using iceb::predictors::FftPredictorConfig;
    using iceb::predictors::ForecastPool;
    using iceb::predictors::ForecastPoolOptions;

    BatchResult r;
    r.functions = cfg.batch_functions;
    r.intervals = cfg.batch_intervals;
    r.scalar_sample =
        std::min<std::size_t>(cfg.batch_functions, 65536);

    FftPredictorConfig fip;
    fip.window = cfg.window;

    ForecastPoolOptions exact_opts;
    ForecastPool pool_exact(exact_opts);
    ForecastPoolOptions fast_opts;
    fast_opts.fast_path = true;
    ForecastPool pool_fast(fast_opts);
    std::vector<FftPredictor> scalar;
    scalar.reserve(r.scalar_sample);
    for (std::size_t fn = 0; fn < cfg.batch_functions; ++fn) {
        pool_exact.addFunction(fip);
        pool_fast.addFunction(fip);
        if (fn < r.scalar_sample)
            scalar.emplace_back(fip);
    }

    // Fill every history to a full window (untimed), then one warm
    // forecast per mode so workspace capacities converge before the
    // timed rounds.
    const std::size_t warm = cfg.window + 8;
    for (std::size_t t = 0; t < warm; ++t) {
        for (std::size_t fn = 0; fn < cfg.batch_functions; ++fn) {
            const double v = signalAt(fn, t);
            pool_exact.observe(fn, v);
            pool_fast.observe(fn, v);
            if (fn < r.scalar_sample)
                scalar[fn].observe(v);
        }
    }
    pool_exact.forecastAll(cfg.horizon);
    pool_fast.forecastAll(cfg.horizon);
    std::vector<double> out;
    for (std::size_t fn = 0; fn < r.scalar_sample; ++fn)
        scalar[fn].forecastHorizon(cfg.horizon, out);

    // Timed rounds: observe one interval per function, then forecast
    // the fleet. All three modes walk the same observation stream so
    // the post-timing states line up for the equivalence sweep.
    const std::size_t rounds = cfg.batch_intervals;

    auto start = Clock::now();
    for (std::size_t rd = 0; rd < rounds; ++rd) {
        for (std::size_t fn = 0; fn < r.scalar_sample; ++fn) {
            scalar[fn].observe(signalAt(fn, warm + rd));
            scalar[fn].forecastHorizon(cfg.horizon, out);
        }
    }
    r.scalar_ns = bench::elapsedMs(start) * 1e6 /
        static_cast<double>(r.scalar_sample * rounds);

    start = Clock::now();
    for (std::size_t rd = 0; rd < rounds; ++rd) {
        for (std::size_t fn = 0; fn < cfg.batch_functions; ++fn)
            pool_exact.observe(fn, signalAt(fn, warm + rd));
        pool_exact.forecastAll(cfg.horizon);
    }
    r.exact_ns = bench::elapsedMs(start) * 1e6 /
        static_cast<double>(cfg.batch_functions * rounds);

    start = Clock::now();
    for (std::size_t rd = 0; rd < rounds; ++rd) {
        for (std::size_t fn = 0; fn < cfg.batch_functions; ++fn)
            pool_fast.observe(fn, signalAt(fn, warm + rd));
        pool_fast.forecastAll(cfg.horizon);
    }
    r.fast_ns = bench::elapsedMs(start) * 1e6 /
        static_cast<double>(cfg.batch_functions * rounds);

    // Equivalence sweep over a bounded subset (the scalar forecast is
    // recomputed from the identical post-timing history; the pools'
    // last forecastAll covers the same history).
    const std::size_t check =
        std::min<std::size_t>(r.scalar_sample, 4096);
    for (std::size_t fn = 0; fn < check; ++fn) {
        scalar[fn].forecastHorizon(cfg.horizon, out);
        const double *exact = pool_exact.forecast(fn);
        const double *fast = pool_fast.forecast(fn);
        for (std::size_t h = 0; h < cfg.horizon; ++h) {
            r.exact_diff = std::max(r.exact_diff,
                                    std::fabs(exact[h] - out[h]));
            if (std::memcmp(&exact[h], &out[h], sizeof(double)) != 0)
                ++r.exact_bit_mismatches;
            r.fast_diff =
                std::max(r.fast_diff, std::fabs(fast[h] - out[h]));
        }
    }

    // Steady-state allocation probe: one more observe+forecastAll
    // round per pool must not allocate at all.
    const long long before = bench::allocationCount();
    for (std::size_t fn = 0; fn < cfg.batch_functions; ++fn) {
        pool_exact.observe(fn, signalAt(fn, warm + rounds));
        pool_fast.observe(fn, signalAt(fn, warm + rounds));
    }
    pool_exact.forecastAll(cfg.horizon);
    pool_fast.forecastAll(cfg.horizon);
    const long long after = bench::allocationCount();
    r.steady_allocs = static_cast<double>(after - before) /
        static_cast<double>(cfg.batch_functions);
    return r;
}

/**
 * The warm-up ramp: a fleet restarting from empty histories, as after
 * a controller restart. Every interval whose fill level lies in
 * min_samples..window-1 forecasts the whole fleet in each mode, and
 * every forecast is checked against the scalar predictor's.
 */
struct WarmupResult
{
    std::size_t functions = 0;
    std::size_t fill_levels = 0; //!< forecast rounds walked
    double scalar_ns = 0.0;
    double exact_ns = 0.0;
    double fast_ns = 0.0;
    long long exact_bit_mismatches = 0; //!< over every level (gate: 0)
    double fast_diff = 0.0; //!< max |pool_fast - scalar| (gate: 1e-9)
};

WarmupResult
runWarmup(const BenchConfig &cfg)
{
    using iceb::predictors::FftPredictor;
    using iceb::predictors::ForecastPool;
    using iceb::predictors::ForecastPoolOptions;

    WarmupResult r;
    r.functions = std::min<std::size_t>(cfg.batch_functions, 1024);
    iceb::predictors::FftPredictorConfig fip;
    fip.window = cfg.window;

    ForecastPool pool_exact;
    ForecastPoolOptions fast_opts;
    fast_opts.fast_path = true;
    ForecastPool pool_fast(fast_opts);
    std::vector<FftPredictor> scalar;
    scalar.reserve(r.functions);
    for (std::size_t fn = 0; fn < r.functions; ++fn) {
        pool_exact.addFunction(fip);
        pool_fast.addFunction(fip);
        scalar.emplace_back(fip);
    }

    const std::size_t h = cfg.horizon;
    std::vector<double> out;
    std::vector<double> golden(r.functions * h);
    double scalar_ms = 0.0, exact_ms = 0.0, fast_ms = 0.0;
    for (std::size_t t = 0; t + 1 < cfg.window; ++t) {
        for (std::size_t fn = 0; fn < r.functions; ++fn) {
            const double v = signalAt(fn, t);
            pool_exact.observe(fn, v);
            pool_fast.observe(fn, v);
            scalar[fn].observe(v);
        }
        if (t + 1 < fip.min_samples)
            continue;
        ++r.fill_levels;

        auto start = Clock::now();
        for (std::size_t fn = 0; fn < r.functions; ++fn) {
            scalar[fn].forecastHorizon(h, out);
            std::copy(out.begin(), out.end(), golden.begin() +
                          static_cast<std::ptrdiff_t>(fn * h));
        }
        scalar_ms += bench::elapsedMs(start);
        start = Clock::now();
        pool_exact.forecastAll(h);
        exact_ms += bench::elapsedMs(start);
        start = Clock::now();
        pool_fast.forecastAll(h);
        fast_ms += bench::elapsedMs(start);

        for (std::size_t fn = 0; fn < r.functions; ++fn) {
            const double *want = golden.data() + fn * h;
            const double *exact = pool_exact.forecast(fn);
            const double *fast = pool_fast.forecast(fn);
            for (std::size_t step = 0; step < h; ++step) {
                if (std::memcmp(&exact[step], &want[step],
                                sizeof(double)) != 0)
                    ++r.exact_bit_mismatches;
                r.fast_diff = std::max(r.fast_diff,
                                       std::fabs(fast[step] - want[step]));
            }
        }
    }
    const double forecasts =
        static_cast<double>(r.functions * std::max<std::size_t>(
                                              r.fill_levels, 1));
    r.scalar_ns = scalar_ms * 1e6 / forecasts;
    r.exact_ns = exact_ms * 1e6 / forecasts;
    r.fast_ns = fast_ms * 1e6 / forecasts;
    return r;
}

/**
 * FNV-1a digest of the geometry a batch measurement depends on. The
 * baseline gate refuses to compare runs whose digests disagree, so a
 * committed BENCH_fip.json can never silently gate a differently
 * configured run (the staleness failure mode this replaces).
 *
 * The basis is the standard one short of its last digit; every
 * committed config_digest was computed with it, so it stays.
 */
std::string
configDigest(std::size_t window, std::size_t horizon,
             std::size_t batch_functions, std::size_t batch_intervals)
{
    char text[128];
    std::snprintf(text, sizeof(text),
                  "window=%zu;horizon=%zu;batch_functions=%zu;"
                  "batch_intervals=%zu",
                  window, horizon, batch_functions, batch_intervals);
    return bench::digestHex(bench::hashText(text, 1469598103934665603ull));
}

/** Fields the baseline gate reads from a committed BENCH_fip.json. */
struct Baseline
{
    std::size_t window = 0;
    std::size_t horizon = 0;
    std::size_t batch_functions = 0;
    std::size_t batch_intervals = 0;
    double speedup_fast_vs_scalar = 0.0;
    std::string digest;
};

/**
 * The gate's fields from a committed BENCH_fip.json. The batch
 * geometry and speedup are read from the "batch" section on, since
 * "functions" and "intervals" also name the grid at the top level.
 */
Baseline
readBaseline(const std::string &path)
{
    const std::string text = bench::readBaselineFile("bench_fip", path);
    const auto require = [&](auto value, const char *what) {
        if (!value) {
            std::fprintf(stderr,
                         "bench_fip: baseline %s has no %s -- "
                         "regenerate it with a batch-mode run\n",
                         path.c_str(), what);
            std::exit(1);
        }
        return *value;
    };
    const std::size_t batch_pos = text.find("\"batch\":");
    const std::string batch = text.substr(
        batch_pos == std::string::npos ? text.size() : batch_pos);
    const auto count = [&](const std::string &in, const char *key,
                           const char *what) {
        return static_cast<std::size_t>(
            require(iceb::harness::findJsonNumber(in, key), what));
    };

    Baseline base;
    base.window = count(text, "window", "window");
    base.horizon = count(text, "horizon", "horizon");
    base.batch_functions = count(batch, "functions", "batch functions");
    base.batch_intervals = count(batch, "intervals", "batch intervals");
    base.speedup_fast_vs_scalar = require(
        iceb::harness::findJsonNumber(batch, "speedup_fast_vs_scalar"),
        "batch speedup_fast_vs_scalar");
    base.digest = require(iceb::harness::findJsonString(text, "config_digest"),
                          "config_digest");
    return base;
}

void
writeJson(const BenchConfig &cfg, const ModeResult &legacy_r,
          const ModeResult &plan_r, double fft_legacy_ns,
          double fft_plan_ns, double plan_vs_legacy,
          double steady_allocs_plan, const BatchResult &batch,
          const WarmupResult &warmup)
{
    std::ofstream out(cfg.json_path);
    if (!out) {
        std::cerr << "cannot write " << cfg.json_path << "\n";
        std::exit(1);
    }
    out << "{\n";
    out << "  \"bench\": \"bench_fip\",\n";
    out << "  \"functions\": " << cfg.functions << ",\n";
    out << "  \"intervals\": " << cfg.intervals << ",\n";
    out << "  \"window\": " << cfg.window << ",\n";
    out << "  \"horizon\": " << cfg.horizon << ",\n";
    out << "  \"threads\": " << cfg.threads << ",\n";
    out << "  \"fft_real_non_pow2\": {\n";
    out << "    \"legacy_ns\": " << fft_legacy_ns << ",\n";
    out << "    \"plan_ns\": " << fft_plan_ns << ",\n";
    out << "    \"speedup\": " << fft_legacy_ns / fft_plan_ns << "\n";
    out << "  },\n";
    const auto mode = [&](const char *name, const ModeResult &r,
                          bool last) {
        out << "  \"" << name << "\": {\n";
        out << "    \"ns_per_forecast\": " << r.ns_per_forecast << ",\n";
        out << "    \"allocs_per_forecast\": " << r.allocs_per_forecast
            << ",\n";
        out << "    \"speedup_vs_legacy\": "
            << legacy_r.ns_per_forecast / r.ns_per_forecast << "\n";
        out << "  }" << (last ? "\n" : ",\n");
    };
    mode("legacy", legacy_r, false);
    mode("plan", plan_r, false);
    out << "  \"steady_state_allocs\": {\n";
    out << "    \"plan\": " << steady_allocs_plan << "\n";
    out << "  },\n";
    out << "  \"max_abs_diff\": {\n";
    out << "    \"plan_vs_legacy\": " << plan_vs_legacy << "\n";
    out << "  },\n";
    out << "  \"batch\": {\n";
    out << "    \"functions\": " << batch.functions << ",\n";
    out << "    \"intervals\": " << batch.intervals << ",\n";
    out << "    \"scalar_sample_functions\": " << batch.scalar_sample
        << ",\n";
    out << "    \"scalar_ns_per_forecast\": " << batch.scalar_ns
        << ",\n";
    out << "    \"exact_ns_per_forecast\": " << batch.exact_ns << ",\n";
    out << "    \"fast_ns_per_forecast\": " << batch.fast_ns << ",\n";
    out << "    \"scalar_forecasts_per_sec\": "
        << 1e9 / batch.scalar_ns << ",\n";
    out << "    \"exact_forecasts_per_sec\": " << 1e9 / batch.exact_ns
        << ",\n";
    out << "    \"fast_forecasts_per_sec\": " << 1e9 / batch.fast_ns
        << ",\n";
    out << "    \"speedup_exact_vs_scalar\": "
        << batch.scalar_ns / batch.exact_ns << ",\n";
    out << "    \"speedup_fast_vs_scalar\": "
        << batch.scalar_ns / batch.fast_ns << ",\n";
    out << "    \"max_abs_diff_exact\": " << batch.exact_diff << ",\n";
    out << "    \"max_abs_diff_fast\": " << batch.fast_diff << ",\n";
    out << "    \"steady_state_allocs\": " << batch.steady_allocs
        << "\n";
    out << "  },\n";
    out << "  \"warmup\": {\n";
    out << "    \"functions\": " << warmup.functions << ",\n";
    out << "    \"fill_levels\": " << warmup.fill_levels << ",\n";
    out << "    \"scalar_ns_per_forecast\": " << warmup.scalar_ns
        << ",\n";
    out << "    \"exact_ns_per_forecast\": " << warmup.exact_ns << ",\n";
    out << "    \"fast_ns_per_forecast\": " << warmup.fast_ns << ",\n";
    out << "    \"speedup_exact_vs_scalar\": "
        << warmup.scalar_ns / warmup.exact_ns << ",\n";
    out << "    \"speedup_fast_vs_scalar\": "
        << warmup.scalar_ns / warmup.fast_ns << ",\n";
    out << "    \"exact_bit_mismatches\": " << warmup.exact_bit_mismatches
        << ",\n";
    out << "    \"max_abs_diff_fast\": " << warmup.fast_diff << "\n";
    out << "  },\n";
    out << "  \"config_digest\": \""
        << configDigest(cfg.window, cfg.horizon, batch.functions,
                        batch.intervals)
        << "\"\n";
    out << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    BenchConfig cfg;
    bench::parseFlags(
        argc, argv,
        {bench::numberFlag("--functions", "N",
                           "grid functions (default 64)", cfg.functions,
                           1),
         bench::numberFlag("--intervals", "N",
                           "grid intervals (default 400)", cfg.intervals,
                           1),
         bench::numberFlag("--window", "N",
                           "FIP window (default 120, non-pow2)",
                           cfg.window, 1),
         bench::numberFlag("--threads", "N",
                           "shard functions across N threads (default 1)",
                           cfg.threads, 1),
         bench::numberFlag("--batch-functions", "N",
                           "batch-section fleet size (default 10000, "
                           "capped at 1M)",
                           cfg.batch_functions, 1),
         bench::numberFlag("--batch-intervals", "N",
                           "timed rounds per batch mode (default 3)",
                           cfg.batch_intervals, 1),
         bench::textFlag("--json", "PATH",
                         "output path (default BENCH_fip.json; none "
                         "with --baseline)",
                         cfg.json_path),
         bench::textFlag("--baseline", "PATH",
                         "gate the batch speedup against a committed "
                         "BENCH_fip.json",
                         cfg.baseline_path),
         bench::switchFlag("--smoke", "tiny grid + correctness gates",
                           cfg.smoke)});
    cfg.json_path = bench::jsonOutputPath("bench_fip", cfg.json_path,
                                          cfg.baseline_path,
                                          "BENCH_fip.json");
    cfg.batch_functions =
        std::min<std::size_t>(cfg.batch_functions, 1000000);
    if (cfg.smoke) {
        cfg.functions = std::min<std::size_t>(cfg.functions, 4);
        cfg.intervals = std::min<std::size_t>(cfg.intervals, 60);
        cfg.batch_functions =
            std::min<std::size_t>(cfg.batch_functions, 512);
        cfg.batch_intervals =
            std::min<std::size_t>(cfg.batch_intervals, 2);
    }

    // The baseline gate compares like against like: the batch section
    // re-runs at the committed geometry (overriding --smoke's clamp),
    // and a baseline whose digest disagrees with its own recorded
    // geometry -- or whose window/horizon disagree with this run -- is
    // refused rather than silently compared.
    Baseline baseline;
    if (!cfg.baseline_path.empty()) {
        baseline = readBaseline(cfg.baseline_path);
        const std::string expect = configDigest(
            baseline.window, baseline.horizon, baseline.batch_functions,
            baseline.batch_intervals);
        if (baseline.digest != expect) {
            std::fprintf(stderr,
                         "FAIL: baseline %s is stale: config_digest %s"
                         " does not match its recorded geometry"
                         " (expected %s) -- regenerate the baseline\n",
                         cfg.baseline_path.c_str(),
                         baseline.digest.c_str(), expect.c_str());
            return 1;
        }
        if (baseline.window != cfg.window ||
            baseline.horizon != cfg.horizon) {
            std::fprintf(stderr,
                         "FAIL: baseline %s was measured at window=%zu"
                         " horizon=%zu but this run uses window=%zu"
                         " horizon=%zu -- refusing to compare"
                         " mismatched configs\n",
                         cfg.baseline_path.c_str(), baseline.window,
                         baseline.horizon, cfg.window, cfg.horizon);
            return 1;
        }
        cfg.batch_functions = baseline.batch_functions;
        cfg.batch_intervals = baseline.batch_intervals;
    }

    iceb::predictors::FftPredictorConfig fip;
    fip.window = cfg.window;

    // Allocation accounting needs the single-threaded grid; with
    // --threads the timed region still reports the aggregate rate,
    // which stays meaningful because predictors are thread-local.
    const auto legacy_r = runGrid(
        cfg,
        [&](std::size_t) { return legacy::Predictor(fip); },
        [&](legacy::Predictor &p, std::size_t fn, std::size_t t) {
            p.observe(signalAt(fn, t));
            return p.forecastHorizon(cfg.horizon).front();
        });

    struct PlanState
    {
        iceb::predictors::FftPredictor predictor;
        std::vector<double> out;
    };
    const auto plan_r = runGrid(
        cfg,
        [&](std::size_t) { return PlanState{
            iceb::predictors::FftPredictor(fip), {}}; },
        [&](PlanState &s, std::size_t fn, std::size_t t) {
            s.predictor.observe(signalAt(fn, t));
            s.predictor.forecastHorizon(cfg.horizon, s.out);
            return s.out.front();
        });

    double fft_legacy_ns = 0.0, fft_plan_ns = 0.0;
    benchFftKernel(cfg, fft_legacy_ns, fft_plan_ns);

    const double plan_vs_legacy = checkAgreement(cfg);
    const double steady_allocs_plan = steadyStateAllocs(cfg);

    const BatchResult batch = runBatch(cfg);
    const WarmupResult warmup = runWarmup(cfg);

    std::printf("bench_fip: %zu functions x %zu intervals, window %zu"
                " (non-pow2: %s), horizon %zu, threads %zu\n",
                cfg.functions, cfg.intervals, cfg.window,
                iceb::math::isPowerOfTwo(cfg.window) ? "no" : "yes",
                cfg.horizon, cfg.threads);
    std::printf("  %-12s %10s %12s %10s\n", "mode", "ns/fcast",
                "allocs/fcast", "speedup");
    std::printf("  %-12s %10.0f %12.2f %10s\n", "legacy",
                legacy_r.ns_per_forecast, legacy_r.allocs_per_forecast,
                "1.00x");
    std::printf("  %-12s %10.0f %12.2f %9.2fx\n", "plan",
                plan_r.ns_per_forecast, plan_r.allocs_per_forecast,
                legacy_r.ns_per_forecast / plan_r.ns_per_forecast);
    std::printf("  fftReal(%zu): legacy %.0f ns, plan %.0f ns"
                " (%.2fx)\n",
                cfg.window, fft_legacy_ns, fft_plan_ns,
                fft_legacy_ns / fft_plan_ns);
    std::printf("  steady-state allocs: plan %.3f\n",
                steady_allocs_plan);
    std::printf("  max |diff|: plan vs legacy %.3g\n", plan_vs_legacy);

    std::printf("batch: %zu functions x %zu intervals (scalar fleet"
                " sampled at %zu)\n",
                batch.functions, batch.intervals, batch.scalar_sample);
    std::printf("  %-12s %10s %16s %10s\n", "mode", "ns/fcast",
                "forecasts/sec", "speedup");
    std::printf("  %-12s %10.0f %16.0f %10s\n", "scalar",
                batch.scalar_ns, 1e9 / batch.scalar_ns, "1.00x");
    std::printf("  %-12s %10.0f %16.0f %9.2fx\n", "pool-exact",
                batch.exact_ns, 1e9 / batch.exact_ns,
                batch.scalar_ns / batch.exact_ns);
    std::printf("  %-12s %10.0f %16.0f %9.2fx\n", "pool-fast",
                batch.fast_ns, 1e9 / batch.fast_ns,
                batch.scalar_ns / batch.fast_ns);
    std::printf("  max |diff|: exact %.3g (%lld bit mismatches),"
                " fast %.3g; steady-state allocs %.4f\n",
                batch.exact_diff, batch.exact_bit_mismatches,
                batch.fast_diff, batch.steady_allocs);
    std::printf("warm-up ramp: %zu functions x %zu fill levels\n",
                warmup.functions, warmup.fill_levels);
    std::printf("  %-12s %10s %10s\n", "mode", "ns/fcast", "speedup");
    std::printf("  %-12s %10.0f %10s\n", "scalar", warmup.scalar_ns,
                "1.00x");
    std::printf("  %-12s %10.0f %9.2fx\n", "pool-exact", warmup.exact_ns,
                warmup.scalar_ns / warmup.exact_ns);
    std::printf("  %-12s %10.0f %9.2fx\n", "pool-fast", warmup.fast_ns,
                warmup.scalar_ns / warmup.fast_ns);
    std::printf("  exact: %lld bit mismatches; fast max |diff| %.3g\n",
                warmup.exact_bit_mismatches, warmup.fast_diff);

    if (!cfg.json_path.empty()) {
        writeJson(cfg, legacy_r, plan_r, fft_legacy_ns, fft_plan_ns,
                  plan_vs_legacy, steady_allocs_plan, batch, warmup);
        std::printf("  wrote %s\n", cfg.json_path.c_str());
    }

    if (cfg.smoke) {
        // Correctness gates only; absolute timings vary with the CI
        // machine and are reported, not enforced.
        bool ok = true;
        if (steady_allocs_plan > 0.0) {
            std::fprintf(stderr,
                         "FAIL: plan path allocates in steady state"
                         " (%.3f allocs/forecast)\n",
                         steady_allocs_plan);
            ok = false;
        }
        if (plan_vs_legacy > 1e-9) {
            // The complex FFT plans are bit-identical to legacy; the
            // real-input packing reorders roundoff, so end-to-end
            // forecasts may differ at the 1e-12 scale.
            std::fprintf(stderr,
                         "FAIL: plan path diverges from legacy"
                         " (max |diff| %.3g)\n",
                         plan_vs_legacy);
            ok = false;
        }
        if (batch.exact_bit_mismatches != 0) {
            std::fprintf(stderr,
                         "FAIL: batched exact mode is not bit-identical"
                         " to the scalar predictor (%lld mismatches,"
                         " max |diff| %.3g)\n",
                         batch.exact_bit_mismatches, batch.exact_diff);
            ok = false;
        }
        if (batch.fast_diff > 1e-9) {
            std::fprintf(stderr,
                         "FAIL: batched fast mode outside 1e-9"
                         " (max |diff| %.3g)\n",
                         batch.fast_diff);
            ok = false;
        }
        if (warmup.exact_bit_mismatches != 0) {
            std::fprintf(stderr,
                         "FAIL: batched exact mode is not bit-identical"
                         " to the scalar predictor during warm-up (%lld"
                         " mismatches)\n",
                         warmup.exact_bit_mismatches);
            ok = false;
        }
        if (warmup.fast_diff > 1e-9) {
            std::fprintf(stderr,
                         "FAIL: batched fast mode outside 1e-9 during"
                         " warm-up (max |diff| %.3g)\n",
                         warmup.fast_diff);
            ok = false;
        }
        if (batch.steady_allocs > 0.0) {
            std::fprintf(stderr,
                         "FAIL: forecast pool allocates in steady state"
                         " (%.4f allocs per function-interval)\n",
                         batch.steady_allocs);
            ok = false;
        }
        if (!ok)
            return 1;
        std::printf("  smoke gates passed\n");
    }

    if (!cfg.baseline_path.empty()) {
        // The ratio of two rates measured back to back in one process
        // cancels machine speed; a miss is re-measured (gateBestOf).
        const iceb::harness::GateResult gate = iceb::harness::gateBestOf(
            "batch speedup", batch.scalar_ns / batch.fast_ns,
            [&] {
                const BatchResult again = runBatch(cfg);
                return again.scalar_ns / again.fast_ns;
            },
            baseline.speedup_fast_vs_scalar, 0.02);
        std::printf("%s\n", gate.message.c_str());
        if (!gate.ok) {
            std::fprintf(stderr, "FAIL: %s\n", gate.message.c_str());
            return 1;
        }
    }
    return 0;
}
