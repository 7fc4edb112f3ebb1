#include "predictors/fft_predictor.hh"

#include <algorithm>

#include "common/logging.hh"
#include "math/stats.hh"

namespace iceb::predictors
{

void
pushObservation(double *ring, std::size_t window, std::uint32_t &count,
                std::uint32_t &head, double concurrency)
{
    const double value = std::max(0.0, concurrency);
    if (count < window) {
        // Filling up: entries 0..count-1 are already in arrival order.
        ring[count++] = value;
        return;
    }
    ring[head] = value;
    head = head + 1 == window ? 0 : head + 1;
}

void
forecastWindow(const FftPredictorConfig &config, const double *ring,
               std::size_t count, std::size_t head, std::size_t horizon,
               FipWorkspace &ws, double *out)
{
    // Fast path: an empty or silent window forecasts silence (this is
    // the common case for infrequent functions and keeps per-interval
    // overhead low across large traces).
    if (std::all_of(ring, ring + count,
                    [](double v) { return v == 0.0; })) {
        std::fill(out, out + horizon, 0.0);
        return;
    }

    // Linearize the ring, oldest first.
    const std::size_t w = config.window;
    ws.window.resize(count);
    if (count < w || head == 0) {
        std::copy(ring, ring + count, ws.window.begin());
    } else {
        std::copy(ring + head, ring + w, ws.window.begin());
        std::copy(ring, ring + head, ws.window.begin() + (w - head));
    }
    if (count < config.min_samples) {
        std::fill(out, out + horizon,
                  std::max(0.0, math::mean(ws.window)));
        return;
    }

    // Trend + top-n harmonics of the detrended residual, extrapolated
    // past the window (t = window length onward).
    const std::size_t n = count;
    math::polyfitSeries(ws.window.data(), n, config.poly_degree,
                        ws.trend, ws.poly);
    math::detrendInto(ws.window.data(), n, ws.trend, ws.residual);
    math::decomposeForExtrapolation(ws.residual.data(), n,
                                    config.harmonics, ws.harmonics,
                                    ws.spectral);
    for (std::size_t step = 0; step < horizon; ++step) {
        const double t = static_cast<double>(n + step);
        const double forecast = ws.trend.evaluate(t) +
            math::evaluateHarmonics(ws.harmonics, t);
        out[step] = std::max(0.0, forecast);
    }
}

FftPredictor::FftPredictor(FftPredictorConfig config)
    : config_(config)
{
    ICEB_ASSERT(config_.window >= 4, "FIP window too small");
    ICEB_ASSERT(config_.harmonics >= 1, "FIP needs >= 1 harmonic");
    ring_.resize(config_.window, 0.0);
}

void
FftPredictor::observe(double concurrency)
{
    pushObservation(ring_.data(), config_.window, size_, head_,
                    concurrency);
}

double
FftPredictor::predictNext()
{
    forecastHorizon(1, next_scratch_);
    return next_scratch_.front();
}

std::vector<double>
FftPredictor::forecastHorizon(std::size_t horizon)
{
    std::vector<double> out;
    forecastHorizon(horizon, out);
    return out;
}

void
FftPredictor::forecastHorizon(std::size_t horizon, std::vector<double> &out)
{
    ICEB_ASSERT(horizon >= 1, "horizon must be positive");
    out.resize(horizon);
    forecastWindow(config_, ring_.data(), size_, head_, horizon, ws_,
                   out.data());
}

void
FftPredictor::reset()
{
    head_ = 0;
    size_ = 0;
}

} // namespace iceb::predictors
