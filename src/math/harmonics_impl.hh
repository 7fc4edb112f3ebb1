/**
 * @file
 * Shared implementation of the extrapolation-grade harmonic fit.
 *
 * decomposeFromMagnitudes' body lives here as an internal-linkage
 * function so two translation units can instantiate it with different
 * codegen flags: math/harmonics.cc compiles the portable baseline
 * copy (the public API), and predictors/forecast_kernels.cc compiles
 * a SIMD copy for the batched forecaster's hot loop. The function
 * contains no reductions the vectorizer may reorder and the SIMD unit
 * is built with -ffp-contract=off, so both copies execute the same
 * IEEE operation sequence and produce bit-identical results (enforced
 * by ForecastPool's batched-vs-scalar equality tests).
 *
 * `static` (not `inline`) is deliberate: inline copies would share
 * one linker-chosen definition across translation units, silently
 * discarding one set of codegen flags.
 */

#ifndef ICEB_MATH_HARMONICS_IMPL_HH
#define ICEB_MATH_HARMONICS_IMPL_HH

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "math/harmonics.hh"
#include "math/matrix.hh"

namespace iceb::math::detail
{

/** See decomposeFromMagnitudes in harmonics.hh for the contract. */
static void
decomposeFromMagnitudesImpl(const double *series, std::size_t n,
                            std::size_t max_components,
                            std::vector<Harmonic> &out,
                            HarmonicsWorkspace &ws, bool fast_trig)
{
    ICEB_ASSERT(n >= 8 && max_components >= 1,
                "decomposeFromMagnitudes needs n >= 8 and components >= 1");
    const std::size_t half = n / 2;
    ICEB_ASSERT(ws.magnitude.size() == half + 1,
                "magnitude buffer must cover bins 0..n/2");
    out.clear();

    // Spectral peak picking over k = 1..n/2.
    const std::vector<double> &magnitude = ws.magnitude;
    std::vector<SpectralPeak> &peaks = ws.peaks;
    peaks.clear();
    for (std::size_t k = 1; k <= half; ++k) {
        const double left = k > 1 ? magnitude[k - 1] : 0.0;
        const double right = k < half ? magnitude[k + 1] : 0.0;
        if (magnitude[k] >= left && magnitude[k] >= right &&
            magnitude[k] > 1e-12) {
            peaks.push_back(SpectralPeak{k, magnitude[k]});
        }
    }
    if (peaks.empty())
        return;
    std::sort(peaks.begin(), peaks.end(),
              [](const SpectralPeak &a, const SpectralPeak &b) {
                  return a.magnitude > b.magnitude;
              });
    if (peaks.size() > max_components)
        peaks.resize(max_components);

    // Quadratic interpolation of log-magnitudes refines each peak's
    // frequency off the bin grid.
    std::vector<double> &frequencies = ws.frequencies;
    frequencies.clear();
    for (const SpectralPeak &peak : peaks) {
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

    // Least-squares fit of a_i*cos + b_i*sin at the refined
    // frequencies over the window. X^T X is symmetric, so only the
    // upper triangle is accumulated and mirrored afterwards (the
    // mirrored entries are the exact same products in the exact same
    // order, so this matches the full accumulation bit for bit).
    const std::size_t m = frequencies.size();
    const std::size_t terms = 2 * m;
    ws.xtx.assign(terms * terms, 0.0);
    ws.xty.assign(terms, 0.0);
    ws.row.resize(terms);
    double *xtx = ws.xtx.data();
    double *xty = ws.xty.data();
    double *row = ws.row.data();
    if (fast_trig) {
        // cos/sin of 2*pi*f*t via one complex rotation per sample:
        // ~1 ulp of drift per step, orders of magnitude below the
        // fast path's 1e-9 forecast tolerance.
        ws.rot_state.assign(m, Complex(1.0, 0.0));
        ws.rot_step.resize(m);
        for (std::size_t i = 0; i < m; ++i) {
            const double angle = 2.0 * M_PI * frequencies[i];
            ws.rot_step[i] = Complex(std::cos(angle), std::sin(angle));
        }
    }
    for (std::size_t t = 0; t < n; ++t) {
        if (fast_trig) {
            for (std::size_t i = 0; i < m; ++i) {
                row[2 * i] = ws.rot_state[i].real();
                row[2 * i + 1] = ws.rot_state[i].imag();
                ws.rot_state[i] *= ws.rot_step[i];
            }
        } else {
            for (std::size_t i = 0; i < m; ++i) {
                const double angle = 2.0 * M_PI * frequencies[i] *
                    static_cast<double>(t);
                row[2 * i] = std::cos(angle);
                row[2 * i + 1] = std::sin(angle);
            }
        }
        for (std::size_t a = 0; a < terms; ++a) {
            xty[a] += row[a] * series[t];
            double *xtx_row = xtx + a * terms;
            const double ra = row[a];
            for (std::size_t b = a; b < terms; ++b)
                xtx_row[b] += ra * row[b];
        }
    }
    for (std::size_t a = 0; a < terms; ++a)
        for (std::size_t b = a + 1; b < terms; ++b)
            xtx[b * terms + a] = xtx[a * terms + b];
    for (std::size_t a = 0; a < terms; ++a)
        xtx[a * terms + a] += 1e-9;

    ws.aug.assign(terms * (terms + 1), 0.0);
    for (std::size_t r = 0; r < terms; ++r) {
        for (std::size_t c = 0; c < terms; ++c)
            ws.aug[r * (terms + 1) + c] = xtx[r * terms + c];
        ws.aug[r * (terms + 1) + terms] = xty[r];
    }
    bool singular = false;
    solveLinearSystemInPlace(ws.aug, terms, ws.coeffs, &singular);
    if (singular) {
        out = decompose(std::vector<double>(series, series + n),
                        max_components);
        return;
    }

    for (std::size_t i = 0; i < m; ++i) {
        const double a = ws.coeffs[2 * i];
        const double b = ws.coeffs[2 * i + 1];
        Harmonic h;
        h.amplitude = std::sqrt(a * a + b * b);
        h.frequency = frequencies[i];
        // a*cos(wt) + b*sin(wt) = A*cos(wt + phase).
        h.phase = std::atan2(-b, a);
        out.push_back(h);
    }
    std::sort(out.begin(), out.end(),
              [](const Harmonic &x, const Harmonic &y) {
                  return x.amplitude > y.amplitude;
              });
}

} // namespace iceb::math::detail

#endif // ICEB_MATH_HARMONICS_IMPL_HH
