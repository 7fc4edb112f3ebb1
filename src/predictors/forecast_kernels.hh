/**
 * @file
 * Batched (structure-of-arrays) forecast kernels for the FIP.
 *
 * One block forecasts up to kLanes series of one length n at a time:
 * every pipeline stage (trend fit, detrend, real FFT, harmonic fit,
 * horizon evaluation) walks lane-major SoA arrays so the per-sample
 * inner loops run over the kLanes axis and vectorize. The pool calls
 * it for full windows and warm-up windows alike, n being a lane's
 * sample count. The translation unit
 * is compiled with wider codegen (-march=x86-64-v3 when available,
 * see src/predictors/CMakeLists.txt) but always with
 * -ffp-contract=off and without value-unsafe optimisations, so every
 * lane executes the exact IEEE operation sequence of the scalar
 * FftPredictor path:
 *
 *  - the trend fit reuses the shared SeriesPowerTable chain powers
 *    and replays one FactoredSystem per group (bit-identical to
 *    polyfitSeries, see math/matrix.hh);
 *  - the batched FFT runs the same butterfly/chirp sequence as
 *    FftPlan::forwardReal from the plan's own tables, with complex
 *    arithmetic written out in the operand order std::complex lowers
 *    to;
 *  - the harmonic fit calls the same decomposeFromMagnitudes
 *    implementation the scalar predictor uses.
 *
 * In the default exact mode the result is therefore bit-identical to
 * FftPredictor::forecastHorizon at every length n (enforced by test).
 * The opt-in fast mode swaps per-sample cos/sin for complex-rotation
 * recurrences in the harmonic fit and the horizon evaluation (~1
 * ulp/sample, well inside the 1e-9 agreement budget), warm-up lanes
 * included, and is the batch bench's headline configuration. Every
 * lane's arithmetic is lane-local in both modes.
 */

#ifndef ICEB_PREDICTORS_FORECAST_KERNELS_HH
#define ICEB_PREDICTORS_FORECAST_KERNELS_HH

#include <cstddef>
#include <vector>

#include "math/fft.hh"
#include "math/harmonics.hh"
#include "math/matrix.hh"
#include "math/polyfit.hh"

namespace iceb::predictors::kernels
{

/** Functions forecast together per block (the SoA lane count). */
constexpr std::size_t kLanes = 8;

/**
 * Immutable inputs shared by every block call of one series length in
 * a pool group: the cached plan and fit tables for that length.
 */
struct BlockContext
{
    const math::FftPlan *plan = nullptr; //!< plan for length window
    std::size_t window = 0;              //!< samples per series (n)
    std::size_t degree = 2;              //!< trend polynomial order
    std::size_t harmonics = 10;          //!< top-n components kept
    /** Shared Vandermonde powers/power sums for the trend fit. */
    const math::SeriesPowerTable *powers = nullptr;
    /** Factored normal matrix, replayed per lane. */
    const math::FactoredSystem *trend_system = nullptr;
    /** Fast mode: rotation-recurrence trig (<= 1e-9 divergence). */
    bool fast_trig = false;
};

/**
 * Per-thread scratch for one block. SoA arrays are indexed
 * [sample * kLanes + lane]; prepare() sizes everything for a context
 * and allocates nothing once capacities cover the largest group.
 */
struct BlockScratch
{
    std::vector<double> window;  //!< gathered input, filled by caller
    std::vector<double> resid;   //!< detrended residual
    std::vector<double> coeffs;  //!< trend coefficients, [k*kLanes+l]
    std::vector<double> aty;     //!< normal-equation rhs, [k*kLanes+l]
    std::vector<double> spec_re; //!< spectrum bins 0..n/2
    std::vector<double> spec_im;
    std::vector<double> fft_re;  //!< Bluestein pow2 work buffer
    std::vector<double> fft_im;
    std::vector<double> packed_re; //!< packed half-length signal
    std::vector<double> packed_im;
    std::vector<double> lane_rhs;    //!< contiguous per-lane solve buffer
    std::vector<double> lane_series; //!< contiguous per-lane residual
    std::vector<double> horizon;     //!< per-lane horizon accumulator
    math::HarmonicsWorkspace hws;
    math::Polynomial trend_poly;
    std::vector<math::Harmonic> harm;

    /** Size all buffers for @p ctx (no-op once capacity exists). */
    void prepare(const BlockContext &ctx);
};

/**
 * Forecast the active lanes of one gathered block. The caller fills
 * scratch.window for every active lane (inactive lane columns must be
 * zero-filled) and receives out[step * kLanes + lane] for each of the
 * @p horizon steps of each active lane; inactive lanes are left
 * untouched. Requires window >= 8.
 */
void forecastBlock(const BlockContext &ctx, const bool *active,
                   std::size_t horizon, BlockScratch &scratch,
                   double *out);

/**
 * SoA forward real DFT of kLanes series at once: reads
 * in[i * kLanes + lane] for i < n and writes spectrum bins 0..n/2 to
 * out_re/out_im (same indexing). Runs the exact operation sequence of
 * FftPlan::forwardReal per lane (exposed for the golden tests).
 */
void forwardRealBatch(const math::FftPlan &plan, const double *in,
                      double *out_re, double *out_im,
                      BlockScratch &scratch);

} // namespace iceb::predictors::kernels

#endif // ICEB_PREDICTORS_FORECAST_KERNELS_HH
