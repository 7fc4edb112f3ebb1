/**
 * @file
 * Fast Fourier Transform.
 *
 * Iterative radix-2 Cooley-Tukey for power-of-two lengths, with
 * Bluestein's chirp-z algorithm for arbitrary lengths so callers never
 * need to pad (padding would shift harmonic frequencies, which matters
 * for IceBreaker's FIP).
 *
 * Two tiers of API:
 *
 *  - Plain functions (fft/ifft/fftReal): allocate their result, fine
 *    for tests and one-off analysis.
 *  - FftPlan + FftScratch: a transform plan cached per length that
 *    precomputes bit-reversal permutations, twiddle tables and (for
 *    non-power-of-two lengths) the Bluestein chirp and its
 *    pre-transformed convolution kernel. With a caller-owned
 *    FftScratch, steady-state transforms perform zero heap
 *    allocations. Plan transforms execute the exact operation
 *    sequence of the plain functions, so their results are
 *    bit-identical (enforced by a golden test over lengths 1-64).
 */

#ifndef ICEB_MATH_FFT_HH
#define ICEB_MATH_FFT_HH

#include <complex>
#include <cstdint>
#include <memory>
#include <vector>

namespace iceb::math
{

using Complex = std::complex<double>;

/** True when n is a power of two (n >= 1). */
bool isPowerOfTwo(std::size_t n);

/**
 * In-place forward FFT of a power-of-two-length complex signal.
 * X[k] = sum_t x[t] * exp(-2*pi*i*k*t/N).
 */
void fftPow2(std::vector<Complex> &data);

/** In-place inverse FFT of a power-of-two-length complex spectrum. */
void ifftPow2(std::vector<Complex> &data);

/**
 * Forward DFT of an arbitrary-length complex signal. Dispatches to
 * radix-2 when possible and to Bluestein's algorithm otherwise;
 * O(n log n) in both cases.
 */
std::vector<Complex> fft(const std::vector<Complex> &data);

/** Inverse DFT of an arbitrary-length complex spectrum. */
std::vector<Complex> ifft(const std::vector<Complex> &data);

/**
 * Forward DFT of a real signal. For even lengths the samples are
 * packed into an N/2-point complex transform (half the work of the
 * generic path); odd lengths fall back to the complex transform.
 * Served by the process-wide plan cache.
 */
std::vector<Complex> fftReal(const std::vector<double> &data);

/**
 * Direct O(n^2) DFT. Exists as the oracle the FFT implementations are
 * property-tested against; never used on hot paths.
 */
std::vector<Complex> dftDirect(const std::vector<Complex> &data);

/**
 * Caller-owned scratch for plan-based transforms. Buffers grow to the
 * plan's working-set size on first use and are reused afterwards, so
 * steady-state transforms allocate nothing. A scratch may be shared
 * across plans of different lengths (it simply keeps the largest
 * size seen).
 */
struct FftScratch
{
    std::vector<Complex> work;   //!< Bluestein convolution buffer
    std::vector<Complex> packed; //!< real-input packing buffer
};

/**
 * Precomputed transform plan for one length.
 *
 * Holds the bit-reversal permutation and per-stage twiddle tables of
 * the radix-2 kernel (generated with the same recurrence the plain
 * functions use, so plan transforms are bit-identical to them), plus
 * - for non-power-of-two lengths - the Bluestein chirp vectors and
 * the forward transform of the convolution kernel b, for both
 * transform directions.
 *
 * Plans are immutable after construction and safe to share across
 * threads; all mutable state lives in the caller's FftScratch.
 */
class FftPlan
{
  public:
    /** Build a plan for length @p n (n >= 1). */
    explicit FftPlan(std::size_t n);

    /** Transform length. */
    std::size_t size() const { return n_; }

    /**
     * Forward DFT: reads n complex values from @p in, writes n to
     * @p out. in == out is allowed.
     */
    void forward(const Complex *in, Complex *out,
                 FftScratch &scratch) const;

    /** Inverse DFT (1/n scaled); in == out is allowed. */
    void inverse(const Complex *in, Complex *out,
                 FftScratch &scratch) const;

    /**
     * Forward DFT of n real samples (the fftReal fast path): even
     * lengths run one n/2-point complex transform plus an O(n)
     * unpacking pass; odd lengths fall back to forward().
     */
    void forwardReal(const double *in, Complex *out,
                     FftScratch &scratch) const;

    /**
     * @name Plan-table access for batched (structure-of-arrays)
     * transform kernels.
     *
     * The batched forecaster (src/predictors/forecast_kernels.cc)
     * runs the exact butterfly/chirp operation sequence of forward()
     * and forwardReal() over many same-length series at once. It
     * reads the plan's precomputed tables through these accessors, so
     * batched transforms stay bit-identical to the scalar plan paths
     * by construction. All tables are immutable after construction.
     */
    ///@{
    /** True when the transform length itself is a power of two. */
    bool isPow2() const { return is_pow2_; }
    /** Radix-2 kernel length: n for pow2 plans, Bluestein m else. */
    std::size_t pow2Length() const { return pow2_len_; }
    /** Bit-reversal permutation over pow2Length() points. */
    const std::vector<std::uint32_t> &bitrev() const { return bitrev_; }
    /** Concatenated per-stage butterfly twiddles (w *= w_len chain). */
    const std::vector<Complex> &twiddles(bool inverse) const
    {
        return inverse ? tw_inv_ : tw_fwd_;
    }
    /** Forward-direction Bluestein chirp (empty for pow2 plans). */
    const std::vector<Complex> &chirp() const { return chirp_fwd_; }
    /** FFT of the forward Bluestein kernel b (empty for pow2 plans). */
    const std::vector<Complex> &kernelFft() const { return bfft_fwd_; }
    /** n/2 sub-plan driving the packed real path (null for odd n). */
    const FftPlan *halfPlan() const { return half_.get(); }
    /** Real-path unpack twiddles exp(-2*pi*i*k/n), k < n/2. */
    const std::vector<Complex> &realTwiddles() const { return real_tw_; }
    ///@}

  private:
    FftPlan(std::size_t n, bool build_real_path);

    void buildPow2Tables();
    void buildBluestein();
    /** Radix-2 kernel over pow2_len_ points using the plan tables. */
    void pow2InPlace(Complex *data, bool inverse) const;

    std::size_t n_;
    bool is_pow2_;
    std::size_t pow2_len_; //!< n_ when power of two, else Bluestein m
    std::vector<std::uint32_t> bitrev_;
    std::vector<Complex> tw_fwd_; //!< concatenated per-stage twiddles
    std::vector<Complex> tw_inv_;
    std::vector<Complex> chirp_fwd_;
    std::vector<Complex> chirp_inv_;
    std::vector<Complex> bfft_fwd_; //!< FFT of the Bluestein kernel b
    std::vector<Complex> bfft_inv_;
    std::unique_ptr<const FftPlan> half_; //!< n/2 plan (real path)
    std::vector<Complex> real_tw_; //!< exp(-2*pi*i*k/n), k < n/2
};

/**
 * Fetch (building on first use) the shared plan for length @p n from
 * the process-wide cache. Thread-safe; hot paths should hold on to
 * the returned pointer rather than re-looking it up per transform.
 */
std::shared_ptr<const FftPlan> fftPlanFor(std::size_t n);

} // namespace iceb::math

#endif // ICEB_MATH_FFT_HH
