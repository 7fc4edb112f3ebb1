/**
 * @file
 * The IceBreaker policy: FFT-based function-invocation prediction
 * (FIP) + utility-driven placement decision making (PDM) over a
 * heterogeneous cluster. This is the paper's primary contribution
 * (Sec. 3), expressed as a simulator Policy.
 *
 * Per decision interval it:
 *  1. folds the closed interval's pushed arrival observations into
 *     each function's true-negative / false-positive tracker and FIP
 *     window (onIntervalObserved — the policy keeps its own history;
 *     it never reads a trace);
 *  2. predicts every function's invocation concurrency for the new
 *     interval (trend polynomial + top-10 harmonics);
 *  3. scores the predicted-active functions (Eq. 1), min-max
 *     normalised across the candidate set;
 *  4. lets the PDM map scores to warm-up targets through the dynamic
 *     cut-offs and safeguards;
 *  5. warms the predicted concurrency on the chosen tier, spilling to
 *     the other tier under memory pressure (highest scores first).
 */

#ifndef ICEB_CORE_ICEBREAKER_HH
#define ICEB_CORE_ICEBREAKER_HH

#include <vector>

#include "common/units.hh"
#include "core/pdm.hh"
#include "predictors/fft_predictor.hh"
#include "predictors/forecast_pool.hh"
#include "predictors/prediction_tracker.hh"
#include "sim/policy.hh"

namespace iceb::core
{

/** IceBreaker configuration (paper defaults). */
struct IceBreakerConfig
{
    predictors::FftPredictorConfig fip;
    PdmConfig pdm;

    /** Provider cap that normalises M_r (AWS Lambda: 10 GB). */
    MemoryMb max_function_memory_mb = 10 * kMbPerGb;

    /** Measured FIP+PDM latency charged to every invocation. */
    TimeMs overhead_ms = 30;

    /**
     * Safety cap on predicted concurrency, as a multiple of the
     * largest concurrency ever observed for the function (guards
     * against runaway quadratic extrapolation).
     */
    double concurrency_cap_factor = 2.0;

    /**
     * Instance-count rounding bias: warm ceil(prediction - deadband)
     * instances. A conservative (upward) bias trades a little
     * keep-alive cost for fewer cold starts on under-predictions.
     */
    double count_deadband = 0.2;

    /**
     * Prediction-driven keep-alive horizon: after an execution the
     * container stays warm until the FIP's next predicted invocation
     * interval, looking at most this many intervals ahead. Bounds the
     * worst-case keep-alive at the OpenWhisk default while making the
     * spend track the function's time-varying arrival probability
     * (the paper's Fig. 1 idea).
     */
    std::size_t keep_alive_horizon = 10;

    /**
     * Batched-FIP knobs, forwarded to the ForecastPool. The default
     * (exact mode, one thread) is bit-identical to forecasting through
     * per-function FftPredictor instances; fip_fast_batch opts into
     * the rotation-recurrence fast path (<= 1e-9 per forecast, the
     * "icebreaker-fastfip" registry scheme). fip_threads > 1
     * forecasts blocks in parallel on the pool's persistent
     * WorkerPool (spawned once per initialize(), not per interval)
     * and stays byte-identical for any thread count.
     */
    bool fip_fast_batch = false;
    std::size_t fip_threads = 1;
};

/**
 * The IceBreaker warm-up/keep-alive policy.
 */
class IceBreakerPolicy : public sim::Policy
{
  public:
    explicit IceBreakerPolicy(IceBreakerConfig config = {});

    const char *name() const override
    {
        return config_.fip_fast_batch ? "icebreaker-fastfip"
                                      : "icebreaker";
    }

    void initialize(const sim::SimContext &ctx) override;
    void onIntervalObserved(
        const sim::IntervalObservation &closed) override;
    void onIntervalStart(IntervalIndex interval,
                         sim::WarmupInterface &cluster) override;
    void onExecutionStart(FunctionId fn, Tier tier, bool cold,
                          TimeMs now) override;
    TimeMs keepAliveAfterExecutionMs(FunctionId fn, Tier tier,
                                     TimeMs now) override;
    std::array<Tier, 2> coldPlacementOrder(FunctionId fn) override;
    double evictionPriority(FunctionId fn, Tier tier, TimeMs last_used,
                            TimeMs now) override;
    void onWarmupWasted(FunctionId fn, Tier tier, TimeMs now) override;
    TimeMs overheadMs() const override { return config_.overhead_ms; }

    /**
     * Every mid-interval hook touches only functions_[fn] (disjoint
     * vector elements across cells); the FIP pool, PDM cut-offs and
     * utility scratch are written exclusively in the interval hooks
     * and only read (per function) in between.
     */
    bool shardCompatible() const override { return true; }

    /** The PDM (exposed for tests and the ablation benches). */
    const Pdm &pdm() const { return *pdm_; }

  private:
    struct FunctionState
    {
        predictors::PredictionTracker tracker;
        std::uint32_t invoked_this_interval = 0;
        std::uint32_t cold_this_interval = 0;
        std::uint32_t wasted_this_interval = 0;
        std::uint32_t max_observed = 0;
        double last_score = 0.4; //!< most recent S_u (mid by default)
        /** horizon.front() of the most recent forecast (probe data). */
        double last_prediction = 0.0;
        /** Steps until the next predicted invocation (0 = none). */
        std::uint32_t next_predicted_gap = 0;
        Tier last_warm_tier = Tier::HighEnd;
        double speedup_raw = 1.0; //!< I_s
        double memory_raw = 0.0;  //!< M_r

        explicit FunctionState(std::size_t window) : tracker(window) {}
    };

    IceBreakerConfig config_;
    std::vector<FunctionState> functions_;
    /**
     * Batched FIP state for every function, slot id == FunctionId
     * (functions are registered in id order and never retired here).
     * Replaces the per-function FftPredictor members: one
     * forecastAll() per interval forecasts the whole fleet through
     * the SoA block kernels.
     */
    predictors::ForecastPool pool_;
    std::unique_ptr<Pdm> pdm_;

    // Per-interval scratch, hoisted out of onIntervalStart so the
    // decision loop stops re-allocating these for every interval of
    // every scheme run. Contents are rebuilt from scratch each
    // interval; only the capacity persists.
    std::vector<UtilityComponents> candidates_;
    std::vector<std::size_t> counts_;
    std::vector<UtilityScore> scores_;
    std::vector<std::size_t> order_;
};

} // namespace iceb::core

#endif // ICEB_CORE_ICEBREAKER_HH
