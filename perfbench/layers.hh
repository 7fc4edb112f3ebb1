/**
 * @file
 * Layer timing from outside the program: a sim::Policy decorator
 * around the registered scheme, a sim::WarmupInterface wrapper handed
 * to the scheme's onIntervalStart, and a trace::FunctionRowSource
 * wrapper around the input rows. Nothing inside the libraries is
 * instrumented.
 *
 * The decorator also runs the benchmark's shadow forecasting: a check
 * pool (a sample of the fleet plus the sentinel lanes) on every pass,
 * and, on traced passes, a pool over the whole fleet whose
 * forecastAll() time is the predictors layer. Shadow work is timed
 * and excluded from every reported program time.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <chrono>
#include <memory>
#include <vector>

#include "checks.hh"
#include "predictors/forecast_pool.hh"
#include "sim/policy.hh"
#include "trace/stream_reader.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Per-pass layer accumulators (seconds and counts). */
struct LayerTimes
{
    double init_s = 0.0;
    double observe_s = 0.0;
    /** onIntervalStart wall time, cluster actions included. */
    double start_s = 0.0;
    /** Time inside ensureWarm / ensureWarmEvicting / schedulePrewarm. */
    double actions_s = 0.0;
    double hooks_s = 0.0;
    /** Benchmark-owned shadow forecasting (excluded from run time). */
    double shadow_s = 0.0;
    /** Shadow full-fleet forecastAll time, by the lanes' fill level. */
    double forecast_warmup_s = 0.0;
    double forecast_steady_s = 0.0;

    std::uint64_t hook_calls = 0;
    std::uint64_t warmup_calls = 0;
    std::uint64_t instances_requested = 0;
    std::uint64_t instances_granted = 0;
    std::uint64_t prewarms_wasted = 0;
    std::uint64_t intervals = 0;

    /** Per-interval decision latency: observe + start, in ms. */
    std::vector<double> decision_ms;
};

/**
 * The timing decorator. Untraced passes time only the two interval
 * hooks (for decision latency); traced passes also time every
 * per-invocation hook and every cluster action, and run the
 * full-fleet shadow pool. Per-invocation hooks may run on several
 * worker threads in untraced sharded passes, so they touch no
 * decorator state unless traced (traced passes run one worker).
 */
class TimedPolicy final : public iceb::sim::Policy
{
  public:
    TimedPolicy(std::unique_ptr<iceb::sim::Policy> inner,
                const iceb::core::IceBreakerConfig &cfg, bool traced,
                PassRecord &rec, LayerTimes &times);

    const char *name() const override { return inner_->name(); }
    void initialize(const iceb::sim::SimContext &ctx) override;
    void onIntervalObserved(
        const iceb::sim::IntervalObservation &closed) override;
    void onIntervalStart(IntervalIndex interval,
                         iceb::sim::WarmupInterface &cluster) override;

    void onExecutionStart(FunctionId fn, iceb::Tier tier, bool cold,
                          TimeMs now) override;
    TimeMs keepAliveAfterExecutionMs(FunctionId fn, iceb::Tier tier,
                                     TimeMs now) override;
    std::array<iceb::Tier, 2> coldPlacementOrder(FunctionId fn) override;
    double evictionPriority(FunctionId fn, iceb::Tier tier,
                            TimeMs last_used, TimeMs now) override;
    void onWarmupWasted(FunctionId fn, iceb::Tier tier,
                        TimeMs now) override;
    void onEviction(FunctionId fn, iceb::Tier tier, TimeMs now) override;
    TimeMs overheadMs() const override { return inner_->overheadMs(); }
    bool shardCompatible() const override
    {
        return inner_->shardCompatible();
    }

  private:
    class TimedWarmup;

    std::unique_ptr<iceb::sim::Policy> inner_;
    iceb::core::IceBreakerConfig cfg_;
    bool traced_;
    PassRecord &rec_;
    LayerTimes &times_;

    iceb::predictors::ForecastPool check_pool_;
    iceb::predictors::ForecastPool full_pool_;
    std::size_t horizon_ = 1;
    /** Sample index of each function, or sample count if unsampled. */
    std::vector<std::size_t> sample_of_;
    double pending_observe_s_ = 0.0;
};

/** Times the row source's next() (CSV parse or row generation). */
class TimedRowSource final : public iceb::trace::FunctionRowSource
{
  public:
    explicit TimedRowSource(iceb::trace::FunctionRowSource &inner)
        : inner_(inner)
    {
    }

    TimeMs intervalMs() const override { return inner_.intervalMs(); }
    bool next(iceb::trace::FunctionRow &row) override
    {
        const auto t0 = Clock::now();
        const bool more = inner_.next(row);
        seconds_ += secondsSince(t0);
        rows_ += more ? 1 : 0;
        return more;
    }

    double seconds() const { return seconds_; }
    std::size_t rows() const { return rows_; }

  private:
    iceb::trace::FunctionRowSource &inner_;
    double seconds_ = 0.0;
    std::size_t rows_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
