#include "layers.hh"

namespace perfbench
{

/**
 * The WarmupInterface handed to the scheme: forwards every call,
 * records the warm-ups of sampled functions for the checks, counts
 * requested and granted instances, and (traced) times each action.
 */
class TimedPolicy::TimedWarmup final : public iceb::sim::WarmupInterface
{
  public:
    TimedWarmup(TimedPolicy &owner, iceb::sim::WarmupInterface &inner,
                IntervalIndex interval)
        : owner_(owner), inner_(inner), interval_(interval)
    {
    }

    std::size_t ensureWarm(FunctionId fn, iceb::Tier tier,
                           std::size_t count, TimeMs expiry) override
    {
        const auto t0 = Clock::now();
        const std::size_t granted =
            inner_.ensureWarm(fn, tier, count, expiry);
        account(t0, fn, count, granted);
        return granted;
    }

    std::size_t ensureWarmEvicting(FunctionId fn, iceb::Tier tier,
                                   std::size_t count, TimeMs expiry,
                                   iceb::sim::Policy &policy) override
    {
        const auto t0 = Clock::now();
        const std::size_t granted =
            inner_.ensureWarmEvicting(fn, tier, count, expiry, policy);
        account(t0, fn, count, granted);
        return granted;
    }

    void schedulePrewarm(FunctionId fn, iceb::Tier tier, TimeMs start_time,
                         TimeMs expiry) override
    {
        const auto t0 = Clock::now();
        inner_.schedulePrewarm(fn, tier, start_time, expiry);
        account(t0, fn, 1, 1);
    }

    MemoryMb vacantMemoryMb(iceb::Tier tier) const override
    {
        return inner_.vacantMemoryMb(tier);
    }
    MemoryMb totalMemoryMb(iceb::Tier tier) const override
    {
        return inner_.totalMemoryMb(tier);
    }
    std::size_t warmCount(FunctionId fn, iceb::Tier tier) const override
    {
        return inner_.warmCount(fn, tier);
    }
    TimeMs now() const override { return inner_.now(); }

  private:
    void account(Clock::time_point t0, FunctionId fn, std::size_t count,
                 std::size_t granted)
    {
        LayerTimes &times = owner_.times_;
        if (owner_.traced_)
            times.actions_s += secondsSince(t0);
        ++times.warmup_calls;
        times.instances_requested += count;
        times.instances_granted += granted;
        if (fn < owner_.sample_of_.size() &&
            owner_.sample_of_[fn] < owner_.rec_.sample_fns.size())
            owner_.rec_.warmups.push_back(WarmupCall{interval_, fn, count});
    }

    TimedPolicy &owner_;
    iceb::sim::WarmupInterface &inner_;
    IntervalIndex interval_;
};

TimedPolicy::TimedPolicy(std::unique_ptr<iceb::sim::Policy> inner,
                         const iceb::core::IceBreakerConfig &cfg,
                         bool traced, PassRecord &rec, LayerTimes &times)
    : inner_(std::move(inner)), cfg_(cfg), traced_(traced), rec_(rec),
      times_(times)
{
}

void
TimedPolicy::initialize(const iceb::sim::SimContext &ctx)
{
    const auto b0 = Clock::now();
    Policy::initialize(ctx);
    const std::size_t n = ctx.num_functions;
    const std::size_t ivs = rec_.num_intervals;
    const std::size_t samples = rec_.sample_fns.size();
    rec_.num_functions = n;
    rec_.delivered.assign(n * ivs, 0);
    rec_.was_delivered.assign(ivs, 0);
    rec_.memory.assign(ivs, TierMemory{});
    rec_.shadow_pred.assign(ivs * samples, 0.0);
    rec_.sentinel_pred.assign(ivs * kSentinels.size(), 0.0);
    rec_.overhead_ms = inner_->overheadMs();
    times_.decision_ms.reserve(ivs);

    iceb::predictors::ForecastPoolOptions opts;
    opts.fast_path = cfg_.fip_fast_batch;
    horizon_ = cfg_.keep_alive_horizon + 1;
    sample_of_.assign(n, samples);
    check_pool_ = iceb::predictors::ForecastPool(opts);
    for (std::size_t s = 0; s < samples; ++s) {
        sample_of_[rec_.sample_fns[s]] = s;
        check_pool_.addFunction(cfg_.fip);
    }
    for (std::size_t k = 0; k < kSentinels.size(); ++k)
        check_pool_.addFunction(cfg_.fip);
    full_pool_ = iceb::predictors::ForecastPool(opts);
    if (traced_) {
        for (std::size_t fn = 0; fn < n; ++fn)
            full_pool_.addFunction(cfg_.fip);
    }
    times_.shadow_s += secondsSince(b0);

    const auto t0 = Clock::now();
    inner_->initialize(ctx);
    times_.init_s += secondsSince(t0);
}

void
TimedPolicy::onIntervalObserved(const iceb::sim::IntervalObservation &closed)
{
    const auto b0 = Clock::now();
    const std::size_t n = rec_.num_functions;
    const std::size_t iv = closed.interval;
    if (iv < rec_.num_intervals && closed.num_functions == n) {
        std::copy(closed.arrivals, closed.arrivals + n,
                  rec_.delivered.begin() +
                      static_cast<std::ptrdiff_t>(iv * n));
        rec_.was_delivered[iv] = 1;
    }
    const std::size_t samples = rec_.sample_fns.size();
    for (std::size_t s = 0; s < samples; ++s)
        check_pool_.observe(s, closed.arrivalsFor(rec_.sample_fns[s]));
    for (std::size_t k = 0; k < kSentinels.size(); ++k)
        check_pool_.observe(samples + k,
                            kSentinels[k].at(static_cast<double>(iv)));
    if (traced_) {
        for (std::size_t fn = 0; fn < n; ++fn)
            full_pool_.observe(fn, closed.arrivalsFor(fn));
    }
    times_.shadow_s += secondsSince(b0);

    const auto t0 = Clock::now();
    inner_->onIntervalObserved(closed);
    pending_observe_s_ = secondsSince(t0);
    times_.observe_s += pending_observe_s_;
}

void
TimedPolicy::onIntervalStart(IntervalIndex interval,
                             iceb::sim::WarmupInterface &cluster)
{
    const auto b0 = Clock::now();
    const std::size_t iv = interval;
    const std::size_t samples = rec_.sample_fns.size();
    check_pool_.forecastAll(horizon_);
    if (iv < rec_.num_intervals) {
        for (std::size_t s = 0; s < samples; ++s)
            rec_.shadow_pred[iv * samples + s] = check_pool_.forecast(s)[0];
        for (std::size_t k = 0; k < kSentinels.size(); ++k)
            rec_.sentinel_pred[iv * kSentinels.size() + k] =
                check_pool_.forecast(samples + k)[0];
    }
    if (traced_) {
        const auto f0 = Clock::now();
        full_pool_.forecastAll(horizon_);
        const double f = secondsSince(f0);
        // Every function joins at interval 0, so all lanes share one
        // fill level: below the window they take the warm-up path.
        if (iv < cfg_.fip.window)
            times_.forecast_warmup_s += f;
        else
            times_.forecast_steady_s += f;
    }
    times_.shadow_s += secondsSince(b0);

    TimedWarmup timed(*this, cluster, interval);
    const auto t0 = Clock::now();
    inner_->onIntervalStart(interval, timed);
    const double start = secondsSince(t0);
    times_.start_s += start;
    times_.decision_ms.push_back((pending_observe_s_ + start) * 1e3);
    pending_observe_s_ = 0.0;
    ++times_.intervals;

    if (iv < rec_.num_intervals) {
        TierMemory &mem = rec_.memory[iv];
        for (int t = 0; t < iceb::kNumTiers; ++t) {
            const auto tier = static_cast<iceb::Tier>(t);
            mem.vacant[t] = cluster.vacantMemoryMb(tier);
            mem.total[t] = cluster.totalMemoryMb(tier);
        }
    }
}

namespace
{

/** Times one per-invocation hook on traced passes (null = untraced). */
struct HookTimer
{
    explicit HookTimer(LayerTimes *times)
        : times_(times), t0_(times != nullptr ? Clock::now()
                                              : Clock::time_point{})
    {
    }
    ~HookTimer()
    {
        if (times_ != nullptr) {
            times_->hooks_s += secondsSince(t0_);
            ++times_->hook_calls;
        }
    }
    HookTimer(const HookTimer &) = delete;
    HookTimer &operator=(const HookTimer &) = delete;

    LayerTimes *times_;
    Clock::time_point t0_;
};

} // namespace

void
TimedPolicy::onExecutionStart(FunctionId fn, iceb::Tier tier, bool cold,
                              TimeMs now)
{
    const HookTimer timer(traced_ ? &times_ : nullptr);
    inner_->onExecutionStart(fn, tier, cold, now);
}

TimeMs
TimedPolicy::keepAliveAfterExecutionMs(FunctionId fn, iceb::Tier tier,
                                       TimeMs now)
{
    const HookTimer timer(traced_ ? &times_ : nullptr);
    return inner_->keepAliveAfterExecutionMs(fn, tier, now);
}

std::array<iceb::Tier, 2>
TimedPolicy::coldPlacementOrder(FunctionId fn)
{
    const HookTimer timer(traced_ ? &times_ : nullptr);
    return inner_->coldPlacementOrder(fn);
}

double
TimedPolicy::evictionPriority(FunctionId fn, iceb::Tier tier,
                              TimeMs last_used, TimeMs now)
{
    const HookTimer timer(traced_ ? &times_ : nullptr);
    return inner_->evictionPriority(fn, tier, last_used, now);
}

void
TimedPolicy::onWarmupWasted(FunctionId fn, iceb::Tier tier, TimeMs now)
{
    if (traced_)
        ++times_.prewarms_wasted;
    const HookTimer timer(traced_ ? &times_ : nullptr);
    inner_->onWarmupWasted(fn, tier, now);
}

void
TimedPolicy::onEviction(FunctionId fn, iceb::Tier tier, TimeMs now)
{
    const HookTimer timer(traced_ ? &times_ : nullptr);
    inner_->onEviction(fn, tier, now);
}

} // namespace perfbench
