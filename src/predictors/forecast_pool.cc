#include "predictors/forecast_pool.hh"

#include <algorithm>

#include "common/logging.hh"

namespace iceb::predictors
{

namespace
{

constexpr std::uint32_t kInvalid = 0xffffffffu;
constexpr std::size_t L = kernels::kLanes;

} // namespace

ForecastPool::ForecastPool(ForecastPoolOptions options)
    : options_(options), executor_(options.threads),
      workers_(executor_.lanes())
{
    options_.threads = executor_.lanes();
}

std::size_t
ForecastPool::groupFor(const FftPredictorConfig &config)
{
    for (std::size_t g = 0; g < groups_.size(); ++g)
        if (groups_[g].cfg == config)
            return g;
    Group group;
    group.cfg = config;
    groups_.push_back(std::move(group));
    return groups_.size() - 1;
}

std::size_t
ForecastPool::addFunction(const FftPredictorConfig &config)
{
    ICEB_ASSERT(config.window >= 4, "FIP window too small");
    ICEB_ASSERT(config.harmonics >= 1, "FIP needs >= 1 harmonic");

    const std::size_t g = groupFor(config);
    Group &group = groups_[g];

    std::uint32_t lane;
    if (!group.free_lanes.empty()) {
        lane = group.free_lanes.back();
        group.free_lanes.pop_back();
    } else {
        lane = static_cast<std::uint32_t>(group.lanes);
        ++group.lanes;
        group.ring.resize(group.lanes * config.window, 0.0);
        group.head.push_back(0);
        group.count.push_back(0);
        group.slot_of_lane.push_back(kInvalid);
    }
    group.head[lane] = 0;
    group.count[lane] = 0;
    std::fill(group.ring.begin() +
                  static_cast<std::ptrdiff_t>(lane * config.window),
              group.ring.begin() +
                  static_cast<std::ptrdiff_t>((lane + 1) * config.window),
              0.0);

    std::uint32_t slot;
    if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(SlotRef{});
    }
    slots_[slot] = SlotRef{static_cast<std::uint32_t>(g), lane};
    group.slot_of_lane[lane] = slot;
    ++live_count_;
    return slot;
}

void
ForecastPool::removeFunction(std::size_t slot)
{
    ICEB_ASSERT(slot < slots_.size(), "forecast pool slot out of range");
    SlotRef &ref = slots_[slot];
    ICEB_ASSERT(ref.lane != kInvalid, "double-retire of a pool slot");
    Group &group = groups_[ref.group];
    group.slot_of_lane[ref.lane] = kInvalid;
    group.head[ref.lane] = 0;
    group.count[ref.lane] = 0;
    group.free_lanes.push_back(ref.lane);
    ref.lane = kInvalid;
    free_slots_.push_back(static_cast<std::uint32_t>(slot));
    --live_count_;
}

void
ForecastPool::observe(std::size_t slot, double concurrency)
{
    ICEB_ASSERT(slot < slots_.size(), "forecast pool slot out of range");
    const SlotRef ref = slots_[slot];
    ICEB_ASSERT(ref.lane != kInvalid, "observe on a retired pool slot");
    Group &group = groups_[ref.group];
    const std::size_t w = group.cfg.window;
    pushObservation(group.ring.data() + ref.lane * w, w,
                    group.count[ref.lane], group.head[ref.lane],
                    concurrency);
}

void
ForecastPool::reset(std::size_t slot)
{
    ICEB_ASSERT(slot < slots_.size(), "forecast pool slot out of range");
    const SlotRef ref = slots_[slot];
    ICEB_ASSERT(ref.lane != kInvalid, "reset of a retired pool slot");
    Group &group = groups_[ref.group];
    group.head[ref.lane] = 0;
    group.count[ref.lane] = 0;
}

std::size_t
ForecastPool::sampleCount(std::size_t slot) const
{
    ICEB_ASSERT(slot < slots_.size(), "forecast pool slot out of range");
    const SlotRef ref = slots_[slot];
    ICEB_ASSERT(ref.lane != kInvalid, "sampleCount on a retired slot");
    return groups_[ref.group].count[ref.lane];
}

void
ForecastPool::ensureGroupCaches(Group &group)
{
    if (group.caches_ready)
        return;
    const FftPredictorConfig &cfg = group.cfg;
    // Only full-window lanes of groups with a usable spectrum ever run
    // the batched pipeline; other groups forecast through the scalar
    // core and need no shared tables.
    if (cfg.window < 8 || cfg.window < cfg.min_samples)
        return;
    group.plan = math::fftPlanFor(cfg.window);
    math::buildSeriesPowerTable(cfg.window, cfg.poly_degree,
                                group.powers);
    // The polyfit normal matrix depends only on (window, degree):
    // factor it once and replay per lane.
    const std::size_t terms = cfg.poly_degree + 1;
    std::vector<double> normal(terms * terms);
    for (std::size_t r = 0; r < terms; ++r)
        for (std::size_t c = 0; c < terms; ++c)
            normal[r * terms + c] = group.powers.powers[r + c];
    group.trend_system.factor(normal.data(), terms);
    group.caches_ready = true;
}

void
ForecastPool::forecastAll(std::size_t horizon)
{
    ICEB_ASSERT(horizon >= 1, "horizon must be positive");
    horizon_ = horizon;
    forecasts_.assign(slots_.size() * horizon, 0.0);
    if (live_count_ == 0)
        return;

    // Deterministic task list: groups in creation order, blocks of
    // kLanes lanes ascending. Shared caches are built serially here
    // so workers only ever read them.
    tasks_.clear();
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        Group &group = groups_[g];
        if (group.lanes == 0)
            continue;
        ensureGroupCaches(group);
        for (std::size_t first = 0; first < group.lanes; first += L) {
            tasks_.push_back(
                BlockTask{static_cast<std::uint32_t>(g),
                          static_cast<std::uint32_t>(first)});
        }
    }

    // Every block writes only its own lanes' forecasts, so which
    // worker runs which block affects scheduling only, never values.
    executor_.run(tasks_.size(), [this](std::size_t i, std::size_t worker) {
        runBlock(groups_[tasks_[i].group], tasks_[i], workers_[worker]);
    });
}

const double *
ForecastPool::forecast(std::size_t slot) const
{
    ICEB_ASSERT(slot < slots_.size(), "forecast pool slot out of range");
    ICEB_ASSERT(horizon_ >= 1, "forecast() before forecastAll()");
    return forecasts_.data() + slot * horizon_;
}

void
ForecastPool::runBlock(const Group &group, const BlockTask &task,
                       WorkerScratch &scratch)
{
    // Workers only read the group (rings and shared caches) and write
    // their own lanes' disjoint forecasts_ rows.
    const FftPredictorConfig &cfg = group.cfg;
    const std::size_t w = cfg.window;
    const std::size_t lane_end =
        std::min<std::size_t>(task.first_lane + L, group.lanes);

    const bool can_batch =
        group.caches_ready && w >= 8 && w >= cfg.min_samples;
    const kernels::BlockContext ctx{
        group.plan.get(), w, cfg.poly_degree, cfg.harmonics,
        &group.powers, &group.trend_system, options_.fast_path};
    bool active[L] = {};
    bool any_active = false;
    if (can_batch)
        scratch.block.prepare(ctx);

    for (std::size_t lane = task.first_lane; lane < lane_end; ++lane) {
        const std::size_t l = lane - task.first_lane;
        const std::uint32_t slot = group.slot_of_lane[lane];
        if (slot == kInvalid)
            continue;
        double *out = forecasts_.data() + slot * horizon_;
        const double *ring = group.ring.data() + lane * w;
        const std::uint32_t count = group.count[lane];
        const std::uint32_t head = group.head[lane];
        if (!can_batch || count < w) {
            // Warm-up / short-window lanes: the scalar core.
            forecastWindow(cfg, ring, count, head, horizon_, scratch.fip,
                           out);
            continue;
        }
        // Gather the full window, oldest first, into the lane column;
        // a silent window forecasts silence without entering the
        // batch (the scalar all-zero fast path; forecasts_ is already
        // zeroed).
        double *dst = scratch.block.window.data();
        bool all_zero = true;
        for (std::size_t i = 0; i < w; ++i) {
            std::size_t pos = head + i;
            if (pos >= w)
                pos -= w;
            const double v = ring[pos];
            if (v != 0.0)
                all_zero = false;
            dst[i * L + l] = v;
        }
        if (all_zero)
            continue;
        active[l] = true;
        any_active = true;
    }
    if (!any_active)
        return;

    // Zero inactive columns so stale scratch never feeds the lanes'
    // shared (but lane-wise independent) arithmetic.
    double *dst = scratch.block.window.data();
    for (std::size_t l = 0; l < L; ++l) {
        if (active[l])
            continue;
        for (std::size_t i = 0; i < w; ++i)
            dst[i * L + l] = 0.0;
    }

    scratch.horizon_tmp.resize(horizon_ * L);
    kernels::forecastBlock(ctx, active, horizon_, scratch.block,
                           scratch.horizon_tmp.data());
    for (std::size_t lane = task.first_lane; lane < lane_end; ++lane) {
        const std::size_t l = lane - task.first_lane;
        if (!active[l])
            continue;
        const std::uint32_t slot = group.slot_of_lane[lane];
        double *out = forecasts_.data() + slot * horizon_;
        for (std::size_t step = 0; step < horizon_; ++step)
            out[step] = scratch.horizon_tmp[step * L + l];
    }
}

} // namespace iceb::predictors
