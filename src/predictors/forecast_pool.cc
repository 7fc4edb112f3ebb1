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
    group.batch_min = std::max<std::size_t>(8, config.min_samples);
    group.caches.resize(config.window + 1);
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
ForecastPool::ensureLengthCaches(Group &group, std::size_t n)
{
    LengthCaches &caches = group.caches[n];
    if (caches.plan)
        return;
    const std::size_t degree = group.cfg.poly_degree;
    caches.plan = math::fftPlanFor(n);
    math::buildSeriesPowerTable(n, degree, caches.powers);
    // The polyfit normal matrix depends only on (n, degree): factor it
    // once and replay per lane.
    const std::size_t terms = degree + 1;
    std::vector<double> normal(terms * terms);
    for (std::size_t r = 0; r < terms; ++r)
        for (std::size_t c = 0; c < terms; ++c)
            normal[r * terms + c] = caches.powers.powers[r + c];
    caches.trend_system.factor(normal.data(), terms);
}

void
ForecastPool::forecastAll(std::size_t horizon)
{
    ICEB_ASSERT(horizon >= 1, "horizon must be positive");
    horizon_ = horizon;
    forecasts_.assign(slots_.size() * horizon, 0.0);
    path_counts_ = {};
    if (live_count_ == 0)
        return;

    // Deterministic task list: groups in creation order, blocks of
    // kLanes lanes ascending. The caches of every fill level present
    // are built serially here so workers only ever read them (retired
    // lanes hold count 0, below every batch_min).
    tasks_.clear();
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        Group &group = groups_[g];
        for (std::size_t lane = 0; lane < group.lanes; ++lane) {
            if (group.count[lane] >= group.batch_min)
                ensureLengthCaches(group, group.count[lane]);
        }
        for (std::size_t first = 0; first < group.lanes; first += L) {
            tasks_.push_back(
                BlockTask{static_cast<std::uint32_t>(g),
                          static_cast<std::uint32_t>(first)});
        }
    }

    // Every block writes only its own lanes' forecasts, so which
    // worker runs which block affects scheduling only, never values.
    for (WorkerScratch &scratch : workers_)
        scratch.paths = {};
    executor_.run(tasks_.size(), [this](std::size_t i, std::size_t worker) {
        runBlock(groups_[tasks_[i].group], tasks_[i], workers_[worker]);
    });
    for (const WorkerScratch &scratch : workers_) {
        path_counts_.block += scratch.paths.block;
        path_counts_.scalar += scratch.paths.scalar;
    }
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

    // Lanes below batch_min forecast through the scalar core here; the
    // others wait for the forecastBlock call of their length. A silent
    // window forecasts silence without entering a block (the scalar
    // all-zero fast path; forecasts_ is already zeroed).
    std::size_t length[L] = {}; //!< 0: no block call for this lane
    for (std::size_t lane = task.first_lane; lane < lane_end; ++lane) {
        const std::uint32_t slot = group.slot_of_lane[lane];
        if (slot == kInvalid)
            continue;
        const double *ring = group.ring.data() + lane * w;
        const std::uint32_t count = group.count[lane];
        if (count < group.batch_min) {
            forecastWindow(cfg, ring, count, group.head[lane], horizon_,
                           scratch.fip, forecasts_.data() + slot * horizon_);
            ++scratch.paths.scalar;
            continue;
        }
        if (std::all_of(ring, ring + count,
                        [](double v) { return v == 0.0; }))
            continue;
        length[lane - task.first_lane] = count;
        ++scratch.paths.block;
    }

    // One block call per distinct length. A filling ring holds its
    // samples in arrival order from slot 0 (head 0), so one gather
    // serves full and filling lanes alike. Columns of lanes outside
    // the call are zeroed so stale scratch never feeds the lanes'
    // shared (but lane-wise independent) arithmetic.
    scratch.horizon_tmp.resize(horizon_ * L);
    for (std::size_t first = 0; first < L; ++first) {
        const std::size_t n = length[first];
        if (n == 0)
            continue;
        const LengthCaches &caches = group.caches[n];
        const kernels::BlockContext ctx{
            caches.plan.get(), n, cfg.poly_degree, cfg.harmonics,
            &caches.powers, &caches.trend_system, options_.fast_path};
        scratch.block.prepare(ctx);
        double *dst = scratch.block.window.data();
        bool active[L] = {};
        for (std::size_t l = 0; l < L; ++l) {
            active[l] = length[l] == n;
            if (!active[l]) {
                for (std::size_t i = 0; i < n; ++i)
                    dst[i * L + l] = 0.0;
                continue;
            }
            const std::size_t lane = task.first_lane + l;
            const double *ring = group.ring.data() + lane * w;
            const std::size_t head = group.head[lane];
            for (std::size_t i = 0; i < n; ++i) {
                std::size_t pos = head + i;
                if (pos >= w)
                    pos -= w;
                dst[i * L + l] = ring[pos];
            }
            length[l] = 0;
        }

        kernels::forecastBlock(ctx, active, horizon_, scratch.block,
                               scratch.horizon_tmp.data());
        for (std::size_t l = 0; l < L; ++l) {
            if (!active[l])
                continue;
            const std::uint32_t slot =
                group.slot_of_lane[task.first_lane + l];
            double *out = forecasts_.data() + slot * horizon_;
            for (std::size_t step = 0; step < horizon_; ++step)
                out[step] = scratch.horizon_tmp[step * L + l];
        }
    }
}

} // namespace iceb::predictors
