#include "sim/sharded_simulator.hh"

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/worker_pool.hh"
#include "obs/probes.hh"
#include "obs/recorder.hh"

namespace iceb::sim
{

ShardPlan
ShardPlan::build(std::size_t num_functions, const ClusterConfig &config,
                 std::size_t requested_cells, std::size_t max_cells)
{
    // Every cell must own at least one server of EVERY populated tier
    // — a cell missing a tier would deny its functions that tier's
    // speed entirely and distort the heterogeneous placement the
    // policies reason about — so the cell count is clamped to the
    // smallest non-empty tier. Cells beyond the function count would
    // hold servers no function could ever reach.
    std::size_t smallest_tier = 0;
    for (const TierSpec &tier : config.tiers) {
        if (tier.server_count == 0)
            continue;
        smallest_tier = smallest_tier == 0
            ? tier.server_count
            : std::min(smallest_tier, tier.server_count);
    }
    ICEB_ASSERT(smallest_tier > 0, "cluster has no servers");

    const std::size_t ceiling =
        max_cells == 0 ? kDefaultCells : max_cells;
    std::size_t cells =
        requested_cells == 0 ? ceiling : requested_cells;
    cells = std::min(cells, smallest_tier);
    cells = std::min(cells, std::max<std::size_t>(1, num_functions));
    cells = std::max<std::size_t>(1, cells);

    ShardPlan plan;
    plan.num_cells = cells;
    return plan;
}

ClusterConfig
ShardPlan::cellConfig(const ClusterConfig &config, std::size_t cell) const
{
    ICEB_ASSERT(cell < num_cells, "cell index out of range");
    ClusterConfig out = config;
    out.name = config.name + "/cell" + std::to_string(cell);
    for (TierSpec &tier : out.tiers) {
        const std::size_t base = tier.server_count / num_cells;
        const std::size_t extra =
            cell < tier.server_count % num_cells ? 1 : 0;
        tier.server_count = base + extra;
    }
    return out;
}

/**
 * Internal machinery of the sharded engine. A named namespace (not an
 * anonymous one) because ShardedSimulator::Impl — an externally
 * visible type — holds members of these types.
 */
namespace shard_impl
{

/**
 * The per-cell stand-in policy. Mid-interval hooks forward to the
 * real policy (these are the per-function callbacks a shardCompatible
 * policy promises are safe to run concurrently across cells); the
 * interval hooks are swallowed — the coordinator fires the real
 * policy's interval hooks exactly once per barrier against the global
 * facade, reading each cell's open-interval arrival counts directly
 * through Simulator::observedCounts() before the cell's tick delivers
 * (and resets) them.
 *
 * Deliberately not an OfflinePolicy: the per-cell Simulator therefore
 * never grants its cell-local OracleContext; the coordinator grants
 * the global one itself.
 */
class CellAdapter final : public Policy
{
  public:
    explicit CellAdapter(Policy &inner) : inner_(inner) {}

    const char *name() const override { return inner_.name(); }

    void initialize(const SimContext &ctx) override
    {
        // Store the cell context for ourselves only; the coordinator
        // initialises the real policy once, with the global context.
        Policy::initialize(ctx);
    }

    void onIntervalObserved(const IntervalObservation &closed) override
    {
        // Swallowed: the coordinator already aggregated these counts
        // at the barrier, before this cell's tick was processed.
        (void)closed;
    }

    void onIntervalStart(IntervalIndex interval,
                         WarmupInterface &cluster) override
    {
        (void)interval;
        (void)cluster;
    }

    void onExecutionStart(FunctionId fn, Tier tier, bool cold,
                          TimeMs now) override
    {
        inner_.onExecutionStart(fn, tier, cold, now);
    }

    TimeMs keepAliveAfterExecutionMs(FunctionId fn, Tier tier,
                                     TimeMs now) override
    {
        return inner_.keepAliveAfterExecutionMs(fn, tier, now);
    }

    std::array<Tier, 2> coldPlacementOrder(FunctionId fn) override
    {
        return inner_.coldPlacementOrder(fn);
    }

    double evictionPriority(FunctionId fn, Tier tier, TimeMs last_used,
                            TimeMs now) override
    {
        return inner_.evictionPriority(fn, tier, last_used, now);
    }

    void onWarmupWasted(FunctionId fn, Tier tier, TimeMs now) override
    {
        inner_.onWarmupWasted(fn, tier, now);
    }

    void onEviction(FunctionId fn, Tier tier, TimeMs now) override
    {
        inner_.onEviction(fn, tier, now);
    }

    TimeMs overheadMs() const override { return inner_.overheadMs(); }

  private:
    Policy &inner_;
};

/**
 * The per-cell workload source: a TraceSource whose windows the
 * coordinator fills at each barrier by scattering the GLOBAL window's
 * arrivals to their owning cells, in window order, re-ranking each by
 * its cell-buffer position. Within a cell, the restriction of the
 * global (time, rank) order IS the cell's own (time, rank) order (the
 * global ranks are function-major over all functions; restricted to
 * one cell's functions that is the cell's function-major order, and a
 * stable time sort commutes with the restriction), so this reproduces
 * the old per-cell masked-trace schedule byte for byte — without ever
 * materializing per-cell traces or schedules.
 *
 * Deliberately exposes no trace(): a cell can never grant an oracle.
 */
class CellStreamSource final : public TraceSource
{
  public:
    CellStreamSource(std::size_t num_functions,
                     std::size_t num_intervals, TimeMs interval_ms,
                     std::uint64_t total_arrivals_hint)
        : num_functions_(num_functions), num_intervals_(num_intervals),
          interval_ms_(interval_ms), total_hint_(total_arrivals_hint)
    {
    }

    std::size_t numFunctions() const override { return num_functions_; }
    std::size_t numIntervals() const override { return num_intervals_; }
    TimeMs intervalMs() const override { return interval_ms_; }
    std::uint64_t totalArrivals() const override { return total_hint_; }
    std::size_t maxIntervalArrivals() const override { return 0; }
    void beginRun() override {}

    ArrivalWindow intervalWindow(IntervalIndex interval) override
    {
        (void)interval; // the coordinator scatters exactly this one
        return ArrivalWindow{buffer_.data(), buffer_.size()};
    }

    /** The scatter target (cleared and refilled every barrier). */
    std::vector<ArrivalRecord> &buffer() { return buffer_; }

  private:
    std::size_t num_functions_;
    std::size_t num_intervals_;
    TimeMs interval_ms_;
    std::uint64_t total_hint_;
    std::vector<ArrivalRecord> buffer_;
};

/** One logical cell: a full Simulator over its slice of the world. */
struct Cell
{
    ClusterConfig config;
    std::unique_ptr<CellStreamSource> stream;
    std::unique_ptr<CellAdapter> adapter;
    std::unique_ptr<Simulator> sim;
    /** Cell-private histogram set, merged into the run's recorder at
     * finish() (cells cannot share the recorder's set mid-run). */
    std::unique_ptr<obs::HistogramSet> hist;
};

} // namespace shard_impl

struct ShardedSimulator::Impl
{
    /** Set only by the Trace convenience constructor. */
    std::unique_ptr<TraceSource> owned_source;
    TraceSource &source;

    const std::vector<workload::FunctionProfile> &profiles;
    const ClusterConfig &config;
    Policy &policy;
    SimulatorOptions options;

    /** Workload geometry, cached off the source. */
    std::size_t num_functions = 0;
    std::size_t num_intervals = 0;
    TimeMs interval_ms = 0;

    ShardPlan shard_plan;
    std::vector<std::unique_ptr<shard_impl::Cell>> cells;

    SimContext context;
    OracleContext oracle_context;

    std::unique_ptr<WarmupInterface> facade;
    /**
     * Runs the per-interval cell phases. Cells share nothing between
     * barriers, so which lane steps which cell never affects results.
     * One lane (no threads) unless the run is parallel.
     */
    WorkerPool pool{1};

    obs::ProbeTable *probes = nullptr;

    /** Coordinator-side sinks off the run's recorder (may be null). */
    obs::TraceSink *tsink = nullptr;
    obs::HistogramSet *hists = nullptr;

    /** Barrier scratch: aggregated closed-interval counts. */
    std::vector<std::uint32_t> observed;

    std::size_t intervals_started = 0;
    TimeMs now = 0;
    bool started = false;
    bool drained = false;
    bool parallel = false;

    Impl(std::unique_ptr<TraceSource> owned, TraceSource *external,
         const std::vector<workload::FunctionProfile> &prof,
         const ClusterConfig &cfg, Policy &pol, SimulatorOptions opt)
        : owned_source(std::move(owned)),
          source(owned_source != nullptr ? *owned_source : *external),
          profiles(prof), config(cfg), policy(pol), options(opt),
          num_functions(source.numFunctions()),
          num_intervals(source.numIntervals()),
          interval_ms(source.intervalMs())
    {
    }

    void setup();
    void scatterWindow(IntervalIndex interval);
    /** Call fn(cell) for every cell on the pool. */
    template <typename Fn>
    void runCells(Fn &&fn)
    {
        pool.run(cells.size(),
                 [&fn](std::size_t cell, std::size_t) { fn(cell); });
    }
    void sampleProbes(IntervalIndex interval);

    ClusterState &cellCluster(FunctionId fn)
    {
        return cells[shard_plan.cellOf(fn)]->sim->cluster();
    }
};

namespace
{

/** Wall-clock µs elapsed since @p t0 (clamped at 0). */
std::uint64_t wallUsSince(std::chrono::steady_clock::time_point t0)
{
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - t0);
    return us.count() < 0 ? 0 : static_cast<std::uint64_t>(us.count());
}

/**
 * The barrier-time WarmupInterface the real policy acts through:
 * per-function actions route to the owning cell's cluster, tier-wide
 * occupancy signals sum over cells. A shortfall inside a cell is not
 * spilled to other cells — a function's arrivals only ever stream in
 * its home cell, so a container elsewhere could never serve them;
 * cross-tier spillover (the policies' warm-with-spill idiom) still
 * works within the cell.
 */
class GlobalFacade final : public WarmupInterface
{
  public:
    explicit GlobalFacade(ShardedSimulator::Impl &impl) : impl_(impl) {}

    std::size_t ensureWarm(FunctionId fn, Tier tier, std::size_t count,
                           TimeMs expiry) override
    {
        return impl_.cellCluster(fn).ensureWarm(fn, tier, count,
                                                expiry);
    }

    std::size_t ensureWarmEvicting(FunctionId fn, Tier tier,
                                   std::size_t count, TimeMs expiry,
                                   Policy &policy) override
    {
        return impl_.cellCluster(fn).ensureWarmEvicting(
            fn, tier, count, expiry, policy);
    }

    void schedulePrewarm(FunctionId fn, Tier tier, TimeMs start_time,
                         TimeMs expiry) override
    {
        impl_.cellCluster(fn).schedulePrewarm(fn, tier, start_time,
                                              expiry);
    }

    MemoryMb vacantMemoryMb(Tier tier) const override
    {
        MemoryMb total = 0;
        for (const auto &cell : impl_.cells)
            total += cell->sim->cluster().vacantMemoryMb(tier);
        return total;
    }

    MemoryMb totalMemoryMb(Tier tier) const override
    {
        MemoryMb total = 0;
        for (const auto &cell : impl_.cells)
            total += cell->sim->cluster().totalMemoryMb(tier);
        return total;
    }

    std::size_t warmCount(FunctionId fn, Tier tier) const override
    {
        return impl_.cellCluster(fn).warmCount(fn, tier);
    }

    TimeMs now() const override { return impl_.now; }

  private:
    ShardedSimulator::Impl &impl_;
};

} // namespace

void
ShardedSimulator::Impl::setup()
{
    ICEB_ASSERT(profiles.size() == num_functions,
                "one profile per workload function required");

    shard_plan = ShardPlan::build(num_functions, config, options.cells,
                                  options.max_cells);
    const std::size_t num_cells = shard_plan.num_cells;

    // Resolve the run's observability sinks up front: the cells are
    // wired below through the SimulatorOptions overrides (never the
    // recorder itself — its sinks are not safe to share across the
    // parallel cell phase).
    if (options.recorder != nullptr) {
        probes = options.recorder->probeTable();
        if (probes != nullptr)
            probes->reserve(num_intervals, num_functions);
        tsink = options.recorder->traceSink();
        hists = options.recorder->histograms();
    }

    SimulatorOptions cell_options = options;
    cell_options.recorder = nullptr; // cells get direct sinks instead
    cell_options.shards = 0;
    cell_options.cells = 0;

    // Per-cell arrival totals (metrics pre-sizing only, never
    // results): exact for a materialized source, unknown — so no
    // pre-reserve — for a streamed one.
    std::vector<std::uint64_t> cell_totals(num_cells, 0);
    if (const trace::Trace *tr = source.trace()) {
        for (FunctionId fn = 0; fn < tr->numFunctions(); ++fn) {
            cell_totals[shard_plan.cellOf(fn)] +=
                tr->function(fn).totalInvocations();
        }
    }

    cells.reserve(num_cells);
    for (std::size_t cell = 0; cell < num_cells; ++cell) {
        auto owned = std::make_unique<shard_impl::Cell>();
        owned->config = shard_plan.cellConfig(config, cell);
        owned->stream = std::make_unique<shard_impl::CellStreamSource>(
            num_functions, num_intervals, interval_ms,
            cell_totals[cell]);
        owned->adapter =
            std::make_unique<shard_impl::CellAdapter>(policy);
        // Each cell records into private sinks: its own trace ring
        // (merged at export as a "cellN" track) and its own histogram
        // set (merged into the recorder's at finish(), in cell order).
        if (tsink != nullptr) {
            cell_options.trace_sink =
                options.recorder->cellTraceSink(cell, num_cells);
        }
        if (hists != nullptr) {
            owned->hist = std::make_unique<obs::HistogramSet>();
            cell_options.histograms = owned->hist.get();
        }
        owned->sim = std::make_unique<Simulator>(
            *owned->stream, profiles, owned->config, *owned->adapter,
            cell_options);
        cells.push_back(std::move(owned));
    }

    context.num_functions = num_functions;
    context.profiles = &profiles;
    context.cluster = &config; // the global composition
    context.interval_ms = interval_ms;
    context.recorder = options.recorder;

    facade = std::make_unique<GlobalFacade>(*this);
    observed.assign(num_functions, 0);

    parallel = policy.shardCompatible() && options.shards > 1 &&
        num_cells > 1;
    if (parallel)
        pool = WorkerPool(std::min(options.shards, num_cells));

}

void
ShardedSimulator::Impl::scatterWindow(IntervalIndex interval)
{
    // Pull the interval's GLOBAL window once and deal every arrival to
    // its owning cell, re-ranking by cell-buffer position (see
    // CellStreamSource). The single pull is what lets one streaming
    // source feed all cells: it is consumed strictly in interval
    // order, regardless of the cell count.
    const ArrivalWindow window = source.intervalWindow(interval);
    for (const auto &cell : cells)
        cell->stream->buffer().clear();
    for (std::size_t i = 0; i < window.size; ++i) {
        ArrivalRecord rec = window.data[i];
        auto &buf =
            cells[shard_plan.cellOf(rec.fn)]->stream->buffer();
        rec.rank = static_cast<std::uint32_t>(buf.size());
        buf.push_back(rec);
    }
}

void
ShardedSimulator::Impl::sampleProbes(IntervalIndex interval)
{
    obs::IntervalSample sample;
    sample.interval = static_cast<std::uint32_t>(interval);
    sample.time = now;
    std::array<std::int64_t, kNumTiers> idle{};
    std::array<std::int64_t, kNumTiers> setup{};
    std::int64_t waiting = 0;
    for (const auto &cell : cells) {
        std::array<std::int64_t, kNumTiers> cell_idle{};
        std::array<std::int64_t, kNumTiers> cell_setup{};
        cell->sim->cluster().sampleOccupancy(cell_idle, cell_setup);
        const SimulationMetrics &accrued = cell->sim->accruedMetrics();
        for (std::size_t t = 0; t < kNumTiers; ++t) {
            const auto tier = static_cast<Tier>(t);
            idle[t] += cell_idle[t];
            setup[t] += cell_setup[t];
            sample.total_mb[t] +=
                cell->sim->cluster().totalMemoryMb(tier);
            sample.used_mb[t] +=
                cell->sim->cluster().totalMemoryMb(tier) -
                cell->sim->cluster().vacantMemoryMb(tier);
            sample.keep_alive_cost[t] +=
                accrued.keep_alive[t].totalCost();
        }
        waiting += static_cast<std::int64_t>(cell->sim->waitingCount());
    }
    sample.idle_warm = idle;
    sample.in_setup = setup;
    sample.wait_queue = waiting;
    probes->addIntervalSample(sample);
}

ShardedSimulator::ShardedSimulator(
    const trace::Trace &tr,
    const std::vector<workload::FunctionProfile> &profiles,
    const ClusterConfig &config, Policy &policy, SimulatorOptions options)
    : impl_(std::make_unique<Impl>(
          std::make_unique<MaterializedTraceSource>(tr, options.seed),
          nullptr, profiles, config, policy, options))
{
    impl_->setup();
}

ShardedSimulator::ShardedSimulator(
    TraceSource &source,
    const std::vector<workload::FunctionProfile> &profiles,
    const ClusterConfig &config, Policy &policy, SimulatorOptions options)
    : impl_(std::make_unique<Impl>(nullptr, &source, profiles, config,
                                   policy, options))
{
    impl_->setup();
}

ShardedSimulator::~ShardedSimulator() = default;

void
ShardedSimulator::start()
{
    Impl &impl = *impl_;
    ICEB_ASSERT(!impl.started, "ShardedSimulator::start() called twice");
    impl.started = true;

    impl.policy.initialize(impl.context);
    if (auto *offline = dynamic_cast<OfflinePolicy *>(&impl.policy)) {
        if (impl.source.trace() == nullptr) {
            fatal("offline (oracle) scheme '", impl.policy.name(),
                  "' needs a materialized trace; a streamed workload "
                  "cannot grant the privileged full-trace view");
        }
        impl.oracle_context.trace = impl.source.trace();
        impl.oracle_context.arrival_schedule =
            impl.source.arrivalSchedule();
        offline->initializeOracle(impl.oracle_context);
    }

    impl.source.beginRun();

    for (const auto &cell : impl.cells)
        cell->sim->start();
}

bool
ShardedSimulator::advanceInterval()
{
    Impl &impl = *impl_;
    ICEB_ASSERT(impl.started, "advanceInterval() before start()");
    if (impl.drained)
        return false;

    const std::size_t num_intervals = impl.num_intervals;
    if (impl.intervals_started == num_intervals) {
        // Trailing completions / expiries past the horizon; no policy
        // interval hooks remain.
        impl.runCells([&impl](std::size_t cell) {
            while (impl.cells[cell]->sim->step()) {
            }
        });
        impl.drained = true;
        return false;
    }

    const std::size_t iv = impl.intervals_started;
    const TimeMs interval_ms = impl.interval_ms;
    impl.now = static_cast<TimeMs>(iv) * interval_ms;

    // Serial barrier, deterministic cell order. The previous body
    // phase left every cell standing just before its own interval
    // tick (the tick at T_iv is its next unprocessed event). The
    // policy must act in THIS state — before any cell's tick reserves
    // the interval's arrival-window sequence numbers — so that, as in
    // the classic engine's tick handler (policy first, window after),
    // a warm-up completing at exactly an arrival's timestamp sorts
    // before the arrival.
    for (const auto &cell : impl.cells)
        cell->sim->cluster().setNow(impl.now);

    // Barrier-phase spans for the run's Chrome trace (the
    // coordinator's own sink; cells record lifecycle events into
    // their per-cell rings). Simulated-time spans only — the serial
    // phases are zero-length at the barrier timestamp — so traced
    // output stays byte-identical across worker counts.
    ICEB_TRACE(impl.tsink, obs::TraceKind::PhaseSerialBarrier, impl.now,
               static_cast<FunctionId>(iv), Tier::HighEnd,
               obs::ColdCause::None, 0);

    // Probe the aggregate BEFORE the policy acts, like the classic
    // engine: the row shows the state the decision saw.
    if (impl.probes != nullptr) {
        ICEB_TRACE(impl.tsink, obs::TraceKind::PhaseProbeSample,
                   impl.now, static_cast<FunctionId>(iv), Tier::HighEnd,
                   obs::ColdCause::None, 0);
        impl.sampleProbes(static_cast<IntervalIndex>(iv));
    }

    const bool wall = impl.hists != nullptr && impl.hists->wall_timing;

    // The real policy's interval hooks fire exactly once, against the
    // aggregated observation and the global facade. Each cell's
    // open-interval counts still hold the closed interval's arrivals
    // (its tick has not delivered and reset them yet); only the home
    // cell of a function ever counts it, so aggregation is a sum.
    if (iv > 0) {
        std::fill(impl.observed.begin(), impl.observed.end(), 0u);
        for (const auto &cell : impl.cells) {
            const auto &counts = cell->sim->observedCounts();
            for (std::size_t fn = 0; fn < impl.observed.size(); ++fn)
                impl.observed[fn] += counts[fn];
        }
        IntervalObservation closed;
        closed.interval = static_cast<IntervalIndex>(iv - 1);
        closed.arrivals = impl.observed.data();
        closed.num_functions = impl.observed.size();
        const auto t0 = wall ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};
        impl.policy.onIntervalObserved(closed);
        if (wall)
            impl.hists->forecast_wall_us.record(wallUsSince(t0));
    }
    {
        const auto t0 = wall ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};
        impl.policy.onIntervalStart(static_cast<IntervalIndex>(iv),
                                    *impl.facade);
        if (wall)
            impl.hists->decision_wall_us.record(wallUsSince(t0));
    }

    // Deal the interval's arrivals to the cells before any cell's
    // tick opens its window on them.
    impl.scatterWindow(static_cast<IntervalIndex>(iv));

    // Now advance every cell through its tick: the adapter swallows
    // the interval hooks, and the tick opens the arrival window with
    // sequence numbers above everything the policy just pushed.
    for (const auto &cell : impl.cells) {
        Simulator &sim = *cell->sim;
        while (sim.intervalsStarted() <= iv) {
            if (!sim.step())
                break;
        }
    }

    // Parallel phase: every cell runs its own event loop up to (not
    // including) the next barrier. Cells share nothing here.
    const TimeMs t_next = static_cast<TimeMs>(iv + 1) * interval_ms;
    ICEB_TRACE(impl.tsink, obs::TraceKind::PhaseParallelCells, impl.now,
               static_cast<FunctionId>(iv), Tier::HighEnd,
               obs::ColdCause::None,
               static_cast<std::uint64_t>(interval_ms));
    impl.runCells([&impl, t_next](std::size_t cell) {
        Simulator &sim = *impl.cells[cell]->sim;
        while (const std::optional<TimeMs> t = sim.nextEventTime()) {
            if (*t >= t_next)
                break;
            sim.step();
        }
    });

    ++impl.intervals_started;
    return true;
}

SimulationMetrics
ShardedSimulator::finish()
{
    Impl &impl = *impl_;
    ICEB_ASSERT(impl.drained,
                "finish() before the run completed (call "
                "advanceInterval() until it returns false)");
    SimulationMetrics total = impl.cells[0]->sim->finish();
    for (std::size_t cell = 1; cell < impl.cells.size(); ++cell)
        total.merge(impl.cells[cell]->sim->finish());
    // Fold the cells' private histogram sets into the recorder's, in
    // cell order (bucket addition is exact, so the merged set equals a
    // classic run's up to the partitioned-memory placement semantics).
    if (impl.hists != nullptr) {
        for (const auto &cell : impl.cells) {
            if (cell->hist != nullptr)
                impl.hists->merge(*cell->hist);
        }
    }
    return total;
}

SimulationMetrics
ShardedSimulator::run()
{
    start();
    while (advanceInterval()) {
    }
    return finish();
}

std::optional<TimeMs>
ShardedSimulator::nextBarrierTime() const
{
    const Impl &impl = *impl_;
    if (impl.intervals_started >= impl.num_intervals)
        return std::nullopt;
    return static_cast<TimeMs>(impl.intervals_started) *
        impl.interval_ms;
}

std::size_t
ShardedSimulator::intervalsStarted() const
{
    return impl_->intervals_started;
}

TimeMs
ShardedSimulator::now() const
{
    return impl_->now;
}

LiveCounters
ShardedSimulator::liveCounters() const
{
    LiveCounters total;
    for (const auto &cell : impl_->cells) {
        const LiveCounters c = cell->sim->liveCounters();
        total.invocations += c.invocations;
        total.cold_starts += c.cold_starts;
        total.warm_starts += c.warm_starts;
        total.wait_queue += c.wait_queue;
        for (std::size_t t = 0; t < kNumTiers; ++t)
            total.keep_alive_cost[t] += c.keep_alive_cost[t];
    }
    return total;
}

const ShardPlan &
ShardedSimulator::plan() const
{
    return impl_->shard_plan;
}

bool
ShardedSimulator::parallel() const
{
    return impl_->parallel;
}

} // namespace iceb::sim
