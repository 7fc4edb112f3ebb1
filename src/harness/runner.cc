#include "harness/runner.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/worker_pool.hh"
#include "harness/observe.hh"
#include "harness/registry.hh"

namespace iceb::harness
{

ExperimentRunner::ExperimentRunner(std::size_t threads)
    : threads_(threads)
{
    if (threads_ == 0)
        threads_ = hardwareThreads();
}

ExperimentRunner::~ExperimentRunner() = default;
ExperimentRunner::ExperimentRunner(ExperimentRunner &&) noexcept = default;
ExperimentRunner &
ExperimentRunner::operator=(ExperimentRunner &&) noexcept = default;

void
ExperimentRunner::setObservation(const ObservationOptions &options)
{
    observation_ = std::make_unique<ObservationOptions>(options);
}

std::vector<RunResult>
ExperimentRunner::run(const std::vector<RunSpec> &grid) const
{
    // Fail on malformed specs before any worker starts, so errors
    // surface as a clean fatal() on the calling thread.
    const PolicyRegistry &registry = PolicyRegistry::instance();
    for (const RunSpec &spec : grid) {
        if (spec.workload == nullptr)
            fatal("RunSpec '", spec.scheme, "' has no workload");
        if (!registry.contains(spec.scheme))
            fatal("RunSpec names unknown policy '", spec.scheme, "'");
    }

    std::vector<RunResult> results(grid.size());

    // One recorder slot per run. Workers only ever touch their own
    // run's slot, so recording needs no synchronisation and the
    // observed stream per run is independent of thread count.
    const bool observe =
        observation_ != nullptr && observation_->enabled();
    std::vector<std::unique_ptr<obs::RunRecorder>> recorders(
        grid.size());
    const obs::ObsConfig obs_config =
        observe ? observation_->runConfig() : obs::ObsConfig{};

    WorkerPool pool(std::min(threads_, grid.size()));
    pool.run(grid.size(), [&](std::size_t i, std::size_t) {
        const RunSpec &spec = grid[i];
        const std::unique_ptr<sim::Policy> policy =
            registry.make(spec.scheme);
        sim::SimulatorOptions options = sim::SimulatorOptions::forRun(
            spec.base_seed, spec.run_index);
        options.shards = spec.shards;
        options.max_cells = spec.max_cells;
        if (observe) {
            recorders[i] = std::make_unique<obs::RunRecorder>(obs_config);
            options.recorder = recorders[i].get();
        }
        results[i].spec = spec;
        results[i].metrics = sim::runSimulation(
            spec.workload->trace, spec.workload->profiles, spec.cluster,
            *policy, options);
    });

    if (observe)
        writeObservations(*observation_, results, recorders);
    return results;
}

std::vector<RunSpec>
buildGrid(const std::vector<std::string> &schemes,
          const Workload &workload, const std::vector<SweepPoint> &points,
          std::uint64_t base_seed, std::size_t repeats)
{
    ICEB_ASSERT(repeats > 0, "a grid needs at least one replicate");
    std::vector<RunSpec> grid;
    grid.reserve(points.size() * schemes.size() * repeats);
    for (const SweepPoint &point : points) {
        for (const std::string &scheme : schemes) {
            for (std::size_t r = 0; r < repeats; ++r) {
                RunSpec spec;
                spec.scheme = scheme;
                spec.workload = &workload;
                spec.cluster = point.cluster;
                spec.base_seed = base_seed;
                spec.run_index = static_cast<std::uint32_t>(r);
                spec.label = point.label;
                grid.push_back(std::move(spec));
            }
        }
    }
    return grid;
}

std::vector<CellSummary>
summarizeGrid(const std::vector<RunResult> &results)
{
    std::vector<CellSummary> cells;
    std::size_t i = 0;
    while (i < results.size()) {
        const RunSpec &head = results[i].spec;
        std::vector<sim::SimulationMetrics> replicates;
        while (i < results.size() &&
               results[i].spec.label == head.label &&
               results[i].spec.scheme == head.scheme) {
            replicates.push_back(results[i].metrics);
            ++i;
        }
        CellSummary cell;
        cell.label = head.label;
        cell.scheme = head.scheme;
        cell.summary = sim::summarizeRuns(replicates);
        cells.push_back(std::move(cell));
    }
    return cells;
}

std::vector<SchemeSummary>
runAllSchemesParallel(const Workload &workload,
                      const sim::ClusterConfig &cluster,
                      const RunnerOptions &options)
{
    std::vector<std::string> schemes;
    for (Scheme scheme : allSchemes())
        schemes.push_back(schemeKey(scheme));

    const std::vector<SweepPoint> points = {{"", cluster}};
    std::vector<RunSpec> grid = buildGrid(
        schemes, workload, points, options.base_seed, options.repeats);
    for (RunSpec &spec : grid) {
        spec.shards = options.shards;
        spec.max_cells = options.max_cells;
    }
    ExperimentRunner runner(options.threads);
    if (options.observation != nullptr)
        runner.setObservation(*options.observation);
    const std::vector<RunResult> results = runner.run(grid);
    const std::vector<CellSummary> cells = summarizeGrid(results);
    ICEB_ASSERT(cells.size() == schemes.size(),
                "scheme comparison produced an unexpected cell count");

    std::vector<SchemeSummary> summaries;
    summaries.reserve(cells.size());
    const std::vector<Scheme> order = allSchemes();
    for (std::size_t i = 0; i < cells.size(); ++i)
        summaries.push_back(SchemeSummary{order[i], cells[i].summary});
    return summaries;
}

} // namespace iceb::harness
