/**
 * @file
 * RunRecorder: the per-run bundle of observability sinks handed to a
 * Simulator. One recorder per run, owned by whoever launches the run
 * (ExperimentRunner for grids, main() for single runs); the simulator
 * only borrows it. Single ownership is the determinism story: worker
 * threads never share a sink, so `--threads N` observes exactly what
 * `--threads 1` observes, and export happens after the grid completes
 * in grid order.
 *
 * Sharded runs add one wrinkle: the cells of a ShardedSimulator run
 * concurrently between barriers, so they cannot share the run's
 * TraceSink. The recorder instead hands each cell its own ring
 * (cellTraceSink), created once in cell order at setup time; the
 * Chrome exporter merges them into per-cell tid tracks. Cell rings
 * are filled by the cells' own single-threaded event loops, so their
 * contents are independent of the worker count.
 */

#ifndef ICEB_OBS_RECORDER_HH
#define ICEB_OBS_RECORDER_HH

#include <memory>
#include <vector>

#include "obs/histogram.hh"
#include "obs/probes.hh"
#include "obs/trace_sink.hh"

namespace iceb::obs
{

/** Which pillars to collect, and how much tracing memory to commit. */
struct ObsConfig
{
    bool trace = false;
    bool probes = false;
    bool histograms = false;
    std::size_t trace_capacity = TraceSink::kDefaultCapacity;

    bool any() const { return trace || probes || histograms; }
};

/** One run's observability state. */
class RunRecorder
{
  public:
    explicit RunRecorder(const ObsConfig &config);

    /** Trace sink for ICEB_TRACE sites, or null when tracing is off. */
    TraceSink *traceSink() { return trace_ ? &trace_sink_ : nullptr; }
    const TraceSink *traceSinkIfEnabled() const
    {
        return trace_ ? &trace_sink_ : nullptr;
    }

    /** Probe table, or null when probes are off. */
    ProbeTable *probeTable() { return probes_ ? &probe_table_ : nullptr; }
    const ProbeTable *probeTableIfEnabled() const
    {
        return probes_ ? &probe_table_ : nullptr;
    }

    /** Latency histograms, or null when the pillar is off. */
    HistogramSet *histograms()
    {
        return histograms_ ? &histogram_set_ : nullptr;
    }
    const HistogramSet *histogramsIfEnabled() const
    {
        return histograms_ ? &histogram_set_ : nullptr;
    }

    /**
     * Per-cell trace ring for cell @p cell of a @p num_cells sharded
     * run (null when tracing is off). All rings are created on the
     * first call — in cell order, before any cell runs — each with
     * capacity trace_capacity / num_cells (floor 4096), so the memory
     * commitment matches a classic traced run's.
     */
    TraceSink *cellTraceSink(std::size_t cell, std::size_t num_cells);

    /** The per-cell rings (empty unless cellTraceSink was used). */
    const std::vector<std::unique_ptr<TraceSink>> &cellTraceSinks() const
    {
        return cell_sinks_;
    }

  private:
    bool trace_;
    bool probes_;
    bool histograms_;
    std::size_t trace_capacity_;
    TraceSink trace_sink_;
    ProbeTable probe_table_;
    HistogramSet histogram_set_;
    std::vector<std::unique_ptr<TraceSink>> cell_sinks_;
};

} // namespace iceb::obs

#endif // ICEB_OBS_RECORDER_HH
