#include "obs/recorder.hh"

#include "common/logging.hh"

namespace iceb::obs
{

RunRecorder::RunRecorder(const ObsConfig &config)
    : trace_(config.trace), probes_(config.probes),
      histograms_(config.histograms),
      trace_capacity_(config.trace_capacity),
      trace_sink_(config.trace ? config.trace_capacity : 2)
{
}

TraceSink *
RunRecorder::cellTraceSink(std::size_t cell, std::size_t num_cells)
{
    if (!trace_)
        return nullptr;
    ICEB_ASSERT(num_cells > 0 && cell < num_cells,
                "cell index out of range");
    if (cell_sinks_.empty()) {
        std::size_t per_cell = trace_capacity_ / num_cells;
        if (per_cell < 4096)
            per_cell = 4096;
        cell_sinks_.reserve(num_cells);
        for (std::size_t i = 0; i < num_cells; ++i)
            cell_sinks_.push_back(
                std::make_unique<TraceSink>(per_cell));
    }
    ICEB_ASSERT(cell_sinks_.size() == num_cells,
                "cell count changed between cellTraceSink calls");
    return cell_sinks_[cell].get();
}

} // namespace iceb::obs
