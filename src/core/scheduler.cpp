#include "core/scheduler.hpp"

#include <algorithm>
#include <utility>

namespace aurora::core {

std::string job_signature(const GnnJob& job) {
  std::string key = gnn::model_name(job.model);
  for (const gnn::LayerConfig& layer : job.layers) {
    key += '/';
    key += std::to_string(layer.in_dim);
    key += 'x';
    key += std::to_string(layer.out_dim);
    key += '@';
    key += std::to_string(layer.element_bytes);
  }
  return key;
}

Cycle lead_dram_cycles(const RunMetrics& metrics) {
  return metrics.dram_cycles / std::max<Cycle>(1, metrics.num_subgraphs);
}

Cycle tail_compute_cycles(const RunMetrics& metrics) {
  return metrics.compute_cycles / std::max<Cycle>(1, metrics.num_subgraphs);
}

Cycle overlap_cycles(Cycle prev_compute_tail, const RunMetrics& next) {
  return std::min(prev_compute_tail, lead_dram_cycles(next));
}

Service chip_service(RunMetrics metrics) {
  Service service;
  service.lead = lead_dram_cycles(metrics);
  service.tail = tail_compute_cycles(metrics);
  service.shareable_reconfig = metrics.reconfig_cycles;
  service.metrics = std::move(metrics);
  return service;
}

RequestOutcome place(ChipTimeline& timeline, std::string label,
                     const Service& service, Cycle not_before,
                     bool share_configuration) {
  RequestOutcome outcome;
  outcome.label = std::move(label);
  outcome.metrics = service.metrics;
  if (share_configuration) {
    // Engines count exposed reconfiguration into total_cycles, so the
    // clamp never bites on a measured service; it keeps a hand-built one
    // from wrapping.
    outcome.reconfig_saved =
        std::min(service.shareable_reconfig, outcome.metrics.total_cycles);
    outcome.metrics.total_cycles -= outcome.reconfig_saved;
    outcome.metrics.reconfig_cycles -= outcome.reconfig_saved;
  }

  // The request's leading DRAM phase can hide under the previous request's
  // trailing compute (the PE array is still busy while the DRAM channels
  // idle out).
  outcome.overlap_hidden = std::min(timeline.prev_compute_tail, service.lead);
  const Cycle earliest = timeline.busy_until >= outcome.overlap_hidden
                             ? timeline.busy_until - outcome.overlap_hidden
                             : 0;
  outcome.start_cycle = std::max(not_before, earliest);
  outcome.finish_cycle = outcome.start_cycle + outcome.metrics.total_cycles;
  timeline.busy_until = outcome.finish_cycle;
  timeline.prev_compute_tail = service.tail;
  return outcome;
}

}  // namespace aurora::core
