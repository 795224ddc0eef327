// Request placement on an Aurora chip timeline.
//
// The paper's front end accepts a queue of host requests (Fig 3 (a));
// because mapping/partition/reconfiguration overlap with compute, the next
// request's DRAM prefetch can also ride under the current request's compute
// tail. place() is the one function that turns a measured service into a
// start and finish on a timeline under that overlap — a single chip's, or
// the whole cluster's under shard-parallel dispatch. The only request loop
// driving it is serving::ServingEngine: a closed-loop queue is a replay with
// every arrival at cycle 0, no batching and an unbounded queue.
#pragma once

#include <string>

#include "core/aurora.hpp"

namespace aurora::core {

struct ScheduledRequest {
  GnnJob job;
  std::string label;
  /// Identity of the dataset this request runs over, when it is not the
  /// engine's ambient dataset (dynamic workloads dispatch per-request
  /// sampled mini-batches). Folded into the cluster scheduler's service
  /// cache key so equal-shaped jobs over different subgraphs never alias;
  /// empty for the ambient dataset.
  std::string dataset_key{};
};

/// Stable identity of the partition/NoC configuration a job induces (the
/// dataset is fixed per serving engine): model plus exact layer shapes.
/// Requests with equal signatures are batch-compatible — they reuse the
/// same array configuration, so only the first pays reconfiguration — and
/// their service metrics are identical (the engines are deterministic and
/// stateless across runs), which also makes this the service-cache key.
[[nodiscard]] std::string job_signature(const GnnJob& job);

struct RequestOutcome {
  std::string label;
  RunMetrics metrics;
  /// When the request started/finished on the shared timeline.
  Cycle start_cycle = 0;
  Cycle finish_cycle = 0;
  /// DRAM-under-compute overlap window claimed against the predecessor.
  Cycle overlap_hidden = 0;
  /// Reconfiguration cycles not paid because the request joined a batch
  /// whose head already applied the same configuration.
  Cycle reconfig_saved = 0;

  [[nodiscard]] Cycle latency() const { return finish_cycle - start_cycle; }
};

/// Rolling placement state of one timeline: when it frees up and how much
/// trailing compute the last request left for the next one to hide its
/// DRAM streaming under.
struct ChipTimeline {
  Cycle busy_until = 0;
  Cycle prev_compute_tail = 0;
};

/// A measured service and the three spans placement needs from it.
struct Service {
  RunMetrics metrics;
  /// Leading DRAM span, which can hide under a predecessor's compute tail.
  Cycle lead = 0;
  /// Trailing compute span, under which a successor's DRAM can hide.
  Cycle tail = 0;
  /// Reconfiguration cycles a batched follower skips.
  Cycle shareable_reconfig = 0;
};

/// The service of one whole-job run on a single chip.
[[nodiscard]] Service chip_service(RunMetrics metrics);

/// Fold `service` into `timeline`: start at the timeline's free cycle
/// minus the overlap window, but never before `not_before` (a serving
/// dispatch cannot begin before the request arrived).
/// `share_configuration` marks a batched follower whose partition/NoC
/// configuration was already applied by the batch head — it skips
/// `shareable_reconfig` cycles.
[[nodiscard]] RequestOutcome place(ChipTimeline& timeline, std::string label,
                                   const Service& service, Cycle not_before,
                                   bool share_configuration);

/// The request's leading DRAM span — the first subgraph's streaming.
[[nodiscard]] Cycle lead_dram_cycles(const RunMetrics& metrics);
/// The request's trailing compute span — the last subgraph's compute.
[[nodiscard]] Cycle tail_compute_cycles(const RunMetrics& metrics);
/// Cycles saved by back-to-back scheduling of `prev` then `next` on one
/// chip.
[[nodiscard]] Cycle overlap_cycles(Cycle prev_compute_tail,
                                   const RunMetrics& next);

}  // namespace aurora::core
