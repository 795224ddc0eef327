// Run metrics reported by the Aurora simulator and by the baseline models —
// the quantities every figure of the paper is built from.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fields.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "energy/energy_model.hpp"
#include "gnn/ops.hpp"

namespace aurora::core {

/// Per-GNN-phase attribution of a run's activity (paper Fig 1's
/// edge-update / aggregation / vertex-update taxonomy). Both engines fill
/// the same schema: the cycle engine from observed event spans and send
/// sites, the analytic model from its closed-form terms.
struct PhaseMetrics {
  /// Cycles during which the phase had activity (first to last event of the
  /// phase, summed over tiles). Phases overlap in a pipelined run, so these
  /// do not sum to total_cycles.
  Cycle active_cycles = 0;
  /// DRAM bytes attributed to the phase (loads feed the first phase that
  /// consumes them; weights and output stores belong to the producer of the
  /// final features). Sums to dram_bytes across phases.
  Bytes dram_bytes = 0;
  /// NoC messages sent on behalf of the phase. Sums to noc_messages.
  std::uint64_t noc_messages = 0;

  /// The one member list (see common/fields.hpp).
  static void visit_fields(auto&& f, auto&... objs) {
    f("active_cycles", objs.active_cycles...);
    f("dram_bytes", objs.dram_bytes...);
    f("noc_messages", objs.noc_messages...);
  }
};

/// Metrics of one layer (or one full run when layers are accumulated).
struct RunMetrics {
  /// End-to-end execution time in accelerator cycles (Fig 9).
  Cycle total_cycles = 0;
  /// Cycle breakdown.
  Cycle compute_cycles = 0;
  Cycle onchip_comm_cycles = 0;  // Fig 8
  Cycle dram_cycles = 0;
  Cycle reconfig_cycles = 0;     // non-overlapped reconfiguration time

  /// Off-package traffic (Fig 7): total bytes moved and burst-granular
  /// access count.
  Bytes dram_bytes = 0;
  std::uint64_t dram_accesses = 0;

  /// On-chip traffic detail.
  std::uint64_t noc_messages = 0;
  double avg_hops = 0.0;
  std::uint64_t bypass_messages = 0;

  /// Raw event counts + converted energy (Fig 10).
  energy::EnergyEvents events;
  energy::EnergyBreakdown energy;

  /// Decisions taken.
  std::uint32_t partition_a = 0;
  std::uint32_t partition_b = 0;
  std::uint32_t num_subgraphs = 0;
  std::uint64_t reconfigurations = 0;
  std::uint64_t switch_writes = 0;

  /// Pipeline utilisation estimate (1.0 = perfectly balanced stages).
  double utilization = 0.0;

  /// ASCII router-load heatmap (cycle engine only; empty otherwise).
  std::string noc_heatmap;
  /// ASCII per-PE busy-cycle heatmap (cycle engine only).
  std::string pe_heatmap;
  /// Fine-grained component event counters (cycle engine only).
  CounterSet counters;
  /// Mean fraction of execution time the PEs spent busy (cycle engine).
  double pe_utilization = 0.0;

  /// Per-phase attribution, indexed by gnn::Phase via phase().
  std::array<PhaseMetrics, gnn::kAllPhases.size()> phases{};
  [[nodiscard]] PhaseMetrics& phase(gnn::Phase p) {
    return phases[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] const PhaseMetrics& phase(gnn::Phase p) const {
    return phases[static_cast<std::size_t>(p)];
  }

  /// Latency distributions measured by the cycle engine (canonical
  /// layouts; zero-total in analytic runs so the report schema is
  /// identical either way).
  Histogram noc_packet_latency{kNocLatencyBucketCycles, kNocLatencyBuckets};
  Histogram dram_request_latency{kDramLatencyBucketCycles,
                                 kDramLatencyBuckets};

  /// The one member list (see common/fields.hpp).
  static void visit_fields(auto&& f, auto&... objs) {
    f("total_cycles", objs.total_cycles...);
    f("compute_cycles", objs.compute_cycles...);
    f("onchip_comm_cycles", objs.onchip_comm_cycles...);
    f("dram_cycles", objs.dram_cycles...);
    f("reconfig_cycles", objs.reconfig_cycles...);
    f("dram_bytes", objs.dram_bytes...);
    f("dram_accesses", objs.dram_accesses...);
    f("noc_messages", objs.noc_messages...);
    f("avg_hops", objs.avg_hops...);
    f("bypass_messages", objs.bypass_messages...);
    f("events", objs.events...);
    f("energy", objs.energy...);
    f("partition_a", objs.partition_a...);
    f("partition_b", objs.partition_b...);
    f("num_subgraphs", objs.num_subgraphs...);
    f("reconfigurations", objs.reconfigurations...);
    f("switch_writes", objs.switch_writes...);
    f("utilization", objs.utilization...);
    f("noc_heatmap", objs.noc_heatmap...);
    f("pe_heatmap", objs.pe_heatmap...);
    f("counters", objs.counters...);
    f("pe_utilization", objs.pe_utilization...);
    f("phases", objs.phases...);
    f("noc_packet_latency", objs.noc_packet_latency...);
    f("dram_request_latency", objs.dram_request_latency...);
  }

  /// Accumulates a later layer: member-wise sums (fields::add), except
  /// avg_hops (weighted by message count), partition_a/b (the later
  /// layer's decision) and utilization/pe_utilization (pairwise mean).
  RunMetrics& operator+=(const RunMetrics& other);

  [[nodiscard]] double total_seconds(double frequency_mhz) const {
    return static_cast<double>(total_cycles) / (frequency_mhz * 1e6);
  }
};

}  // namespace aurora::core
