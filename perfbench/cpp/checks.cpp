#include "checks.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

using aurora::Cycle;
namespace core = aurora::core;

namespace {

std::string u64(std::uint64_t v) { return std::to_string(v); }

/// Counters that describe the engine's own scheduling work (how many cycles
/// fast-forward jumped) rather than the modelled hardware; lockstep and
/// fast-forward legitimately disagree on them.
bool is_scheduler_counter(const std::string& name) {
  return name == "sim.cycles_skipped";
}

}  // namespace

std::vector<std::string> check_run_metrics(const core::RunMetrics& m) {
  std::vector<std::string> violations;
  if (m.total_cycles == 0) violations.push_back("total_cycles is 0");
  const double energy = m.energy.total_pj();
  if (!std::isfinite(energy) || energy < 0.0) {
    violations.push_back("energy total is not a finite non-negative number");
  }
  aurora::Bytes phase_bytes = 0;
  std::uint64_t phase_messages = 0;
  for (const auto& p : m.phases) {
    phase_bytes += p.dram_bytes;
    phase_messages += p.noc_messages;
  }
  if (phase_bytes != m.dram_bytes) {
    violations.push_back("phase dram_bytes sum " + u64(phase_bytes) +
                         " != dram_bytes " + u64(m.dram_bytes));
  }
  if (phase_messages != m.noc_messages) {
    violations.push_back("phase noc_messages sum " + u64(phase_messages) +
                         " != noc_messages " + u64(m.noc_messages));
  }
  return violations;
}

std::vector<std::string> check_cluster_run(
    const aurora::cluster::ClusterRunMetrics& m) {
  std::vector<std::string> violations;
  Cycle latest = 0;
  aurora::Bytes sent = 0;
  aurora::Bytes received = 0;
  for (std::size_t c = 0; c < m.chips.size(); ++c) {
    const auto& chip = m.chips[c];
    for (const std::string& violation : check_run_metrics(chip.metrics)) {
      violations.push_back("chip " + std::to_string(c) + ": " + violation);
    }
    latest = std::max(latest, chip.finish_cycle);
    sent += chip.halo_bytes_sent;
    received += chip.halo_bytes_received;
  }
  if (m.chips.empty()) violations.push_back("no chips in the cluster run");
  if (latest != m.total_cycles) {
    violations.push_back("total_cycles " + u64(m.total_cycles) +
                         " != latest chip finish " + u64(latest));
  }
  if (sent != received) {
    violations.push_back("halo bytes sent " + u64(sent) + " != received " +
                         u64(received));
  }
  return violations;
}

std::vector<std::string> check_serving_report(
    const aurora::serving::ServingReport& r,
    std::uint64_t expected_generated) {
  std::vector<std::string> violations;
  if (r.generated != expected_generated) {
    violations.push_back("generated " + u64(r.generated) + " != requests fed " +
                         u64(expected_generated));
  }
  if (r.admitted + r.shed != r.generated) {
    violations.push_back("admitted " + u64(r.admitted) + " + shed " +
                         u64(r.shed) + " != generated " + u64(r.generated));
  }
  const std::uint64_t accounted =
      r.served.size() + r.shed_expired + r.failed_permanently;
  if (r.admitted != accounted) {
    violations.push_back("admitted " + u64(r.admitted) +
                         " != completed + shed_expired + failed_permanently " +
                         u64(accounted));
  }
  for (const auto& s : r.served) {
    if (s.start < s.arrival || s.finish < s.start) {
      violations.push_back("request " + u64(s.id) + " has acausal timing");
      break;
    }
  }
  for (const auto& s : r.served) {
    const auto run_violations = check_run_metrics(s.metrics);
    if (!run_violations.empty()) {
      violations.push_back("request " + u64(s.id) + ": " +
                           run_violations.front());
      break;
    }
  }
  return violations;
}

std::vector<std::string> check_critical_path(
    const aurora::profile::CritPathReport& report, Cycle expected_total) {
  std::vector<std::string> violations;
  if (report.truncated) violations.push_back("critical-path trace truncated");
  if (report.attribution.total() != report.total_cycles) {
    violations.push_back("critical-path categories sum " +
                         u64(report.attribution.total()) + " != total " +
                         u64(report.total_cycles));
  }
  Cycle runs_total = 0;
  for (const auto& run : report.runs) {
    runs_total += run.total_cycles;
    if (run.attribution.total() != run.total_cycles) {
      violations.push_back("critical-path run categories sum " +
                           u64(run.attribution.total()) + " != run total " +
                           u64(run.total_cycles));
    }
  }
  if (runs_total != report.total_cycles) {
    violations.push_back("critical-path run totals " + u64(runs_total) +
                         " != report total " + u64(report.total_cycles));
  }
  if (report.total_cycles != expected_total) {
    violations.push_back("critical-path total " + u64(report.total_cycles) +
                         " != simulated cycles " + u64(expected_total));
  }
  return violations;
}

double simulated_cycles(const core::RunMetrics& m) {
  const std::uint64_t simulated = m.counters.get("sim.cycles_total");
  return static_cast<double>(simulated > 0 ? simulated : m.total_cycles);
}

void mix_run_metrics(Fingerprint& fp, const core::RunMetrics& m) {
  fp.mix(m.total_cycles);
  fp.mix(m.compute_cycles);
  fp.mix(m.onchip_comm_cycles);
  fp.mix(m.dram_cycles);
  fp.mix(m.reconfig_cycles);
  fp.mix(m.dram_bytes);
  fp.mix(m.dram_accesses);
  fp.mix(m.noc_messages);
  fp.mix(m.bypass_messages);
  fp.mix_double(m.avg_hops);
  fp.mix_double(m.energy.total_pj());
  fp.mix(m.partition_a);
  fp.mix(m.partition_b);
  fp.mix(m.num_subgraphs);
  fp.mix(m.reconfigurations);
  for (const auto& [name, value] : m.counters.all()) {
    if (is_scheduler_counter(name)) continue;
    fp.mix_string(name);
    fp.mix(value);
  }
}

void mix_cluster_run(Fingerprint& fp,
                     const aurora::cluster::ClusterRunMetrics& m) {
  fp.mix(m.total_cycles);
  fp.mix(m.cut_edges);
  fp.mix(m.ghost_vertices);
  for (const auto& chip : m.chips) {
    mix_run_metrics(fp, chip.metrics);
    fp.mix(chip.finish_cycle);
    fp.mix(chip.halo_wait_cycles);
    fp.mix(chip.halo_bytes_sent);
  }
  fp.mix(m.link.messages_delivered);
  fp.mix(m.link.bytes_delivered);
  fp.mix(m.link.hops);
  fp.mix(m.link.stall_cycles);
  for (const auto& [name, value] : m.counters.all()) {
    fp.mix_string(name);
    fp.mix(value);
  }
}

void mix_serving_report(Fingerprint& fp,
                        const aurora::serving::ServingReport& r) {
  fp.mix(r.generated);
  fp.mix(r.admitted);
  fp.mix(r.shed);
  fp.mix(r.batches);
  fp.mix(r.batched_followers);
  fp.mix(r.failed_attempts);
  fp.mix(r.retries);
  fp.mix(r.failed_over);
  fp.mix(r.failed_permanently);
  fp.mix(r.shed_expired);
  fp.mix(r.horizon);
  for (const auto& s : r.served) {
    fp.mix(s.id);
    fp.mix(s.chip);
    fp.mix(s.arrival);
    fp.mix(s.start);
    fp.mix(s.finish);
    fp.mix(s.batched_follower ? 1 : 0);
    fp.mix(s.retries);
    fp.mix(s.metrics.total_cycles);
    fp.mix_double(s.metrics.energy.total_pj());
  }
}

void add_engine_counts(LayerValues& counts, const aurora::CounterSet& c) {
  static const char* const kNames[] = {
      "noc.router_traversals", "noc.flit_hops",     "noc.bypass_flit_hops",
      "noc.packets_delivered", "noc.busy_cycles",   "pe.tasks",
      "pe.busy_cycles",        "dram.requests",     "dram.bursts",
      "dram.row_hits",         "dram.row_misses",   "dram.row_conflicts",
      "sim.cycles_total",      "sim.cycles_skipped"};
  for (const char* name : kNames) {
    counts[name] += static_cast<double>(c.get(name));
  }
}

void add_cluster_counts(LayerValues& counts,
                        const aurora::cluster::ClusterRunMetrics& m) {
  for (const auto& chip : m.chips) {
    add_engine_counts(counts, chip.metrics.counters);
  }
  static const char* const kNames[] = {
      "cluster.halo_bytes_sent", "cluster.link_hops",
      "cluster.barrier_wait_cycles", "cluster.cut_edges"};
  for (const char* name : kNames) {
    counts[name] += static_cast<double>(m.counters.get(name));
  }
}

}  // namespace perfbench
