#include "core/report.hpp"

#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace aurora::core {
namespace {

void append_kv(std::ostringstream& os, const char* key, double value,
               bool last = false) {
  os << "\"" << key << "\": " << value << (last ? "" : ", ");
}

void append_kv(std::ostringstream& os, const char* key, std::uint64_t value,
               bool last = false) {
  os << "\"" << key << "\": " << value << (last ? "" : ", ");
}

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string metrics_to_json(const RunMetrics& m) {
  std::ostringstream os;
  os << "{";
  append_kv(os, "total_cycles", static_cast<std::uint64_t>(m.total_cycles));
  append_kv(os, "compute_cycles",
            static_cast<std::uint64_t>(m.compute_cycles));
  append_kv(os, "onchip_comm_cycles",
            static_cast<std::uint64_t>(m.onchip_comm_cycles));
  append_kv(os, "dram_cycles", static_cast<std::uint64_t>(m.dram_cycles));
  append_kv(os, "reconfig_cycles",
            static_cast<std::uint64_t>(m.reconfig_cycles));
  append_kv(os, "dram_bytes", static_cast<std::uint64_t>(m.dram_bytes));
  append_kv(os, "dram_accesses", m.dram_accesses);
  append_kv(os, "noc_messages", m.noc_messages);
  append_kv(os, "avg_hops", m.avg_hops);
  append_kv(os, "bypass_messages", m.bypass_messages);
  append_kv(os, "partition_a", static_cast<std::uint64_t>(m.partition_a));
  append_kv(os, "partition_b", static_cast<std::uint64_t>(m.partition_b));
  append_kv(os, "num_subgraphs",
            static_cast<std::uint64_t>(m.num_subgraphs));
  append_kv(os, "reconfigurations", m.reconfigurations);
  append_kv(os, "switch_writes", m.switch_writes);
  append_kv(os, "utilization", m.utilization);
  // Latency percentiles from the component histograms (bucket resolution;
  // zero when the engine did not measure them, e.g. analytic runs). Key
  // order is fixed — consumers and the check.sh schema smoke rely on it.
  const auto append_latency = [&os](const char* key, const Histogram& h) {
    os << "\"" << key << "\": {";
    append_kv(os, "p50", h.quantile(0.50));
    append_kv(os, "p95", h.quantile(0.95));
    append_kv(os, "p99", h.quantile(0.99));
    append_kv(os, "count", h.total(), /*last=*/true);
    os << "}, ";
  };
  append_latency("noc_packet_latency", m.noc_packet_latency);
  append_latency("dram_request_latency", m.dram_request_latency);
  os << "\"phases\": {";
  static constexpr const char* kPhaseKeys[] = {"edge_update", "aggregation",
                                               "vertex_update"};
  for (std::size_t p = 0; p < m.phases.size(); ++p) {
    os << "\"" << kPhaseKeys[p] << "\": {";
    append_kv(os, "active_cycles",
              static_cast<std::uint64_t>(m.phases[p].active_cycles));
    append_kv(os, "dram_bytes",
              static_cast<std::uint64_t>(m.phases[p].dram_bytes));
    append_kv(os, "noc_messages", m.phases[p].noc_messages, /*last=*/true);
    os << (p + 1 < m.phases.size() ? "}, " : "}");
  }
  os << "}, ";
  os << "\"energy_pj\": {";
  append_kv(os, "compute", m.energy.compute_pj);
  append_kv(os, "sram", m.energy.sram_pj);
  append_kv(os, "dram", m.energy.dram_pj);
  append_kv(os, "noc", m.energy.noc_pj);
  append_kv(os, "reconfig", m.energy.reconfig_pj);
  append_kv(os, "leakage", m.energy.leakage_pj);
  append_kv(os, "total", m.energy.total_pj(), /*last=*/true);
  os << "}";
  // Named counters (cluster.* halo traffic, profile.critpath.* attribution,
  // trace.dropped_records, ...). CounterSet::all() returns a sorted map, so
  // the key order is deterministic. Omitted entirely when empty to keep the
  // plain single-chip schema unchanged.
  const auto& counters = m.counters.all();
  if (!counters.empty()) {
    os << ", \"counters\": {";
    std::size_t i = 0;
    for (const auto& [name, value] : counters) {
      os << "\"" << escape(name) << "\": " << value;
      if (++i < counters.size()) os << ", ";
    }
    os << "}";
  }
  os << "}";
  return os.str();
}

std::string runs_to_json(const std::vector<NamedRun>& runs) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i > 0) os << ",\n ";
    os << "{\"accelerator\": \"" << escape(runs[i].accelerator)
       << "\", \"workload\": \"" << escape(runs[i].workload)
       << "\", \"metrics\": " << metrics_to_json(runs[i].metrics) << "}";
  }
  os << "]";
  return os.str();
}

void write_json_file(const std::string& path, const std::string& json) {
  std::ofstream out(path);
  AURORA_CHECK_MSG(out.is_open(), "cannot write JSON report: " << path);
  out << json << '\n';
  AURORA_CHECK_MSG(static_cast<bool>(out), "JSON report write failed");
}

}  // namespace aurora::core
