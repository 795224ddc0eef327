// FNV-1a over 64-bit words and strings: a compiler-independent fingerprint
// of everything integer-valued a run reports. Shared by the golden tests,
// which pin known-good outputs across refactors.
#pragma once

#include <cstdint>
#include <string>

#include "common/stats.hpp"
#include "core/metrics.hpp"

namespace aurora {

class Fingerprint {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void add(const std::string& s) {
    for (const char ch : s) mix(static_cast<std::uint8_t>(ch));
    add(s.size());
  }
  void add(const Histogram& h) {
    add(h.total());
    for (std::size_t i = 0; i < h.num_buckets(); ++i) add(h.bucket_count(i));
  }
  void add(const CounterSet& counters) {
    for (const auto& [name, value] : counters.all()) {
      add(name);
      add(value);
    }
  }
  /// Integer fields only: doubles (energy, averages) are left out so the
  /// fingerprint does not depend on floating-point codegen.
  void add(const core::RunMetrics& m) {
    for (const std::uint64_t v :
         {m.total_cycles, m.compute_cycles, m.onchip_comm_cycles,
          m.dram_cycles, m.reconfig_cycles, m.dram_bytes, m.dram_accesses,
          m.noc_messages, m.bypass_messages, m.events.fp_multiplies,
          m.events.fp_adds, m.events.sram_small_bytes,
          m.events.sram_large_bytes, m.events.dram_bytes,
          m.events.noc_link_bytes, m.events.router_bytes,
          m.events.bypass_link_bytes, m.events.reconfig_switch_writes,
          m.events.active_cycles, std::uint64_t{m.partition_a},
          std::uint64_t{m.partition_b}, std::uint64_t{m.num_subgraphs},
          m.reconfigurations, m.switch_writes}) {
      add(v);
    }
    for (const core::PhaseMetrics& p : m.phases) {
      add(p.active_cycles);
      add(p.dram_bytes);
      add(p.noc_messages);
    }
    add(m.counters);
    add(m.noc_packet_latency);
    add(m.dram_request_latency);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void mix(std::uint8_t byte) {
    h_ ^= byte;
    h_ *= 1099511628211ULL;
  }
  std::uint64_t h_ = 14695981039346656037ULL;
};

}  // namespace aurora
