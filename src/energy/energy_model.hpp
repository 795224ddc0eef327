// Energy accounting.
//
// Substitution note (DESIGN.md §1): the paper derives energy from Synopsys
// PrimeTime PX with activity traces, using Horowitz's per-operation energy
// table for on/off-chip events. We reproduce the same *accounting structure*:
// the simulator counts events (arithmetic ops, SRAM/DRAM accesses, NoC hops,
// router traversals) and this model converts counts to energy with a
// parameterised per-event table seeded from the Horowitz 45 nm numbers,
// scaled to 40 nm double precision.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/fields.hpp"
#include "common/types.hpp"

namespace aurora::energy {

/// Per-event energies in picojoules. Defaults follow Horowitz (ISSCC 2014),
/// scaled: 64-bit FP ops cost ~4x the 32-bit figures; SRAM access energy
/// grows roughly with sqrt(capacity).
struct EnergyTable {
  double fp_mul_pj = 14.8;       // 64-bit multiply (4 x 3.7 pJ)
  double fp_add_pj = 3.6;        // 64-bit add      (4 x 0.9 pJ)
  double sram_small_pj_per_byte = 1.25;  // <= 8 KB banks (register-file like)
  double sram_large_pj_per_byte = 6.0;   // ~100 KB distributed bank buffer
  double dram_pj_per_byte = 162.5;       // ~1.3 nJ per 64-bit word
  double noc_link_pj_per_byte = 0.4;     // one hop over a mesh link
  double router_pj_per_byte = 0.6;       // buffering + crossbar traversal
  double bypass_link_pj_per_byte = 0.3;  // segmented bypass wire (no router)
  double reconfig_pj_per_switch = 5.0;   // writing one link-switch/PE config bit
  /// Static power as a fraction of a fully-active accelerator's dynamic
  /// power; multiplied by execution cycles.
  double leakage_pj_per_cycle = 250.0;
};

/// Event counts the simulator produces.
struct EnergyEvents {
  OpCount fp_multiplies = 0;
  OpCount fp_adds = 0;
  Bytes sram_small_bytes = 0;
  Bytes sram_large_bytes = 0;
  Bytes dram_bytes = 0;
  Bytes noc_link_bytes = 0;      // payload-bytes x hops over regular links
  Bytes router_bytes = 0;        // payload-bytes x router traversals
  Bytes bypass_link_bytes = 0;   // payload-bytes x bypass-segment traversals
  std::uint64_t reconfig_switch_writes = 0;
  Cycle active_cycles = 0;

  /// The one member list (see common/fields.hpp).
  static void visit_fields(auto&& f, auto&... objs) {
    f("fp_multiplies", objs.fp_multiplies...);
    f("fp_adds", objs.fp_adds...);
    f("sram_small_bytes", objs.sram_small_bytes...);
    f("sram_large_bytes", objs.sram_large_bytes...);
    f("dram_bytes", objs.dram_bytes...);
    f("noc_link_bytes", objs.noc_link_bytes...);
    f("router_bytes", objs.router_bytes...);
    f("bypass_link_bytes", objs.bypass_link_bytes...);
    f("reconfig_switch_writes", objs.reconfig_switch_writes...);
    f("active_cycles", objs.active_cycles...);
  }
  // Inline: the PE model adds one micro-op's events per executed task.
  EnergyEvents& operator+=(const EnergyEvents& other) {
    fields::add(*this, other);
    return *this;
  }
};

/// Energy in picojoules, broken down by source.
struct EnergyBreakdown {
  double compute_pj = 0.0;
  double sram_pj = 0.0;
  double dram_pj = 0.0;
  double noc_pj = 0.0;
  double reconfig_pj = 0.0;
  double leakage_pj = 0.0;

  /// The one member list (see common/fields.hpp).
  static void visit_fields(auto&& f, auto&... objs) {
    f("compute_pj", objs.compute_pj...);
    f("sram_pj", objs.sram_pj...);
    f("dram_pj", objs.dram_pj...);
    f("noc_pj", objs.noc_pj...);
    f("reconfig_pj", objs.reconfig_pj...);
    f("leakage_pj", objs.leakage_pj...);
  }

  [[nodiscard]] double total_pj() const {
    return compute_pj + sram_pj + dram_pj + noc_pj + reconfig_pj + leakage_pj;
  }
  [[nodiscard]] double total_mj() const { return total_pj() * 1e-9; }
  EnergyBreakdown& operator+=(const EnergyBreakdown& other) {
    fields::add(*this, other);
    return *this;
  }
};

/// Convert event counts to energy under `table`.
[[nodiscard]] EnergyBreakdown compute_energy(const EnergyEvents& events,
                                             const EnergyTable& table);

}  // namespace aurora::energy
