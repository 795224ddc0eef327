#include "energy/energy_model.hpp"

namespace aurora::energy {

EnergyBreakdown compute_energy(const EnergyEvents& e, const EnergyTable& t) {
  EnergyBreakdown b;
  b.compute_pj = static_cast<double>(e.fp_multiplies) * t.fp_mul_pj +
                 static_cast<double>(e.fp_adds) * t.fp_add_pj;
  b.sram_pj = static_cast<double>(e.sram_small_bytes) * t.sram_small_pj_per_byte +
              static_cast<double>(e.sram_large_bytes) * t.sram_large_pj_per_byte;
  b.dram_pj = static_cast<double>(e.dram_bytes) * t.dram_pj_per_byte;
  b.noc_pj = static_cast<double>(e.noc_link_bytes) * t.noc_link_pj_per_byte +
             static_cast<double>(e.router_bytes) * t.router_pj_per_byte +
             static_cast<double>(e.bypass_link_bytes) * t.bypass_link_pj_per_byte;
  b.reconfig_pj =
      static_cast<double>(e.reconfig_switch_writes) * t.reconfig_pj_per_switch;
  b.leakage_pj = static_cast<double>(e.active_cycles) * t.leakage_pj_per_cycle;
  return b;
}

}  // namespace aurora::energy
