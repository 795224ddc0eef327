// Every metrics struct's visit_fields lists each of its members exactly once,
// in declaration order, so the diffs, sums and registry exports it drives
// cannot miss a member. The member count comes from the aggregate
// brace-initialisation probe, independent of visit_fields.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster_engine.hpp"
#include "core/metrics.hpp"
#include "energy/energy_model.hpp"
#include "serving/serving_engine.hpp"

namespace aurora {
namespace {

/// Converts to any member type, so T{AnyField{}...} compiles exactly while
/// the number of AnyFields is at most T's member count.
struct AnyField {
  template <class U>
  operator U() const;  // NOLINT: implicit on purpose; never defined
};

template <class T, class... Fields>
constexpr std::size_t member_count() {
  if constexpr (requires { T{Fields{}..., AnyField{}}; }) {
    return member_count<T, Fields..., AnyField>();
  } else {
    return sizeof...(Fields);
  }
}

template <class T>
void expect_lists_every_member_once(const char* what) {
  const T obj{};
  std::vector<std::uintptr_t> addresses;
  std::set<std::string> names;
  T::visit_fields(
      [&](const char* name, const auto& member) {
        addresses.push_back(reinterpret_cast<std::uintptr_t>(&member));
        names.insert(name);
      },
      obj);
  EXPECT_EQ(addresses.size(), member_count<T>()) << what;
  EXPECT_EQ(names.size(), addresses.size()) << what << ": duplicate name";
  for (std::size_t i = 1; i < addresses.size(); ++i) {
    EXPECT_LT(addresses[i - 1], addresses[i])
        << what << ": member " << i << " listed out of declaration order";
  }
}

TEST(VisitFields, ListsEveryMemberOnceInDeclarationOrder) {
  expect_lists_every_member_once<energy::EnergyEvents>("EnergyEvents");
  expect_lists_every_member_once<energy::EnergyBreakdown>("EnergyBreakdown");
  expect_lists_every_member_once<core::PhaseMetrics>("PhaseMetrics");
  expect_lists_every_member_once<core::RunMetrics>("RunMetrics");
  expect_lists_every_member_once<cluster::LinkStats>("LinkStats");
  expect_lists_every_member_once<cluster::ChipRun>("ChipRun");
  expect_lists_every_member_once<cluster::ClusterRunMetrics>(
      "ClusterRunMetrics");
  expect_lists_every_member_once<serving::ServedRequest>("ServedRequest");
  expect_lists_every_member_once<serving::ServingReport>("ServingReport");
}

TEST(VisitFields, DiffNamesNestedPathsSizesAndBuckets) {
  cluster::ClusterRunMetrics a;
  a.chips.resize(2);
  a.counters.inc("sim.cycles_skipped", 3);
  cluster::ClusterRunMetrics b = a;
  b.chips.resize(3);
  b.chips[1].metrics.phases[2].dram_bytes = 5;
  b.link.latency.add(100.0);  // bucket 1 of the 64-cycle layout
  b.counters.inc("sim.cycles_skipped", 4);  // scheduler work, ignored
  b.counters.inc("cluster.halo_bytes", 8);
  const std::vector<std::string> expected = {
      "chips.size: 2 != 3",
      "chips[1].metrics.phases[2].dram_bytes: 0 != 5",
      "link.latency.total: 0 != 1",
      "link.latency.bucket[1]: 0 != 1",
      "counters[cluster.halo_bytes]: present only in second",
  };
  EXPECT_EQ(cluster::diff_cluster_run_metrics(a, b), expected);
}

TEST(VisitFields, SumAddsNumbersMergesCountersAndKeepsLatestText) {
  core::RunMetrics a;
  a.events.fp_adds = 2;
  a.energy.dram_pj = 1.5;
  a.phases[1].noc_messages = 3;
  a.noc_heatmap = "first";
  a.counters.inc("noc.packets", 1);
  core::RunMetrics b = a;
  b.noc_heatmap.clear();
  b.pe_heatmap = "second";
  b.dram_request_latency.add(20.0);
  a += b;
  EXPECT_EQ(a.events.fp_adds, 4u);
  EXPECT_EQ(a.energy.dram_pj, 3.0);
  EXPECT_EQ(a.phases[1].noc_messages, 6u);
  EXPECT_EQ(a.noc_heatmap, "first");
  EXPECT_EQ(a.pe_heatmap, "second");
  EXPECT_EQ(a.counters.get("noc.packets"), 2u);
  EXPECT_EQ(a.dram_request_latency.total(), 1u);
}

}  // namespace
}  // namespace aurora
