// Tests for the multi-chip scale-out subsystem: the shard planner's cut and
// ghost bookkeeping, the inter-chip link's cycle-level behaviour and
// conservation laws, the cluster engine's single-chip equivalence,
// multi-chip halo exchange, worker-count independence and golden
// fingerprints, and the cluster-level serving scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/cluster_engine.hpp"
#include "cluster/cluster_scheduler.hpp"
#include "cluster/interchip.hpp"
#include "cluster/shard.hpp"
#include "common/error.hpp"
#include "common/metrics_registry.hpp"
#include "common/rng.hpp"
#include "core/aurora.hpp"
#include "core/report.hpp"
#include "fault/fault.hpp"
#include "fingerprint.hpp"
#include "graph/degree.hpp"
#include "graph/generators.hpp"
#include "serving/serving_engine.hpp"
#include "sim/invariants.hpp"
#include "sim/perfetto.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace aurora {
namespace {

graph::Dataset make_test_dataset(VertexId n, EdgeId undirected_edges,
                                 std::uint64_t seed) {
  Rng rng(seed);
  graph::Dataset ds;
  ds.spec.name = "cluster-test";
  ds.spec.feature_dim = 8;
  ds.spec.feature_density = 1.0;
  ds.spec.num_classes = 4;
  ds.graph = graph::generate_erdos_renyi(n, undirected_edges, rng);
  ds.spec.num_vertices = ds.graph.num_vertices();
  ds.spec.num_directed_edges = ds.graph.num_edges();
  ds.degree_stats = graph::compute_degree_stats(ds.graph);
  return ds;
}

core::AuroraConfig small_config() {
  core::AuroraConfig cfg = core::AuroraConfig::bench();
  cfg.array_dim = 4;
  cfg.noc.k = 4;
  return cfg;
}

// ------------------------------------------------------------------ shard

TEST(ShardPlanner, OneChipPlanIsIdentity) {
  const graph::Dataset ds = make_test_dataset(40, 90, 3);
  for (const auto strategy :
       {cluster::ShardStrategy::kRange, cluster::ShardStrategy::kHash}) {
    const cluster::ShardPlan plan = make_shard_plan(ds, 1, strategy);
    ASSERT_EQ(plan.shards.size(), 1u);
    const cluster::Shard& shard = plan.shards[0];
    EXPECT_EQ(shard.num_owned, ds.num_vertices());
    EXPECT_EQ(shard.num_ghosts, 0u);
    EXPECT_EQ(plan.cut_edges, 0u);
    EXPECT_DOUBLE_EQ(plan.replication_factor, 1.0);
    // Bit-identical CSR vectors — the property the 1-chip engine
    // equivalence rests on.
    EXPECT_EQ(shard.dataset.graph.row_ptr(), ds.graph.row_ptr());
    EXPECT_EQ(shard.dataset.graph.col_idx(), ds.graph.col_idx());
  }
}

TEST(ShardPlanner, ShardsPartitionVerticesAndConserveEdges) {
  const graph::Dataset ds = make_test_dataset(60, 150, 5);
  for (const auto strategy :
       {cluster::ShardStrategy::kRange, cluster::ShardStrategy::kHash}) {
    for (const std::uint32_t chips : {2u, 3u, 4u}) {
      const cluster::ShardPlan plan = make_shard_plan(ds, chips, strategy);
      ASSERT_EQ(plan.shards.size(), chips);
      VertexId owned_total = 0;
      EdgeId owned_edges_total = 0;
      EdgeId ghost_edges_total = 0;
      VertexId ghosts_total = 0;
      std::vector<bool> seen(ds.num_vertices(), false);
      for (const cluster::Shard& shard : plan.shards) {
        owned_total += shard.num_owned;
        ghosts_total += shard.num_ghosts;
        ASSERT_EQ(shard.global_ids.size(),
                  static_cast<std::size_t>(shard.num_owned) +
                      shard.num_ghosts);
        for (VertexId local = 0; local < shard.num_owned; ++local) {
          const VertexId global = shard.global_ids[local];
          EXPECT_FALSE(seen[global]) << "vertex owned twice";
          seen[global] = true;
          // Every owned vertex keeps its full neighbor list locally.
          EXPECT_EQ(shard.dataset.graph.degree(local), ds.graph.degree(global));
          owned_edges_total += shard.dataset.graph.degree(local);
        }
        // Ghost rows mirror exactly the cut edges back into the owned side
        // (the shard is a symmetric CSR).
        EdgeId ghost_edges = 0;
        for (VertexId local = shard.num_owned;
             local < shard.global_ids.size(); ++local) {
          EXPECT_GT(shard.dataset.graph.degree(local), 0u);
          ghost_edges += shard.dataset.graph.degree(local);
          for (const VertexId nb : shard.dataset.graph.neighbors(local)) {
            EXPECT_LT(nb, shard.num_owned);
          }
        }
        EXPECT_EQ(ghost_edges, shard.cut_edges);
        ghost_edges_total += ghost_edges;
        VertexId ghosts_from_total = 0;
        for (const VertexId g : shard.ghosts_from) ghosts_from_total += g;
        EXPECT_EQ(ghosts_from_total, shard.num_ghosts);
        EXPECT_EQ(shard.ghosts_from[shard.chip], 0u);
      }
      EXPECT_EQ(owned_total, ds.num_vertices());
      EXPECT_EQ(owned_edges_total, ds.num_edges());
      EXPECT_EQ(ghost_edges_total, plan.cut_edges);
      EXPECT_EQ(ghosts_total, plan.total_ghosts);
      EXPECT_GE(plan.replication_factor, 1.0);
      EXPECT_GT(plan.cut_edges, 0u);  // an ER graph always cuts somewhere
    }
  }
}

TEST(ShardPlanner, HashOwnerIsVertexModChips) {
  const graph::Dataset ds = make_test_dataset(30, 60, 7);
  const cluster::ShardPlan plan =
      make_shard_plan(ds, 3, cluster::ShardStrategy::kHash);
  for (const cluster::Shard& shard : plan.shards) {
    for (VertexId local = 0; local < shard.num_owned; ++local) {
      EXPECT_EQ(shard.global_ids[local] % 3, shard.chip);
    }
  }
}

TEST(ShardPlanner, HaloBytesFollowGhostCounts) {
  const graph::Dataset ds = make_test_dataset(50, 120, 9);
  const cluster::ShardPlan plan =
      make_shard_plan(ds, 2, cluster::ShardStrategy::kRange);
  EXPECT_EQ(plan.halo_bytes(0, 1, 4, 8),
            static_cast<Bytes>(plan.shards[1].ghosts_from[0]) * 4 * 8);
  EXPECT_EQ(plan.halo_bytes(1, 0, 4, 8),
            static_cast<Bytes>(plan.shards[0].ghosts_from[1]) * 4 * 8);
}

// ------------------------------------------------------------------- link

struct Delivery {
  cluster::LinkMessage msg;
  Cycle at = 0;
};

std::vector<Delivery> drive_link(cluster::InterChipLink& link,
                                 bool fast_forward, Cycle max_cycles = 4096) {
  std::vector<Delivery> deliveries;
  link.set_delivery_callback(
      [&](const cluster::LinkMessage& msg, Cycle now) {
        deliveries.push_back({msg, now});
      });
  sim::Simulator simulator;
  simulator.set_fast_forward(fast_forward);
  simulator.add(&link);
  simulator.run_until_idle(max_cycles);
  return deliveries;
}

TEST(InterChipLink, SerializationAndFlightTiming) {
  cluster::LinkParams params;
  params.bytes_per_cycle = 32;
  params.hop_latency = 10;
  cluster::InterChipLink link(2, params);
  cluster::LinkMessage msg;
  msg.src = 0;
  msg.dst = 1;
  msg.bytes = 64;
  link.send(msg, 0);
  const auto deliveries = drive_link(link, /*fast_forward=*/true);
  ASSERT_EQ(deliveries.size(), 1u);
  // Eligible at 1, serialises 64/32 = 2 cycles, flies 10: arrives at 13.
  EXPECT_EQ(cluster::link_serialize_cycles(params, 64), 2u);
  EXPECT_EQ(cluster::link_serialize_cycles(params, 1), 1u);
  EXPECT_EQ(deliveries[0].at, 13u);
  EXPECT_EQ(link.stats().messages_delivered, 1u);
  EXPECT_EQ(link.stats().bytes_delivered, 64u);
  EXPECT_EQ(link.stats().hops, 1u);
  EXPECT_EQ(link.stats().stall_cycles, 0u);
}

TEST(InterChipLink, RingRoutesShortestPathStoreAndForward) {
  cluster::LinkParams params;
  params.topology = cluster::ClusterTopology::kRing;
  cluster::InterChipLink ring(4, params);
  EXPECT_EQ(cluster::link_route_hops(params, 4, 0, 2), 2u);
  EXPECT_EQ(cluster::link_route_hops(params, 4, 0, 3), 1u);
  EXPECT_EQ(cluster::link_route_hops(params, 4, 3, 1), 2u);
  cluster::LinkMessage msg;
  msg.src = 0;
  msg.dst = 2;
  msg.bytes = 16;
  ring.send(msg, 0);
  const auto deliveries = drive_link(ring, true);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(ring.stats().hops, 2u);  // forwarded once through chip 1
  EXPECT_EQ(ring.stats().bytes_hopped, 32u);

  params.topology = cluster::ClusterTopology::kFullyConnected;
  cluster::InterChipLink full(4, params);
  EXPECT_EQ(cluster::link_route_hops(params, 4, 0, 2), 1u);
  EXPECT_EQ(full.num_wires(), 12u);  // N(N-1) directed wires
  full.send(msg, 0);
  (void)drive_link(full, true);
  EXPECT_EQ(full.stats().hops, 1u);
}

TEST(InterChipLink, QueueingBehindBusyWireCountsStalls) {
  cluster::LinkParams params;
  params.bytes_per_cycle = 8;
  params.hop_latency = 5;
  cluster::InterChipLink link(2, params);
  cluster::LinkMessage msg;
  msg.src = 0;
  msg.dst = 1;
  msg.bytes = 80;  // 10 serialisation cycles
  link.send(msg, 0);
  link.send(msg, 0);  // same wire: waits for the first to serialise
  const auto deliveries = drive_link(link, true);
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(link.stats().stall_cycles, 10u);
  EXPECT_EQ(link.stats().serialize_cycles, 20u);
}

TEST(InterChipLink, LockstepAndFastForwardBitIdentical) {
  for (const auto topology : {cluster::ClusterTopology::kRing,
                              cluster::ClusterTopology::kFullyConnected}) {
    cluster::LinkParams params;
    params.topology = topology;
    params.bytes_per_cycle = 16;
    params.hop_latency = 33;
    const auto run = [&](bool fast_forward) {
      cluster::InterChipLink link(5, params);
      Rng rng(42);
      Cycle now = 0;
      sim::Simulator simulator;
      simulator.set_fast_forward(fast_forward);
      simulator.add(&link);
      std::vector<Delivery> deliveries;
      link.set_delivery_callback(
          [&](const cluster::LinkMessage& msg, Cycle at) {
            deliveries.push_back({msg, at});
          });
      for (int i = 0; i < 20; ++i) {
        cluster::LinkMessage msg;
        msg.src = static_cast<std::uint32_t>(rng.next_below(5));
        do {
          msg.dst = static_cast<std::uint32_t>(rng.next_below(5));
        } while (msg.dst == msg.src);
        msg.bytes = 1 + rng.next_below(256);
        link.send(msg, now);
        // Interleave sends with simulation progress.
        const Cycle until = now + rng.next_below(41);
        while (simulator.now() < until && !simulator.all_idle()) {
          simulator.step();
        }
        now = simulator.now();
      }
      simulator.run_until_idle(100000);
      sim::InvariantReport report(simulator.now(), /*drained=*/true);
      report.set_subject(link.name());
      link.verify_invariants(report);
      EXPECT_TRUE(report.ok()) << report.to_string();
      return std::make_pair(deliveries, link.stats());
    };
    const auto [d_lock, s_lock] = run(false);
    const auto [d_fast, s_fast] = run(true);
    ASSERT_EQ(d_lock.size(), d_fast.size());
    for (std::size_t i = 0; i < d_lock.size(); ++i) {
      EXPECT_EQ(d_lock[i].at, d_fast[i].at) << "delivery " << i;
      EXPECT_EQ(d_lock[i].msg.bytes, d_fast[i].msg.bytes);
    }
    EXPECT_EQ(s_lock.messages_delivered, s_fast.messages_delivered);
    EXPECT_EQ(s_lock.stall_cycles, s_fast.stall_cycles);
    EXPECT_EQ(s_lock.serialize_cycles, s_fast.serialize_cycles);
    EXPECT_EQ(s_lock.hops, s_fast.hops);
  }
}

TEST(InterChipLink, ConservationInvariantsHoldMidFlight) {
  cluster::LinkParams params;
  params.hop_latency = 50;
  cluster::InterChipLink link(3, params);
  cluster::LinkMessage msg;
  msg.src = 0;
  msg.dst = 2;
  msg.bytes = 100;
  link.send(msg, 0);
  sim::Simulator simulator;
  simulator.add(&link);
  simulator.run_cycles(10);  // message is mid-flight
  EXPECT_GT(link.messages_in_flight(), 0u);
  sim::InvariantReport mid(simulator.now(), /*drained=*/false);
  link.verify_invariants(mid);
  EXPECT_TRUE(mid.ok()) << mid.to_string();
  simulator.run_until_idle(10000);
  sim::InvariantReport drained(simulator.now(), /*drained=*/true);
  link.verify_invariants(drained);
  EXPECT_TRUE(drained.ok()) << drained.to_string();
}

// ----------------------------------------------------------------- engine

TEST(ClusterEngine, OneChipReproducesPlainEngineBitForBit) {
  const graph::Dataset ds = make_test_dataset(48, 100, 11);
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, 8);
  for (const bool fast_forward : {false, true}) {
    core::AuroraConfig cfg = small_config();
    cfg.fast_forward = fast_forward;

    core::AuroraAccelerator plain(cfg);
    const core::RunMetrics reference = plain.run(ds, job);

    cluster::ClusterParams params;
    params.num_chips = 1;
    cluster::ClusterEngine engine(cfg, params);
    const cluster::ClusterRunMetrics clustered = engine.run(ds, job);

    ASSERT_EQ(clustered.chips.size(), 1u);
    const auto diffs =
        core::diff_run_metrics(reference, clustered.chips[0].metrics);
    EXPECT_TRUE(diffs.empty())
        << "fast_forward=" << fast_forward << ": " << diffs.size()
        << " field(s) diverge; first: "
        << (diffs.empty() ? std::string() : diffs.front());
    EXPECT_EQ(clustered.total_cycles, reference.total_cycles);
    EXPECT_EQ(clustered.link.messages_sent, 0u);
    EXPECT_EQ(clustered.chips[0].halo_bytes_sent, 0u);
    EXPECT_EQ(clustered.ghost_vertices, 0u);
  }
}

TEST(ClusterEngine, TwoChipShardParallelExchangesHalos) {
  const graph::Dataset ds = make_test_dataset(60, 140, 17);
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, 8);
  core::AuroraConfig cfg = small_config();
  cfg.check_invariants = true;  // cluster conservation laws on the hot path
  cfg.invariant_interval = 64;
  cluster::ClusterParams params;
  params.num_chips = 2;
  cluster::ClusterEngine engine(cfg, params);
  const cluster::ClusterRunMetrics out = engine.run(ds, job);

  ASSERT_EQ(out.chips.size(), 2u);
  EXPECT_GT(out.ghost_vertices, 0u);
  EXPECT_GT(out.cut_edges, 0u);
  EXPECT_GT(out.replication_factor, 1.0);
  EXPECT_GT(out.link.messages_sent, 0u);
  EXPECT_EQ(out.link.messages_sent, out.link.messages_delivered);
  EXPECT_EQ(out.link.bytes_sent, out.link.bytes_delivered);
  EXPECT_GT(out.counters.get("cluster.halo_bytes_sent"), 0u);
  Bytes sent = 0;
  Bytes received = 0;
  for (const cluster::ChipRun& chip : out.chips) {
    EXPECT_GT(chip.metrics.total_cycles, 0u);
    EXPECT_LE(chip.finish_cycle, out.total_cycles);
    sent += chip.halo_bytes_sent;
    received += chip.halo_bytes_received;
  }
  EXPECT_EQ(sent, out.link.bytes_sent);
  EXPECT_EQ(received, out.link.bytes_delivered);
  // The cluster clock covers at least the slowest chip's own work.
  Cycle slowest = 0;
  for (const cluster::ChipRun& chip : out.chips) {
    slowest = std::max(slowest, chip.metrics.total_cycles);
  }
  EXPECT_GE(out.total_cycles, slowest);
}

TEST(ClusterEngine, LockstepAndFastForwardClusterBitIdentical) {
  const graph::Dataset ds = make_test_dataset(50, 120, 23);
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kAgnn, ds.spec, 8);
  const auto run = [&](bool fast_forward) {
    core::AuroraConfig cfg = small_config();
    cfg.fast_forward = fast_forward;
    cfg.check_invariants = true;
    cluster::ClusterParams params;
    params.num_chips = 3;
    params.strategy = cluster::ShardStrategy::kHash;
    cluster::ClusterEngine engine(cfg, params);
    return engine.run(ds, job);
  };
  const cluster::ClusterRunMetrics lockstep = run(false);
  const cluster::ClusterRunMetrics fastfwd = run(true);
  const auto diffs = cluster::diff_cluster_run_metrics(lockstep, fastfwd);
  EXPECT_TRUE(diffs.empty()) << diffs.size() << " field(s) diverge; first: "
                             << (diffs.empty() ? std::string() : diffs.front());
  EXPECT_GT(fastfwd.link.messages_delivered, 0u);
}

TEST(ClusterEngine, RegistryExposesLinkAndPerChipProbes) {
  const graph::Dataset ds = make_test_dataset(40, 90, 29);
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, 8);
  cluster::ClusterParams params;
  params.num_chips = 2;
  cluster::ClusterEngine engine(small_config(), params);
  const cluster::ClusterRunMetrics out = engine.run(ds, job);

  MetricsRegistry registry;
  engine.register_metrics(registry);
  EXPECT_EQ(registry.value("cluster.link.bytes_sent"),
            static_cast<double>(out.link.bytes_sent));
  EXPECT_EQ(registry.value("cluster.chip0.halo_bytes_sent"),
            static_cast<double>(out.chips[0].halo_bytes_sent));
  EXPECT_EQ(registry.value("cluster.chip1.halo_bytes_received"),
            static_cast<double>(out.chips[1].halo_bytes_received));
  ASSERT_NE(registry.find("cluster.link.latency"), nullptr);
  EXPECT_FALSE(registry.match("cluster.").empty());
  // Every LinkStats member is published under its own name.
  cluster::LinkStats::visit_fields(
      [&registry](const char* name, const auto& member) {
        const std::string key = std::string("cluster.link.") + name;
        const MetricsRegistry::Entry* entry = registry.find(key);
        ASSERT_NE(entry, nullptr) << key;
        if constexpr (std::is_same_v<std::decay_t<decltype(member)>,
                                     Histogram>) {
          ASSERT_NE(entry->histogram, nullptr) << key;
          EXPECT_EQ(entry->histogram->total(), member.total()) << key;
        } else {
          EXPECT_EQ(registry.value(key), static_cast<double>(member)) << key;
        }
      },
      out.link);
}

TEST(ClusterEngine, PerfettoTraceCarriesPerChipTracks) {
  const graph::Dataset ds = make_test_dataset(40, 90, 31);
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, 8);
  cluster::ClusterParams params;
  params.num_chips = 2;
  cluster::ClusterEngine engine(small_config(), params);
  sim::Tracer cluster_tracer;
  cluster_tracer.enable();
  sim::Tracer chip0_tracer;
  chip0_tracer.enable();
  engine.set_tracer(&cluster_tracer);
  engine.set_chip_tracer(0, &chip0_tracer);
  (void)engine.run(ds, job);

  EXPECT_GT(cluster_tracer.count(sim::TraceEvent::kClusterSegment), 0u);
  EXPECT_GT(cluster_tracer.count(sim::TraceEvent::kHaloSent), 0u);
  EXPECT_EQ(cluster_tracer.count(sim::TraceEvent::kHaloSent),
            cluster_tracer.count(sim::TraceEvent::kHaloDelivered));

  const std::string json = sim::perfetto_trace_json(
      {{"cluster", &cluster_tracer, nullptr}, {"chip0", &chip0_tracer}});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"chip0\""), std::string::npos);
  EXPECT_NE(json.find("\"chip1\""), std::string::npos);
  EXPECT_NE(json.find("compute-pre"), std::string::npos);
  EXPECT_NE(json.find("halo-wait"), std::string::npos);
  EXPECT_NE(json.find("link.halo_bytes_in_flight"), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);
}

// ------------------------------------------------- per-chip fan-out

// The non-negotiable contract: fanning the per-chip engine runs out over
// worker threads must reproduce the single-threaded ClusterRunMetrics bit
// for bit — every chip's RunMetrics, halo fields, link stats including
// histogram buckets, and the counter set — across topologies, chip counts
// and both scheduler modes.
TEST(ParallelEngine, BitIdenticalToSerialAcrossTopologiesAndModes) {
  const graph::Dataset ds = make_test_dataset(60, 150, 41);
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, 8);
  for (const std::uint32_t chips : {1u, 2u, 4u}) {
    for (const cluster::ClusterTopology topology :
         {cluster::ClusterTopology::kRing,
          cluster::ClusterTopology::kFullyConnected}) {
      for (const bool fast_forward : {false, true}) {
        const auto run = [&](unsigned jobs) {
          core::AuroraConfig cfg = small_config();
          cfg.fast_forward = fast_forward;
          cluster::ClusterParams params;
          params.num_chips = chips;
          params.strategy = cluster::ShardStrategy::kHash;
          params.link.topology = topology;
          params.parallel_jobs = jobs;
          cluster::ClusterEngine engine(cfg, params);
          return engine.run(ds, job);
        };
        const cluster::ClusterRunMetrics serial = run(1);
        const cluster::ClusterRunMetrics parallel = run(3);
        const auto diffs =
            cluster::diff_cluster_run_metrics(serial, parallel);
        EXPECT_TRUE(diffs.empty())
            << chips << " chip(s), " << topology_name(topology) << ", "
            << (fast_forward ? "fast-forward" : "lockstep") << ": "
            << diffs.size() << " mismatch(es), first: "
            << (diffs.empty() ? std::string() : diffs.front());
      }
    }
  }
}

// Worker count is a performance knob, never a result knob: any jobs value
// (including oversubscribed) and any repetition yields the same metrics.
TEST(ParallelEngine, DeterministicAcrossWorkerCountsAndRepeats) {
  const graph::Dataset ds = make_test_dataset(50, 120, 43);
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kAgnn, ds.spec, 8);
  const auto run = [&](unsigned jobs) {
    core::AuroraConfig cfg = small_config();
    cfg.fast_forward = true;
    cluster::ClusterParams params;
    params.num_chips = 3;
    params.parallel_jobs = jobs;
    cluster::ClusterEngine engine(cfg, params);
    return engine.run(ds, job);
  };
  const cluster::ClusterRunMetrics reference = run(1);
  for (const unsigned jobs : {1u, 2u, 5u}) {
    for (int rep = 0; rep < 2; ++rep) {
      const auto diffs =
          cluster::diff_cluster_run_metrics(reference, run(jobs));
      EXPECT_TRUE(diffs.empty())
          << jobs << " worker(s), rep " << rep << ": "
          << (diffs.empty() ? std::string() : diffs.front());
    }
  }
}

// config.check_invariants watches the link and every proxy; a healthy
// multi-threaded run passes them and still matches one worker bit for bit.
TEST(ParallelEngine, InvariantCheckerCompatible) {
  const graph::Dataset ds = make_test_dataset(50, 120, 47);
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, 8);
  for (const bool fast_forward : {false, true}) {
    const auto run = [&](unsigned jobs) {
      core::AuroraConfig cfg = small_config();
      cfg.fast_forward = fast_forward;
      cfg.check_invariants = true;
      cfg.invariant_interval = 64;
      cluster::ClusterParams params;
      params.num_chips = 3;
      params.parallel_jobs = jobs;
      cluster::ClusterEngine engine(cfg, params);
      return engine.run(ds, job);
    };
    const cluster::ClusterRunMetrics serial = run(1);
    const cluster::ClusterRunMetrics parallel = run(3);
    const auto diffs = cluster::diff_cluster_run_metrics(serial, parallel);
    EXPECT_TRUE(diffs.empty())
        << (fast_forward ? "fast-forward" : "lockstep") << ": "
        << (diffs.empty() ? std::string() : diffs.front());
  }
}

// Each chip's engine records into its own tracer, so the per-chip traces
// and the cluster-clock trace are the same records in the same sequence
// whatever the worker count.
TEST(ParallelEngine, TraceMatchesSerial) {
  const graph::Dataset ds = make_test_dataset(50, 120, 53);
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, 8);
  constexpr std::uint32_t kChips = 3;
  const auto trace = [&](unsigned jobs) {
    cluster::ClusterParams params;
    params.num_chips = kChips;
    params.parallel_jobs = jobs;
    cluster::ClusterEngine engine(small_config(), params);
    std::vector<sim::Tracer> tracers(kChips + 1);
    for (sim::Tracer& t : tracers) t.enable();
    engine.set_tracer(&tracers[kChips]);
    for (std::uint32_t c = 0; c < kChips; ++c) {
      engine.set_chip_tracer(c, &tracers[c]);
    }
    (void)engine.run(ds, job);
    std::vector<sim::TraceRecord> out;
    for (const sim::Tracer& t : tracers) {
      out.insert(out.end(), t.records().begin(), t.records().end());
    }
    return out;
  };
  const std::vector<sim::TraceRecord> serial = trace(1);
  const std::vector<sim::TraceRecord> parallel = trace(3);
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_GT(serial.size(), 0u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].at, parallel[i].at) << "record " << i;
    EXPECT_EQ(serial[i].kind, parallel[i].kind) << "record " << i;
    EXPECT_EQ(serial[i].arg0, parallel[i].arg0) << "record " << i;
    EXPECT_EQ(serial[i].arg1, parallel[i].arg1) << "record " << i;
    EXPECT_EQ(serial[i].arg2, parallel[i].arg2) << "record " << i;
    EXPECT_EQ(serial[i].arg3, parallel[i].arg3) << "record " << i;
  }
}

// register_metrics after a multi-threaded run publishes the same cluster.*
// probe names and values as a single-threaded run.
TEST(ParallelEngine, RegistryMatchesSerial) {
  const graph::Dataset ds = make_test_dataset(40, 90, 59);
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, 8);
  const auto probe = [&](unsigned jobs) {
    cluster::ClusterParams params;
    params.num_chips = 2;
    params.parallel_jobs = jobs;
    cluster::ClusterEngine engine(small_config(), params);
    (void)engine.run(ds, job);
    MetricsRegistry registry;
    engine.register_metrics(registry);
    std::vector<std::pair<std::string, double>> out;
    for (const auto* metric : registry.match("cluster.")) {
      out.emplace_back(metric->name,
                       metric->kind == MetricKind::kHistogram
                           ? static_cast<double>(metric->histogram->total())
                           : registry.value(metric->name));
    }
    return out;
  };
  const auto serial = probe(1);
  const auto parallel = probe(2);
  EXPECT_EQ(serial, parallel);
}

// ----------------------------------------------------------- golden

// Integer fields only: doubles (energy, averages, replication factor) are
// left out so the fingerprint does not depend on floating-point codegen.
std::uint64_t fingerprint(const cluster::ClusterRunMetrics& r) {
  Fingerprint f;
  f.add(r.total_cycles);
  f.add(r.cut_edges);
  f.add(r.ghost_vertices);
  for (const cluster::ChipRun& chip : r.chips) {
    f.add(chip.metrics);
    f.add(chip.finish_cycle);
    f.add(chip.halo_wait_cycles);
    f.add(chip.halo_bytes_sent);
    f.add(chip.halo_bytes_received);
  }
  const cluster::LinkStats& l = r.link;
  for (const std::uint64_t v :
       {l.messages_sent, l.messages_delivered, l.bytes_sent,
        l.bytes_delivered, l.hops, l.bytes_hopped, l.serialize_cycles,
        l.stall_cycles, l.degraded_sends, l.degraded_extra_cycles}) {
    f.add(v);
  }
  f.add(l.latency);
  f.add(r.counters);
  return f.value();
}

// Fixed fingerprints of known-good runs: any refactor of the cluster engine
// must leave every cell unchanged, for one worker and for several.
TEST(ClusterGolden, RunMetricsFingerprintsUnchanged) {
  struct Cell {
    std::uint32_t chips;
    cluster::ClusterTopology topology;
    bool faults;
    std::uint64_t expected;
  };
  constexpr auto kRing = cluster::ClusterTopology::kRing;
  constexpr auto kFull = cluster::ClusterTopology::kFullyConnected;
  const Cell cells[] = {
      {1, kRing, false, 0x55c6e37174846be8ULL},
      {1, kRing, true, 0x55c6e37174846be8ULL},
      {1, kFull, false, 0x55c6e37174846be8ULL},
      {1, kFull, true, 0x55c6e37174846be8ULL},
      {2, kRing, false, 0xd4b475bd1178bc62ULL},
      {2, kRing, true, 0x6113ab83d4b27822ULL},
      {2, kFull, false, 0xd4b475bd1178bc62ULL},
      {2, kFull, true, 0x6113ab83d4b27822ULL},
      {4, kRing, false, 0x0cd4abe2fda10269ULL},
      {4, kRing, true, 0xf8a7e79a87255f6fULL},
      {4, kFull, false, 0xd25ad7041e8ed09dULL},
      {4, kFull, true, 0x828e79659a133a40ULL},
  };
  const graph::Dataset ds = make_test_dataset(80, 240, 71);
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, 8);
  for (const Cell& cell : cells) {
    cluster::ClusterParams params;
    params.num_chips = cell.chips;
    params.strategy = cluster::ShardStrategy::kHash;
    params.link.topology = cell.topology;
    params.link.bytes_per_cycle = 8;
    if (cell.faults) {
      fault::FaultParams fp;
      fp.seed = 13;
      fp.horizon = 2'000'000;
      fp.link_mtbf = 1'000.0;
      fp.link_mttr = 4'000.0;
      fp.link_multiplier_min = 2.0;
      fp.link_multiplier_max = 6.0;
      params.fault_plan = std::make_shared<fault::FaultPlan>(
          fault::FaultPlan::generate(fp, cell.chips));
    }
    for (const unsigned jobs : {1u, 3u}) {
      params.parallel_jobs = jobs;
      cluster::ClusterEngine engine(small_config(), params);
      const cluster::ClusterRunMetrics result = engine.run(ds, job);
      if (cell.faults && cell.chips > 1) {
        EXPECT_GT(result.link.degraded_sends, 0u);
      }
      EXPECT_EQ(fingerprint(result), cell.expected)
          << cell.chips << " chip(s), " << topology_name(cell.topology)
          << (cell.faults ? ", link faults" : "") << ", jobs " << jobs
          << ": actual 0x" << std::hex << fingerprint(result);
    }
  }
}

TEST(ClusterGolden, ShardModeServingReportUnchanged) {
  const graph::Dataset ds = make_test_dataset(60, 150, 9);
  serving::ServingParams params;
  params.seed = 5;
  params.num_requests = 6;
  params.queue_depth = 8;
  params.arrival.rate_per_mcycle = 100.0;
  params.slo_cycles = 500000;
  params.mode = cluster::DispatchMode::kShardParallel;
  cluster::ClusterParams cluster_params;
  cluster_params.num_chips = 2;
  serving::ServingEngine engine(small_config(), cluster_params, params);
  const serving::ServingReport report = engine.run(
      ds, {{core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, 8), "gcn",
            1.0, 0},
           {core::GnnJob::two_layer(gnn::GnnModel::kAgnn, ds.spec, 8), "agnn",
            1.0, 0}});
  Fingerprint f;
  f.add(serving::serving_report_json(report));
  EXPECT_EQ(f.value(), 0x7c220fc230e65e31ULL)
      << "actual 0x" << std::hex << f.value();
}

// -------------------------------------------------------------- scheduler

serving::ServingReport replay_closed_loop(
    const graph::Dataset& ds, const cluster::ClusterParams& params,
    cluster::DispatchMode mode, const std::vector<core::GnnJob>& jobs) {
  serving::ServingParams serving_params;
  serving_params.queue_depth = 0;
  serving_params.max_batch = 1;
  serving_params.mode = mode;
  std::vector<serving::ServingRequest> requests;
  for (const core::GnnJob& job : jobs) {
    serving::ServingRequest r;
    r.id = requests.size();
    r.job = job;
    r.label = "req" + std::to_string(r.id);
    requests.push_back(std::move(r));
  }
  serving::ServingEngine engine(small_config(), params, serving_params);
  return engine.replay(ds, std::move(requests));
}

TEST(ClusterScheduler, DataParallelSpreadsRequestsAcrossChips) {
  const graph::Dataset ds = make_test_dataset(40, 90, 37);
  cluster::ClusterParams params;
  params.num_chips = 2;
  const serving::ServingReport result = replay_closed_loop(
      ds, params, cluster::DispatchMode::kDataParallel,
      std::vector<core::GnnJob>(
          4, core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, 8)));

  ASSERT_EQ(result.served.size(), 4u);
  bool chip0 = false;
  bool chip1 = false;
  Cycle latency_sum = 0;
  for (std::size_t i = 0; i < result.served.size(); ++i) {
    EXPECT_EQ(result.served[i].label, "req" + std::to_string(i));
    chip0 |= result.served[i].chip == 0;
    chip1 |= result.served[i].chip == 1;
    latency_sum += result.served[i].service_time();
  }
  EXPECT_TRUE(chip0 && chip1) << "both chips should serve requests";
  // Two chips in parallel beat a serial schedule of the same requests.
  EXPECT_LT(result.horizon, latency_sum);
}

TEST(ClusterScheduler, ShardParallelMatchesClusterEngineLatency) {
  const graph::Dataset ds = make_test_dataset(40, 90, 41);
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, 8);
  cluster::ClusterParams params;
  params.num_chips = 2;

  cluster::ClusterEngine engine(small_config(), params);
  const Cycle engine_total = engine.run(ds, job).total_cycles;

  const serving::ServingReport result = replay_closed_loop(
      ds, params, cluster::DispatchMode::kShardParallel, {job});
  ASSERT_EQ(result.served.size(), 1u);
  EXPECT_EQ(result.served[0].service_time(), engine_total);
  EXPECT_EQ(result.served[0].metrics.total_cycles, engine_total);
  EXPECT_EQ(result.horizon, engine_total);
  EXPECT_GT(result.served[0].metrics.counters.get("cluster.halo_bytes_sent"),
            0u);
}

}  // namespace
}  // namespace aurora
