// Tests for the dynamic-graph workload subsystem: DynamicGraph overlay
// semantics and compaction bit-identity, seed-deterministic neighbor
// sampling, the interleaved update/query workload generator, churn-aware
// shard maintenance, and end-to-end dynamic serving determinism across
// lockstep/fast-forward simulation and single/multi-threaded cluster runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/shard_churn.hpp"
#include "common/rng.hpp"
#include "graph/degree.hpp"
#include "graph/generators.hpp"
#include "serving/serving_engine.hpp"
#include "sim/trace.hpp"
#include "workload/dynamic_graph.hpp"
#include "workload/sampler.hpp"
#include "workload/workload_gen.hpp"

namespace aurora {
namespace {

graph::Dataset make_test_dataset(VertexId n, EdgeId undirected_edges,
                                 std::uint64_t seed) {
  Rng rng(seed);
  graph::Dataset ds;
  ds.spec.name = "workload-test";
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

/// No-auto-compaction policy, so tests control compaction explicitly.
workload::CompactionPolicy manual_compaction() {
  workload::CompactionPolicy policy;
  policy.threshold_fraction = 0.0;
  return policy;
}

void expect_same_csr(const graph::CsrGraph& a, const graph::CsrGraph& b) {
  EXPECT_EQ(a.row_ptr(), b.row_ptr());
  EXPECT_EQ(a.col_idx(), b.col_idx());
}

// ------------------------------------------------------------ DynamicGraph

TEST(DynamicGraph, EdgeMutatorSemantics) {
  graph::CsrBuilder b(4);
  b.add_undirected_edge(0, 1);
  workload::DynamicGraph dyn(std::move(b).build(), manual_compaction());

  EXPECT_EQ(dyn.num_edges(), 2u);
  EXPECT_TRUE(dyn.has_edge(0, 1));
  EXPECT_FALSE(dyn.add_edge(0, 1));   // duplicate of a base edge
  EXPECT_FALSE(dyn.add_edge(2, 2));   // self loop
  EXPECT_TRUE(dyn.add_edge(2, 3));    // directed overlay insert
  EXPECT_TRUE(dyn.has_edge(2, 3));
  EXPECT_FALSE(dyn.has_edge(3, 2));
  EXPECT_FALSE(dyn.add_edge(2, 3));   // duplicate of an overlay edge
  EXPECT_EQ(dyn.num_edges(), 3u);
  EXPECT_EQ(dyn.degree(2), 1u);

  EXPECT_TRUE(dyn.remove_edge(0, 1));  // base removal
  EXPECT_FALSE(dyn.remove_edge(0, 1));
  EXPECT_FALSE(dyn.has_edge(0, 1));
  EXPECT_TRUE(dyn.has_edge(1, 0));     // directions are independent
  EXPECT_TRUE(dyn.remove_edge(2, 3));  // overlay add/remove cancels
  EXPECT_EQ(dyn.num_edges(), 1u);
  EXPECT_TRUE(dyn.add_edge(0, 1));     // base remove/add cancels
  EXPECT_EQ(dyn.overlay_edges(), 0u);  // everything cancelled out
}

TEST(DynamicGraph, NeighborsMergeBaseAndOverlay) {
  graph::CsrBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(0, 3);
  workload::DynamicGraph dyn(std::move(b).build(), manual_compaction());
  ASSERT_TRUE(dyn.add_edge(0, 2));
  ASSERT_TRUE(dyn.add_edge(0, 4));
  ASSERT_TRUE(dyn.remove_edge(0, 3));

  std::vector<VertexId> nbrs;
  dyn.append_neighbors(0, nbrs);
  EXPECT_EQ(nbrs, (std::vector<VertexId>{1, 2, 4}));
  EXPECT_EQ(dyn.degree(0), 3u);
}

TEST(DynamicGraph, VertexAddAndRemove) {
  graph::CsrBuilder b(3);
  b.add_undirected_edge(0, 1);
  b.add_undirected_edge(1, 2);
  workload::DynamicGraph dyn(std::move(b).build(), manual_compaction());

  const VertexId v = dyn.add_vertex();
  EXPECT_EQ(v, 3u);
  EXPECT_EQ(dyn.num_vertices(), 4u);
  EXPECT_EQ(dyn.degree(v), 0u);
  EXPECT_TRUE(dyn.add_undirected_edge(v, 0));
  EXPECT_EQ(dyn.num_edges(), 6u);

  // Removing vertex 1 drops both directions of (0,1) and (1,2); the id
  // stays valid with degree zero.
  EXPECT_EQ(dyn.remove_vertex(1), 4u);
  EXPECT_EQ(dyn.num_vertices(), 4u);
  EXPECT_EQ(dyn.degree(1), 0u);
  EXPECT_EQ(dyn.num_edges(), 2u);
  EXPECT_FALSE(dyn.has_edge(0, 1));
  EXPECT_FALSE(dyn.has_edge(2, 1));
  EXPECT_TRUE(dyn.has_edge(3, 0));
}

TEST(DynamicGraph, CompactionBitIdenticalToRebuild) {
  // The acceptance invariant: under a seed-reproducible random
  // insert/delete stream, compact() (the incremental per-vertex merge)
  // produces exactly the CSR a from-scratch CsrBuilder rebuild does.
  Rng rng(2024);
  graph::CsrGraph base = graph::generate_erdos_renyi(60, 150, rng);
  workload::DynamicGraph dyn(std::move(base), manual_compaction());

  for (int step = 0; step < 500; ++step) {
    const VertexId n = dyn.num_vertices();
    const double roll = rng.next_double();
    if (roll < 0.05) {
      (void)dyn.add_vertex();
    } else if (roll < 0.10) {
      (void)dyn.remove_vertex(static_cast<VertexId>(rng.next_below(n)));
    } else if (roll < 0.60) {
      (void)dyn.add_undirected_edge(static_cast<VertexId>(rng.next_below(n)),
                                    static_cast<VertexId>(rng.next_below(n)));
    } else {
      (void)dyn.remove_undirected_edge(
          static_cast<VertexId>(rng.next_below(n)),
          static_cast<VertexId>(rng.next_below(n)));
    }
    if (step % 97 == 0 || step + 1 == 500) {
      const graph::CsrGraph rebuilt = dyn.snapshot();
      dyn.compact();
      expect_same_csr(dyn.base(), rebuilt);
      EXPECT_EQ(dyn.overlay_edges(), 0u);
      EXPECT_EQ(dyn.num_edges(), rebuilt.num_edges());
      dyn.base().validate();
    }
  }
}

TEST(DynamicGraph, AutoCompactionTriggersAtThreshold) {
  Rng rng(7);
  graph::CsrGraph base = graph::generate_erdos_renyi(40, 80, rng);
  workload::CompactionPolicy policy;
  policy.threshold_fraction = 0.1;
  policy.min_overlay_edges = 4;
  workload::DynamicGraph dyn(std::move(base), policy);

  EXPECT_EQ(dyn.compactions(), 0u);
  for (int i = 0; i < 400; ++i) {
    (void)dyn.add_undirected_edge(
        static_cast<VertexId>(rng.next_below(dyn.num_vertices())),
        static_cast<VertexId>(rng.next_below(dyn.num_vertices())));
  }
  EXPECT_GT(dyn.compactions(), 0u);
  // The overlay never grows far past the threshold before folding in.
  EXPECT_LE(dyn.overlay_edges(),
            static_cast<EdgeId>(0.1 * static_cast<double>(
                                          dyn.base().num_edges())) +
                policy.min_overlay_edges);
  // Auto-compaction folded correctly: an explicit compact() of the residual
  // overlay agrees with the from-scratch rebuild.
  const graph::CsrGraph rebuilt = dyn.snapshot();
  dyn.compact();
  expect_same_csr(dyn.base(), rebuilt);
}

// ----------------------------------------------------------------- Sampler

TEST(Sampler, DeterministicForFixedSeed) {
  const graph::Dataset ds = make_test_dataset(120, 360, 11);
  workload::SamplerParams sp;
  sp.fanouts = {4, 3};
  sp.seed = 99;
  const workload::NeighborSampler sampler(sp);
  const workload::CsrSource source(ds.graph);

  const std::vector<VertexId> seeds = {5, 17, 42};
  const auto a = sampler.sample(source, seeds, /*salt=*/3);
  const auto b = sampler.sample(source, seeds, /*salt=*/3);
  EXPECT_EQ(a.global_ids, b.global_ids);
  expect_same_csr(a.subgraph, b.subgraph);
  EXPECT_EQ(a.content_hash, b.content_hash);
  EXPECT_EQ(a.frontier_sizes, b.frontier_sizes);

  // A different salt decorrelates the draw (same params, same seeds).
  const auto c = sampler.sample(source, seeds, /*salt=*/4);
  EXPECT_NE(a.content_hash, c.content_hash);
}

TEST(Sampler, RespectsFanoutCapsAndDedups) {
  const graph::Dataset ds = make_test_dataset(200, 1000, 5);
  workload::SamplerParams sp;
  sp.fanouts = {3, 2};
  sp.seed = 1;
  const workload::NeighborSampler sampler(sp);
  const workload::CsrSource source(ds.graph);

  const std::vector<VertexId> seeds = {0, 1, 0};  // duplicate seed collapses
  const auto batch = sampler.sample(source, seeds, 0);
  EXPECT_EQ(batch.num_seeds, 2u);
  EXPECT_EQ(batch.global_ids[0], 0u);
  EXPECT_EQ(batch.global_ids[1], 1u);

  // Dedup: local ids are unique.
  std::set<VertexId> unique(batch.global_ids.begin(), batch.global_ids.end());
  EXPECT_EQ(unique.size(), batch.global_ids.size());

  // Per-hop growth is bounded by the previous frontier times the fanout.
  ASSERT_EQ(batch.frontier_sizes.size(), 2u);
  EXPECT_LE(batch.frontier_sizes[0], batch.num_seeds * sp.fanouts[0]);
  EXPECT_LE(batch.frontier_sizes[1],
            batch.frontier_sizes[0] * sp.fanouts[1]);
  EXPECT_EQ(batch.global_ids.size(),
            static_cast<std::size_t>(batch.num_seeds) +
                batch.frontier_sizes[0] + batch.frontier_sizes[1]);

  // The induced subgraph is symmetric and structurally valid.
  batch.subgraph.validate();
  for (VertexId v = 0; v < batch.subgraph.num_vertices(); ++v) {
    for (const VertexId u : batch.subgraph.neighbors(v)) {
      EXPECT_TRUE(batch.subgraph.has_edge(u, v));
    }
  }
}

TEST(Sampler, ZeroFanoutTakesAllNeighbors) {
  const graph::Dataset ds = make_test_dataset(50, 120, 3);
  workload::SamplerParams sp;
  sp.fanouts = {0};
  const workload::NeighborSampler sampler(sp);
  const workload::CsrSource source(ds.graph);
  const auto batch = sampler.sample(source, {7}, 0);
  // Every neighbor of the seed is present.
  EXPECT_EQ(batch.global_ids.size(), 1 + ds.graph.degree(7));
}

TEST(Sampler, ZeroDegreeSeedYieldsSingletonBatch) {
  graph::CsrBuilder b(4);
  b.add_undirected_edge(1, 2);
  const graph::CsrGraph g = std::move(b).build();
  const workload::CsrSource source(g);
  workload::SamplerParams sp;
  sp.fanouts = {4, 4};
  const workload::NeighborSampler sampler(sp);
  const auto batch = sampler.sample(source, {0}, 0);  // vertex 0 is isolated
  EXPECT_EQ(batch.global_ids.size(), 1u);
  EXPECT_EQ(batch.subgraph.num_vertices(), 1u);
  EXPECT_EQ(batch.subgraph.num_edges(), 0u);
  EXPECT_EQ(batch.sampled_edges, 0u);
}

TEST(Sampler, DynamicGraphMatchesItsSnapshot) {
  // Sampling through the overlay must agree with sampling the compacted
  // snapshot — the overlay is invisible to consumers.
  Rng rng(13);
  graph::CsrGraph base = graph::generate_erdos_renyi(80, 200, rng);
  workload::DynamicGraph dyn(std::move(base), manual_compaction());
  for (int i = 0; i < 120; ++i) {
    const VertexId u = static_cast<VertexId>(rng.next_below(80));
    const VertexId v = static_cast<VertexId>(rng.next_below(80));
    if (rng.next_bool(0.6)) {
      (void)dyn.add_undirected_edge(u, v);
    } else {
      (void)dyn.remove_undirected_edge(u, v);
    }
  }
  const graph::CsrGraph snap = dyn.snapshot();
  const workload::CsrSource source(snap);
  workload::SamplerParams sp;
  sp.fanouts = {5, 3};
  sp.seed = 77;
  const workload::NeighborSampler sampler(sp);
  const std::vector<VertexId> seeds = {2, 40, 79};
  const auto via_overlay = sampler.sample(dyn, seeds, 9);
  const auto via_snapshot = sampler.sample(source, seeds, 9);
  EXPECT_EQ(via_overlay.content_hash, via_snapshot.content_hash);
  EXPECT_EQ(via_overlay.global_ids, via_snapshot.global_ids);
}

TEST(Sampler, BatchDatasetInheritsSpec) {
  const graph::Dataset parent = make_test_dataset(60, 150, 21);
  workload::SamplerParams sp;
  sp.fanouts = {4};
  const workload::NeighborSampler sampler(sp);
  const workload::CsrSource source(parent.graph);
  auto batch = sampler.sample(source, {3, 9}, 1);
  const EdgeId batch_edges = batch.subgraph.num_edges();
  const auto ds = workload::make_batch_dataset(parent, std::move(batch));
  EXPECT_EQ(std::string(ds->spec.name), std::string(parent.spec.name));
  EXPECT_EQ(ds->spec.feature_dim, parent.spec.feature_dim);
  EXPECT_EQ(ds->scale, parent.scale);
  EXPECT_EQ(ds->num_edges(), batch_edges);
}

// ------------------------------------------------------- ShardChurnTracker

TEST(ShardChurn, TracksCutAndGhostsExactly) {
  // Under kHash ownership the tracker's incremental counters must match a
  // from-scratch re-plan of the mutated graph exactly — including vertices
  // born after the baseline plan (hash ownership extends to them).
  graph::Dataset ds = make_test_dataset(90, 260, 31);
  const std::uint32_t chips = 4;
  workload::DynamicGraph dyn(ds.graph, manual_compaction());
  cluster::ShardChurnTracker tracker(
      cluster::make_shard_plan(ds, chips, cluster::ShardStrategy::kHash));
  EXPECT_EQ(tracker.cut_drift(), 0u);

  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    const VertexId n = dyn.num_vertices();
    const double roll = rng.next_double();
    if (roll < 0.05) {
      (void)dyn.add_vertex();
      continue;
    }
    const VertexId u = static_cast<VertexId>(rng.next_below(n));
    const VertexId v = static_cast<VertexId>(rng.next_below(n));
    if (roll < 0.65) {
      if (dyn.add_edge(u, v)) tracker.note_edge_added(u, v);
      if (dyn.add_edge(v, u)) tracker.note_edge_added(v, u);
    } else {
      if (dyn.remove_edge(u, v)) tracker.note_edge_removed(u, v);
      if (dyn.remove_edge(v, u)) tracker.note_edge_removed(v, u);
    }
  }

  graph::Dataset mutated;
  mutated.spec = ds.spec;
  mutated.scale = ds.scale;
  mutated.graph = dyn.snapshot();
  mutated.degree_stats = graph::compute_degree_stats(mutated.graph);
  const cluster::ShardPlan fresh = cluster::make_shard_plan(
      mutated, chips, cluster::ShardStrategy::kHash);
  EXPECT_EQ(tracker.cut_edges(), fresh.cut_edges);
  EXPECT_EQ(tracker.total_ghosts(), fresh.total_ghosts);

  // Rebase adopts the fresh cut as the new baseline and clears the drift.
  tracker.rebase(fresh);
  EXPECT_EQ(tracker.cut_drift(), 0u);
  EXPECT_EQ(tracker.mutations_since_rebase(), 0u);
  EXPECT_FALSE(tracker.should_reshard(0.01));
}

TEST(ShardChurn, ReshardTriggerFiresOnDrift) {
  graph::Dataset ds = make_test_dataset(64, 120, 41);
  workload::DynamicGraph dyn(ds.graph, manual_compaction());
  cluster::ShardChurnTracker tracker(
      cluster::make_shard_plan(ds, 4, cluster::ShardStrategy::kHash));
  ASSERT_FALSE(tracker.should_reshard(0.05));

  // Pump in cross-chip edges (consecutive ids differ mod 4) until the cut
  // drifts well past 5%.
  Rng rng(3);
  for (int i = 0; i < 400 && !tracker.should_reshard(0.05); ++i) {
    const VertexId u = static_cast<VertexId>(rng.next_below(63));
    if (dyn.add_edge(u, u + 1)) tracker.note_edge_added(u, u + 1);
    if (dyn.add_edge(u + 1, u)) tracker.note_edge_added(u + 1, u);
  }
  EXPECT_TRUE(tracker.should_reshard(0.05));
  EXPECT_GT(tracker.cut_drift(), 0u);
  // Single-chip plans and disabled thresholds never fire.
  EXPECT_FALSE(tracker.should_reshard(0.0));
}

// ------------------------------------------------------- WorkloadGenerator

workload::DynamicWorkloadParams small_workload_params() {
  workload::DynamicWorkloadParams p;
  p.arrival.rate_per_mcycle = 400.0;
  p.seed = 17;
  p.num_ops = 120;
  p.mutation_fraction = 0.5;
  p.num_seeds = 3;
  p.sampler.fanouts = {4, 2};
  p.sampler.seed = 23;
  p.num_tenants = 2;
  return p;
}

TEST(WorkloadGenerator, DeterministicStream) {
  const graph::Dataset parent = make_test_dataset(100, 300, 51);
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kGcn, parent.spec, 8);
  const workload::WorkloadGenerator gen(small_workload_params());

  workload::DynamicGraph dyn_a(parent.graph);
  workload::DynamicGraph dyn_b(parent.graph);
  const auto a = gen.generate(dyn_a, parent, job);
  const auto b = gen.generate(dyn_b, parent, job);

  ASSERT_EQ(a.mutations.size(), b.mutations.size());
  for (std::size_t i = 0; i < a.mutations.size(); ++i) {
    EXPECT_EQ(a.mutations[i].kind, b.mutations[i].kind);
    EXPECT_EQ(a.mutations[i].at, b.mutations[i].at);
    EXPECT_EQ(a.mutations[i].u, b.mutations[i].u);
    EXPECT_EQ(a.mutations[i].v, b.mutations[i].v);
    EXPECT_EQ(a.mutations[i].applied, b.mutations[i].applied);
  }
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (std::size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].id, b.queries[i].id);
    EXPECT_EQ(a.queries[i].arrival, b.queries[i].arrival);
    EXPECT_EQ(a.queries[i].dataset_key, b.queries[i].dataset_key);
    ASSERT_NE(a.queries[i].dataset, nullptr);
    expect_same_csr(a.queries[i].dataset->graph, b.queries[i].dataset->graph);
  }
  EXPECT_EQ(a.stats.mutations + a.stats.queries, gen.params().num_ops);
  EXPECT_EQ(dyn_a.num_edges(), dyn_b.num_edges());
  EXPECT_EQ(a.stats.final_edges, dyn_a.num_edges());

  // Queries arrive in non-decreasing order (ServingEngine::replay's
  // contract).
  for (std::size_t i = 1; i < a.queries.size(); ++i) {
    EXPECT_LE(a.queries[i - 1].arrival, a.queries[i].arrival);
  }
}

TEST(WorkloadGenerator, RecordsTraceInstants) {
  const graph::Dataset parent = make_test_dataset(80, 240, 61);
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kGcn, parent.spec, 8);
  workload::DynamicWorkloadParams p = small_workload_params();
  p.num_chips = 4;
  p.reshard_threshold = 0.05;
  p.mutation_fraction = 0.9;
  p.num_ops = 300;
  const workload::WorkloadGenerator gen(p);

  sim::Tracer tracer;
  tracer.enable();
  workload::DynamicGraph dyn(parent.graph);
  const auto wl = gen.generate(dyn, parent, job, &tracer);

  std::uint64_t applied = 0;
  for (const auto& m : wl.mutations) applied += m.applied ? 1 : 0;
  EXPECT_EQ(tracer.count(sim::TraceEvent::kGraphMutation), applied);
  EXPECT_EQ(tracer.count(sim::TraceEvent::kReshard), wl.stats.reshards);
  EXPECT_GT(wl.stats.reshards, 0u);  // heavy churn must recut at 5% drift

  // After the final rebase-free stretch the tracker's counters are exact:
  // a fresh plan of the final graph matches the drifted cut.
  graph::Dataset mutated;
  mutated.spec = parent.spec;
  mutated.scale = parent.scale;
  mutated.graph = dyn.snapshot();
  mutated.degree_stats = graph::compute_degree_stats(mutated.graph);
  const cluster::ShardPlan fresh = cluster::make_shard_plan(
      mutated, p.num_chips, cluster::ShardStrategy::kHash);
  EXPECT_EQ(wl.stats.final_cut_edges, fresh.cut_edges);
}

// ------------------------------------------------- end-to-end determinism

TEST(DynamicServing, BitIdenticalAcrossSimulationModes) {
  // The acceptance criterion: a dynamic workload's serving report —
  // per-request sampled datasets dispatched through the cluster scheduler —
  // is bit-identical across lockstep vs fast-forward chip simulation and
  // one vs several cluster worker threads.
  const graph::Dataset parent = make_test_dataset(100, 300, 71);
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kGcn, parent.spec, 8);
  workload::DynamicWorkloadParams wp = small_workload_params();
  wp.num_ops = 40;
  wp.slo_cycles = 400000;
  const workload::WorkloadGenerator gen(wp);
  workload::DynamicGraph dyn(parent.graph);
  const auto wl = gen.generate(dyn, parent, job);
  ASSERT_GT(wl.queries.size(), 4u);

  serving::ServingParams sp;
  sp.seed = 2;
  sp.queue_depth = 0;
  sp.max_batch = 4;
  sp.slo_cycles = wp.slo_cycles;

  std::vector<serving::ServingReport> reports;
  for (const bool shard_mode : {false, true}) {
    for (const bool fast_forward : {false, true}) {
      for (const unsigned jobs : {1u, 2u}) {
        core::AuroraConfig cfg = small_config();
        cfg.fast_forward = fast_forward;
        cluster::ClusterParams cp;
        cp.num_chips = 2;
        cp.parallel_jobs = jobs;
        sp.mode = shard_mode ? cluster::DispatchMode::kShardParallel
                             : cluster::DispatchMode::kDataParallel;
        serving::ServingEngine engine(cfg, cp, sp);
        reports.push_back(engine.replay(parent, wl.queries));
        EXPECT_EQ(reports.back().served.size(), wl.queries.size());
      }
    }
  }
  // Compare within each dispatch mode: all four engine flavours agree.
  for (std::size_t mode = 0; mode < 2; ++mode) {
    const auto& baseline = reports[mode * 4];
    for (std::size_t i = 1; i < 4; ++i) {
      const auto diffs =
          serving::diff_serving_reports(baseline, reports[mode * 4 + i]);
      EXPECT_TRUE(diffs.empty())
          << "mode " << mode << " flavour " << i << ": " << diffs.front();
    }
  }
}

TEST(DynamicServing, PerRequestDatasetsDoNotAliasInServiceCache) {
  // Two queries with identical layer shapes but different subgraphs must
  // not reuse each other's cached service metrics: a request over a larger
  // subgraph takes longer. Regression test for dataset-blind cache keys.
  const graph::Dataset parent = make_test_dataset(200, 1200, 81);
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kGcn, parent.spec, 8);

  workload::SamplerParams small_params;
  small_params.fanouts = {1};
  small_params.seed = 5;
  workload::SamplerParams big_params;
  big_params.fanouts = {0, 0};
  big_params.seed = 5;
  const workload::CsrSource source(parent.graph);
  auto small_batch =
      workload::NeighborSampler(small_params).sample(source, {0}, 0);
  auto big_batch = workload::NeighborSampler(big_params)
                       .sample(source, {0, 1, 2, 3, 4, 5, 6, 7}, 0);
  ASSERT_GT(big_batch.subgraph.num_edges(),
            small_batch.subgraph.num_edges() + 50);

  auto make_request = [&](std::uint64_t id, workload::SampledBatch batch) {
    serving::ServingRequest r;
    r.id = id;
    r.job = job;
    r.label = "q";
    r.label += std::to_string(id);
    r.dataset_key = r.label;
    r.dataset_key += ":";
    r.dataset_key += std::to_string(batch.content_hash);
    r.dataset = workload::make_batch_dataset(parent, std::move(batch));
    r.arrival = 0;
    return r;
  };
  std::vector<serving::ServingRequest> requests;
  requests.push_back(make_request(0, std::move(small_batch)));
  requests.push_back(make_request(1, std::move(big_batch)));

  serving::ServingParams sp;
  sp.max_batch = 1;
  cluster::ClusterParams cp;
  cp.num_chips = 1;
  serving::ServingEngine engine(small_config(), cp, sp);
  const auto report = engine.replay(parent, std::move(requests));
  ASSERT_EQ(report.served.size(), 2u);
  EXPECT_GT(report.served[1].service_time(), report.served[0].service_time());
}

}  // namespace
}  // namespace aurora
