// Wall-clock microbenchmark: the cluster engine on one worker thread vs
// --jobs worker threads.
//
// One synthetic GCN inference is sharded over 1/2/4/8/16 chips and run
// through ClusterEngine --reps times per point with parallel_jobs = 1 and
// with parallel_jobs = --jobs (default 0 = one per hardware thread). The
// threads only fan out the per-chip engine runs (Phase A of
// ClusterEngine::run); the shared-clock replay is single-threaded either
// way. Every run is diffed against the first one-worker run
// (diff_cluster_run_metrics must be empty) before any speed is reported.
//
// Speedup is bounded by the host's core count: on a single-core container
// expect ~1.0x everywhere, so the JSON records hardware_concurrency, the
// build type, compiler and configure-time git revision next to min/median/
// max seconds per column. Output is one machine-readable JSON line (plus a
// human-readable table on stderr), same shape as micro_simspeed:
//   {"bench": "clustersim", "hardware_concurrency": ..., "points": [...]}
//
//   ./build/bench/micro_clustersim [--reps=3] [--jobs=0] [--lockstep]
//                                  [--vertices=1200] [--edges=6000]
//                                  [--feature_dim=32]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_engine.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/aurora.hpp"
#include "graph/degree.hpp"
#include "graph/generators.hpp"

namespace {

using namespace aurora;

struct Options {
  VertexId vertices = 1200;
  EdgeId edges = 6000;
  std::uint32_t feature_dim = 32;
  int reps = 3;
  bool fast_forward = true;
  unsigned jobs = 0;  // worker threads of the N column (0 = hardware)
};

/// min / nearest-rank median / max of one column's per-rep seconds.
std::string spread_json(const std::vector<double>& secs) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{\"min\": %.6f, \"median\": %.6f, \"max\": %.6f}",
                *std::min_element(secs.begin(), secs.end()),
                percentile(secs, 0.5),
                *std::max_element(secs.begin(), secs.end()));
  return buf;
}

double timed_run(const core::AuroraConfig& cfg,
                 const cluster::ClusterParams& p, const graph::Dataset& ds,
                 const core::GnnJob& job, cluster::ClusterRunMetrics& out) {
  cluster::ClusterEngine engine(cfg, p);
  const auto start = std::chrono::steady_clock::now();
  out = engine.run(ds, job);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

constexpr const char* kUsage =
    "micro_clustersim — cluster engine wall clock, 1 worker vs --jobs\n\n"
    "  --reps=<n>          timed runs per column and point (default 3)\n"
    "  --jobs=<n>          worker threads of the N column (default 0 =\n"
    "                      one per hardware thread)\n"
    "  --lockstep          tick every cycle instead of fast-forwarding\n"
    "  --vertices=<n>      synthetic graph vertices (default 1200)\n"
    "  --edges=<n>         synthetic undirected edges (default 6000)\n"
    "  --feature_dim=<n>   input feature width (default 32)\n"
    "  --help              print this text\n";

int run(int argc, char** argv) {
  const CliArgs args(argc, argv,
                     {"help", "vertices", "edges", "feature_dim", "reps",
                      "lockstep", "jobs"});
  if (args.get_bool("help", false)) {
    std::printf("%s", kUsage);
    return EXIT_SUCCESS;
  }
  Options opt;
  opt.vertices = static_cast<VertexId>(args.get_uint("vertices", 1200, 2));
  opt.edges = static_cast<EdgeId>(args.get_uint("edges", 6000, 1));
  opt.feature_dim =
      args.get_uint("feature_dim", 32, 1);
  opt.reps = static_cast<int>(args.get_uint("reps", 3, 1));
  opt.fast_forward = !args.has("lockstep");
  opt.jobs = args.get_uint("jobs", 0);

  Rng rng(7);
  graph::Dataset ds;
  ds.spec.name = "clustersim-bench";
  ds.spec.feature_dim = opt.feature_dim;
  ds.spec.feature_density = 1.0;
  ds.spec.num_classes = 8;
  ds.graph = graph::generate_erdos_renyi(opt.vertices, opt.edges, rng);
  ds.spec.num_vertices = ds.graph.num_vertices();
  ds.spec.num_directed_edges = ds.graph.num_edges();
  ds.degree_stats = graph::compute_degree_stats(ds.graph);

  core::AuroraConfig cfg = core::AuroraConfig::bench();
  cfg.fast_forward = opt.fast_forward;
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, opt.feature_dim);

  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned jobs_n = resolve_jobs(opt.jobs);
  std::string points;
  std::fprintf(stderr,
               "clustersim: %u hardware threads, jobs=1 vs jobs=%u, %s "
               "scheduler, %d rep(s)\n",
               hw, jobs_n, opt.fast_forward ? "fast-forward" : "lockstep",
               opt.reps);
  for (std::uint32_t chips : {1u, 2u, 4u, 8u, 16u}) {
    cluster::ClusterParams p;
    p.num_chips = chips;
    p.strategy = cluster::ShardStrategy::kRange;

    // Reps alternate the two columns so host drift hits both alike.
    cluster::ClusterRunMetrics reference;
    std::vector<double> one;
    std::vector<double> many;
    for (int r = 0; r < opt.reps; ++r) {
      for (const bool first : {true, false}) {
        const unsigned jobs = first ? 1 : jobs_n;
        p.parallel_jobs = jobs;
        cluster::ClusterRunMetrics m;
        (first ? one : many).push_back(timed_run(cfg, p, ds, job, m));
        if (r == 0 && first) {
          reference = std::move(m);
          continue;
        }
        const std::vector<std::string> diffs =
            cluster::diff_cluster_run_metrics(reference, m);
        if (!diffs.empty()) {
          std::fprintf(stderr,
                       "FAIL: jobs=%u diverged from jobs=1 at %u chips "
                       "(%zu mismatched fields), first: %s\n",
                       jobs, chips, diffs.size(), diffs.front().c_str());
          return EXIT_FAILURE;
        }
      }
    }
    const double one_median = percentile(one, 0.5);
    const double many_median = percentile(many, 0.5);
    const double speedup = many_median > 0 ? one_median / many_median : 1.0;
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s{\"chips\": %u, \"sim_cycles\": %llu, ",
                  points.empty() ? "" : ", ", chips,
                  static_cast<unsigned long long>(reference.total_cycles));
    points += buf;
    points += "\"jobs1_secs\": " + spread_json(one) +
              ", \"jobsN_secs\": " + spread_json(many);
    std::snprintf(buf, sizeof(buf),
                  ", \"median_speedup\": %.2f, \"bit_identical\": true}",
                  speedup);
    points += buf;
    std::fprintf(stderr,
                 "  %2u chips: %llu cycles; jobs=1 median %.3fs, jobs=%u "
                 "median %.3fs -> %.2fx\n",
                 chips,
                 static_cast<unsigned long long>(reference.total_cycles),
                 one_median, jobs_n, many_median, speedup);
  }

  std::printf(
      "{\"bench\": \"clustersim\", \"hardware_concurrency\": %u, "
      "\"jobs\": %u, \"reps\": %d, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"git_revision\": \"%s\", \"vertices\": %llu, "
      "\"edges\": %llu, \"fast_forward\": %s, \"points\": [%s]}\n",
      hw, jobs_n, opt.reps, AURORA_BUILD_TYPE, AURORA_COMPILER,
      AURORA_GIT_REVISION,
      static_cast<unsigned long long>(ds.spec.num_vertices),
      static_cast<unsigned long long>(ds.spec.num_directed_edges),
      opt.fast_forward ? "true" : "false", points.c_str());
  return EXIT_SUCCESS;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "micro_clustersim: %s\n", e.what());
    return 2;
  }
}
