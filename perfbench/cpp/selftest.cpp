// Self-test of the benchmark's checker at tiny sizes: genuine simulator
// results pass, and each corrupted copy of a RunMetrics, ClusterRunMetrics,
// ServingReport or critical-path report is counted as a failed op. The
// metric-emission half of the self-test lives in run.py, which knows the
// metric list of BENCHMARK.json.
#include <cstdio>

#include "checks.hpp"
#include "cluster/cluster_engine.hpp"
#include "core/aurora.hpp"
#include "graph/datasets.hpp"
#include "harness.hpp"
#include "profile/critpath.hpp"
#include "serving/serving_engine.hpp"
#include "sim/trace.hpp"

namespace perfbench {

namespace {

using namespace aurora;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("selftest: %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  if (!ok) ++g_failures;
}

/// Feeds `violations` to a fresh ledger and reports whether it counted the op
/// as failed (and the run as incorrect).
bool counted_failed(const std::vector<std::string>& violations) {
  OpLedger ledger;
  ledger.attempt();
  ledger.check("selftest op", violations);
  return ledger.failed() == 1 && !ledger.correct();
}

}  // namespace

int run_selftest() {
  const graph::Dataset ds =
      graph::make_dataset(graph::DatasetId::kCora, 0.02, 3);
  const core::AuroraConfig config = core::AuroraConfig::bench();
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, 16);

  const core::RunMetrics run = core::AuroraAccelerator(config).run(ds, job);
  expect(check_run_metrics(run).empty(), "genuine RunMetrics passes");
  {
    core::RunMetrics bad = run;
    bad.phases[0].dram_bytes += 1;
    expect(counted_failed(check_run_metrics(bad)),
           "RunMetrics with a phase byte off by one fails");
    bad = run;
    bad.total_cycles = 0;
    expect(counted_failed(check_run_metrics(bad)),
           "RunMetrics with zero cycles fails");
  }

  cluster::ClusterParams cp;
  cp.num_chips = 2;
  sim::Tracer tracer;
  tracer.enable();
  cluster::ClusterEngine engine(config, cp);
  engine.set_tracer(&tracer);
  const cluster::ClusterRunMetrics cluster_run = engine.run(ds, job);
  expect(check_cluster_run(cluster_run).empty(),
         "genuine ClusterRunMetrics passes");
  {
    cluster::ClusterRunMetrics bad = cluster_run;
    bad.total_cycles += 1;
    expect(counted_failed(check_cluster_run(bad)),
           "ClusterRunMetrics with a wrong makespan fails");
    bad = cluster_run;
    bad.chips[0].halo_bytes_sent += 8;
    expect(counted_failed(check_cluster_run(bad)),
           "ClusterRunMetrics losing halo bytes fails");
  }

  const profile::CritPathReport critpath =
      profile::analyze_critical_path(tracer);
  expect(check_critical_path(critpath, cluster_run.total_cycles).empty(),
         "genuine critical-path report passes");
  {
    profile::CritPathReport bad = critpath;
    bad.attribution.pe_compute += 1;
    expect(counted_failed(check_critical_path(bad, cluster_run.total_cycles)),
           "critical path whose categories miss the total fails");
  }

  serving::ServingParams sp;
  sp.num_requests = 12;
  sp.arrival.rate_per_mcycle = 200.0;
  sp.queue_depth = 4;
  serving::ServingEngine serving_engine(config, cluster::ClusterParams{}, sp);
  const std::vector<serving::ModelMixEntry> mix = {
      {job, "gcn", 1.0, 0}};
  const serving::ServingReport report = serving_engine.run(ds, mix);
  expect(check_serving_report(report, sp.num_requests).empty(),
         "genuine ServingReport passes");
  {
    serving::ServingReport bad = report;
    bad.admitted += 1;
    expect(counted_failed(check_serving_report(bad, sp.num_requests)),
           "ServingReport breaking admitted + shed == generated fails");
    bad = report;
    if (!bad.served.empty()) bad.served.pop_back();
    expect(counted_failed(check_serving_report(bad, sp.num_requests)),
           "ServingReport losing a completed request fails");
    bad = report;
    if (!bad.served.empty()) bad.served.front().metrics.noc_messages += 1;
    expect(counted_failed(check_serving_report(bad, sp.num_requests)),
           "ServingReport with a corrupted request RunMetrics fails");
  }

  Fingerprint a;
  Fingerprint b;
  mix_serving_report(a, report);
  serving::ServingReport shifted = report;
  if (!shifted.served.empty()) shifted.served.back().finish += 1;
  mix_serving_report(b, shifted);
  expect(a.value != b.value, "fingerprint sees a one-cycle timing change");

  std::printf("selftest: %s\n", g_failures == 0 ? "passed" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
