// Output checks, fingerprints and simulated-work counts for the results the
// benchmark gets back from the simulator. Each check returns one line per
// violated law; an empty list means the result passed.
#pragma once

#include <string>
#include <vector>

#include "cluster/cluster_engine.hpp"
#include "core/metrics.hpp"
#include "harness.hpp"
#include "profile/critpath.hpp"
#include "serving/serving_engine.hpp"

namespace perfbench {

/// One engine run: positive cycles, finite energy, and the per-phase DRAM
/// bytes and NoC messages summing to the run's totals.
[[nodiscard]] std::vector<std::string> check_run_metrics(
    const aurora::core::RunMetrics& m);

/// A cluster run: every chip passes check_run_metrics, the makespan is the
/// latest chip finish, and halo bytes sent equal halo bytes received.
[[nodiscard]] std::vector<std::string> check_cluster_run(
    const aurora::cluster::ClusterRunMetrics& m);

/// A serving report over `expected_generated` requests: both conservation
/// laws (admitted + shed == generated; admitted == completed + shed_expired
/// + failed_permanently), causal per-request timing, and every served
/// request's metrics passing check_run_metrics.
[[nodiscard]] std::vector<std::string> check_serving_report(
    const aurora::serving::ServingReport& r,
    std::uint64_t expected_generated);

/// Critical-path report of one traced run: the five categories sum to the
/// attributed total, per run and overall, and the total equals the run's
/// simulated cycles.
[[nodiscard]] std::vector<std::string> check_critical_path(
    const aurora::profile::CritPathReport& report,
    aurora::Cycle expected_total);

/// Cycles an engine run simulated: the cycle engine's sim.cycles_total, or
/// the run's total cycles for the analytic engine (which keeps no counters).
[[nodiscard]] double simulated_cycles(const aurora::core::RunMetrics& m);

void mix_run_metrics(Fingerprint& fp, const aurora::core::RunMetrics& m);
void mix_cluster_run(Fingerprint& fp,
                     const aurora::cluster::ClusterRunMetrics& m);
/// Scalars plus every served request's identity, placement and timing.
void mix_serving_report(Fingerprint& fp,
                        const aurora::serving::ServingReport& r);

/// Add the engine counters the benchmark reports (noc.*, pe.*, dram.*,
/// sim.*) from one run's CounterSet.
void add_engine_counts(LayerValues& counts, const aurora::CounterSet& c);
/// Add the cluster-level counters of one cluster run.
void add_cluster_counts(LayerValues& counts,
                        const aurora::cluster::ClusterRunMetrics& m);

}  // namespace perfbench
