// Machine-readable reporting: RunMetrics (and comparison grids) as JSON, so
// bench output can feed plotting scripts and regression tracking.
#pragma once

#include <string>
#include <vector>

#include "common/fields.hpp"
#include "core/metrics.hpp"

namespace aurora::core {

/// One named run in a comparison report.
struct NamedRun {
  std::string accelerator;
  std::string workload;
  RunMetrics metrics;
};

/// RunMetrics as a single JSON object (stable key order).
[[nodiscard]] std::string metrics_to_json(const RunMetrics& metrics);

/// Exact comparison of two RunMetrics, one "name: a != b" line per
/// mismatching member (empty = bit-identical). Complete by construction:
/// fields::diff walks RunMetrics::visit_fields. Ignores "sim.cycles_skipped"
/// in every counter set (scheduler work, not modelled behaviour). Used by
/// the differential fuzzer and the engine-equivalence tests.
[[nodiscard]] inline std::vector<std::string> diff_run_metrics(
    const RunMetrics& a, const RunMetrics& b) {
  return fields::diff(a, b);
}

/// A list of named runs as a JSON array.
[[nodiscard]] std::string runs_to_json(const std::vector<NamedRun>& runs);

/// Write `json` to `path` (overwrites).
void write_json_file(const std::string& path, const std::string& json);

}  // namespace aurora::core
