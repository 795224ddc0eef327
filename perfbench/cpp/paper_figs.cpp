// paper_figs: closed loop over the cells the figure benches compute, on the
// paper's 32 x 32 chip with the analytic engine:
//   * the versatility grid — one layer (F = 32, H = 16) of each of the 10
//     models on Cora (bench/fig_versatility);
//   * the comparison grid — the 2-layer GCN job on the 5 datasets at the
//     figure scales (bench/fig7..fig10).
// A cell is one Aurora run plus the five baselines; an op is one cell.
// There is no noc::Network simulation here: the work falls on the graph
// generators (in set-up), the mapping and partition heuristics, the
// analytic model and the baselines.
//
// Every cell runs in a forked child under a wall budget. A cell over budget
// is killed, counted as failed and named with its model, dataset and
// partition, so a cell that stalls (the N-Queen search for large
// sub-accelerator regions) cannot hang the run.
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <exception>
#include <sstream>

#include "baselines/baseline.hpp"
#include "checks.hpp"
#include "core/aurora.hpp"
#include "graph/datasets.hpp"
#include "harness.hpp"
#include "partition/partition.hpp"

namespace perfbench {
namespace {

using namespace aurora;

/// Wall budget of one cell: about three times the slowest cell that
/// completes (the Reddit comparison cell, under 2 s) and well below the
/// stalled cells (20-40 s).
constexpr double kCellBudgetS = 5.0;
/// Budget at self-test sizes, where every completing cell takes
/// milliseconds.
constexpr double kTinyCellBudgetS = 1.0;

struct Cell {
  std::string name;
  bool versatility = false;
  gnn::GnnModel model{};
  std::size_t dataset = 0;
};

/// What a cell's child process reports back.
struct CellOutput {
  std::uint64_t fingerprint = 0;
  Cycle aurora_cycles = 0;
  double core_start = 0.0, core_end = 0.0;
  double baselines_start = 0.0, baselines_end = 0.0;
  std::vector<std::string> violations;
  std::string error;
};

class PaperFigs final : public Workload {
 public:
  void setup(RunContext& ctx) override {
    config_ = core::AuroraConfig::paper();
    config_.mode = core::SimMode::kAnalytic;
    chip_ = baselines::chip_params_matching(config_.array_dim,
                                            config_.pe.datapath.num_multipliers,
                                            config_.pe.bank_buffer_bytes);
    budget_s_ = ctx.tiny ? kTinyCellBudgetS : kCellBudgetS;
    datasets_.clear();
    double edges = 0.0;
    for (graph::DatasetId id : graph::kAllDatasets) {
      auto span = ctx.spans->open(
          "graph", std::string("make_dataset ") + graph::dataset_name(id));
      datasets_.push_back(graph::make_dataset(
          id, figure_scale(id, ctx.tiny),
          derive_seed(ctx.seed, 40 + static_cast<std::uint64_t>(id))));
      edges += static_cast<double>(datasets_.back().num_edges());
    }
    (*ctx.layer)["graph.edges"] = edges;

    cells_.clear();
    for (gnn::GnnModel model : gnn::kAllModels) {
      add_cell(true, model, 0);
    }
    for (std::size_t d = 0; d < datasets_.size(); ++d) {
      add_cell(false, gnn::GnnModel::kGcn, d);
    }
    // Both survive a repeated set-up: the cells are the same.
    cell_fingerprints_.resize(cells_.size(), 0);
    completed_.resize(cells_.size(), false);
  }

  /// One input set: the figure datasets take seconds to generate.
  [[nodiscard]] std::size_t input_sets() const override { return 1; }

  RoundResult round(RunContext& ctx, std::size_t /*index*/) override {
    RoundResult result;
    std::vector<double> cell_s;
    double core_s = 0.0;
    double baselines_s = 0.0;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Cell& cell = cells_[i];
      const std::string op = "cell " + cell.name;
      const std::uint64_t op_id = next_op_++;
      ctx.ledger->attempt();
      auto op_span = ctx.spans->open("bench", op, op_id);
      const double t0 = now_s();
      CellOutput out;
      completed_[i] = false;
      const double stopped_before = over_budget_;
      if (!run_forked(ctx, op, cell, false, out)) {
        // A stopped cell costs its budget, a constant that would hide how
        // fast the completing cells ran: leave it out of the rates.
        if (over_budget_ > stopped_before) result.excluded_s += now_s() - t0;
        continue;
      }
      const double wall = now_s() - t0;
      ctx.spans->add("core", "AuroraAccelerator analytic", out.core_start,
                     out.core_end, op_id);
      ctx.spans->add("baselines", "run_layer x5", out.baselines_start,
                     out.baselines_end, op_id);
      if (!ctx.ledger->check(op, out.violations)) continue;
      completed_[i] = true;
      ++result.ops_completed;
      cell_s.push_back(wall);
      core_s += out.core_end - out.core_start;
      baselines_s += out.baselines_end - out.baselines_start;
      result.simulate_s += out.core_end - out.core_start;
      result.sim_cycles += static_cast<double>(out.aurora_cycles);
      result.fingerprint.mix(out.fingerprint);
      cell_fingerprints_[i] = out.fingerprint;
    }
    LayerValues& v = result.layer;
    v["core.analytic_run_s"] += core_s;
    v["baselines.run_s"] += baselines_s;
    v["core.cells_over_budget"] += over_budget_;
    over_budget_ = 0;
    if (!cell_s.empty()) {
      std::sort(cell_s.begin(), cell_s.end());
      v["core.cell_s_p50"] = cell_s[(cell_s.size() - 1) / 2];
      v["core.cell_s_max"] = cell_s.back();
    }
    (*ctx.samples)["core.cell_s_p50"] = cell_s.size();
    (*ctx.samples)["core.cell_s_max"] = cell_s.size();
    return result;
  }

  /// Re-run a seed-chosen completed cell in a fresh child, layer by layer
  /// on a fresh accelerator, and compare its fingerprint with the round's.
  void verify(RunContext& ctx) override {
    std::vector<std::size_t> done;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      if (completed_[i]) done.push_back(i);
    }
    const std::string op = "verify cell";
    ctx.ledger->attempt();
    if (done.empty()) {
      ctx.ledger->fail(op, "no completed cell to re-run",
                       OpLedger::Cause::kCheck);
      return;
    }
    const std::size_t i = done[derive_seed(ctx.seed, 41) % done.size()];
    CellOutput out;
    if (!run_forked(ctx, op + " " + cells_[i].name, cells_[i], true, out)) {
      return;
    }
    std::vector<std::string> violations = out.violations;
    if (out.fingerprint != cell_fingerprints_[i]) {
      violations.push_back("re-run of " + cells_[i].name +
                           " gave a different fingerprint");
    }
    ctx.ledger->check(op + " " + cells_[i].name, violations);
  }

 private:
  static double figure_scale(graph::DatasetId id, bool tiny) {
    // The figure benches' default scales (bench/bench_util.cpp).
    switch (id) {
      case graph::DatasetId::kNell:
        return tiny ? 0.01 : 0.5;
      case graph::DatasetId::kReddit:
        return tiny ? 0.0005 : 0.008;
      default:
        return tiny ? 0.05 : 1.0;
    }
  }

  [[nodiscard]] std::vector<gnn::LayerConfig> layers_of(
      const Cell& cell) const {
    if (cell.versatility) return {gnn::LayerConfig{32, 16}};
    return core::GnnJob::two_layer(cell.model, datasets_[cell.dataset].spec,
                                   16)
        .layers;
  }

  void add_cell(bool versatility, gnn::GnnModel model, std::size_t d) {
    Cell cell;
    cell.versatility = versatility;
    cell.model = model;
    cell.dataset = d;
    const graph::Dataset& ds = datasets_[d];
    const gnn::LayerConfig first = layers_of(cell).front();
    const auto split =
        partition::partition(partition::partition_input_from_workflow(
            gnn::generate_workflow(model, first, ds.num_vertices(),
                                   ds.num_edges()),
            config_.num_pes(), config_.flops_per_pe));
    cell.name = std::string(versatility ? "versatility " : "comparison ") +
                gnn::model_name(model) + "/" + ds.spec.name + " partition A" +
                std::to_string(split.a) + "/B" + std::to_string(split.b);
    cells_.push_back(std::move(cell));
  }

  /// The cell itself; runs in the child process. `per_layer` re-runs the
  /// Aurora part layer by layer on a fresh accelerator (the verification
  /// path).
  [[nodiscard]] CellOutput compute_cell(const Cell& cell,
                                        bool per_layer) const {
    CellOutput out;
    const graph::Dataset& ds = datasets_[cell.dataset];
    const std::vector<gnn::LayerConfig> layers = layers_of(cell);
    const std::uint32_t first_index = cell.versatility ? 1 : 0;
    Fingerprint fp;
    out.core_start = now_s();
    core::RunMetrics aurora_m;
    if (cell.versatility || per_layer) {
      core::AuroraAccelerator accel(config_);
      for (std::size_t l = 0; l < layers.size(); ++l) {
        aurora_m +=
            accel.run_layer(ds, cell.model, layers[l],
                            first_index + static_cast<std::uint32_t>(l));
      }
    } else {
      core::GnnJob job;
      job.model = cell.model;
      job.layers = layers;
      aurora_m = core::AuroraAccelerator(config_).run(ds, job);
    }
    out.core_end = now_s();
    out.aurora_cycles = aurora_m.total_cycles;
    out.violations = check_run_metrics(aurora_m);
    mix_run_metrics(fp, aurora_m);

    out.baselines_start = now_s();
    for (baselines::BaselineId id : baselines::kAllBaselines) {
      const auto model = baselines::make_baseline(id, chip_);
      core::RunMetrics total;
      for (std::size_t l = 0; l < layers.size(); ++l) {
        const auto wf = gnn::generate_workflow(cell.model, layers[l],
                                               ds.num_vertices(),
                                               ds.num_edges());
        core::DramTrafficParams traffic;
        if (!cell.versatility) {
          traffic.element_bytes = chip_.element_bytes;
          traffic.sparse_input_features = (l == 0);
          traffic.input_feature_density = ds.spec.feature_density;
        }
        total += model->run_layer(ds, wf, traffic);
      }
      if (total.total_cycles == 0) {
        out.violations.push_back(std::string(baselines::baseline_name(id)) +
                                 " reported 0 cycles");
      }
      mix_run_metrics(fp, total);
    }
    out.baselines_end = now_s();
    out.fingerprint = fp.value;
    return out;
  }

  /// Fork, compute the cell in the child, and collect its output under the
  /// wall budget. Returns false (after recording the failure) when the
  /// child overran, crashed or threw.
  bool run_forked(RunContext& ctx, const std::string& op, const Cell& cell,
                  bool per_layer, CellOutput& out) {
    std::fflush(nullptr);
    int fds[2];
    if (pipe(fds) != 0) {
      ctx.ledger->fail(op, "pipe failed", OpLedger::Cause::kException);
      return false;
    }
    const pid_t pid = fork();
    if (pid < 0) {
      close(fds[0]);
      close(fds[1]);
      ctx.ledger->fail(op, "fork failed", OpLedger::Cause::kException);
      return false;
    }
    if (pid == 0) {
      close(fds[0]);
      std::string text;
      try {
        text = encode(compute_cell(cell, per_layer));
      } catch (const std::exception& e) {
        text = std::string("error ") + e.what() + "\n";
      }
      const char* p = text.data();
      std::size_t left = text.size();
      while (left > 0) {
        const ssize_t n = write(fds[1], p, left);
        if (n <= 0) break;
        p += n;
        left -= static_cast<std::size_t>(n);
      }
      _exit(0);
    }
    close(fds[1]);
    const double deadline = now_s() + budget_s_;
    std::string text;
    bool timed_out = false;
    for (;;) {
      const double left = deadline - now_s();
      if (left <= 0.0) {
        timed_out = true;
        break;
      }
      pollfd pfd{fds[0], POLLIN, 0};
      const int ready = poll(&pfd, 1, static_cast<int>(left * 1000.0) + 1);
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) continue;
      char buf[4096];
      const ssize_t n = read(fds[0], buf, sizeof buf);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      text.append(buf, static_cast<std::size_t>(n));
    }
    close(fds[0]);
    if (timed_out) kill(pid, SIGKILL);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (timed_out) {
      ++over_budget_;
      char why[96];
      std::snprintf(why, sizeof why, "over its %.1f s wall budget, stopped",
                    budget_s_);
      ctx.ledger->fail(op, why, OpLedger::Cause::kBudget);
      return false;
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      ctx.ledger->fail(op, "cell process crashed",
                       OpLedger::Cause::kException);
      return false;
    }
    out = decode(text);
    if (!out.error.empty()) {
      ctx.ledger->fail(op, out.error, OpLedger::Cause::kException);
      return false;
    }
    return true;
  }

  static std::string encode(const CellOutput& out) {
    std::ostringstream s;
    s.precision(17);
    s << "fingerprint " << out.fingerprint << "\ncycles " << out.aurora_cycles
      << "\ncore " << out.core_start << ' ' << out.core_end << "\nbaselines "
      << out.baselines_start << ' ' << out.baselines_end << '\n';
    for (const auto& violation : out.violations) {
      s << "violation " << violation << '\n';
    }
    return s.str();
  }

  static CellOutput decode(const std::string& text) {
    CellOutput out;
    std::istringstream in(text);
    std::string line;
    bool complete = false;
    while (std::getline(in, line)) {
      std::istringstream ls(line);
      std::string key;
      ls >> key;
      if (key == "fingerprint") {
        ls >> out.fingerprint;
      } else if (key == "cycles") {
        ls >> out.aurora_cycles;
      } else if (key == "core") {
        ls >> out.core_start >> out.core_end;
      } else if (key == "baselines") {
        ls >> out.baselines_start >> out.baselines_end;
        complete = true;
      } else if (key == "violation" || key == "error") {
        std::string rest;
        std::getline(ls >> std::ws, rest);
        if (key == "violation") {
          out.violations.push_back(rest);
        } else {
          out.error = rest;
        }
      }
    }
    if (!complete && out.error.empty()) out.error = "truncated cell output";
    return out;
  }

  core::AuroraConfig config_;
  baselines::ChipParams chip_;
  double budget_s_ = kCellBudgetS;
  std::vector<graph::Dataset> datasets_;
  std::vector<Cell> cells_;
  std::vector<std::uint64_t> cell_fingerprints_;
  std::vector<bool> completed_;
  double over_budget_ = 0.0;
  std::uint64_t next_op_ = 1;
};

}  // namespace

std::unique_ptr<Workload> make_paper_figs() {
  return std::make_unique<PaperFigs>();
}

}  // namespace perfbench
