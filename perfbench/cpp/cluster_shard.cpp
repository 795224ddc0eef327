// cluster_shard: closed loop of cycle-accurate, shard-parallel inference
// jobs through cluster::ClusterEngine::run on 4 bench chips (16 x 16). The
// graphs are Pubmed-like and power-law, so bypass links and rings carry
// traffic, and the jobs cover one model per GNN category. NoC routing is
// the bulk of host time here; fast-forward and the inter-chip link run; the
// serving layer does no work. An op is one cluster job; a round runs the
// three jobs on one of the seed-derived graphs.
#include <exception>

#include "checks.hpp"
#include "cluster/cluster_engine.hpp"
#include "graph/datasets.hpp"
#include "harness.hpp"
#include "profile/critpath.hpp"
#include "sim/trace.hpp"

namespace perfbench {
namespace {

using namespace aurora;

/// Graphs per run: a run averages over this many draws of the generator.
constexpr std::size_t kGraphs = 3;

class ClusterShard final : public Workload {
 public:
  void setup(RunContext& ctx) override {
    const double scale = ctx.tiny ? 0.002 : 0.005;
    graphs_.clear();
    double edges = 0.0;
    for (std::size_t g = 0; g < (ctx.tiny ? 2 : kGraphs); ++g) {
      auto span = ctx.spans->open("graph", "make_dataset Pubmed");
      graphs_.push_back(graph::make_dataset(graph::DatasetId::kPubmed, scale,
                                            derive_seed(ctx.seed, 100 + g)));
      edges += static_cast<double>(graphs_.back().num_edges());
    }
    (*ctx.layer)["graph.edges"] = edges;
    config_ = core::AuroraConfig::bench();
    params_ = cluster::ClusterParams{};
    params_.num_chips = 4;
    jobs_.clear();
    // One model per category: C-GNN, A-GNN, MP-GNN.
    for (gnn::GnnModel model : {gnn::GnnModel::kGcn, gnn::GnnModel::kAgnn,
                                gnn::GnnModel::kGraphSagePool}) {
      jobs_.push_back(core::GnnJob::two_layer(model, graphs_[0].spec, 16));
    }
    engine_ = std::make_unique<cluster::ClusterEngine>(config_, params_);
    // first_ survives a repeated set-up: the inputs are the same.
    first_.resize(jobs_.size());
  }

  [[nodiscard]] std::size_t input_sets() const override {
    return graphs_.size();
  }

  RoundResult round(RunContext& ctx, std::size_t index) override {
    RoundResult result;
    const graph::Dataset& ds = graphs_[index % graphs_.size()];
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const std::string op = "cluster job " + label(i);
      const std::uint64_t op_id = next_op_++;
      ctx.ledger->attempt();
      auto op_span = ctx.spans->open("bench", op, op_id);
      try {
        const double t0 = now_s();
        cluster::ClusterRunMetrics m;
        {
          auto span = ctx.spans->open("cluster", "ClusterEngine::run", op_id);
          m = engine_->run(ds, jobs_[i]);
        }
        const double wall = now_s() - t0;
        result.simulate_s += wall;
        result.layer["cluster.engine_run_s"] += wall;
        if (!ctx.ledger->check(op, check_cluster_run(m))) continue;
        ++result.ops_completed;
        mix_cluster_run(result.fingerprint, m);
        add_cluster_counts(result.layer, m);
        for (const auto& chip : m.chips) {
          result.sim_cycles += simulated_cycles(chip.metrics);
        }
        if (index == 0) first_[i] = std::move(m);
      } catch (const std::exception& e) {
        ctx.ledger->fail(op, e.what(), OpLedger::Cause::kException);
      }
    }
    return result;
  }

  /// Lockstep (every cycle ticked) vs the default fast-forward engine on a
  /// seed-chosen job; the repository proves the two bit-identical.
  void verify(RunContext& ctx) override {
    const std::size_t i = derive_seed(ctx.seed, 2) % jobs_.size();
    const std::string op = "verify lockstep " + label(i);
    ctx.ledger->attempt();
    try {
      core::AuroraConfig lockstep = config_;
      lockstep.fast_forward = false;
      cluster::ClusterEngine engine(lockstep, params_);
      const auto m = engine.run(graphs_[0], jobs_[i]);
      ctx.ledger->check(op, cluster::diff_cluster_run_metrics(first_[i], m));
    } catch (const std::exception& e) {
      ctx.ledger->fail(op, e.what(), OpLedger::Cause::kException);
    }
  }

  /// Critical-path attribution of round 0's jobs with sim::Tracer attached
  /// to the cluster clock.
  void profile(RunContext& ctx, LayerValues& out) override {
    sim::Tracer tracer;
    tracer.enable();
    engine_->set_tracer(&tracer);
    profile::Attribution total;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const std::string op = "critical path " + label(i);
      const std::uint64_t op_id = next_op_++;
      ctx.ledger->attempt();
      auto op_span = ctx.spans->open("bench", op, op_id);
      try {
        tracer.clear();
        cluster::ClusterRunMetrics m;
        {
          // Its own layer, so span.cluster.self_s covers untraced runs only.
          auto span = ctx.spans->open("cluster_traced",
                                      "ClusterEngine::run traced", op_id);
          m = engine_->run(graphs_[0], jobs_[i]);
        }
        profile::CritPathReport report;
        {
          auto span =
              ctx.spans->open("profile", "analyze_critical_path", op_id);
          report = profile::analyze_critical_path(tracer);
        }
        auto violations = check_critical_path(report, m.total_cycles);
        for (auto& diff : cluster::diff_cluster_run_metrics(first_[i], m)) {
          violations.push_back("traced run differs: " + diff);
        }
        if (ctx.ledger->check(op, violations)) total += report.attribution;
      } catch (const std::exception& e) {
        ctx.ledger->fail(op, e.what(), OpLedger::Cause::kException);
      }
    }
    engine_->set_tracer(nullptr);
    const double t = static_cast<double>(total.total());
    const auto share = [&](Cycle c) {
      return t > 0.0 ? static_cast<double>(c) / t : 0.0;
    };
    out["critpath.pe_compute_share"] = share(total.pe_compute);
    out["critpath.noc_share"] = share(total.noc_serialization);
    out["critpath.dram_share"] = share(total.dram_service);
    out["critpath.reconfig_share"] = share(total.reconfiguration);
    out["critpath.halo_wait_share"] = share(total.halo_barrier_wait);
  }

 private:
  [[nodiscard]] std::string label(std::size_t i) const {
    return std::string(gnn::model_name(jobs_[i].model)) + " on " +
           std::to_string(params_.num_chips) + " chips";
  }

  std::vector<graph::Dataset> graphs_;
  core::AuroraConfig config_;
  cluster::ClusterParams params_;
  std::vector<core::GnnJob> jobs_;
  std::unique_ptr<cluster::ClusterEngine> engine_;
  /// Round 0's results, the reference of verify() and profile().
  std::vector<cluster::ClusterRunMetrics> first_;
  std::uint64_t next_op_ = 1;
};

}  // namespace

std::unique_ptr<Workload> make_cluster_shard() {
  return std::make_unique<ClusterShard>();
}

}  // namespace perfbench
