// The two serving workloads.
//
// serve_cached: open loop in simulated time. Poisson arrivals go through
// serving::ServingEngine::run over the GCN / AGNN / SAGE-Pool mix of
// examples/serving, on 4 data-parallel bench chips with a small graph. A
// round is a rate ladder from below to above capacity plus one point with
// chip faults, so queueing, batching, shedding and retry all run; each
// input set has its own graph and arrival streams. After the
// first request of each model every request hits the service cache, so the
// request loop, placement and per-request reports do nearly all the work.
// The chips run the analytic engine: every ServingEngine::run starts with a
// cold cache, and a cold cycle-accurate run of this mix costs over a second
// of host time, which would bury the serving layer this workload exists to
// measure. There is no NoC simulation here. An op is one completed request.
//
// serve_dynamic: open loop. workload::WorkloadGenerator::generate
// interleaves edge and vertex mutations with neighbour-sampled queries,
// with churn-aware resharding on 4 chips; the queries are then served
// through ServingEngine::replay. Every query carries its own subgraph, so
// there are no cache hits: it runs many small cycle-accurate chip runs and
// stresses per-run set-up and the workload module. An op is one completed
// query.
#include <malloc.h>

#include <algorithm>
#include <exception>
#include <set>
#include <unordered_map>

#include "checks.hpp"
#include "core/aurora.hpp"
#include "core/report.hpp"
#include "graph/datasets.hpp"
#include "harness.hpp"
#include "serving/serving_engine.hpp"
#include "workload/workload_gen.hpp"

namespace perfbench {
namespace {

using namespace aurora;

constexpr std::uint32_t kChips = 4;
/// Input sets (graphs, arrival streams) per run of each workload: a run
/// averages over this many draws of the generators, in passes of a few
/// seconds.
constexpr std::size_t kCachedInputSets = 16;
constexpr std::size_t kDynamicInputSets = 6;
/// serve_dynamic compacts once the overlay holds 5% of the base edges (at
/// least 64), so a round of a few hundred mutations compacts a few times.
constexpr workload::CompactionPolicy kCompaction{0.05, 64};

/// Heap bytes in use (main arena plus mmapped blocks).
double heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

/// The mix entry a served request was drawn from: generated labels are
/// "<entry label> #<request id>".
std::string entry_label(const serving::ServedRequest& s) {
  return s.label.substr(0, s.label.rfind(" #"));
}

/// Serving-layer values of one report, plus the simulated work its cache
/// misses executed. `signature_of` names the service-cache key of a served
/// request; requests sharing a key were simulated once.
template <typename SignatureOf>
void add_serving_values(RoundResult& result,
                        const serving::ServingReport& report,
                        SignatureOf signature_of) {
  LayerValues& v = result.layer;
  std::set<std::string> simulated;
  for (const auto& s : report.served) {
    if (!simulated.insert(signature_of(s)).second) continue;
    add_engine_counts(v, s.metrics.counters);
    result.sim_cycles += simulated_cycles(s.metrics);
  }
  v["serving.completed"] += static_cast<double>(report.served.size());
  v["serving.signatures"] += static_cast<double>(simulated.size());
  v["serving.batches"] += static_cast<double>(report.batches);
  v["serving.batched_followers"] +=
      static_cast<double>(report.batched_followers);
  v["serving.shed"] += static_cast<double>(report.shed);
  v["serving.retries"] += static_cast<double>(report.retries);
  v["serving.failed_over"] += static_cast<double>(report.failed_over);
}

/// Calls `fn`, timing it and charging its generated requests to the
/// ledger; returns false (and records why) when it threw.
template <typename Fn>
bool timed_call(RunContext& ctx, const std::string& op,
                std::uint64_t requests, double& wall, Fn fn) {
  ctx.ledger->attempt(requests);
  const double t0 = now_s();
  try {
    fn();
  } catch (const std::exception& e) {
    ctx.ledger->fail(op, e.what(), OpLedger::Cause::kException, requests);
    return false;
  }
  wall = now_s() - t0;
  return true;
}

class ServeCached final : public Workload {
 public:
  void setup(RunContext& ctx) override {
    config_ = core::AuroraConfig::bench();
    config_.mode = core::SimMode::kAnalytic;
    cluster_params_ = cluster::ClusterParams{};
    cluster_params_.num_chips = kChips;
    requests_ = ctx.tiny ? 200 : 10000;
    sets_.clear();
    double edges = 0.0;
    for (std::size_t k = 0; k < (ctx.tiny ? 2 : kCachedInputSets); ++k) {
      InputSet set;
      {
        auto span = ctx.spans->open("graph", "make_dataset Cora");
        set.ds = graph::make_dataset(graph::DatasetId::kCora,
                                     ctx.tiny ? 0.02 : 0.1,
                                     derive_seed(ctx.seed, 200 + k));
      }
      edges += static_cast<double>(set.ds.num_edges());
      if (k == 0) build_mix(set.ds.spec);
      set.points = ladder(set.ds, derive_seed(ctx.seed, 300 + k));
      sets_.push_back(std::move(set));
    }
    (*ctx.layer)["graph.edges"] = edges;
    verify_point_ = derive_seed(ctx.seed, 21) % sets_[0].points.size();
  }

  [[nodiscard]] std::size_t input_sets() const override {
    return sets_.size();
  }

  RoundResult round(RunContext& ctx, std::size_t index) override {
    RoundResult result;
    const InputSet& set = sets_[index % sets_.size()];
    double heap_retained = 0.0;
    for (std::size_t p = 0; p < set.points.size(); ++p) {
      const std::string op = "serve point " + set.points[p].name;
      const std::uint64_t op_id = next_op_++;
      auto op_span = ctx.spans->open("bench", op, op_id);
      serving::ServingEngine engine(config_, cluster_params_,
                                    set.points[p].params);
      serving::ServingReport report;
      double wall = 0.0;
      const double heap_before = heap_bytes();
      if (!timed_call(ctx, op, requests_, wall, [&] {
            auto span = ctx.spans->open("serving", "ServingEngine::run", op_id);
            report = engine.run(set.ds, mix_);
          })) {
        continue;
      }
      heap_retained += heap_bytes() - heap_before;
      result.simulate_s += wall;
      result.layer["serving.run_s"] += wall;
      if (!ctx.ledger->check(op, check_serving_report(report, requests_),
                             requests_)) {
        continue;
      }
      result.ops_completed += report.served.size();
      mix_serving_report(result.fingerprint, report);
      add_serving_values(result, report, entry_label);
      if (index == 0 && p == verify_point_) keep_batch_heads(report);
    }
    const double completed = result.layer["serving.completed"];
    if (completed > 0.0) {
      result.layer["serving.kb_per_request"] =
          heap_retained / completed / 1024.0;
    }
    return result;
  }

  /// Served requests of a seed-chosen ladder point of round 0 came out of
  /// the service cache; re-run each model's first batch head directly on a
  /// fresh accelerator and diff the metrics (the cache is only sound
  /// because the engines are deterministic and stateless across runs).
  void verify(RunContext& ctx) override {
    const InputSet& set = sets_[0];
    for (const auto& entry : mix_) {
      const std::string op = "verify cached " + entry.label + " at point " +
                             set.points[verify_point_].name;
      ctx.ledger->attempt();
      const auto it = std::find_if(
          verify_heads_.begin(), verify_heads_.end(),
          [&](const serving::ServedRequest& s) {
            return entry_label(s) == entry.label;
          });
      if (it == verify_heads_.end()) {
        ctx.ledger->fail(op, "no batch head of this model was served",
                         OpLedger::Cause::kCheck);
        continue;
      }
      try {
        const auto direct =
            core::AuroraAccelerator(config_).run(set.ds, entry.job);
        ctx.ledger->check(op, core::diff_run_metrics(it->metrics, direct));
      } catch (const std::exception& e) {
        ctx.ledger->fail(op, e.what(), OpLedger::Cause::kException);
      }
    }
  }

 private:
  struct LadderPoint {
    std::string name;
    serving::ServingParams params;
  };
  struct InputSet {
    graph::Dataset ds;
    std::vector<LadderPoint> points;
  };

  /// Keep the first batch head of each model (its metrics are the cached
  /// service measurement, untouched by batching discounts).
  void keep_batch_heads(const serving::ServingReport& report) {
    for (const auto& s : report.served) {
      if (s.batched_follower) continue;
      const bool seen = std::any_of(
          verify_heads_.begin(), verify_heads_.end(),
          [&](const serving::ServedRequest& h) {
            return entry_label(h) == entry_label(s);
          });
      if (!seen) verify_heads_.push_back(s);
    }
  }

  /// The request mix of examples/serving: candidate scoring (GCN),
  /// re-ranking with attention (AGNN) and a session-graph pass (SAGE-Pool).
  void build_mix(const graph::DatasetSpec& spec) {
    mix_.clear();
    for (const auto& [model, label] :
         {std::pair{gnn::GnnModel::kGcn, "candidate-scoring/GCN"},
          std::pair{gnn::GnnModel::kAgnn, "re-ranking/AGNN"},
          std::pair{gnn::GnnModel::kGraphSagePool, "session/SAGE-Pool"}}) {
      mix_.push_back({core::GnnJob::two_layer(model, spec, 32), label, 1.0, 0});
    }
  }

  /// The rate ladder around the cluster's capacity on `ds` (one chip serves
  /// one request per mean service time), plus a faulty point.
  [[nodiscard]] std::vector<LadderPoint> ladder(const graph::Dataset& ds,
                                                std::uint64_t seed) const {
    double service_cycles = 0.0;
    for (const auto& entry : mix_) {
      service_cycles += static_cast<double>(
          core::AuroraAccelerator(config_).run(ds, entry.job).total_cycles);
    }
    service_cycles /= static_cast<double>(mix_.size());
    const double capacity_per_mcycle = kChips * 1e6 / service_cycles;

    struct Point {
      const char* name;
      double load;
      bool faults;
    };
    std::vector<LadderPoint> points;
    for (const Point& p : {Point{"load0.5", 0.5, false},
                           Point{"load0.9", 0.9, false},
                           Point{"load1.3", 1.3, false},
                           Point{"load2.0", 2.0, false},
                           Point{"load0.9+faults", 0.9, true}}) {
      serving::ServingParams params;
      params.arrival.kind = serving::ArrivalKind::kPoisson;
      params.arrival.rate_per_mcycle = p.load * capacity_per_mcycle;
      params.seed = derive_seed(seed, points.size());
      params.num_requests = requests_;
      params.queue_depth = 64;
      params.max_batch = 4;
      params.num_tenants = 2;
      params.slo_cycles = static_cast<Cycle>(8.0 * service_cycles);
      if (p.faults) {
        const double horizon = static_cast<double>(requests_) /
                               params.arrival.rate_per_mcycle * 1e6;
        params.faults.seed = derive_seed(seed, 99);
        params.faults.horizon = static_cast<Cycle>(4.0 * horizon);
        params.faults.chip_mtbf = horizon / 4.0;
        params.faults.chip_mttr = horizon / 40.0;
        params.proactive_shedding = true;
      }
      points.push_back({p.name, params});
    }
    return points;
  }

  core::AuroraConfig config_;
  cluster::ClusterParams cluster_params_;
  std::vector<serving::ModelMixEntry> mix_;
  std::vector<InputSet> sets_;
  std::uint64_t requests_ = 0;
  std::size_t verify_point_ = 0;
  std::vector<serving::ServedRequest> verify_heads_;
  std::uint64_t next_op_ = 1;
};

class ServeDynamic final : public Workload {
 public:
  void setup(RunContext& ctx) override {
    config_ = core::AuroraConfig::bench();
    cluster_params_ = cluster::ClusterParams{};
    cluster_params_.num_chips = kChips;
    sets_.clear();
    double edges = 0.0;
    for (std::size_t k = 0; k < (ctx.tiny ? 2 : kDynamicInputSets); ++k) {
      InputSet set;
      {
        auto span = ctx.spans->open("graph", "make_dataset Pubmed");
        set.base = graph::make_dataset(graph::DatasetId::kPubmed,
                                       ctx.tiny ? 0.01 : 0.05,
                                       derive_seed(ctx.seed, 400 + k));
      }
      edges += static_cast<double>(set.base.num_edges());
      auto& wp = set.params;
      wp.arrival.kind = serving::ArrivalKind::kPoisson;
      wp.arrival.rate_per_mcycle = 100000.0 / config_.frequency_mhz;
      wp.seed = derive_seed(ctx.seed, 500 + k);
      wp.num_ops = ctx.tiny ? 32 : 256;
      wp.mutation_fraction = 0.875;
      wp.insert_fraction = 0.7;
      wp.num_seeds = 4;
      wp.sampler.fanouts = {10, 5};
      wp.sampler.seed = derive_seed(ctx.seed, 600 + k);
      wp.num_tenants = 2;
      wp.num_chips = kChips;
      wp.reshard_threshold = 0.02;
      sets_.push_back(std::move(set));
    }
    (*ctx.layer)["graph.edges"] = edges;
    job_ = core::GnnJob::two_layer(gnn::GnnModel::kGcn, sets_[0].base.spec, 32);
    serving_params_ = serving::ServingParams{};
    serving_params_.queue_depth = 64;
    serving_params_.max_batch = 4;
  }

  [[nodiscard]] std::size_t input_sets() const override {
    return sets_.size();
  }

  RoundResult round(RunContext& ctx, std::size_t index) override {
    RoundResult result;
    const InputSet& set = sets_[index % sets_.size()];
    const std::uint64_t op_id = next_op_++;
    const std::string op = "dynamic round";
    auto op_span = ctx.spans->open("bench", op, op_id);
    workload::DynamicWorkload wl;
    const double generate_t0 = now_s();
    try {
      auto span =
          ctx.spans->open("workload", "WorkloadGenerator::generate", op_id);
      workload::DynamicGraph dyn(set.base.graph, kCompaction);
      wl = workload::WorkloadGenerator(set.params)
               .generate(dyn, set.base, job_);
    } catch (const std::exception& e) {
      // The round's queries are unknown; charge the round as one failed op.
      ctx.ledger->attempt();
      ctx.ledger->fail(op + " generate", e.what(),
                       OpLedger::Cause::kException);
      return result;
    }
    const double generate_wall = now_s() - generate_t0;
    const std::uint64_t queries = wl.queries.size();
    serving::ServingEngine engine(config_, cluster_params_, serving_params_);
    serving::ServingReport report;
    double wall = 0.0;
    const double heap_before = heap_bytes();
    if (!timed_call(ctx, op + " replay", queries, wall, [&] {
          auto span =
              ctx.spans->open("serving", "ServingEngine::replay", op_id);
          report = engine.replay(set.base, wl.queries);
        })) {
      return result;
    }
    const double heap_retained = heap_bytes() - heap_before;
    result.simulate_s += wall;
    LayerValues& v = result.layer;
    v["serving.kb_per_request"] =
        report.served.empty()
            ? 0.0
            : heap_retained / static_cast<double>(report.served.size()) /
                  1024.0;
    v["serving.run_s"] += wall;
    v["workload.generate_s"] += generate_wall;
    if (!ctx.ledger->check(op, check_serving_report(report, queries),
                           queries)) {
      return result;
    }
    result.ops_completed += report.served.size();
    mix_serving_report(result.fingerprint, report);

    std::unordered_map<std::uint64_t, const serving::ServingRequest*> by_id;
    double batch_vertices = 0.0;
    for (const auto& q : wl.queries) {
      by_id.emplace(q.id, &q);
      batch_vertices += static_cast<double>(q.dataset->num_vertices());
    }
    add_serving_values(result, report, [&](const serving::ServedRequest& s) {
      return by_id.at(s.id)->dataset_key + "|" + entry_label(s);
    });
    const auto& st = wl.stats;
    v["workload.events"] += static_cast<double>(set.params.num_ops);
    v["workload.mutations"] += static_cast<double>(st.mutations);
    v["workload.queries"] += static_cast<double>(st.queries);
    v["workload.compactions"] += static_cast<double>(st.compactions);
    v["workload.reshards"] += static_cast<double>(st.reshards);
    v["workload.batch_vertices_sum"] += batch_vertices;
    result.fingerprint.mix(st.mutations);
    result.fingerprint.mix(st.compactions);
    result.fingerprint.mix(st.reshards);
    result.fingerprint.mix(st.final_edges);
    if (index == 0) first_queries_ = std::move(wl.queries);
    return result;
  }

  /// Replay a seed-chosen run of consecutive queries of round 0 on fresh
  /// fast-forward and lockstep engines and diff the two reports.
  void verify(RunContext& ctx) override {
    const std::string op = "verify lockstep queries";
    ctx.ledger->attempt();
    if (first_queries_.empty()) {
      ctx.ledger->fail(op, "no queries to re-run", OpLedger::Cause::kCheck);
      return;
    }
    const std::size_t n = std::min<std::size_t>(3, first_queries_.size());
    const std::size_t first =
        derive_seed(ctx.seed, 34) % (first_queries_.size() - n + 1);
    const std::vector<serving::ServingRequest> sample(
        first_queries_.begin() + static_cast<std::ptrdiff_t>(first),
        first_queries_.begin() + static_cast<std::ptrdiff_t>(first + n));
    try {
      serving::ServingEngine fast(config_, cluster_params_, serving_params_);
      core::AuroraConfig lockstep = config_;
      lockstep.fast_forward = false;
      serving::ServingEngine slow(lockstep, cluster_params_, serving_params_);
      ctx.ledger->check(op, serving::diff_serving_reports(
                                fast.replay(sets_[0].base, sample),
                                slow.replay(sets_[0].base, sample)));
    } catch (const std::exception& e) {
      ctx.ledger->fail(op, e.what(), OpLedger::Cause::kException);
    }
  }

 private:
  struct InputSet {
    graph::Dataset base;
    workload::DynamicWorkloadParams params;
  };

  core::AuroraConfig config_;
  cluster::ClusterParams cluster_params_;
  core::GnnJob job_;
  std::vector<InputSet> sets_;
  serving::ServingParams serving_params_;
  std::vector<serving::ServingRequest> first_queries_;
  std::uint64_t next_op_ = 1;
};

}  // namespace

std::unique_ptr<Workload> make_serve_cached() {
  return std::make_unique<ServeCached>();
}

std::unique_ptr<Workload> make_serve_dynamic() {
  return std::make_unique<ServeDynamic>();
}

}  // namespace perfbench
