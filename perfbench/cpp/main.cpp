// The repository benchmark program (see perfbench/README.md).
//
//   aurora_perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//                    [--revision=<rev>] [--out-dir=<dir>] [--tiny]
//   aurora_perfbench --selftest
//
// A timed run (--trace=0) makes whole passes over the workload's input sets
// (one round of ops each), at least three and until --seconds have passed,
// setting the workload up again between rounds (set-up time is the median),
// re-runs a sample through a second engine path, and reports the end-to-end
// metrics (rates are medians over the passes). A
// traced run (--trace=1) sets up once, runs round 0 as an untraced warm-up,
// untraced, and with spans (then sim::Tracer and the critical-path analysis
// on cluster_shard), reports the per-layer metrics and writes the spans as
// Chrome trace-event JSON. The last stdout line is the result
// object; the line before it carries provenance.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

int run_selftest();

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "ops/s"},
    {"sim_cycles_per_s", "cycles/s"},
    {"peak_rss_mb", "MB"},
};

/// Layers that get a span.<layer>.self_s metric.
constexpr const char* kSpanLayers[] = {"bench",   "graph",     "workload",
                                       "serving", "cluster",   "core",
                                       "baselines", "profile"};

constexpr MetricSpec kPerLayer[] = {
    {"ops_failed_share", "fraction"},
    {"core.ns_per_router_traversal", "ns"},
    {"noc.router_traversals", "count"},
    {"noc.flit_hops", "count"},
    {"noc.bypass_flit_hops", "count"},
    {"noc.packets_delivered", "count"},
    {"noc.busy_cycles", "cycles"},
    {"pe.tasks", "count"},
    {"pe.busy_cycles", "cycles"},
    {"dram.requests", "count"},
    {"dram.bursts", "count"},
    {"dram.row_hit_ratio", "fraction"},
    {"sim.cycles_total", "cycles"},
    {"sim.cycles_skipped_ratio", "fraction"},
    {"cluster.engine_run_s", "s"},
    {"cluster.halo_bytes_sent", "bytes"},
    {"cluster.link_hops", "count"},
    {"cluster.barrier_wait_cycles", "cycles"},
    {"cluster.cut_edges", "count"},
    {"serving.run_s", "s"},
    {"serving.us_per_request", "us"},
    {"serving.kb_per_request", "KB"},
    {"serving.service_reuse_ratio", "ratio"},
    {"serving.batches", "count"},
    {"serving.batched_followers", "count"},
    {"serving.shed", "count"},
    {"serving.retries", "count"},
    {"serving.failed_over", "count"},
    {"workload.generate_s", "s"},
    {"workload.us_per_event", "us"},
    {"workload.mutations", "count"},
    {"workload.queries", "count"},
    {"workload.compactions", "count"},
    {"workload.reshards", "count"},
    {"workload.batch_vertices_mean", "vertices"},
    {"graph.make_dataset_s", "s"},
    {"graph.ns_per_edge", "ns"},
    {"core.analytic_run_s", "s"},
    {"baselines.run_s", "s"},
    {"core.cell_s_p50", "s"},
    {"core.cell_s_max", "s"},
    {"core.cells_over_budget", "count"},
    {"critpath.pe_compute_share", "fraction"},
    {"critpath.noc_share", "fraction"},
    {"critpath.dram_share", "fraction"},
    {"critpath.reconfig_share", "fraction"},
    {"critpath.halo_wait_share", "fraction"},
    {"trace.overhead_ratio", "ratio"},
    {"span.bench.self_s", "s"},
    {"span.graph.self_s", "s"},
    {"span.workload.self_s", "s"},
    {"span.serving.self_s", "s"},
    {"span.cluster.self_s", "s"},
    {"span.core.self_s", "s"},
    {"span.baselines.self_s", "s"},
    {"span.profile.self_s", "s"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool selftest = false;
  std::string revision = "unknown";
  std::string out_dir = ".bench_out";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "aurora_perfbench: %s\nusage: aurora_perfbench "
               "--workload=<cluster_shard|serve_cached|serve_dynamic|"
               "paper_figs> --seed=<n> --seconds=<s> --trace=<0|1> "
               "[--revision=<rev>] [--out-dir=<dir>] [--tiny] | --selftest\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    try {
      if (key == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (key == "--revision") {
        o.revision = value;
      } else if (key == "--out-dir") {
        o.out_dir = value;
      } else if (arg == "--tiny") {
        o.tiny = true;
      } else if (arg == "--selftest") {
        o.selftest = true;
      } else {
        usage("unknown argument '" + arg + "'");
      }
    } catch (const std::logic_error&) {
      usage("bad value in '" + arg + "'");
    }
  }
  if (!o.selftest && !have_workload) usage("--workload is required");
  if (!(o.seconds > 0.0 && o.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  return o;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "cluster_shard") return make_cluster_shard();
  if (name == "serve_cached") return make_serve_cached();
  if (name == "serve_dynamic") return make_serve_dynamic();
  if (name == "paper_figs") return make_paper_figs();
  usage("unknown workload '" + name + "'");
}

/// Set-ups a timed run makes at least, and the seconds they take at least.
constexpr double kSetupSamples = 3.0;
constexpr double kSetupSeconds = 2.0;
/// Passes a timed run makes at least, so the median rate can set one
/// disturbed pass aside.
constexpr std::size_t kMinPasses = 3;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<MetricSpec>& specs,
                         const LayerValues& values) {
  std::string out = "{";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = values.find(specs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    out += (i == 0 ? "\"" : ", \"") + std::string(specs[i].name) +
           "\": {\"value\": " + number(v) + ", \"unit\": \"" + specs[i].unit +
           "\"}";
  }
  return out + "}";
}

/// Per-layer metrics of the traced round: counts and host seconds the
/// workload returned, ratios over them, and span self times.
LayerValues per_layer(const RoundResult& r, const LayerValues& once,
                      const SpanRecorder& spans) {
  LayerValues v = r.layer;
  const auto get = [&](const char* name) {
    const auto it = v.find(name);
    return it == v.end() ? 0.0 : it->second;
  };
  v["core.ns_per_router_traversal"] =
      ratio(r.simulate_s * 1e9, get("noc.router_traversals"));
  v["dram.row_hit_ratio"] =
      ratio(get("dram.row_hits"),
            get("dram.row_hits") + get("dram.row_misses") +
                get("dram.row_conflicts"));
  v["sim.cycles_skipped_ratio"] =
      ratio(get("sim.cycles_skipped"), get("sim.cycles_total"));
  v["serving.us_per_request"] =
      ratio(get("serving.run_s") * 1e6, get("serving.completed"));
  v["serving.service_reuse_ratio"] =
      ratio(get("serving.completed"), get("serving.signatures"));
  v["workload.us_per_event"] =
      ratio(get("workload.generate_s") * 1e6, get("workload.events"));
  v["workload.batch_vertices_mean"] =
      ratio(get("workload.batch_vertices_sum"), get("workload.queries"));
  const auto edges = once.find("graph.edges");
  v["graph.make_dataset_s"] = spans.total_seconds("graph");
  v["graph.ns_per_edge"] =
      ratio(v["graph.make_dataset_s"] * 1e9,
            edges == once.end() ? 0.0 : edges->second);
  const auto self = spans.self_seconds();
  for (const char* layer : kSpanLayers) {
    const auto it = self.find(layer);
    v[std::string("span.") + layer + ".self_s"] =
        it == self.end() ? 0.0 : it->second;
  }
  return v;
}

int run(const Options& o) {
  OpLedger ledger;
  SpanRecorder spans;
  LayerValues once;
  std::map<std::string, std::uint64_t> samples;
  RunContext ctx;
  ctx.seed = o.seed;
  ctx.tiny = o.tiny;
  ctx.spans = &spans;
  ctx.ledger = &ledger;
  ctx.layer = &once;
  ctx.samples = &samples;

  auto workload = make_workload(o.workload);
  // Set-up time is the median of several set-ups. Timed runs repeat the
  // set-up between the timed rounds, so the samples spread over the whole
  // run instead of sharing one window of host interference.
  std::vector<double> setup_s;
  double setup_total = 0.0;
  const auto set_up = [&] {
    const double t0 = now_s();
    workload->setup(ctx);
    setup_s.push_back(now_s() - t0);
    setup_total += setup_s.back();
  };
  // Set up until `progress` (0 to 1) of the run's share is taken: in all,
  // at least kSetupSamples set-ups and kSetupSeconds of them.
  const auto sample_setups = [&](double progress) {
    progress = std::min(progress, 1.0);
    while (static_cast<double>(setup_s.size()) <
               std::ceil(kSetupSamples * progress) ||
           setup_total < kSetupSeconds * progress) {
      set_up();
    }
  };
  // The traced run records the set-up's spans (graph generation).
  spans.enable(o.trace);
  set_up();

  // Rounds over the same input set must simulate the same thing.
  std::vector<std::uint64_t> set_fingerprints(workload->input_sets(), 0);
  std::vector<bool> set_seen(workload->input_sets(), false);
  const auto check_fingerprint = [&](const RoundResult& r, std::size_t index) {
    const std::size_t set = index % set_fingerprints.size();
    if (!set_seen[set]) {
      set_seen[set] = true;
      set_fingerprints[set] = r.fingerprint.value;
    } else if (set_fingerprints[set] != r.fingerprint.value) {
      ledger.check("round " + std::to_string(index),
                   {"fingerprint " + hex(r.fingerprint.value) +
                    " differs from the first round on input set " +
                    std::to_string(set) + " (" +
                    hex(set_fingerprints[set]) + ")"});
    }
  };
  const auto timed_round = [&](std::size_t index, double& seconds) {
    const double t0 = now_s();
    RoundResult r = workload->round(ctx, index);
    seconds = now_s() - t0;
    check_fingerprint(r, index);
    return r;
  };

  LayerValues metrics;
  RoundResult first;
  std::size_t rounds = 0;
  double elapsed = 0.0;
  // The rates' time base: the timed rounds minus ops stopped over budget.
  double measured = 0.0;
  std::vector<double> ops_rates;
  if (!o.trace) {
    // Rates are the median over the run's passes, so a burst of host
    // interference moves one pass, not the result.
    std::vector<double> cycle_rates;
    double pass_ops = 0.0;
    double pass_cycles = 0.0;
    double pass_s = 0.0;
    do {
      double round_s = 0.0;
      RoundResult r = timed_round(rounds, round_s);
      if (rounds == 0) first = r;
      pass_ops += static_cast<double>(r.ops_completed);
      pass_cycles += r.sim_cycles;
      pass_s += round_s - r.excluded_s;
      elapsed += round_s;
      ++rounds;
      if (rounds % set_fingerprints.size() == 0) {
        ops_rates.push_back(ratio(pass_ops, pass_s));
        cycle_rates.push_back(ratio(pass_cycles, pass_s));
        measured += pass_s;
        pass_ops = pass_cycles = pass_s = 0.0;
      }
      sample_setups(elapsed / o.seconds);
      // Whole passes over the input sets, so every run times the same work.
    } while (rounds % set_fingerprints.size() != 0 ||
             ops_rates.size() < kMinPasses || elapsed < o.seconds);
    sample_setups(1.0);
    samples["rounds"] = static_cast<std::uint64_t>(rounds);
    samples["ops_per_s"] = ops_rates.size();
    samples["sim_cycles_per_s"] = cycle_rates.size();
    workload->verify(ctx);
    metrics["setup_s"] = median(setup_s);
    metrics["ops_per_s"] = median(ops_rates);
    metrics["sim_cycles_per_s"] = median(cycle_rates);
    metrics["peak_rss_mb"] = peak_rss_mb();
  } else {
    // Round 0 three times on the same inputs: an untraced warm-up, then
    // untraced and with spans, timed for the tracing overhead.
    spans.enable(false);
    double warmup_s = 0.0;
    double untraced_s = 0.0;
    double traced_s = 0.0;
    timed_round(0, warmup_s);
    first = timed_round(0, untraced_s);
    spans.enable(true);
    const RoundResult traced = timed_round(0, traced_s);
    rounds = 3;
    elapsed = warmup_s + untraced_s + traced_s;
    LayerValues extra;
    workload->profile(ctx, extra);
    spans.enable(false);
    workload->verify(ctx);
    metrics = per_layer(traced, once, spans);
    for (const auto& [name, value] : extra) metrics[name] = value;
    metrics["trace.overhead_ratio"] = ratio(traced_s, untraced_s) - 1.0;
    metrics["ops_failed_share"] =
        ratio(static_cast<double>(ledger.failed()),
              static_cast<double>(ledger.attempted()));
  }
  samples["setup_s"] = setup_s.size();

  for (const std::string& m : ledger.messages()) {
    std::fprintf(stderr, "perfbench: %s\n", m.c_str());
  }

  long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::string samples_json = "{";
  for (const auto& [name, n] : samples) {
    samples_json += (samples_json.size() > 1 ? ", \"" : "\"") + name +
                    "\": " + std::to_string(n);
  }
  samples_json += "}";
  std::string passes_json = "[";
  for (const double rate : ops_rates) {
    passes_json += (passes_json.size() > 1 ? ", " : "") + number(rate);
  }
  passes_json += "]";
  const std::string provenance =
      "{\"workload\": \"" + o.workload + "\", \"seed\": " +
      std::to_string(o.seed) + ", \"trace\": " + (o.trace ? "1" : "0") +
      ", \"seconds\": " + number(o.seconds) + ", \"tiny\": " +
      (o.tiny ? "true" : "false") + ", \"nproc\": " + std::to_string(nproc) +
      ", \"build_type\": \"" PERFBENCH_BUILD_TYPE
      "\", \"compiler\": \"" PERFBENCH_COMPILER "\", \"revision\": \"" +
      o.revision + "\", \"rounds\": " + std::to_string(rounds) +
      ", \"measured_s\": " + number(elapsed) + ", \"rate_base_s\": " +
      number(measured) + ", \"pass_ops_per_s\": " + passes_json +
      ", \"samples\": " +
      samples_json + ", \"fingerprint\": \"" + hex(first.fingerprint.value) +
      "\"}";

  if (o.trace) {
    std::error_code ec;
    std::filesystem::create_directories(o.out_dir, ec);
    const std::string path = o.out_dir + "/trace_" + o.workload + "_seed" +
                             std::to_string(o.seed) + ".json";
    std::ofstream f(path);
    f << spans.chrome_trace_json(provenance);
    if (!f) {
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
      return 1;
    }
    std::printf("perfbench: spans written to %s\n", path.c_str());
  }

  std::printf("perfbench: %s fingerprint %s (%zu rounds, %llu/%llu ops "
              "failed)\n",
              o.workload.c_str(), hex(first.fingerprint.value).c_str(), rounds,
              static_cast<unsigned long long>(ledger.failed()),
              static_cast<unsigned long long>(ledger.attempted()));
  std::printf("{\"provenance\": %s}\n", provenance.c_str());
  std::vector<MetricSpec> specs;
  if (o.trace) {
    specs.assign(std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    specs.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              ledger.correct() ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted()),
              static_cast<unsigned long long>(ledger.failed()),
              metrics_json(specs, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Fix glibc's allocation thresholds. By default they move with the
  // history of frees, so whether a large buffer (a ServingReport's request
  // vector) reuses heap memory or is mapped and page-faulted in afresh
  // differed from run to run, and with it the run's speed.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const perfbench::Options o = perfbench::parse(argc, argv);
  try {
    return o.selftest ? perfbench::run_selftest() : perfbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aurora_perfbench: %s\n", e.what());
    return 1;
  }
}
