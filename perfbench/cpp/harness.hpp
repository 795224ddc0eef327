// Shared types of the repository benchmark: the workload interface, the op
// ledger that counts attempted and failed operations, and the fingerprint
// that summarises a round's simulated results bit for bit.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// FNV-1a over the simulated results of a round. Host timings never enter
/// it, so two builds that simulate the same thing print the same value.
struct Fingerprint {
  std::uint64_t value = 1469598103934665603ull;

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      value ^= (v >> (8 * i)) & 0xffu;
      value *= 1099511628211ull;
    }
  }
  void mix_double(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  }
  void mix_string(const std::string& s) {
    for (unsigned char c : s) {
      value ^= c;
      value *= 1099511628211ull;
    }
    mix(s.size());
  }
};

/// Named per-layer values (counts, ratios, seconds) a round produced.
using LayerValues = std::map<std::string, double>;

/// Attempted/failed accounting for one benchmark run. An op fails when it
/// throws, fails an output check, or overruns its wall budget; only a
/// failed check makes the run's outputs incorrect.
class OpLedger {
 public:
  enum class Cause { kCheck, kException, kBudget };

  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& op, const std::string& why, Cause cause,
            std::uint64_t n = 1);
  /// Record the check violations of an op that stands for `ops` attempted
  /// ops (all of which fail on a violation); true when there were none.
  bool check(const std::string& op, const std::vector<std::string>& violations,
             std::uint64_t ops = 1);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] const std::vector<std::string>& messages() const {
    return messages_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
  std::vector<std::string> messages_;
};

/// What one round of a workload produced.
struct RoundResult {
  /// Ops that completed and passed their checks.
  std::uint64_t ops_completed = 0;
  /// Simulated cycles the round's completed ops executed (see each
  /// workload for which engine produced them).
  double sim_cycles = 0.0;
  Fingerprint fingerprint;
  /// Per-layer values of the round: simulated-work counts (identical
  /// across builds that simulate the same thing) and host seconds of the
  /// calls that produced them.
  LayerValues layer;
  /// Host seconds of the round's calls into the engines that simulate
  /// (the divisor of core.ns_per_router_traversal).
  double simulate_s = 0.0;
  /// Host seconds of ops stopped over their wall budget. They are left out
  /// of the rates' time base; the ops still count as failed.
  double excluded_s = 0.0;
};

struct RunContext {
  std::uint64_t seed = 1;
  /// Tiny input sizes for the self-test.
  bool tiny = false;
  SpanRecorder* spans = nullptr;
  OpLedger* ledger = nullptr;
  /// Values that only exist once (set-up sizes, sample counts), merged
  /// into the per-layer output.
  LayerValues* layer = nullptr;
  /// Sample counts behind every percentile or median reported.
  std::map<std::string, std::uint64_t>* samples = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Build every input of the timed phase (datasets, model mix, engines),
  /// replacing any earlier set-up with an identical one. Called several
  /// times per run, between rounds, so the set-up time can be reported as a
  /// median; what verify() needs from round 0 must survive it.
  virtual void setup(RunContext& ctx) = 0;
  /// Independent input sets the set-up built, each derived from the seed.
  /// Rounds cycle through them, so a run averages over many inputs instead
  /// of timing one draw of the generators.
  [[nodiscard]] virtual std::size_t input_sets() const = 0;
  /// One round of ops over input set `index % input_sets()`. Rounds on the
  /// same input set must produce the same fingerprint.
  virtual RoundResult round(RunContext& ctx, std::size_t index) = 0;
  /// Re-run a seed-chosen sample of round 0's ops through a second engine
  /// path the repository proves equivalent and diff the results.
  virtual void verify(RunContext& ctx) = 0;
  /// Traced-run extras (critical-path attribution); default none.
  virtual void profile(RunContext& /*ctx*/, LayerValues& /*out*/) {}
};

[[nodiscard]] std::unique_ptr<Workload> make_cluster_shard();
[[nodiscard]] std::unique_ptr<Workload> make_serve_cached();
[[nodiscard]] std::unique_ptr<Workload> make_serve_dynamic();
[[nodiscard]] std::unique_ptr<Workload> make_paper_figs();

/// Deterministic 64-bit mix of a seed and a salt (splitmix64).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t salt);

}  // namespace perfbench
