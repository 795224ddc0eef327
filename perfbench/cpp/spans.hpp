// Host-time spans the benchmark records around its own calls into each
// simulator module (graph, workload, serving, cluster, core, baselines,
// profile). Spans stay in memory and are written once, at exit, as Chrome
// trace-event JSON; a layer's self time is its spans' durations minus the
// time their child spans cover.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock (system-wide on Linux, so forked children's
/// timestamps line up with the parent's).
[[nodiscard]] double now_s();

class SpanRecorder {
 public:
  struct Span {
    std::string layer;
    std::string name;
    double start = 0.0;
    double end = 0.0;
    /// Index of the enclosing span, -1 for a root.
    int parent = -1;
    /// Op the span belongs to (0 for set-up and harness work).
    std::uint64_t op = 0;
  };

  /// Closes its span on destruction.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, int index)
        : recorder_(recorder), index_(index) {}
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&& other) noexcept
        : recorder_(other.recorder_), index_(other.index_) {
      other.recorder_ = nullptr;
    }
    Scope& operator=(Scope&&) = delete;
    void close();

   private:
    SpanRecorder* recorder_;
    int index_;
  };

  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span under the innermost open one; a no-op while disabled.
  [[nodiscard]] Scope open(const char* layer, std::string name,
                           std::uint64_t op = 0);
  /// Record an already-timed span (a forked child's) under the innermost
  /// open span.
  void add(const char* layer, std::string name, double start, double end,
           std::uint64_t op = 0);

  /// Self seconds per layer: each span's duration minus its children's.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Summed duration of the spans of `layer`.
  [[nodiscard]] double total_seconds(const std::string& layer) const;
  /// Chrome trace-event JSON ("X" events, microseconds from the first
  /// span); `metadata_json` is stored under the top-level "otherData" key.
  [[nodiscard]] std::string chrome_trace_json(
      const std::string& metadata_json) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
