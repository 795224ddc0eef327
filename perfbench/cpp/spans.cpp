#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanRecorder::Scope::close() {
  if (recorder_ == nullptr) return;
  if (index_ >= 0) {
    recorder_->spans_[static_cast<std::size_t>(index_)].end = now_s();
    // Scopes close in LIFO order; anything above ours was closed already.
    while (!recorder_->open_.empty() && recorder_->open_.back() != index_) {
      recorder_->open_.pop_back();
    }
    if (!recorder_->open_.empty()) recorder_->open_.pop_back();
  }
  recorder_ = nullptr;
}

SpanRecorder::Scope SpanRecorder::open(const char* layer, std::string name,
                                       std::uint64_t op) {
  if (!enabled_) return Scope(this, -1);
  const int index = static_cast<int>(spans_.size());
  const double t = now_s();
  spans_.push_back({layer, std::move(name), t, t,
                    open_.empty() ? -1 : open_.back(), op});
  open_.push_back(index);
  return Scope(this, index);
}

void SpanRecorder::add(const char* layer, std::string name, double start,
                       double end, std::uint64_t op) {
  if (!enabled_) return;
  spans_.push_back({layer, std::move(name), start, std::max(start, end),
                    open_.empty() ? -1 : open_.back(), op});
}

std::map<std::string, double> SpanRecorder::self_seconds() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d = spans_[i].end - spans_[i].start;
    self[spans_[i].layer] += std::max(0.0, d - child_time[i]);
  }
  return self;
}

double SpanRecorder::total_seconds(const std::string& layer) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.layer == layer) total += s.end - s.start;
  }
  return total;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string SpanRecorder::chrome_trace_json(
    const std::string& metadata_json) const {
  double origin = 0.0;
  if (!spans_.empty()) {
    origin = spans_.front().start;
    for (const Span& s : spans_) origin = std::min(origin, s.start);
  }
  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":" +
                    metadata_json + ",\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                  "\"args\":{\"id\":%zu,\"parent\":%d,\"op\":%llu}}",
                  (s.start - origin) * 1e6, (s.end - s.start) * 1e6, i,
                  s.parent, static_cast<unsigned long long>(s.op));
    out += i == 0 ? "" : ",";
    out += "{\"name\":\"" + json_escape(s.name) + "\",\"cat\":\"" +
           json_escape(s.layer) + "\",\"ph\":\"X\"," + buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
