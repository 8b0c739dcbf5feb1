// Spans recorded around the benchmark's calls into gqlite's public API.
//
// Every span has a name (the layer whose public function it times), the
// id of the operation it belongs to, its parent span and its start and
// end. The spans sit in memory until the run ends and are written out
// then, so the only per-call cost is two clock reads and a push_back.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;  // a string literal naming the layer
  int64_t op;        // operation id shared by the spans of one operation
  int parent;        // index of the parent span, -1 for a root
  int64_t start_ns;
  int64_t end_ns;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Operation id stamped on spans begun from now on.
  void set_op(int64_t op) { op_ = op; }

  /// Opens a span under the innermost open one; returns its index, or
  /// -1 when tracing is off.
  int Begin(const char* name) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, op_, parent, NowNs(), 0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int index) {
    if (index < 0) return;
    spans_[index].end_ns = NowNs();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Writes one tab-separated line per span: index, name, op, parent,
  /// start and end in nanoseconds.
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  int64_t op_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Times one call: opens a span on construction, closes it on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Self time of each span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Per span name: the number of spans and their summed self time.
struct LayerTime {
  int64_t count = 0;
  int64_t self_ns = 0;
};
std::map<std::string, LayerTime> SelfTimeByName(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
