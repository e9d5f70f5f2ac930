// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark around its calls into each layer's
// public functions (the program itself is not instrumented here). Each span
// carries a name, start, end, the index of the span that caused it and a
// request id shared by all spans of one request. They stay in memory and
// are written once, at the end, as chrome://tracing JSON in the same shape
// qf_server --trace-json emits, so both files open side by side.
//
// A layer's self time is its span's duration minus the part of that
// interval covered by its direct child spans.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr int kNoParent = -1;

struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int parent = kNoParent;  // index into the recorder's span list
  uint64_t request = 0;
};

class SpanRecorder {
 public:
  /// Opens a span and returns its index (close it with End).
  int Begin(const std::string& name, uint64_t now_ns, int parent,
            uint64_t request) {
    spans_.push_back(Span{name, now_ns, now_ns, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int index, uint64_t now_ns) {
    spans_[static_cast<size_t>(index)].end_ns = now_ns;
  }
  /// Records a span whose bounds are already known.
  int Add(const std::string& name, uint64_t start_ns, uint64_t end_ns,
          int parent, uint64_t request) {
    spans_.push_back(Span{name, start_ns, end_ns, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: duration minus the union of its direct
  /// children's intervals, clipped to the span.
  std::vector<uint64_t> SelfTimes() const;

  /// Writes the spans as chrome://tracing JSON ("X" events, microsecond
  /// timestamps, one row per top-level request tree). Returns false if the
  /// file cannot be written.
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
