#include "spans.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

namespace perfbench {

std::vector<uint64_t> SpanRecorder::SelfTimes() const {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent == kNoParent) continue;
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    const uint64_t lo = std::max(s.start_ns, p.start_ns);
    const uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<uint64_t> self(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const uint64_t total = spans_[i].end_ns - spans_[i].start_ns;
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0;
    uint64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = total - std::min(total, covered);
  }
  return self;
}

bool SpanRecorder::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // pid 2 keeps benchmark rows apart from qf_server's (pid 1); the row is
    // the request id so one request's nested spans stack on one row.
    std::fprintf(f,
                 "  {\"name\":\"%s\",\"ph\":\"X\",\"pid\":2,\"tid\":%" PRIu64
                 ",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":%d,"
                 "\"request\":%" PRIu64 "}}%s\n",
                 s.name.c_str(), s.request % 1024,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.parent,
                 s.request, i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, "],\"displayTimeUnit\":\"ns\"}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
