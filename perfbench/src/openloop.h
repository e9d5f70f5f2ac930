// Open-loop schedule and due-time latency accounting.
//
// In an open loop frame i is due at start + i * period, whether or not the
// system under test kept up. Every latency is timed from the frame's due
// time, not from when the generator got round to sending it, so a stall
// in the generator or the SUT is charged to every frame queued behind it
// (no coordinated omission). How late the generator itself sent each frame
// is recorded separately, so a run where the generator fell behind is
// visible instead of silently timed.

#ifndef PERFBENCH_OPENLOOP_H_
#define PERFBENCH_OPENLOOP_H_

#include <cstdint>
#include <vector>

namespace perfbench {

class Schedule {
 public:
  /// `rate_hz` frames per second starting at `start_ns`.
  Schedule(uint64_t start_ns, double rate_hz)
      : start_ns_(start_ns), period_ns_(1e9 / rate_hz) {}

  uint64_t Due(uint64_t i) const {
    return start_ns_ +
           static_cast<uint64_t>(static_cast<double>(i) * period_ns_);
  }
  uint64_t start_ns() const { return start_ns_; }

 private:
  uint64_t start_ns_;
  double period_ns_;
};

/// Per-frame bookkeeping for one open-loop stream of requests.
class DueTimeBook {
 public:
  explicit DueTimeBook(size_t frames)
      : due_(frames, 0), sent_(frames, 0), done_(frames, 0) {}

  void MarkSent(size_t i, uint64_t due_ns, uint64_t sent_ns) {
    due_[i] = due_ns;
    sent_[i] = sent_ns;
  }
  void MarkDone(size_t i, uint64_t done_ns) { done_[i] = done_ns; }

  uint64_t due(size_t i) const { return due_[i]; }
  bool done(size_t i) const { return done_[i] != 0; }

  /// Microseconds from each completed frame's due time to its completion.
  std::vector<double> LatenciesUs() const {
    std::vector<double> out;
    out.reserve(due_.size());
    for (size_t i = 0; i < due_.size(); ++i) {
      if (done_[i] != 0) out.push_back(1e-3 * static_cast<double>(done_[i] - due_[i]));
    }
    return out;
  }
  /// Microseconds the generator sent each frame after its due time.
  std::vector<double> LatenessUs() const {
    std::vector<double> out;
    out.reserve(due_.size());
    for (size_t i = 0; i < due_.size(); ++i) {
      if (sent_[i] != 0) out.push_back(1e-3 * static_cast<double>(sent_[i] - due_[i]));
    }
    return out;
  }

 private:
  std::vector<uint64_t> due_, sent_, done_;
};

}  // namespace perfbench

#endif  // PERFBENCH_OPENLOOP_H_
