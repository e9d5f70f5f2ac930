// The end-to-end (untraced) run: SUT processes driven over the wire by one
// generator thread, with the correctness gate.

#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "spans.h"
#include "sut.h"
#include "workload.h"

namespace perfbench {

/// One reported metric; `samples` is the sample count behind a percentile
/// or median (0 when the value is a single measurement).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

/// Correctness bookkeeping: every checked operation counts as attempted,
/// every mismatch as failed, and the first few mismatches are described.
struct Gate {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> notes;
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (notes.size() < 20) notes.push_back(what);
    }
  }
  void CheckMany(uint64_t n, uint64_t bad, const std::string& what) {
    attempted += n;
    failed += bad;
    if (bad > 0 && notes.size() < 20) {
      notes.push_back(what + " (" + std::to_string(bad) + " of " +
                      std::to_string(n) + ")");
    }
  }
};

/// Sends frames [0, frames) of the stream with at most `window` unacked,
/// counting acks out of order or with the wrong count in *bad. Returns the
/// number of acks received.
uint64_t SendWindowed(Wire& wire, const Prepared& p, uint64_t frames,
                      size_t window, uint64_t* bad);

/// Matches a subscriber's ALERT frames against the mirror's per-shard
/// report sequences, in order.
class AlertMatcher {
 public:
  explicit AlertMatcher(const Prepared& p) : p_(&p), cursor_(p.alerts.size(), 0) {}
  /// Consumes one frame. Returns the prediction it matches (its position in
  /// its shard's sequence in *index), or nullptr if it is not the next
  /// predicted alert of its shard. `*alert` holds the parsed frame.
  const ExpectedAlert* Match(const qf::net::FrameView& view,
                             qf::net::WireAlert* alert, size_t* index);
  /// Predicted alerts consumed so far (matching or not).
  uint64_t matched() const { return matched_; }
  /// Adds the stream's checks to `gate`: every prediction must have arrived
  /// intact and nothing else may have.
  void Report(Gate* gate, const std::string& what) const;

 private:
  const Prepared* p_;
  std::vector<size_t> cursor_;
  uint64_t matched_ = 0, wrong_ = 0, unexpected_ = 0;
};

struct Env {
  std::string bin_dir;  // holds qf_server and qf_cluster
  std::string run_dir;  // scratch for WAL directories and SUT logs
  CorePlan cores;
};

/// A running SUT: one qf_server, or backends plus a qf_cluster coordinator.
class Sut {
 public:
  /// Spawns the workload's SUT shape (WAL in `wal_dir` when durable) and
  /// returns once the first CONTROL round trip succeeds — on a cluster,
  /// once kTopology reports every backend kReady. `*setup_s` is the time
  /// from the first spawn to that point.
  bool Boot(const Env& env, const WorkloadSpec& spec, const std::string& wal_dir,
            double* setup_s, std::string* error);
  uint16_t port() const { return port_; }
  uint64_t CpuNs() const;
  uint64_t PeakRssBytes() const;
  void Kill();

 private:
  std::vector<std::unique_ptr<Process>> procs_;
  std::vector<uint16_t> backend_ports_;
  uint16_t port_ = 0;
};

struct ServingResult {
  std::vector<Metric> metrics;
  Gate gate;
  /// Generator health from the open-loop phase.
  double gen_late_p99_us = 0, gen_late_max_us = 0, gen_cpu_util = 0;
  bool generator_behind = false;
};

/// Runs set-up trials, the closed-loop phase and the open-loop phase.
ServingResult RunServing(const Env& env, const Prepared& p, uint64_t seed);

/// Shared phases, also used by the traced run. OpenLoop appends to `out`,
/// so repeated passes pool their samples.
struct OpenLoopOut {
  std::vector<double> ack_us, alert_us, query_us, late_us;
  uint64_t items = 0;
  uint64_t sut_cpu_ns = 0;
  double wall_s = 0;
  double gen_busy_s = 0;
  std::unordered_set<uint64_t> reported;
};
/// One open-loop pass of the whole stream at the workload's rate, with a
/// subscriber and a QUERY connection alongside, then the correctness gate.
/// With `rec` set, every frame, alert and query is also recorded as a span.
bool OpenLoop(const Prepared& p, Sut& sut, uint64_t seed, Gate* gate,
              OpenLoopOut* out, SpanRecorder* rec);
/// CheckStats then CheckAnswers.
void CheckState(Wire& ctl, uint64_t sent, const std::vector<uint64_t>& keys,
                const std::vector<qf::net::QueryAnswer>& answers, Gate* gate);
/// Drain + kStats: ingested == sent, processed == ingested, no alert drops,
/// no slow-consumer disconnects.
void CheckStats(Wire& ctl, uint64_t sent, Gate* gate);
/// QUERY of every key in `keys`, compared bit for bit with `answers`.
void CheckAnswers(Wire& ctl, const std::vector<uint64_t>& keys,
                  const std::vector<qf::net::QueryAnswer>& answers, Gate* gate);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
