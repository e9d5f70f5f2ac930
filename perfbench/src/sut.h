// System-under-test processes and the generator's wire connections.
//
// The SUT runs as separate processes (qf_server, qf_cluster) started from
// the built binaries. Each child gets the cores the benchmark reserves for
// the SUT as its affinity mask before exec, and dies with the benchmark
// (PR_SET_PDEATHSIG). CPU time and peak RSS are read from /proc.

#ifndef PERFBENCH_SUT_H_
#define PERFBENCH_SUT_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.h"

namespace perfbench {

uint64_t NowNs();

/// Cores: the generator takes core 0, the SUT the rest. With fewer than two
/// online cores nothing is pinned.
struct CorePlan {
  int online = 1;
  bool pinned = false;
  int generator_core = 0;
  std::vector<int> sut_cores;
};
CorePlan PlanCores();
void PinSelf(int core);

class Process {
 public:
  Process() = default;
  ~Process() { Kill(); }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  /// fork + exec `argv` with `cores` as its affinity mask (empty = any) and
  /// stdout on a pipe; stderr goes to `log_path`.
  bool Spawn(const std::vector<std::string>& argv, const std::vector<int>& cores,
             const std::string& log_path);
  /// Reads the child's stdout until its "listening on HOST:PORT" banner.
  bool AwaitPort(uint64_t deadline_ns, uint16_t* port);
  /// SIGKILL and reap. Idempotent.
  void Kill();

  /// utime + stime over all threads, in ns (/proc/<pid>/stat).
  uint64_t CpuNs() const;
  /// Peak resident set (VmHWM, /proc/<pid>/status), in bytes.
  uint64_t PeakRssBytes() const;

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string out_buf_;
};

/// Non-blocking client connection over the wire protocol.
class Wire {
 public:
  Wire() = default;
  ~Wire();
  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  bool Connect(uint16_t port);
  /// Queues bytes and writes what the socket takes now.
  bool Send(const uint8_t* data, size_t size);
  bool Send(const std::vector<uint8_t>& bytes) {
    return Send(bytes.data(), bytes.size());
  }
  /// Writes queued bytes; false on a socket error.
  bool Flush();
  size_t pending() const { return out_.size() - out_off_; }
  /// Reads what is available without blocking; false on close or error.
  bool Pump();
  /// Next decoded frame (valid until the next Pump/Next).
  qf::net::FrameDecoder::Result Next(qf::net::FrameView* out) {
    return decoder_.NextView(out);
  }
  /// Blocking helper: send `request`, then read until a frame of type
  /// `want` arrives (other frames are skipped) or the deadline passes.
  bool RoundTrip(const std::vector<uint8_t>& request, qf::net::FrameType want,
                 std::vector<uint8_t>* payload, uint64_t deadline_ns);
  /// Waits (poll) until readable or `timeout_ms`.
  void WaitReadable(int timeout_ms);

 private:
  int fd_ = -1;
  qf::net::FrameDecoder decoder_;
  std::vector<uint8_t> out_;
  size_t out_off_ = 0;
};

/// One CONTROL round trip; on success `*result` holds the parsed reply.
bool Control(Wire& wire, qf::net::ControlOp op,
             const std::vector<uint8_t>& op_payload,
             qf::net::ControlResult* result, uint64_t deadline_ns);

}  // namespace perfbench

#endif  // PERFBENCH_SUT_H_
