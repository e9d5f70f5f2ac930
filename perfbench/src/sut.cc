#include "sut.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

CorePlan PlanCores() {
  CorePlan plan;
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  plan.online = n < 1 ? 1 : static_cast<int>(n);
  if (plan.online >= 2) {
    plan.pinned = true;
    for (int c = 1; c < plan.online; ++c) plan.sut_cores.push_back(c);
  }
  return plan;
}

void PinSelf(int core) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

bool Process::Spawn(const std::vector<std::string>& argv,
                    const std::vector<int>& cores,
                    const std::string& log_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  int pipefd[2];
  if (pipe2(pipefd, O_CLOEXEC) != 0) return false;
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(pipefd[0]);
    close(pipefd[1]);
    return false;
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    if (!cores.empty()) {
      cpu_set_t set;
      CPU_ZERO(&set);
      for (const int c : cores) CPU_SET(c, &set);
      sched_setaffinity(0, sizeof(set), &set);
    }
    dup2(pipefd[1], STDOUT_FILENO);
    const int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) dup2(log, STDERR_FILENO);
    execv(args[0], args.data());
    _exit(127);
  }
  close(pipefd[1]);
  pid_ = pid;
  out_fd_ = pipefd[0];
  out_buf_.clear();
  return true;
}

bool Process::AwaitPort(uint64_t deadline_ns, uint16_t* port) {
  static const char kBanner[] = "listening on ";
  while (NowNs() < deadline_ns) {
    const size_t at = out_buf_.find(kBanner);
    if (at != std::string::npos) {
      const size_t colon = out_buf_.find(':', at + sizeof(kBanner) - 1);
      const size_t space = out_buf_.find(' ', colon == std::string::npos ? at : colon);
      if (colon != std::string::npos && space != std::string::npos) {
        *port = static_cast<uint16_t>(
            std::atoi(out_buf_.substr(colon + 1, space - colon - 1).c_str()));
        return *port != 0;
      }
    }
    pollfd pfd{out_fd_, POLLIN, 0};
    if (poll(&pfd, 1, 1) > 0) {
      char buf[4096];
      const ssize_t n = read(out_fd_, buf, sizeof(buf));
      if (n <= 0) return false;  // child exited before its banner
      out_buf_.append(buf, static_cast<size_t>(n));
    }
  }
  return false;
}

void Process::Kill() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    close(out_fd_);
    out_fd_ = -1;
  }
}

uint64_t Process::CpuNs() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0;
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 overall, i.e. the 12th and 13th after ")".
  const size_t close_paren = line.rfind(')');
  if (close_paren == std::string::npos) return 0;
  std::istringstream rest(line.substr(close_paren + 2));
  std::string field;
  uint64_t utime = 0, stime = 0;
  for (int i = 1; i <= 13 && rest >> field; ++i) {
    if (i == 12) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 13) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  const long hz = sysconf(_SC_CLK_TCK);
  return (utime + stime) * (1000000000ull / static_cast<uint64_t>(hz));
}

uint64_t Process::PeakRssBytes() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024ull;
    }
  }
  return 0;
}

Wire::~Wire() {
  if (fd_ >= 0) close(fd_);
}

bool Wire::Connect(uint16_t port) {
  if (fd_ >= 0) close(fd_);
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd_);
    fd_ = -1;
    return false;
  }
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd_, F_SETFL, fcntl(fd_, F_GETFL, 0) | O_NONBLOCK);
  decoder_ = qf::net::FrameDecoder();
  out_.clear();
  out_off_ = 0;
  return true;
}

bool Wire::Send(const uint8_t* data, size_t size) {
  if (pending() == 0) {
    out_.clear();
    out_off_ = 0;
    const ssize_t n = send(fd_, data, size, MSG_NOSIGNAL);
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return false;
    const size_t sent = n < 0 ? 0 : static_cast<size_t>(n);
    if (sent == size) return true;
    out_.insert(out_.end(), data + sent, data + size);
    return true;
  }
  out_.insert(out_.end(), data, data + size);
  return Flush();
}

bool Wire::Flush() {
  while (pending() > 0) {
    const ssize_t n = send(fd_, out_.data() + out_off_, pending(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    out_off_ += static_cast<size_t>(n);
  }
  out_.clear();
  out_off_ = 0;
  return true;
}

bool Wire::Pump() {
  uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      if (!decoder_.Append(buf, static_cast<size_t>(n))) return false;
      if (static_cast<size_t>(n) < sizeof(buf)) return true;
      continue;
    }
    if (n == 0) return false;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno != EINTR) return false;
  }
}

bool Wire::RoundTrip(const std::vector<uint8_t>& request,
                     qf::net::FrameType want, std::vector<uint8_t>* payload,
                     uint64_t deadline_ns) {
  if (!Send(request)) return false;
  while (NowNs() < deadline_ns) {
    if (!Flush()) return false;
    qf::net::FrameView view;
    for (;;) {
      const auto r = Next(&view);
      if (r == qf::net::FrameDecoder::Result::kError) return false;
      if (r == qf::net::FrameDecoder::Result::kNeedMore) break;
      if (view.type == want) {
        payload->assign(view.payload.begin(), view.payload.end());
        return true;
      }
    }
    WaitReadable(1);
    if (!Pump()) return false;
  }
  return false;
}

void Wire::WaitReadable(int timeout_ms) {
  pollfd pfd{fd_, POLLIN, 0};
  poll(&pfd, 1, timeout_ms);
}

bool Control(Wire& wire, qf::net::ControlOp op,
             const std::vector<uint8_t>& op_payload,
             qf::net::ControlResult* result, uint64_t deadline_ns) {
  std::vector<uint8_t> request;
  qf::net::EncodeControlTo(1, op, op_payload, &request);
  std::vector<uint8_t> payload;
  if (!wire.RoundTrip(request, qf::net::FrameType::kControlResult, &payload,
                      deadline_ns)) {
    return false;
  }
  return qf::net::ParseControlResult(payload, result) &&
         result->status == qf::net::ControlStatus::kOk;
}

}  // namespace perfbench
