#include "cluster/coordinator.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "cluster/coalesce.h"
#include "cluster/topology.h"
#include "common/time.h"
#include "net/client.h"
#include "obs/instrument.h"
#include "obs/registry.h"
#include "parallel/park.h"

namespace qf::cluster {
namespace {

using net::BackendState;
using net::ControlOp;
using net::ControlStatus;
using net::ErrorCode;
using net::FrameDecoder;
using net::FrameType;
using net::FrameView;
using net::WireStats;

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

uint64_t NowMs() { return MonotonicNanos() / 1000000ull; }

#if QF_METRICS
/// Coordinator data-plane series (DESIGN.md §16.5), visible through the
/// coordinator's own kMetrics rollup and qf_top --connect.
struct ClusterMetrics {
  obs::Counter& coalesced_flushes;
  obs::Counter& coalesced_items;
  obs::Gauge& ledger_depth;
  obs::Histogram& batch_items;
  obs::Histogram& flush_interval_ns;

  static ClusterMetrics& Get() {
    static ClusterMetrics* m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
      return new ClusterMetrics{
          r.GetCounter("qf_cluster_coalesced_flushes_total",
                       "coalesced INGEST frames flushed to backends"),
          r.GetCounter("qf_cluster_coalesced_items_total",
                       "items carried by coalesced backend INGEST frames"),
          r.GetGauge("qf_cluster_credit_ledger_depth",
                     "unacked coalesced frames across backend connections"),
          r.GetHistogram("qf_cluster_coalesced_batch_items",
                         "items per coalesced backend INGEST frame", "items"),
          r.GetHistogram("qf_cluster_flush_interval_ns",
                         "time between coalesced flushes on one backend "
                         "connection",
                         "ns"),
      };
    }();
    return *m;
  }
};
#endif

/// Iovec-based write queue: frames append into the tail block (or arrive as
/// whole moved-in blocks from the coalescer — zero copy), and FlushTo hands
/// the kernel as many blocks per syscall as sendmsg takes. Spent blocks are
/// recycled so a steady flow allocates nothing.
class WriteQueue {
 public:
  enum class FlushResult { kDrained, kBlocked, kError };

  bool empty() const { return bytes_ == 0; }
  size_t bytes() const { return bytes_; }

  /// Appends one encoded frame via `encode(std::vector<uint8_t>*)`.
  template <typename Fn>
  void Append(Fn&& encode) {
    std::vector<uint8_t>& tail = TailBlock();
    const size_t before = tail.size();
    encode(&tail);
    bytes_ += tail.size() - before;
  }

  /// Takes ownership of a fully formed frame block (coalesced flushes and
  /// locally encoded replies land here without a byte copy).
  void PushBlock(std::vector<uint8_t> block) {
    if (block.empty()) return;
    bytes_ += block.size();
    blocks_.push_back(std::move(block));
  }

  /// Hands back a spent block (cleared, capacity kept) for reuse.
  std::vector<uint8_t> TakeSpare() {
    if (spares_.empty()) return {};
    std::vector<uint8_t> v = std::move(spares_.back());
    spares_.pop_back();
    v.clear();
    return v;
  }

  FlushResult FlushTo(int fd) {
    while (bytes_ > 0) {
      iovec iov[kMaxIov];
      size_t n_iov = 0;
      size_t off = head_off_;
      for (const std::vector<uint8_t>& b : blocks_) {
        if (n_iov == kMaxIov) break;
        iov[n_iov].iov_base =
            const_cast<uint8_t*>(b.data()) + off;
        iov[n_iov].iov_len = b.size() - off;
        ++n_iov;
        off = 0;
      }
      msghdr mh{};
      mh.msg_iov = iov;
      mh.msg_iovlen = n_iov;
      const ssize_t n = sendmsg(fd, &mh, MSG_NOSIGNAL);
      if (n > 0) {
        Consume(static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return FlushResult::kBlocked;
      }
      if (n < 0 && errno == EINTR) continue;
      return FlushResult::kError;
    }
    return FlushResult::kDrained;
  }

  void Clear() {
    blocks_.clear();
    head_off_ = 0;
    bytes_ = 0;
  }

 private:
  static constexpr size_t kMaxIov = 64;
  static constexpr size_t kTailSoftCapBytes = 64u << 10;
  static constexpr size_t kMaxSpares = 4;
  static constexpr size_t kMaxSpareCapacity = 1u << 20;

  std::vector<uint8_t>& TailBlock() {
    if (blocks_.empty() || blocks_.back().size() >= kTailSoftCapBytes) {
      blocks_.push_back(TakeSpare());
    }
    return blocks_.back();
  }

  void Consume(size_t n) {
    bytes_ -= n;
    while (n > 0) {
      std::vector<uint8_t>& f = blocks_.front();
      const size_t avail = f.size() - head_off_;
      if (n < avail) {
        head_off_ += n;
        return;
      }
      n -= avail;
      head_off_ = 0;
      if (spares_.size() < kMaxSpares &&
          f.capacity() <= kMaxSpareCapacity) {
        spares_.push_back(std::move(f));
      }
      blocks_.pop_front();
    }
  }

  std::deque<std::vector<uint8_t>> blocks_;
  size_t head_off_ = 0;  // flushed bytes of blocks_.front()
  size_t bytes_ = 0;
  std::vector<std::vector<uint8_t>> spares_;
};

}  // namespace

struct Coordinator::Impl {
  explicit Impl(const CoordinatorOptions& opts) : opts(opts) {}

  CoordinatorOptions opts;
  std::string error;
  uint16_t bound_port = 0;
  bool started = false;
  size_t co_cap_bytes = 0;  // effective coalescing-buffer byte cap

  std::atomic<bool> stop_flag{false};
  std::atomic<int> live_reactors{0};

  // ---- shared counters (any reactor updates, kStats/kTopology read) -----
  std::atomic<uint64_t> total_items_acked{0};
  std::atomic<uint64_t> accepts{0};
  std::atomic<uint64_t> active_clients{0};
  std::atomic<uint64_t> slow_disconnects{0};
  std::atomic<uint64_t> migrations_completed{0};
  std::atomic<uint64_t> alert_gaps{0};

  /// Reactor x backend liveness. kTopology reports the MIN state across
  /// reactors per backend, so "ready" means every loop can route to it.
  std::vector<std::atomic<uint8_t>> state_matrix;

  // ---- per-client state -------------------------------------------------
  // Replies to one client go out strictly in request order: every request
  // appends a PendingReply and completed entries drain from the front.
  // shared_ptr because ledger credits outlive a client that disconnects
  // mid-request (completions then no-op via the fd/gen lookup).
  struct PendingReply {
    enum Kind { kIngestR, kQueryR, kControlFan, kLocal };
    Kind kind = kLocal;
    uint64_t token = 0;  // the client's token
    int outstanding = 0;
    bool failed = false;
    std::string fail_msg;
    // kIngestR
    uint32_t count = 0;
    // kQueryR
    std::vector<net::QueryAnswer> answers;
    // kControlFan
    ControlOp op = ControlOp::kStats;
    ControlStatus status = ControlStatus::kOk;
    WireStats stats_sum;
    obs::MetricsSnapshot metrics;
    bool metrics_any = false;
    // kLocal: a fully encoded reply frame.
    std::vector<uint8_t> local_frame;
  };

  struct ClientConn {
    int fd = -1;
    uint64_t gen = 0;
    FrameDecoder decoder;
    WriteQueue outq;
    bool want_write = false;
    bool subscribed = false;
    bool closing = false;  // terminal ERROR queued; drop after flush
    uint64_t alert_seq = 0;
    std::deque<std::shared_ptr<PendingReply>> replies;

    explicit ClientConn(const FrameDecoder::Options& dopts)
        : decoder(dopts) {}
  };

  /// One client request folded into a coalesced backend frame.
  struct Credit {
    std::shared_ptr<PendingReply> reply;
    int client_fd = -1;
    uint64_t client_gen = 0;
  };

  /// QUERY/CONTROL sub-request bookkeeping (INGEST uses the credit ledger).
  struct SubOp {
    enum Kind { kQuery, kControl };
    Kind kind = kQuery;
    int client_fd = -1;
    uint64_t client_gen = 0;
    std::shared_ptr<PendingReply> reply;
    std::vector<uint32_t> positions;  // kQuery: answer slots, in key order
  };

  struct Backend {
    uint32_t idx = 0;
    std::string host;
    uint16_t port = 0;
    BackendState state = BackendState::kDisconnected;
    int fd = -1;
    bool connecting = false;  // nonblocking connect() in flight
    uint64_t connect_deadline_ms = 0;
    FrameDecoder decoder;
    WriteQueue outq;
    bool want_write = false;
    uint64_t next_token = 1;
    uint64_t subscribe_token = 0;  // upstream-subscription handshake
    std::unordered_map<uint64_t, SubOp> inflight;
    // Coalescing data plane: the open buffer, its credits, and the FIFO
    // ack ledger for flushed frames.
    IngestFrameBuilder co_buf;
    std::vector<Credit> co_credits;
    uint64_t credit_epoch = 0;  // last ingest_epoch that added a credit
    uint64_t co_open_ns = 0;    // first append into the open buffer
    uint64_t last_flush_ns = 0;
    CreditLedger<Credit> ledger;
    uint64_t alert_rx_seq = 0;  // per-connection contiguity check
    // Coalesced-frame FIFO counters; the migration fence barrier waits on
    // acked catching up to sent.
    uint64_t ingest_sent = 0;
    uint64_t ingest_acked = 0;
    int backoff_ms = 0;
    uint64_t next_attempt_ms = 0;
    obs::Gauge* queued_gauge = nullptr;
    int64_t queued_reported = 0;

    explicit Backend(const FrameDecoder::Options& dopts) : decoder(dopts) {}
  };

  struct FencedBatch {
    std::shared_ptr<PendingReply> reply;
    int client_fd = -1;
    uint64_t client_gen = 0;
    std::vector<Item> items;
  };

  /// One event loop: its own accept socket (SO_REUSEPORT when reactors >
  /// 1), epoll, clients, backend connections, slot-table copy and fence
  /// state. Nothing here is touched by any other thread except through the
  /// command queue.
  struct Reactor {
    Impl* impl = nullptr;
    uint32_t ridx = 0;
    int listen_fd = -1;
    int epoll_fd = -1;
    int wake_fd = -1;
    std::thread thread;

    std::mutex cmd_mu;
    std::deque<std::function<void()>> cmds;

    Topology topo;
    std::unordered_map<int, std::unique_ptr<ClientConn>> clients;
    uint64_t next_gen = 1;
    std::vector<Backend> backends;
    std::unordered_map<int, uint32_t> backend_by_fd;

    // ---- migration fence (per loop; the worker rendezvouses all) --------
    bool fenced = false;
    uint32_t fenced_slot = 0;
    std::vector<FencedBatch> fence_buffer;
    bool barrier_armed = false;
    uint32_t barrier_backend = 0;
    uint64_t barrier_target = 0;
    std::shared_ptr<std::promise<bool>> barrier_promise;

    /// Bumped once per client INGEST frame (and per fence-replay batch):
    /// a backend adds at most one credit per epoch per open buffer.
    uint64_t ingest_epoch = 0;

    // Scatter arenas, sized once at Start; only touched entries are
    // cleared between frames (no per-frame resize/clear churn).
    std::vector<std::vector<uint64_t>> scatter_keys;
    std::vector<std::vector<uint32_t>> scatter_pos;
    std::vector<uint32_t> scatter_touched;
    std::vector<Item> fenced_scratch;
  };
  std::vector<std::unique_ptr<Reactor>> reactors;

  // ---- migration --------------------------------------------------------
  std::atomic<bool> migration_active{false};
  std::mutex migration_mu;  // guards worker join/spawn across reactors
  std::thread migration_worker;
  Reactor* migrate_reactor = nullptr;
  std::shared_ptr<PendingReply> migrate_reply;
  int migrate_client_fd = -1;
  uint64_t migrate_client_gen = 0;

  FrameDecoder::Options DecoderOpts() const {
    FrameDecoder::Options d;
    d.max_frame_bytes = opts.max_frame_bytes;
    return d;
  }

  // ======================================================================
  // Lifecycle

  bool Fail(const std::string& why) {
    error = why;
    return false;
  }

  bool BindReactor(Reactor& r, bool reuseport) {
    r.listen_fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (r.listen_fd < 0) {
      return Fail("socket: " + std::string(strerror(errno)));
    }
    int one = 1;
    setsockopt(r.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (reuseport) {
      if (setsockopt(r.listen_fd, SOL_SOCKET, SO_REUSEPORT, &one,
                     sizeof(one)) != 0) {
        return Fail("SO_REUSEPORT: " + std::string(strerror(errno)));
      }
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    // Reactor 0 binds the configured port (possibly 0 = ephemeral) and
    // publishes the result; later reactors join the same bound port.
    addr.sin_port = htons(r.ridx == 0 ? opts.port : bound_port);
    if (inet_pton(AF_INET, opts.host.c_str(), &addr.sin_addr) != 1) {
      return Fail("bad listen host: " + opts.host);
    }
    if (bind(r.listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
      return Fail("bind: " + std::string(strerror(errno)));
    }
    if (listen(r.listen_fd, 128) != 0) {
      return Fail("listen: " + std::string(strerror(errno)));
    }
    if (r.ridx == 0) {
      socklen_t len = sizeof(addr);
      if (getsockname(r.listen_fd, reinterpret_cast<sockaddr*>(&addr),
                      &len) != 0) {
        return Fail("getsockname: " + std::string(strerror(errno)));
      }
      bound_port = ntohs(addr.sin_port);
    }
    return SetNonBlocking(r.listen_fd) ||
           Fail("fcntl: " + std::string(strerror(errno)));
  }

  bool Start() {
    if (opts.backends.empty()) return Fail("no backends configured");
    if (opts.num_slots == 0) return Fail("num_slots must be positive");
    if (opts.reactors < 1) return Fail("reactors must be >= 1");
    const size_t n_backends = opts.backends.size();
    const size_t n_reactors = static_cast<size_t>(opts.reactors);
    // The coalescing cap must fit at least one item under the frame cap.
    co_cap_bytes = std::clamp(opts.coalesce_max_bytes,
                              IngestFrameBuilder::kPrefixBytes +
                                  IngestFrameBuilder::kItemBytes,
                              opts.max_frame_bytes);
    state_matrix =
        std::vector<std::atomic<uint8_t>>(n_reactors * n_backends);

    for (size_t ri = 0; ri < n_reactors; ++ri) {
      auto r = std::make_unique<Reactor>();
      r->impl = this;
      r->ridx = static_cast<uint32_t>(ri);
      r->backends.reserve(n_backends);
      for (size_t b = 0; b < n_backends; ++b) {
        Backend be(DecoderOpts());
        be.idx = static_cast<uint32_t>(b);
        if (!SplitHostPort(opts.backends[b], &be.host, &be.port)) {
          CloseReactorFds();
          return Fail("bad backend address: " + opts.backends[b]);
        }
        be.backoff_ms = opts.backend_backoff_initial_ms;
#if QF_METRICS
        be.queued_gauge = &obs::MetricsRegistry::Global().GetGauge(
            "qf_cluster_backend_queued_bytes{backend=\"" +
                std::to_string(b) + "\"}",
            "bytes queued (coalescing + write queue) toward one backend");
#endif
        r->backends.push_back(std::move(be));
      }
      r->topo = Topology(opts.backends, opts.num_slots);
      r->scatter_keys.resize(n_backends);
      r->scatter_pos.resize(n_backends);
      if (!BindReactor(*r, n_reactors > 1)) {
        if (r->listen_fd >= 0) close(r->listen_fd);
        CloseReactorFds();
        return false;
      }
      r->epoll_fd = epoll_create1(EPOLL_CLOEXEC);
      r->wake_fd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
      if (r->epoll_fd < 0 || r->wake_fd < 0) {
        const std::string why = strerror(errno);
        if (r->listen_fd >= 0) close(r->listen_fd);
        if (r->epoll_fd >= 0) close(r->epoll_fd);
        if (r->wake_fd >= 0) close(r->wake_fd);
        CloseReactorFds();
        return Fail("epoll/eventfd: " + why);
      }
      EpollAdd(*r, r->listen_fd, EPOLLIN);
      EpollAdd(*r, r->wake_fd, EPOLLIN);
      reactors.push_back(std::move(r));
    }
    live_reactors.store(static_cast<int>(n_reactors),
                        std::memory_order_release);
    for (auto& r : reactors) {
      Reactor* rp = r.get();
      rp->thread = std::thread([this, rp] { Loop(*rp); });
    }
    started = true;
    return true;
  }

  void Stop() {
    if (!started) return;
    stop_flag.store(true, std::memory_order_release);
    for (auto& r : reactors) Wake(*r);
    for (auto& r : reactors) {
      if (r->thread.joinable()) r->thread.join();
    }
    // A migration worker may still be parked on a fence/flip future whose
    // command a loop never drained. Keep draining (commands are stop-aware
    // and fail fast) until the worker exits.
    {
      std::lock_guard<std::mutex> lock(migration_mu);
      if (migration_worker.joinable()) {
        std::atomic<bool> joined{false};
        std::thread joiner([&] {
          migration_worker.join();
          joined.store(true, std::memory_order_release);
        });
        while (!joined.load(std::memory_order_acquire)) {
          for (auto& r : reactors) DrainCommands(*r);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        joiner.join();
      }
    }
    for (auto& r : reactors) DrainCommands(*r);
    CloseReactorFds();  // every thread that can Wake() has exited by here
    started = false;
  }

  void CloseReactorFds() {
    for (auto& r : reactors) {
      if (r->listen_fd >= 0) close(r->listen_fd);
      if (r->wake_fd >= 0) close(r->wake_fd);
      if (r->epoll_fd >= 0) close(r->epoll_fd);
      r->listen_fd = r->wake_fd = r->epoll_fd = -1;
    }
  }

  void Wake(Reactor& r) {
    if (r.wake_fd >= 0) {
      uint64_t one = 1;
      [[maybe_unused]] ssize_t n = write(r.wake_fd, &one, sizeof(one));
    }
  }

  void EpollAdd(Reactor& r, int fd, uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    epoll_ctl(r.epoll_fd, EPOLL_CTL_ADD, fd, &ev);
  }

  void EpollMod(Reactor& r, int fd, uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    epoll_ctl(r.epoll_fd, EPOLL_CTL_MOD, fd, &ev);
  }

  void EpollDel(Reactor& r, int fd) {
    epoll_ctl(r.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  }

  void SetBackendState(Reactor& r, Backend& b, BackendState s) {
    b.state = s;
    state_matrix[r.ridx * opts.backends.size() + b.idx].store(
        static_cast<uint8_t>(s), std::memory_order_relaxed);
  }

  // ======================================================================
  // Command queue

  void RunInLoop(Reactor& r, std::function<void()> fn) {
    {
      std::lock_guard<std::mutex> lock(r.cmd_mu);
      r.cmds.push_back(std::move(fn));
    }
    Wake(r);
  }

  void DrainCommands(Reactor& r) {
    std::deque<std::function<void()>> batch;
    {
      std::lock_guard<std::mutex> lock(r.cmd_mu);
      batch.swap(r.cmds);
    }
    for (auto& fn : batch) fn();
  }

  // ======================================================================
  // Event loop

  /// Epoll timeout honoring coalesce deadlines: with held buffers the loop
  /// sleeps only until the nearest deadline, spin-polling (CpuRelax) the
  /// last sub-millisecond stretch instead of oversleeping a full tick.
  int LoopTimeoutMs(Reactor& r) {
    if (opts.coalesce_deadline_us == 0) return 50;
    uint64_t nearest = UINT64_MAX;
    for (const Backend& b : r.backends) {
      if (!b.co_buf.empty()) {
        nearest = std::min<uint64_t>(
            nearest, b.co_open_ns + opts.coalesce_deadline_us * 1000ull);
      }
    }
    if (nearest == UINT64_MAX) return 50;
    const uint64_t now_ns = MonotonicNanos();
    if (nearest <= now_ns) return 0;
    const uint64_t diff = nearest - now_ns;
    if (diff < 1000000ull) {
      CpuRelax();  // parallel/park.h: de-pipeline the sub-ms poll
      return 0;
    }
    return static_cast<int>(std::min<uint64_t>(50, diff / 1000000ull));
  }

  void Loop(Reactor& r) {
    epoll_event events[128];
    while (!stop_flag.load(std::memory_order_acquire)) {
      DrainCommands(r);
      const uint64_t now = NowMs();
      KickBackendConnects(r, now);
      const int n = epoll_wait(r.epoll_fd, events, 128, LoopTimeoutMs(r));
      if (n < 0 && errno != EINTR) break;
      // Handle accepts last: a close earlier in the batch frees an fd that
      // accept() may immediately reuse, and stale events for the old fd
      // must not be misattributed to the new connection.
      bool accept_ready = false;
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == r.listen_fd) {
          accept_ready = true;
        } else if (fd == r.wake_fd) {
          uint64_t junk;
          while (read(r.wake_fd, &junk, sizeof(junk)) > 0) {
          }
        } else if (auto it = r.backend_by_fd.find(fd);
                   it != r.backend_by_fd.end()) {
          HandleBackendEvent(r, r.backends[it->second], events[i].events);
        } else if (r.clients.count(fd) != 0) {
          HandleClientEvent(r, fd, events[i].events);
        }
      }
      if (accept_ready) AcceptClients(r);
      FlushDueCoalesce(r);
    }
    // Unblock a migration worker parked on a fence/flip future: drain the
    // remaining commands (they are stop-aware and fail fast), then fulfill
    // any ack barrier armed before the stop with failure.
    DrainCommands(r);
    if (r.barrier_armed) {
      r.barrier_armed = false;
      r.barrier_promise->set_value(false);
    }
    active_clients.fetch_sub(r.clients.size(), std::memory_order_relaxed);
    for (auto& [fd, conn] : r.clients) close(fd);
    r.clients.clear();
    for (Backend& b : r.backends) {
      if (b.fd >= 0) close(b.fd);
      b.fd = -1;
      b.outq.Clear();
      b.co_buf.Reset();
      UpdateQueuedGauge(b);
#if QF_METRICS
      const size_t depth = b.ledger.depth();
      if (depth > 0) {
        ClusterMetrics::Get().ledger_depth.Add(
            -static_cast<int64_t>(depth));
      }
#endif
      b.ledger.TakeAll();
    }
    r.backend_by_fd.clear();
    // listen/wake/epoll stay open: Wake() writes wake_fd from other
    // threads, so Stop() closes them only after every waker has joined.
    live_reactors.fetch_sub(1, std::memory_order_release);
  }

  // ======================================================================
  // Client plane

  void AcceptClients(Reactor& r) {
    while (true) {
      const int fd = accept4(r.listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) break;
      SetNoDelay(fd);
      auto conn = std::make_unique<ClientConn>(DecoderOpts());
      conn->fd = fd;
      conn->gen = r.next_gen++;
      r.clients[fd] = std::move(conn);
      EpollAdd(r, fd, EPOLLIN);
      accepts.fetch_add(1, std::memory_order_relaxed);
      active_clients.fetch_add(1, std::memory_order_relaxed);
    }
  }

  ClientConn* FindClient(Reactor& r, int fd, uint64_t gen) {
    auto it = r.clients.find(fd);
    if (it == r.clients.end() || it->second->gen != gen) return nullptr;
    return it->second.get();
  }

  void CloseClient(Reactor& r, int fd) {
    auto it = r.clients.find(fd);
    if (it == r.clients.end()) return;
    EpollDel(r, fd);
    close(fd);
    r.clients.erase(it);
    active_clients.fetch_sub(1, std::memory_order_relaxed);
  }

  void UpdateClientInterest(Reactor& r, ClientConn* c) {
    const bool want = !c->outq.empty();
    if (want != c->want_write) {
      c->want_write = want;
      EpollMod(r, c->fd, EPOLLIN | (want ? EPOLLOUT : 0u));
    }
  }

  /// Flushes as much queued output as the socket takes. Returns false if
  /// the connection died (already closed).
  bool FlushClient(Reactor& r, ClientConn* c) {
    switch (c->outq.FlushTo(c->fd)) {
      case WriteQueue::FlushResult::kError:
        CloseClient(r, c->fd);
        return false;
      case WriteQueue::FlushResult::kDrained:
        if (c->closing) {
          CloseClient(r, c->fd);
          return false;
        }
        break;
      case WriteQueue::FlushResult::kBlocked:
        if (c->outq.bytes() > opts.max_write_queue_bytes) {
          slow_disconnects.fetch_add(1, std::memory_order_relaxed);
          CloseClient(r, c->fd);
          return false;
        }
        break;
    }
    UpdateClientInterest(r, c);
    return true;
  }

  /// Terminal per connection, like QfServer: queue the ERROR frame, stop
  /// processing input, drop once it flushed.
  void SendClientError(Reactor& r, ClientConn* c, ErrorCode code,
                       const std::string& message) {
    if (c->closing) return;
    c->outq.Append([&](std::vector<uint8_t>* out) {
      net::EncodeErrorTo(code, message, out);
    });
    c->closing = true;
    FlushClient(r, c);
  }

  void HandleClientEvent(Reactor& r, int fd, uint32_t events) {
    ClientConn* c = r.clients[fd].get();
    if (events & (EPOLLERR | EPOLLHUP)) {
      CloseClient(r, fd);
      return;
    }
    if (events & EPOLLOUT) {
      if (!FlushClient(r, c)) return;
    }
    if ((events & EPOLLIN) == 0) return;
    uint8_t buf[65536];
    while (true) {
      const ssize_t n = recv(fd, buf, sizeof(buf), 0);
      if (n == 0) {
        CloseClient(r, fd);
        return;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        CloseClient(r, fd);
        return;
      }
      if (!c->decoder.Append(buf, static_cast<size_t>(n))) {
        SendClientError(r, c, ErrorCode::kMalformedFrame,
                        c->decoder.error());
        return;
      }
      FrameView frame;
      while (!c->closing &&
             c->decoder.NextView(&frame) == FrameDecoder::Result::kFrame) {
        DispatchClientFrame(r, c, frame);
        if (r.clients.count(fd) == 0) return;  // closed mid-dispatch
      }
      if (c->decoder.poisoned()) {
        SendClientError(r, c, ErrorCode::kMalformedFrame,
                        c->decoder.error());
        return;
      }
    }
  }

  void DispatchClientFrame(Reactor& r, ClientConn* c,
                           const FrameView& frame) {
    switch (frame.type) {
      case FrameType::kIngest:
        HandleIngest(r, c, frame);
        return;
      case FrameType::kQuery:
        HandleQuery(r, c, frame);
        return;
      case FrameType::kSubscribe:
        HandleSubscribe(r, c, frame);
        return;
      case FrameType::kControl:
        HandleControl(r, c, frame);
        return;
      default:
        SendClientError(r, c, ErrorCode::kUnsupportedType,
                        std::string("unexpected frame type: ") +
                            net::FrameTypeName(frame.type));
        return;
    }
  }

  /// Queues an already-complete locally-answered reply, preserving the
  /// per-client response order (earlier fanned-out requests flush first).
  void QueueLocalReply(Reactor& r, ClientConn* c,
                       std::vector<uint8_t> frame) {
    auto reply = std::make_shared<PendingReply>();
    reply->kind = PendingReply::kLocal;
    reply->local_frame = std::move(frame);
    c->replies.push_back(std::move(reply));
    TryFlushReplies(r, c);
  }

  void QueueControlStatus(Reactor& r, ClientConn* c, uint64_t token,
                          ControlOp op, ControlStatus status) {
    std::vector<uint8_t> frame;
    net::EncodeControlResultTo(token, op, status, {}, &frame);
    QueueLocalReply(r, c, std::move(frame));
  }

  void TryFlushReplies(Reactor& r, ClientConn* c) {
    while (!c->replies.empty()) {
      PendingReply& reply = *c->replies.front();
      if (reply.failed) {
        SendClientError(r, c, ErrorCode::kInternal, reply.fail_msg);
        return;
      }
      if (reply.outstanding > 0) break;
      AppendReplyFrame(r, c, reply);
      c->replies.pop_front();
    }
    FlushClient(r, c);
  }

  void AppendReplyFrame(Reactor&, ClientConn* c, PendingReply& reply) {
    switch (reply.kind) {
      case PendingReply::kLocal:
        c->outq.PushBlock(std::move(reply.local_frame));
        return;
      case PendingReply::kIngestR: {
        const uint64_t total =
            total_items_acked.fetch_add(reply.count,
                                        std::memory_order_relaxed) +
            reply.count;
        c->outq.Append([&](std::vector<uint8_t>* out) {
          net::EncodeIngestAckTo(reply.token, reply.count, total, out);
        });
        return;
      }
      case PendingReply::kQueryR:
        c->outq.Append([&](std::vector<uint8_t>* out) {
          net::EncodeQueryResultTo(reply.token, reply.answers, out);
        });
        return;
      case PendingReply::kControlFan: {
        std::vector<uint8_t> payload;
        if (reply.status == ControlStatus::kOk) {
          if (reply.op == ControlOp::kStats) {
            // Sum of backend stats, except the connection-local fields,
            // which describe this coordinator's own client plane.
            reply.stats_sum.accepts =
                accepts.load(std::memory_order_relaxed);
            reply.stats_sum.active_connections =
                active_clients.load(std::memory_order_relaxed);
            reply.stats_sum.slow_disconnects =
                slow_disconnects.load(std::memory_order_relaxed);
            payload.resize(sizeof(WireStats));
            std::memcpy(payload.data(), &reply.stats_sum,
                        sizeof(WireStats));
          } else if (reply.op == ControlOp::kMetrics) {
            net::EncodeMetricsPayloadTo(reply.metrics, &payload);
            if (payload.size() + 10 > opts.max_frame_bytes) {
              payload.clear();
              reply.status = ControlStatus::kRejected;
            }
          }
        }
        c->outq.Append([&](std::vector<uint8_t>* out) {
          net::EncodeControlResultTo(reply.token, reply.op, reply.status,
                                     payload, out);
        });
        return;
      }
    }
  }

  /// Folds the coordinator's own qf_cluster_* series into a kMetrics
  /// rollup, so the coalescing data plane is observable through the same
  /// fan-out that returns backend metrics (qf_top --connect). Called right
  /// after the fan-out's builder flush: by the time the backends answer,
  /// the acks have drained the credit ledger and its depth would read 0.
  void MergeLocalClusterMetrics(PendingReply& reply) {
#if QF_METRICS
    ClusterMetrics::Get();  // ensure the series exist even before traffic
    const obs::MetricsSnapshot full =
        obs::MetricsRegistry::Global().Snapshot();
    obs::MetricsSnapshot mine;
    mine.wall_ns = full.wall_ns;
    mine.mono_ns = full.mono_ns;
    const auto is_cluster = [](const std::string& name) {
      return name.rfind("qf_cluster_", 0) == 0;
    };
    for (const auto& s : full.counters) {
      if (is_cluster(s.name)) mine.counters.push_back(s);
    }
    for (const auto& s : full.gauges) {
      if (is_cluster(s.name)) mine.gauges.push_back(s);
    }
    for (const auto& s : full.histograms) {
      if (is_cluster(s.name)) mine.histograms.push_back(s);
    }
    if (!reply.metrics_any) {
      reply.metrics = std::move(mine);
      reply.metrics_any = true;
    } else {
      obs::MergeSnapshotInto(mine, &reply.metrics);
    }
#else
    (void)reply;
#endif
  }

  // ---- INGEST: the zero-copy coalescing hot path ------------------------

  void UpdateQueuedGauge(Backend& b) {
#if QF_METRICS
    if (b.queued_gauge == nullptr) return;
    const int64_t cur =
        static_cast<int64_t>(b.outq.bytes() + b.co_buf.bytes());
    if (cur != b.queued_reported) {
      b.queued_gauge->Add(cur - b.queued_reported);
      b.queued_reported = cur;
    }
#endif
  }

  /// Seals the open coalescing buffer into one backend INGEST frame: push
  /// the credits into the ack ledger, move the preformatted bytes into the
  /// write queue (no copy), and kick the socket.
  void FlushCoalesce(Reactor& r, Backend& b) {
    if (b.co_buf.empty()) return;
    const uint64_t token = b.next_token++;
    const uint32_t n_items = b.co_buf.items();
    std::vector<uint8_t> block = b.co_buf.Finish(token);
    b.ledger.Push(token, n_items, std::move(b.co_credits));
    b.co_credits.clear();
    b.credit_epoch = 0;
    ++b.ingest_sent;
#if QF_METRICS
    ClusterMetrics& m = ClusterMetrics::Get();
    m.coalesced_flushes.Add(1);
    m.coalesced_items.Add(n_items);
    m.ledger_depth.Add(1);
    m.batch_items.Record(n_items);
    const uint64_t now_ns = MonotonicNanos();
    if (b.last_flush_ns != 0) {
      m.flush_interval_ns.Record(now_ns - b.last_flush_ns);
    }
    b.last_flush_ns = now_ns;
#endif
    b.outq.PushBlock(std::move(block));
    b.co_buf.Provision(b.outq.TakeSpare());
    FlushBackend(r, b);
  }

  /// End-of-tick flush: with no deadline every non-empty buffer flushes
  /// (coalescing exactly what this epoll batch delivered — latency
  /// neutral); with a deadline only expired buffers do.
  void FlushDueCoalesce(Reactor& r) {
    const uint64_t deadline_ns = opts.coalesce_deadline_us * 1000ull;
    const uint64_t now_ns =
        deadline_ns == 0 ? 0 : MonotonicNanos();
    for (Backend& b : r.backends) {
      if (b.co_buf.empty()) {
        UpdateQueuedGauge(b);
        continue;
      }
      if (deadline_ns == 0 || now_ns >= b.co_open_ns + deadline_ns) {
        FlushCoalesce(r, b);
      }
      UpdateQueuedGauge(b);
    }
  }

  /// Appends `n` raw 16-byte item records to backend `b`'s coalescing
  /// buffer on behalf of `reply`, charging one outstanding credit per open
  /// buffer per ingest epoch and flushing mid-append when the buffer
  /// fills. Marks the reply failed (fail fast, like the legacy path) if
  /// the backend is not ready or drops during a flush.
  void AppendToCoalesce(Reactor& r, Backend& b, const uint8_t* records,
                        size_t n,
                        const std::shared_ptr<PendingReply>& reply,
                        int client_fd, uint64_t client_gen) {
    while (n > 0 && !reply->failed) {
      if (b.state != BackendState::kReady) {
        reply->failed = true;
        reply->fail_msg =
            "backend " + opts.backends[b.idx] + " unavailable";
        return;
      }
      const size_t used = b.co_buf.empty()
                              ? IngestFrameBuilder::kPrefixBytes
                              : b.co_buf.bytes();
      if (used + IngestFrameBuilder::kItemBytes > co_cap_bytes) {
        FlushCoalesce(r, b);  // may FailBackend; loop re-checks state
        continue;
      }
      if (b.co_buf.empty()) b.co_open_ns = MonotonicNanos();
      if (b.credit_epoch != r.ingest_epoch) {
        b.credit_epoch = r.ingest_epoch;
        ++reply->outstanding;
        b.co_credits.push_back(Credit{reply, client_fd, client_gen});
      }
      const size_t room =
          (co_cap_bytes - used) / IngestFrameBuilder::kItemBytes;
      const size_t take = std::min(n, room);
      b.co_buf.AppendRecords(records, take);
      records += take * IngestFrameBuilder::kItemBytes;
      n -= take;
    }
  }

  void HandleIngest(Reactor& r, ClientConn* c, const FrameView& frame) {
    // Walk the INGEST payload in place (u64 token, u32 count, count x
    // 16-byte items) — no ParseIngest, no Item vector staging.
    const std::span<const uint8_t> p = frame.payload;
    uint64_t token = 0;
    uint32_t count = 0;
    if (p.size() < 12) {
      SendClientError(r, c, ErrorCode::kBadPayload,
                      "malformed INGEST payload");
      return;
    }
    std::memcpy(&token, p.data(), 8);
    std::memcpy(&count, p.data() + 8, 4);
    if (p.size() != 12 + static_cast<uint64_t>(count) * sizeof(Item)) {
      SendClientError(r, c, ErrorCode::kBadPayload,
                      "malformed INGEST payload");
      return;
    }
    const uint8_t* records = p.data() + 12;

    auto reply = std::make_shared<PendingReply>();
    reply->kind = PendingReply::kIngestR;
    reply->token = token;
    reply->count = count;
    // Guard credit: holds the reply open while this frame is still being
    // classified, so a reentrant ack/failure mid-loop cannot complete it.
    reply->outstanding = 1;
    c->replies.push_back(reply);
    const int fd = c->fd;
    const uint64_t gen = c->gen;
    ++r.ingest_epoch;
    r.fenced_scratch.clear();

    // Classify runs of consecutive same-backend items so the common case
    // (skewed or single-backend traffic) appends whole runs at once.
    size_t run_start = 0;
    uint32_t run_backend = UINT32_MAX;
    const auto flush_run = [&](size_t end) {
      if (run_backend != UINT32_MAX && end > run_start) {
        AppendToCoalesce(r, r.backends[run_backend],
                         records + run_start * sizeof(Item),
                         end - run_start, reply, fd, gen);
      }
      run_start = end;
    };
    for (uint32_t i = 0; i < count && !reply->failed; ++i) {
      uint64_t key = 0;
      std::memcpy(&key, records + static_cast<size_t>(i) * sizeof(Item),
                  8);
      const uint32_t slot = r.topo.SlotOf(key);
      if (r.fenced && slot == r.fenced_slot) {
        flush_run(i);
        run_backend = UINT32_MAX;
        run_start = i + 1;
        Item item;
        std::memcpy(&item,
                    records + static_cast<size_t>(i) * sizeof(Item),
                    sizeof(Item));
        r.fenced_scratch.push_back(item);
        continue;
      }
      const uint32_t owner = r.topo.OwnerOf(slot);
      if (owner != run_backend) {
        flush_run(i);
        run_backend = owner;
      }
    }
    if (!reply->failed) flush_run(count);

    if (!r.fenced_scratch.empty() && !reply->failed) {
      ++reply->outstanding;
      FencedBatch batch;
      batch.reply = reply;
      batch.client_fd = fd;
      batch.client_gen = gen;
      batch.items.assign(r.fenced_scratch.begin(), r.fenced_scratch.end());
      r.fence_buffer.push_back(std::move(batch));
    }
    --reply->outstanding;  // drop the guard credit
    // A failing backend flush can close this client reentrantly (earlier
    // credits fail and flush an ERROR), so re-resolve the pointer.
    c = FindClient(r, fd, gen);
    if (c != nullptr) TryFlushReplies(r, c);
  }

  // ---- QUERY ------------------------------------------------------------

  void HandleQuery(Reactor& r, ClientConn* c, const FrameView& frame) {
    net::QueryRequest req;
    if (!net::ParseQuery(frame.payload, &req)) {
      SendClientError(r, c, ErrorCode::kBadPayload,
                      "malformed QUERY payload");
      return;
    }
    auto reply = std::make_shared<PendingReply>();
    reply->kind = PendingReply::kQueryR;
    reply->token = req.token;
    reply->answers.resize(req.keys.size());

    // Arena reset: only the entries the previous QUERY touched.
    for (const uint32_t t : r.scatter_touched) {
      r.scatter_keys[t].clear();
      r.scatter_pos[t].clear();
    }
    r.scatter_touched.clear();
    for (size_t i = 0; i < req.keys.size(); ++i) {
      // Fenced slots still query their current owner: the donor holds the
      // authoritative state until the flip.
      const uint32_t b = r.topo.OwnerOf(r.topo.SlotOf(req.keys[i]));
      if (r.scatter_keys[b].empty()) r.scatter_touched.push_back(b);
      r.scatter_keys[b].push_back(req.keys[i]);
      r.scatter_pos[b].push_back(static_cast<uint32_t>(i));
    }
    reply->outstanding = static_cast<int>(r.scatter_touched.size());
    c->replies.push_back(reply);

    const int fd = c->fd;
    const uint64_t gen = c->gen;
    for (const uint32_t bi : r.scatter_touched) {
      Backend& be = r.backends[bi];
      if (be.state != BackendState::kReady) {
        reply->failed = true;
        reply->fail_msg = "backend " + opts.backends[bi] + " unavailable";
        break;
      }
      // Buffered INGEST items must reach the backend before the QUERY
      // (frames process in connection order).
      FlushCoalesce(r, be);
      if (be.state != BackendState::kReady) {
        reply->failed = true;
        reply->fail_msg = "backend " + opts.backends[bi] + " dropped";
        break;
      }
      const uint64_t token = be.next_token++;
      be.outq.Append([&](std::vector<uint8_t>* out) {
        net::EncodeQueryTo(token, r.scatter_keys[bi], out);
      });
      SubOp op;
      op.kind = SubOp::kQuery;
      op.client_fd = fd;
      op.client_gen = gen;
      op.reply = reply;
      op.positions = std::move(r.scatter_pos[bi]);
      be.inflight.emplace(token, std::move(op));
      if (!FlushBackend(r, be)) {
        reply->failed = true;
        reply->fail_msg = "backend " + opts.backends[bi] + " dropped";
        break;
      }
    }
    c = FindClient(r, fd, gen);
    if (c != nullptr) TryFlushReplies(r, c);
  }

  // ---- SUBSCRIBE / CONTROL ----------------------------------------------

  void HandleSubscribe(Reactor& r, ClientConn* c, const FrameView& frame) {
    net::SubscribeRequest req;
    if (!net::ParseSubscribe(frame.payload, &req)) {
      SendClientError(r, c, ErrorCode::kBadPayload,
                      "malformed SUBSCRIBE payload");
      return;
    }
    c->subscribed = req.enable;
    std::vector<uint8_t> echo;
    net::EncodeSubscribeTo(req.token, req.enable, &echo);
    QueueLocalReply(r, c, std::move(echo));
  }

  void HandleControl(Reactor& r, ClientConn* c, const FrameView& frame) {
    net::ControlRequest req;
    if (!net::ParseControl(frame.payload, &req)) {
      SendClientError(r, c, ErrorCode::kBadPayload,
                      "malformed CONTROL payload");
      return;
    }
    switch (req.op) {
      case ControlOp::kTopology: {
        // Liveness is the MIN across reactors: "ready" only when every
        // loop's own connection to that backend is ready.
        const size_t n_backends = opts.backends.size();
        const size_t n_reactors = reactors.size();
        std::vector<net::BackendState> states;
        states.reserve(n_backends);
        for (size_t b = 0; b < n_backends; ++b) {
          uint8_t lowest = static_cast<uint8_t>(BackendState::kReady);
          for (size_t ri = 0; ri < n_reactors; ++ri) {
            lowest = std::min(
                lowest, state_matrix[ri * n_backends + b].load(
                            std::memory_order_relaxed));
          }
          states.push_back(static_cast<BackendState>(lowest));
        }
        std::vector<uint8_t> payload;
        net::EncodeTopologyPayloadTo(r.topo.ToWire(states), &payload);
        std::vector<uint8_t> reply;
        net::EncodeControlResultTo(req.token, req.op, ControlStatus::kOk,
                                   payload, &reply);
        QueueLocalReply(r, c, std::move(reply));
        return;
      }
      case ControlOp::kStats:
      case ControlOp::kMetrics:
      case ControlOp::kDrain:
        FanOutControl(r, c, req);
        return;
      case ControlOp::kMigrate:
        StartMigration(r, c, req);
        return;
      case ControlOp::kShutdown: {
        const int fd = c->fd;
        const uint64_t gen = c->gen;
        QueueControlStatus(r, c, req.token, req.op, ControlStatus::kOk);
        // Best-effort synchronous flush of the ack before the loops exit.
        const uint64_t deadline = NowMs() + 500;
        while (NowMs() < deadline) {
          ClientConn* cc = FindClient(r, fd, gen);
          if (cc == nullptr || cc->outq.empty()) break;
          pollfd p{fd, POLLOUT, 0};
          poll(&p, 1, 10);
          if (!FlushClient(r, cc)) break;
        }
        stop_flag.store(true, std::memory_order_release);
        for (auto& other : reactors) Wake(*other);
        return;
      }
      default:
        // Backend-plane ops (checkpoint/restore/shard handoff) and unknown
        // ops: not a coordinator operation.
        QueueControlStatus(r, c, req.token, req.op,
                           ControlStatus::kBadRequest);
        return;
    }
  }

  /// kStats / kMetrics / kDrain: strict fan-out — every backend must be
  /// ready, so a rollup never silently omits part of the cluster.
  void FanOutControl(Reactor& r, ClientConn* c,
                     const net::ControlRequest& req) {
    for (const Backend& b : r.backends) {
      if (b.state != BackendState::kReady) {
        QueueControlStatus(r, c, req.token, req.op,
                           ControlStatus::kRejected);
        return;
      }
    }
    auto reply = std::make_shared<PendingReply>();
    reply->kind = PendingReply::kControlFan;
    reply->token = req.token;
    reply->op = req.op;
    reply->outstanding = static_cast<int>(r.backends.size());
    c->replies.push_back(reply);
    const int fd = c->fd;
    const uint64_t gen = c->gen;
    // Control must observe every item this loop already accepted.
    for (Backend& b : r.backends) FlushCoalesce(r, b);
    if (req.op == ControlOp::kMetrics) MergeLocalClusterMetrics(*reply);
    for (Backend& b : r.backends) {
      if (b.state != BackendState::kReady) {
        reply->failed = true;
        reply->fail_msg = "backend " + opts.backends[b.idx] + " dropped";
        break;
      }
      const uint64_t token = b.next_token++;
      b.outq.Append([&](std::vector<uint8_t>* out) {
        net::EncodeControlTo(token, req.op, {}, out);
      });
      SubOp op;
      op.kind = SubOp::kControl;
      op.client_fd = fd;
      op.client_gen = gen;
      op.reply = reply;
      b.inflight.emplace(token, std::move(op));
      if (!FlushBackend(r, b)) {
        reply->failed = true;
        reply->fail_msg = "backend " + opts.backends[b.idx] + " dropped";
        break;
      }
    }
    ClientConn* cc = FindClient(r, fd, gen);
    if (cc != nullptr) TryFlushReplies(r, cc);
  }

  // ======================================================================
  // Backend pool

  void KickBackendConnects(Reactor& r, uint64_t now) {
    for (Backend& b : r.backends) {
      if (b.fd >= 0 && b.connecting && now >= b.connect_deadline_ms) {
        FailBackend(r, b, now);
        continue;
      }
      if (b.fd >= 0 || now < b.next_attempt_ms) continue;
      BeginConnect(r, b, now);
    }
  }

  void BeginConnect(Reactor& r, Backend& b, uint64_t now) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    const std::string port_str = std::to_string(b.port);
    if (getaddrinfo(b.host.c_str(), port_str.c_str(), &hints, &res) != 0 ||
        res == nullptr) {
      ScheduleRetry(r, b, now);
      return;
    }
    const int fd = socket(res->ai_family,
                          res->ai_socktype | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          res->ai_protocol);
    if (fd < 0) {
      freeaddrinfo(res);
      ScheduleRetry(r, b, now);
      return;
    }
    SetNoDelay(fd);
    const int rc = connect(fd, res->ai_addr, res->ai_addrlen);
    freeaddrinfo(res);
    if (rc == 0) {
      AdoptBackendSocket(r, b, fd);
      StartHandshake(r, b);
      return;
    }
    if (errno != EINPROGRESS) {
      close(fd);
      ScheduleRetry(r, b, now);
      return;
    }
    AdoptBackendSocket(r, b, fd);
    b.connecting = true;
    b.connect_deadline_ms =
        now + static_cast<uint64_t>(opts.backend_connect_timeout_ms);
    SetBackendState(r, b, BackendState::kConnecting);
    EpollMod(r, b.fd, EPOLLIN | EPOLLOUT);
  }

  void AdoptBackendSocket(Reactor& r, Backend& b, int fd) {
    b.fd = fd;
    b.decoder = FrameDecoder(DecoderOpts());
    b.outq.Clear();
    b.want_write = false;
    b.connecting = false;
    b.inflight.clear();
    b.co_buf.Reset();
    b.co_credits.clear();
    b.credit_epoch = 0;
    b.ledger.TakeAll();
    b.last_flush_ns = 0;
    b.alert_rx_seq = 0;
    b.ingest_sent = 0;
    b.ingest_acked = 0;
    UpdateQueuedGauge(b);
    r.backend_by_fd[fd] = b.idx;
    EpollAdd(r, fd, EPOLLIN);
  }

  void StartHandshake(Reactor& r, Backend& b) {
    b.connecting = false;
    SetBackendState(r, b, BackendState::kConnecting);
    b.subscribe_token = b.next_token++;
    b.outq.Append([&](std::vector<uint8_t>* out) {
      net::EncodeSubscribeTo(b.subscribe_token, true, out);
    });
    FlushBackend(r, b);
  }

  void ScheduleRetry(Reactor& r, Backend& b, uint64_t now) {
    SetBackendState(r, b, BackendState::kDisconnected);
    b.next_attempt_ms = now + static_cast<uint64_t>(b.backoff_ms);
    b.backoff_ms = std::min(b.backoff_ms * 2, opts.backend_backoff_max_ms);
  }

  /// Drops the backend connection: every ledger credit and in-flight
  /// sub-op fails its client fast (the alternative — silently stalling
  /// acks — wedges pipelined senders), the open coalescing buffer is
  /// discarded with its credits, the fence barrier aborts, and a backoff
  /// reconnect starts.
  void FailBackend(Reactor& r, Backend& b, uint64_t now) {
    if (b.fd >= 0) {
      EpollDel(r, b.fd);
      r.backend_by_fd.erase(b.fd);
      close(b.fd);
      b.fd = -1;
    }
    ScheduleRetry(r, b, now);
    if (r.barrier_armed && r.barrier_backend == b.idx) {
      r.barrier_armed = false;
      r.barrier_promise->set_value(false);
    }
    auto entries = b.ledger.TakeAll();
#if QF_METRICS
    if (!entries.empty()) {
      ClusterMetrics::Get().ledger_depth.Add(
          -static_cast<int64_t>(entries.size()));
    }
#endif
    auto open_credits = std::move(b.co_credits);
    b.co_credits.clear();
    b.credit_epoch = 0;
    b.co_buf.Reset();
    b.outq.Clear();
    b.want_write = false;
    UpdateQueuedGauge(b);
    auto inflight = std::move(b.inflight);
    b.inflight.clear();
    const std::string msg = "backend " + opts.backends[b.idx] + " dropped";
    const auto fail_credit = [&](Credit& credit) {
      if (credit.reply == nullptr) return;
      credit.reply->failed = true;
      if (credit.reply->fail_msg.empty()) credit.reply->fail_msg = msg;
      if (ClientConn* c =
              FindClient(r, credit.client_fd, credit.client_gen)) {
        TryFlushReplies(r, c);
      }
    };
    for (auto& entry : entries) {
      for (Credit& credit : entry.credits) fail_credit(credit);
    }
    for (Credit& credit : open_credits) fail_credit(credit);
    for (auto& [token, op] : inflight) {
      op.reply->failed = true;
      if (op.reply->fail_msg.empty()) op.reply->fail_msg = msg;
      if (ClientConn* c = FindClient(r, op.client_fd, op.client_gen)) {
        TryFlushReplies(r, c);
      }
    }
  }

  bool FlushBackend(Reactor& r, Backend& b) {
    switch (b.outq.FlushTo(b.fd)) {
      case WriteQueue::FlushResult::kError:
        FailBackend(r, b, NowMs());
        return false;
      case WriteQueue::FlushResult::kDrained:
        break;
      case WriteQueue::FlushResult::kBlocked:
        if (b.outq.bytes() > opts.max_write_queue_bytes) {
          FailBackend(r, b, NowMs());
          return false;
        }
        break;
    }
    const bool want = !b.outq.empty();
    if (want != b.want_write) {
      b.want_write = want;
      EpollMod(r, b.fd, EPOLLIN | (want ? EPOLLOUT : 0u));
    }
    UpdateQueuedGauge(b);
    return true;
  }

  void HandleBackendEvent(Reactor& r, Backend& b, uint32_t events) {
    if (b.connecting) {
      if (events & (EPOLLERR | EPOLLHUP)) {
        FailBackend(r, b, NowMs());
        return;
      }
      if (events & EPOLLOUT) {
        int err = 0;
        socklen_t len = sizeof(err);
        getsockopt(b.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
          FailBackend(r, b, NowMs());
          return;
        }
        EpollMod(r, b.fd, EPOLLIN);
        StartHandshake(r, b);
      }
      return;
    }
    if (events & (EPOLLERR | EPOLLHUP)) {
      FailBackend(r, b, NowMs());
      return;
    }
    if (events & EPOLLOUT) {
      if (!FlushBackend(r, b)) return;
    }
    if ((events & EPOLLIN) == 0) return;
    uint8_t buf[65536];
    while (true) {
      const ssize_t n = recv(b.fd, buf, sizeof(buf), 0);
      if (n == 0) {
        FailBackend(r, b, NowMs());
        return;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        FailBackend(r, b, NowMs());
        return;
      }
      if (!b.decoder.Append(buf, static_cast<size_t>(n))) {
        FailBackend(r, b, NowMs());
        return;
      }
      FrameView frame;
      while (b.decoder.NextView(&frame) == FrameDecoder::Result::kFrame) {
        if (!DispatchBackendFrame(r, b, frame)) return;  // backend failed
      }
      if (b.decoder.poisoned()) {
        FailBackend(r, b, NowMs());
        return;
      }
    }
  }

  bool DispatchBackendFrame(Reactor& r, Backend& b,
                            const FrameView& frame) {
    switch (frame.type) {
      case FrameType::kIngestAck: {
        net::IngestAck ack;
        if (!net::ParseIngestAck(frame.payload, &ack)) break;
        // Strict FIFO ledger ack: wrong token or count fails the
        // connection closed before any credit is released — a mangled ack
        // stream can never double-ack a client.
        std::vector<Credit> credits;
        if (b.ledger.Ack(ack.token, ack.count, &credits) !=
            CreditLedger<Credit>::AckResult::kOk) {
          break;
        }
#if QF_METRICS
        ClusterMetrics::Get().ledger_depth.Add(-1);
#endif
        ++b.ingest_acked;
        if (r.barrier_armed && r.barrier_backend == b.idx &&
            b.ingest_acked >= r.barrier_target) {
          r.barrier_armed = false;
          r.barrier_promise->set_value(true);
        }
        for (Credit& credit : credits) {
          --credit.reply->outstanding;
          if (ClientConn* c =
                  FindClient(r, credit.client_fd, credit.client_gen)) {
            TryFlushReplies(r, c);
          }
        }
        return true;
      }
      case FrameType::kQueryResult: {
        net::QueryResult res;
        if (!net::ParseQueryResult(frame.payload, &res)) break;
        auto it = b.inflight.find(res.token);
        if (it == b.inflight.end()) break;
        SubOp op = std::move(it->second);
        b.inflight.erase(it);
        if (res.answers.size() != op.positions.size()) break;
        for (size_t i = 0; i < res.answers.size(); ++i) {
          op.reply->answers[op.positions[i]] = res.answers[i];
        }
        --op.reply->outstanding;
        if (ClientConn* c = FindClient(r, op.client_fd, op.client_gen)) {
          TryFlushReplies(r, c);
        }
        return true;
      }
      case FrameType::kSubscribe: {
        net::SubscribeRequest echo;
        if (!net::ParseSubscribe(frame.payload, &echo)) break;
        if (echo.token == b.subscribe_token && echo.enable) {
          SetBackendState(r, b, BackendState::kReady);
          b.backoff_ms = opts.backend_backoff_initial_ms;
        }
        return true;
      }
      case FrameType::kControlResult: {
        net::ControlResult res;
        if (!net::ParseControlResult(frame.payload, &res)) break;
        auto it = b.inflight.find(res.token);
        if (it == b.inflight.end()) break;
        SubOp op = std::move(it->second);
        b.inflight.erase(it);
        AccumulateControl(op, res);
        if (ClientConn* c = FindClient(r, op.client_fd, op.client_gen)) {
          TryFlushReplies(r, c);
        }
        return true;
      }
      case FrameType::kAlert: {
        net::WireAlert alert;
        if (!net::ParseAlert(frame.payload, &alert)) break;
        if (alert.seq != b.alert_rx_seq) {
          alert_gaps.fetch_add(1, std::memory_order_relaxed);
        }
        b.alert_rx_seq = alert.seq + 1;
        ForwardAlert(r, b, alert);
        return true;
      }
      case FrameType::kError:
        break;  // terminal server-side error: reconnect
      default:
        break;
    }
    FailBackend(r, b, NowMs());
    return false;
  }

  void AccumulateControl(SubOp& op, const net::ControlResult& res) {
    PendingReply& reply = *op.reply;
    --reply.outstanding;
    if (res.status != ControlStatus::kOk) {
      reply.status = ControlStatus::kRejected;
      return;
    }
    if (res.op == ControlOp::kStats) {
      WireStats s;
      if (!net::ParseWireStats(res.payload, &s)) {
        reply.status = ControlStatus::kRejected;
        return;
      }
      reply.stats_sum.items_ingested += s.items_ingested;
      reply.stats_sum.items_processed += s.items_processed;
      reply.stats_sum.reports += s.reports;
      reply.stats_sum.alerts_streamed += s.alerts_streamed;
      reply.stats_sum.alerts_dropped += s.alerts_dropped;
      reply.stats_sum.wal_records_appended += s.wal_records_appended;
      reply.stats_sum.wal_records_replayed += s.wal_records_replayed;
      reply.stats_sum.wal_torn_truncations += s.wal_torn_truncations;
      reply.stats_sum.wal_segments_written += s.wal_segments_written;
      reply.stats_sum.wal_checkpoints_written += s.wal_checkpoints_written;
    } else if (res.op == ControlOp::kMetrics) {
      obs::MetricsSnapshot snap;
      if (!net::ParseMetricsPayload(res.payload, &snap)) {
        reply.status = ControlStatus::kRejected;
        return;
      }
      if (!reply.metrics_any) {
        reply.metrics = std::move(snap);
        reply.metrics_any = true;
      } else {
        obs::MergeSnapshotInto(snap, &reply.metrics);
      }
    }
    // kDrain carries no payload; kOk from every backend is the answer.
  }

  /// Re-tags and forwards one upstream alert to every subscribed client of
  /// this reactor. Every reactor holds its own upstream subscription, and
  /// each client lives on exactly one reactor, so a subscriber sees each
  /// alert exactly once. The coordinator-assigned `seq` is gap-free per
  /// subscriber; `reserved` carries the backend index.
  void ForwardAlert(Reactor& r, const Backend& b,
                    const net::WireAlert& alert) {
    // Snapshot fds first: FlushClient can close (erase) a slow subscriber,
    // which would invalidate a live map iterator.
    std::vector<int> fds;
    fds.reserve(r.clients.size());
    for (const auto& [fd, conn] : r.clients) {
      if (conn->subscribed && !conn->closing) fds.push_back(fd);
    }
    for (const int fd : fds) {
      auto it = r.clients.find(fd);
      if (it == r.clients.end()) continue;
      ClientConn* c = it->second.get();
      net::WireAlert out;
      out.seq = c->alert_seq++;
      out.key = alert.key;
      out.value = alert.value;
      out.shard = alert.shard;
      out.reserved = b.idx;
      c->outq.Append([&](std::vector<uint8_t>* buf) {
        net::EncodeAlertTo(out, buf);
      });
      FlushClient(r, c);
    }
  }

  // ======================================================================
  // Migration (DESIGN.md §16)

  void StartMigration(Reactor& r, ClientConn* c,
                      const net::ControlRequest& req) {
    net::MigrateRequest m;
    if (!net::ParseMigratePayload(req.op_payload, &m)) {
      QueueControlStatus(r, c, req.token, req.op,
                         ControlStatus::kBadRequest);
      return;
    }
    if (m.slot >= r.topo.num_slots() ||
        m.target_backend >= r.topo.num_backends()) {
      QueueControlStatus(r, c, req.token, req.op,
                         ControlStatus::kBadRequest);
      return;
    }
    const uint32_t donor = r.topo.OwnerOf(m.slot);
    if (donor == m.target_backend ||
        r.backends[donor].state != BackendState::kReady ||
        r.backends[m.target_backend].state != BackendState::kReady) {
      QueueControlStatus(r, c, req.token, req.op, ControlStatus::kRejected);
      return;
    }
    bool expected = false;
    if (!migration_active.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel)) {
      QueueControlStatus(r, c, req.token, req.op, ControlStatus::kRejected);
      return;
    }
    std::lock_guard<std::mutex> lock(migration_mu);
    // The previous worker's final command has already run (migration_active
    // was false), so this join returns promptly.
    if (migration_worker.joinable()) migration_worker.join();
    migrate_reactor = &r;
    migrate_reply = std::make_shared<PendingReply>();
    migrate_reply->kind = PendingReply::kControlFan;
    migrate_reply->token = req.token;
    migrate_reply->op = ControlOp::kMigrate;
    migrate_reply->outstanding = 1;
    migrate_client_fd = c->fd;
    migrate_client_gen = c->gen;
    c->replies.push_back(migrate_reply);
    const uint32_t slot = m.slot;
    const uint32_t target = m.target_backend;
    migration_worker = std::thread(
        [this, slot, donor, target] { MigrateWorker(slot, donor, target); });
  }

  /// Loop-side, one reactor: fence the slot and arm this loop's donor ack
  /// barrier. The future resolves true once every coalesced INGEST this
  /// loop had flushed to the donor before the fence has been acked (the
  /// open coalescing buffer is flushed first so it is under the barrier),
  /// false if the donor dropped or the loop is stopping.
  std::future<bool> FenceSlot(Reactor& r, uint32_t slot, uint32_t donor) {
    auto prom = std::make_shared<std::promise<bool>>();
    std::future<bool> fut = prom->get_future();
    RunInLoop(r, [this, &r, slot, donor, prom] {
      if (stop_flag.load(std::memory_order_acquire)) {
        prom->set_value(false);
        return;
      }
      r.fenced = true;
      r.fenced_slot = slot;
      Backend& b = r.backends[donor];
      if (b.state == BackendState::kReady) FlushCoalesce(r, b);
      if (b.state == BackendState::kReady &&
          b.ingest_acked < b.ingest_sent) {
        r.barrier_armed = true;
        r.barrier_backend = donor;
        r.barrier_target = b.ingest_sent;
        r.barrier_promise = prom;
      } else {
        prom->set_value(b.state == BackendState::kReady);
      }
    });
    return fut;
  }

  /// Worker-side rendezvous: every reactor fences and every barrier must
  /// clear. Loops fence independently (a loop stays fenced until its own
  /// flip, so no post-barrier item can reach the donor from any loop).
  bool FenceAll(uint32_t slot, uint32_t donor) {
    std::vector<std::future<bool>> futures;
    futures.reserve(reactors.size());
    for (auto& r : reactors) {
      futures.push_back(FenceSlot(*r, slot, donor));
    }
    bool ok = true;
    for (auto& f : futures) ok = f.get() && ok;
    return ok;
  }

  /// Loop-side, one reactor: commit (flip ownership to `target`) or abort
  /// (keep the donor as owner), then replay the fence buffer — through the
  /// coalescer — to the current owner.
  std::future<bool> FinishFence(Reactor& r, uint32_t slot, uint32_t target,
                                bool commit) {
    auto prom = std::make_shared<std::promise<bool>>();
    std::future<bool> fut = prom->get_future();
    RunInLoop(r, [this, &r, slot, target, commit, prom] {
      if (stop_flag.load(std::memory_order_acquire)) {
        r.fenced = false;
        r.fence_buffer.clear();
        prom->set_value(false);
        return;
      }
      if (commit) r.topo.Flip(slot, target);
      r.fenced = false;
      const uint32_t owner = r.topo.OwnerOf(slot);
      Backend& b = r.backends[owner];
      auto buffered = std::move(r.fence_buffer);
      r.fence_buffer.clear();
      for (FencedBatch& batch : buffered) {
        ClientConn* c = FindClient(r, batch.client_fd, batch.client_gen);
        bool sent = false;
        if (c != nullptr && b.state == BackendState::kReady &&
            !batch.reply->failed) {
          ++r.ingest_epoch;  // one fresh credit epoch per replayed batch
          AppendToCoalesce(
              r, b, reinterpret_cast<const uint8_t*>(batch.items.data()),
              batch.items.size(), batch.reply, batch.client_fd,
              batch.client_gen);
          sent = !batch.reply->failed;
        }
        // The fence pre-paid one outstanding count at buffer time; the
        // coalescer just charged per real credit, so return the prepaid.
        --batch.reply->outstanding;
        if (!sent && !batch.reply->failed) {
          batch.reply->failed = true;
          batch.reply->fail_msg = "fenced batch lost: owner unavailable";
        }
        if (ClientConn* cc =
                FindClient(r, batch.client_fd, batch.client_gen)) {
          TryFlushReplies(r, cc);
        }
      }
      if (b.state == BackendState::kReady) FlushCoalesce(r, b);
      prom->set_value(true);
    });
    return fut;
  }

  bool FinishFenceAll(uint32_t slot, uint32_t target, bool commit) {
    std::vector<std::future<bool>> futures;
    futures.reserve(reactors.size());
    for (auto& r : reactors) {
      futures.push_back(FinishFence(*r, slot, target, commit));
    }
    bool ok = true;
    for (auto& f : futures) ok = f.get() && ok;
    return ok;
  }

  void CompleteMigration(bool ok) {
    Reactor& r = *migrate_reactor;
    RunInLoop(r, [this, &r, ok] {
      migrate_reply->status =
          ok ? ControlStatus::kOk : ControlStatus::kRejected;
      migrate_reply->outstanding = 0;
      if (ok) migrations_completed.fetch_add(1, std::memory_order_relaxed);
      if (ClientConn* c =
              FindClient(r, migrate_client_fd, migrate_client_gen)) {
        TryFlushReplies(r, c);
      }
      migrate_reply.reset();
      migration_active.store(false, std::memory_order_release);
    });
  }

  /// Worker-thread procedure: checkpoint-ship, WAL catch-up, fence (all
  /// reactors), final drain, activate, flip (all reactors). Uses private
  /// blocking connections so no event loop ever stalls on migration I/O.
  void MigrateWorker(uint32_t slot, uint32_t donor, uint32_t target) {
    net::QfClient::Options copt;
    copt.max_frame_bytes = opts.max_frame_bytes;
    copt.connect_timeout_ms = opts.backend_connect_timeout_ms;
    copt.connect_attempts = 3;
    copt.backoff_initial_ms = opts.backend_backoff_initial_ms;
    copt.backoff_max_ms = opts.backend_backoff_max_ms;
    net::QfClient dc(copt), tc(copt);
    bool is_fenced = false;
    bool pinned = false;

    auto abort = [&] {
      if (pinned) {
        net::SegmentShipRequest rel;
        rel.after_seq = net::kSegmentShipRelease;
        net::SegmentShipResult junk;
        dc.SegmentShip(rel, &junk);  // best-effort unpin
      }
      if (is_fenced) FinishFenceAll(slot, target, /*commit=*/false);
      CompleteMigration(false);
    };

    std::string host;
    uint16_t port = 0;
    if (!SplitHostPort(opts.backends[donor], &host, &port) ||
        !dc.ConnectWithRetry(host, port)) {
      return abort();
    }
    if (!SplitHostPort(opts.backends[target], &host, &port) ||
        !tc.ConnectWithRetry(host, port)) {
      return abort();
    }

    net::ShardExport exp;
    if (!dc.ShardExportFetch(slot, &exp)) return abort();
    pinned = exp.wal_enabled != 0;
    uint64_t after = exp.snap_seq;

    if (exp.wal_enabled) {
      // Durable donor: ship the snapshot now, replay the WAL tail behind
      // it, and only fence once a catch-up round comes back small — the
      // write pause is then bounded by one small round, not the full
      // shard history.
      net::ShardImport imp;
      imp.shard = slot;
      std::memcpy(imp.rng, exp.rng, sizeof(imp.rng));
      imp.blob = std::move(exp.blob);
      if (!tc.ShardImportPush(imp)) return abort();
      for (int round = 0; round < 100000; ++round) {
        net::SegmentShipRequest sreq;
        sreq.after_seq = after;
        sreq.shard = slot;
        sreq.max_items = opts.ship_batch_items;
        net::SegmentShipResult res;
        if (!dc.SegmentShip(sreq, &res)) return abort();
        if (!res.items.empty() && !tc.Ingest(res.items)) return abort();
        after = res.next_after;
        if (res.exhausted ||
            res.items.size() <
                static_cast<size_t>(opts.ship_cutover_items)) {
          break;
        }
      }
      if (!FenceAll(slot, donor)) {
        is_fenced = true;  // some loops may have fenced; unwind them all
        return abort();
      }
      is_fenced = true;
      // Post-barrier, every coordinator-acked item is in the donor's WAL;
      // drain the remainder, in WAL order, into the recipient.
      while (true) {
        net::SegmentShipRequest sreq;
        sreq.after_seq = after;
        sreq.shard = slot;
        sreq.max_items = opts.ship_batch_items;
        net::SegmentShipResult res;
        if (!dc.SegmentShip(sreq, &res)) return abort();
        if (!res.items.empty() && !tc.Ingest(res.items)) return abort();
        after = res.next_after;
        if (res.exhausted) break;
      }
    } else {
      // Non-durable donor: no log to replay, so fence first — the export
      // then captures the complete shard history.
      if (!FenceAll(slot, donor)) {
        is_fenced = true;
        return abort();
      }
      is_fenced = true;
      if (!dc.ShardExportFetch(slot, &exp)) return abort();
      net::ShardImport imp;
      imp.shard = slot;
      std::memcpy(imp.rng, exp.rng, sizeof(imp.rng));
      imp.blob = std::move(exp.blob);
      if (!tc.ShardImportPush(imp)) return abort();
    }

    if (!tc.ShardActivate(slot)) return abort();
    if (!FinishFenceAll(slot, target, /*commit=*/true)) return abort();
    is_fenced = false;
    if (pinned) {
      net::SegmentShipRequest rel;
      rel.after_seq = net::kSegmentShipRelease;
      net::SegmentShipResult junk;
      dc.SegmentShip(rel, &junk);
    }
    CompleteMigration(true);
  }
};

// ===========================================================================

Coordinator::Coordinator(const CoordinatorOptions& options)
    : impl_(std::make_unique<Impl>(options)) {}

Coordinator::~Coordinator() { Stop(); }

bool Coordinator::Start() { return impl_->Start(); }

void Coordinator::Stop() { impl_->Stop(); }

bool Coordinator::running() const {
  return impl_->live_reactors.load(std::memory_order_acquire) > 0;
}

uint16_t Coordinator::port() const { return impl_->bound_port; }

const std::string& Coordinator::error() const { return impl_->error; }

}  // namespace qf::cluster
