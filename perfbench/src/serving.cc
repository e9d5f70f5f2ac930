#include "serving.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/random.h"
#include "common/zipf.h"
#include "openloop.h"
#include "stats.h"

namespace perfbench {

namespace {

using qf::net::ControlOp;
using qf::net::ControlResult;
using qf::net::FrameDecoder;
using qf::net::FrameType;
using qf::net::FrameView;

constexpr uint64_t kSecond = 1000000000ull;
/// Each of the workload's rounds boots kSetupTrialsPerRound SUTs for set-up
/// time, then one fresh SUT for a closed-loop pass and one for the open-loop
/// pass.
constexpr int kSetupTrialsPerRound = 2;
/// Unacked INGEST frames in the closed loop: 16 x 256 items keeps the same
/// 4096 items (about 64 KiB) in flight as qf_loadgen's default 8 x 512.
constexpr size_t kClosedWindow = 16;
constexpr size_t kQueryKeys = 64;
constexpr double kQueryFramesPerS = 1000;
constexpr size_t kCheckKeysPerFrame = 8192;
/// Request ids of traced QUERY frames start here (ingest frames use their
/// frame index).
constexpr uint64_t kQueryRequestBase = 1ull << 40;
/// The generator is flagged as behind when its p99 send lateness exceeds
/// this many microseconds. A frame is due every 85 us at 3M items/s; the
/// busy-polling generator on its own core stays at a few microseconds.
constexpr double kBehindP99Us = 500;

bool WaitTopologyReady(Wire& wire, uint64_t deadline_ns) {
  while (NowNs() < deadline_ns) {
    ControlResult res;
    if (!Control(wire, ControlOp::kTopology, {}, &res, deadline_ns)) return false;
    qf::net::WireTopology topo;
    if (!qf::net::ParseTopologyPayload(res.payload, &topo)) return false;
    bool ready = !topo.backends.empty();
    for (const auto& b : topo.backends) {
      ready = ready && b.state == qf::net::BackendState::kReady;
    }
    if (ready) return true;
    usleep(100);
  }
  return false;
}

}  // namespace

bool Sut::Boot(const Env& env, const WorkloadSpec& spec,
               const std::string& wal_dir, double* setup_s,
               std::string* error) {
  Kill();
  auto server_argv = [&](bool pin) {
    std::vector<std::string> argv = {env.bin_dir + "/qf_server", "--port=0", "--reactors=1",
                                     "--shards=" + std::to_string(kShards),
                                     "--memory=" + std::to_string(spec.memory_bytes),
                                     "--seed=" + std::to_string(kFilterSeed),
                                     "--threshold=" + std::to_string(spec.threshold)};
    if (pin && env.cores.pinned && env.cores.online >= 4) {
      // Shard workers on cores 1..shards, the reactor after them.
      argv.push_back("--pin");
      argv.push_back("--core-offset=" + std::to_string(env.cores.sut_cores.front()));
    }
    if (!wal_dir.empty()) {
      // The log lives in the benchmark's checkout, on whatever disk that
      // is; an fsync there measures the neighbours of a shared VM, not this
      // program (README.md, "cloud-durable"). Appends, rotation and replay
      // still run; only the fsync wait is left out.
      argv.push_back("--wal-dir=" + wal_dir);
      argv.push_back("--wal-fsync=none");
    }
    return argv;
  };
  const uint64_t t0 = NowNs();
  const uint64_t deadline = t0 + 60 * kSecond;
  const int n_backends = spec.shape == SutShape::kCluster ? 2 : 0;
  // Cluster: the coordinator, the hop every frame crosses, gets the last SUT
  // core to itself; the backends share the others.
  std::vector<int> backend_cores = env.cores.sut_cores, coordinator_cores = env.cores.sut_cores;
  if (backend_cores.size() >= 3) {
    coordinator_cores = {backend_cores.back()};
    backend_cores.pop_back();
  }
  for (int b = 0; b < n_backends; ++b) {
    procs_.push_back(std::make_unique<Process>());
    const std::string log = env.run_dir + "/backend" + std::to_string(b) + ".log";
    if (!procs_.back()->Spawn(server_argv(false), backend_cores, log)) {
      *error = "spawn backend failed";
      return false;
    }
  }
  for (int b = 0; b < n_backends; ++b) {
    uint16_t port = 0;
    if (!procs_[static_cast<size_t>(b)]->AwaitPort(deadline, &port)) {
      *error = "backend never printed its port";
      return false;
    }
    backend_ports_.push_back(port);
  }
  procs_.push_back(std::make_unique<Process>());
  if (n_backends > 0) {
    std::string list;
    for (const uint16_t port : backend_ports_) {
      if (!list.empty()) list += ",";
      list += "127.0.0.1:" + std::to_string(port);
    }
    const std::vector<std::string> argv = {
        env.bin_dir + "/qf_cluster", "--port=0",
        "--slots=" + std::to_string(kShards), "--backends=" + list};
    if (!procs_.back()->Spawn(argv, coordinator_cores,
                              env.run_dir + "/coordinator.log")) {
      *error = "spawn coordinator failed";
      return false;
    }
  } else if (!procs_.back()->Spawn(server_argv(true), env.cores.sut_cores,
                                   env.run_dir + "/server.log")) {
    *error = "spawn server failed";
    return false;
  }
  if (!procs_.back()->AwaitPort(deadline, &port_)) {
    *error = "SUT never printed its port (see " + env.run_dir + "/*.log)";
    return false;
  }
  Wire probe;
  while (!probe.Connect(port_)) {
    if (NowNs() > deadline) {
      *error = "SUT port never accepted";
      return false;
    }
  }
  ControlResult res;
  bool ok = n_backends > 0
                ? WaitTopologyReady(probe, deadline)
                : Control(probe, ControlOp::kStats, {}, &res, deadline);
  if (!ok) {
    *error = "SUT never answered CONTROL";
    return false;
  }
  *setup_s = static_cast<double>(NowNs() - t0) * 1e-9;
  return true;
}

uint64_t Sut::CpuNs() const {
  uint64_t ns = 0;
  for (const auto& p : procs_) ns += p->CpuNs();
  return ns;
}

uint64_t Sut::PeakRssBytes() const {
  uint64_t bytes = 0;
  for (const auto& p : procs_) bytes += p->PeakRssBytes();
  return bytes;
}

void Sut::Kill() {
  for (auto& p : procs_) p->Kill();
  procs_.clear();
  backend_ports_.clear();
  port_ = 0;
}

void CheckState(Wire& ctl, uint64_t sent, const std::vector<uint64_t>& keys,
                const std::vector<qf::net::QueryAnswer>& answers, Gate* gate) {
  CheckStats(ctl, sent, gate);
  CheckAnswers(ctl, keys, answers, gate);
}

void CheckStats(Wire& ctl, uint64_t sent, Gate* gate) {
  const uint64_t deadline = NowNs() + 60 * kSecond;
  ControlResult res;
  gate->Check(Control(ctl, ControlOp::kDrain, {}, &res, deadline), "drain");
  qf::net::WireStats st;
  const bool stats_ok = Control(ctl, ControlOp::kStats, {}, &res, deadline) &&
                        qf::net::ParseWireStats(res.payload, &st);
  gate->Check(stats_ok, "stats");
  gate->Check(stats_ok && st.items_ingested == sent,
              "ingested " + std::to_string(st.items_ingested) + " != sent " +
                  std::to_string(sent));
  gate->Check(stats_ok && st.items_processed == st.items_ingested,
              "processed != ingested");
  gate->Check(stats_ok && st.alerts_dropped == 0, "alerts_dropped != 0");
  gate->Check(stats_ok && st.slow_disconnects == 0, "slow_disconnects != 0");
}

void CheckAnswers(Wire& ctl, const std::vector<uint64_t>& keys,
                  const std::vector<qf::net::QueryAnswer>& answers, Gate* gate) {
  const uint64_t deadline = NowNs() + 60 * kSecond;
  uint64_t bad = 0;
  std::vector<uint8_t> request, payload;
  qf::net::QueryResult qr;
  for (size_t at = 0; at < keys.size(); at += kCheckKeysPerFrame) {
    const size_t n = std::min(kCheckKeysPerFrame, keys.size() - at);
    request.clear();
    qf::net::EncodeQueryTo(at, std::span<const uint64_t>(keys.data() + at, n),
                           &request);
    if (!ctl.RoundTrip(request, FrameType::kQueryResult, &payload, deadline) ||
        !qf::net::ParseQueryResult(payload, &qr) || qr.answers.size() != n) {
      bad += n;
      continue;
    }
    bad += CountAnswerMismatches(
        qr.answers, std::span<const qf::net::QueryAnswer>(answers.data() + at, n));
  }
  gate->CheckMany(keys.size(), bad, "final QUERY answers differ from the mirror");
}

uint64_t SendWindowed(Wire& wire, const Prepared& p, uint64_t frames,
                      size_t window, uint64_t* bad) {
  const uint64_t deadline = NowNs() + 120 * kSecond;
  uint64_t next = 0, acked = 0;
  qf::net::IngestAck ack;
  while (acked < frames && NowNs() < deadline) {
    while (next < frames && next - acked < window) {
      size_t size = 0;
      const uint8_t* bytes = FrameBytes(p, next, &size);
      if (!wire.Send(bytes, size)) return acked;
      ++next;
    }
    if (!wire.Flush() || !wire.Pump()) return acked;
    FrameView view;
    while (wire.Next(&view) == FrameDecoder::Result::kFrame) {
      if (view.type != FrameType::kIngestAck ||
          !qf::net::ParseIngestAck(view.payload, &ack) ||
          ack.token != acked % p.frame_off.size() ||
          ack.count != kFrameItems) {
        ++*bad;
      }
      ++acked;
    }
  }
  return acked;
}

const ExpectedAlert* AlertMatcher::Match(const FrameView& view,
                                         qf::net::WireAlert* alert,
                                         size_t* index) {
  if (view.type != FrameType::kAlert || !qf::net::ParseAlert(view.payload, alert) ||
      alert->shard >= cursor_.size() ||
      cursor_[alert->shard] >= p_->alerts[alert->shard].size()) {
    ++unexpected_;
    return nullptr;
  }
  *index = cursor_[alert->shard]++;
  ++matched_;
  const ExpectedAlert& e = p_->alerts[alert->shard][*index];
  if (e.key != alert->key ||
      std::memcmp(&e.value, &alert->value, sizeof(double)) != 0) {
    ++wrong_;
    return nullptr;
  }
  return &e;
}

void AlertMatcher::Report(Gate* gate, const std::string& what) const {
  const uint64_t missing = p_->expected_reports - matched_;
  gate->CheckMany(p_->expected_reports + unexpected_, wrong_ + unexpected_ + missing,
                  what);
}

namespace {

/// Closed loop: one connection, kClosedWindow unacked frames, the whole
/// stream, then the correctness gate. Returns items/s (0 on failure).
double ClosedLoop(const Prepared& p, Sut& sut, Gate* gate) {
  Wire wire;
  if (!wire.Connect(sut.port())) {
    gate->Check(false, "closed loop connect");
    return 0;
  }
  uint64_t bad = 0;
  const uint64_t t0 = NowNs();
  const uint64_t acked = SendWindowed(wire, p, p.stream_frames, kClosedWindow, &bad);
  const double secs = static_cast<double>(NowNs() - t0) * 1e-9;
  gate->CheckMany(p.stream_frames, bad + (p.stream_frames - acked),
                  "closed-loop INGEST acks");
  CheckState(wire, p.stream_items, p.keys, p.answers, gate);
  return acked == p.stream_frames ? static_cast<double>(p.stream_items) / secs : 0;
}

}  // namespace

bool OpenLoop(const Prepared& p, Sut& sut, uint64_t seed, Gate* gate,
              OpenLoopOut* out, SpanRecorder* rec) {
  Wire ingest, sub, query;
  if (!ingest.Connect(sut.port()) || !sub.Connect(sut.port()) ||
      !query.Connect(sut.port())) {
    gate->Check(false, "open loop connect");
    return false;
  }
  // Subscribe before the first item so no alert is missed.
  std::vector<uint8_t> request, payload;
  qf::net::EncodeSubscribeTo(1, true, &request);
  gate->Check(sub.RoundTrip(request, FrameType::kSubscribe, &payload,
                            NowNs() + 10 * kSecond),
              "subscribe");

  // Pre-encoded QUERY frames of Zipf-drawn keys.
  const double open_s =
      static_cast<double>(p.stream_items) / kRateItemsPerS;
  const size_t n_queries =
      std::max<size_t>(1, static_cast<size_t>(open_s * kQueryFramesPerS));
  std::vector<std::vector<uint8_t>> query_frames(n_queries);
  {
    qf::Rng rng(seed ^ 0x51554552ull);
    const qf::ZipfSampler zipf(p.keys_by_frequency.size(), 1.0);
    std::vector<uint64_t> keys(kQueryKeys);
    for (size_t q = 0; q < n_queries; ++q) {
      for (uint64_t& k : keys) k = p.keys_by_frequency[zipf.Sample(rng) - 1];
      qf::net::EncodeQueryTo(q, keys, &query_frames[q]);
    }
  }

  const double frame_rate =
      kRateItemsPerS / static_cast<double>(kFrameItems);
  const uint64_t start = NowNs() + 2'000'000;  // 2 ms to get spinning
  const Schedule ingest_sched(start, frame_rate);
  const Schedule query_sched(start, kQueryFramesPerS);
  DueTimeBook ingest_book(p.stream_frames), query_book(n_queries);
  AlertMatcher alerts(p);
  uint64_t next_frame = 0, acked = 0, next_query = 0, answered = 0;
  uint64_t bad_acks = 0, bad_queries = 0;
  qf::net::IngestAck ack;
  qf::net::QueryResult qr;
  uint64_t busy_ns = 0;

  const uint64_t cpu0 = sut.CpuNs();
  const uint64_t deadline = start + static_cast<uint64_t>(open_s * 4 * 1e9) + 30 * kSecond;
  bool io_ok = true;
  auto drain_alerts = [&](uint64_t now) {
    FrameView view;
    qf::net::WireAlert alert;
    size_t index = 0;
    bool any = false;
    while (sub.Next(&view) == FrameDecoder::Result::kFrame) {
      any = true;
      const ExpectedAlert* e = alerts.Match(view, &alert, &index);
      if (view.type == FrameType::kAlert) out->reported.insert(alert.key);
      if (e == nullptr) continue;
      const uint64_t frame = e->item / kFrameItems;
      const uint64_t due = ingest_sched.Due(frame);
      out->alert_us.push_back(1e-3 * static_cast<double>(now - due));
      if (rec != nullptr) rec->Add("e2e.alert", due, now, kNoParent, frame);
    }
    return any;
  };
  while (io_ok && (acked < p.stream_frames || answered < n_queries)) {
    const uint64_t now = NowNs();
    if (now > deadline) break;
    bool worked = false;
    while (next_frame < p.stream_frames && ingest_sched.Due(next_frame) <= now) {
      size_t size = 0;
      const uint8_t* bytes = FrameBytes(p, next_frame, &size);
      ingest_book.MarkSent(next_frame, ingest_sched.Due(next_frame), now);
      io_ok = io_ok && ingest.Send(bytes, size);
      ++next_frame;
      worked = true;
    }
    while (next_query < n_queries && query_sched.Due(next_query) <= now) {
      query_book.MarkSent(next_query, query_sched.Due(next_query), now);
      io_ok = io_ok && query.Send(query_frames[next_query]);
      ++next_query;
      worked = true;
    }
    io_ok = io_ok && ingest.Flush() && query.Flush() && ingest.Pump() &&
            sub.Pump() && query.Pump();
    const uint64_t now2 = NowNs();
    FrameView view;
    while (ingest.Next(&view) == FrameDecoder::Result::kFrame) {
      worked = true;
      if (acked >= next_frame || view.type != FrameType::kIngestAck ||
          !qf::net::ParseIngestAck(view.payload, &ack) ||
          ack.token != acked % p.frame_off.size() ||
          ack.count != kFrameItems) {
        ++bad_acks;
      }
      if (acked < next_frame) {
        ingest_book.MarkDone(acked, now2);
        if (rec != nullptr) {
          rec->Add("e2e.ingest", ingest_book.due(acked), now2, kNoParent, acked);
        }
      }
      ++acked;
    }
    while (query.Next(&view) == FrameDecoder::Result::kFrame) {
      worked = true;
      if (answered >= next_query || view.type != FrameType::kQueryResult ||
          !qf::net::ParseQueryResult(view.payload, &qr) || qr.token != answered ||
          qr.answers.size() != kQueryKeys) {
        ++bad_queries;
      }
      if (answered < next_query) {
        query_book.MarkDone(answered, now2);
        if (rec != nullptr) {
          rec->Add("e2e.query", query_book.due(answered), now2, kNoParent,
                   kQueryRequestBase + answered);
        }
      }
      ++answered;
    }
    if (drain_alerts(now2) || worked) busy_ns += NowNs() - now;
  }
  const uint64_t end = NowNs();
  out->sut_cpu_ns += sut.CpuNs() - cpu0;
  out->wall_s += static_cast<double>(end - start) * 1e-9;
  out->gen_busy_s += static_cast<double>(busy_ns) * 1e-9;
  out->items += acked * kFrameItems;
  gate->CheckMany(p.stream_frames, bad_acks + (p.stream_frames - std::min(acked, p.stream_frames)),
                  "open-loop INGEST acks");
  gate->CheckMany(n_queries, bad_queries + (n_queries - std::min(answered, n_queries)),
                  "open-loop QUERY replies");

  // Every predicted alert must arrive (the drain inside CheckState makes
  // the rest of them due), in per-shard order, and nothing else.
  Wire ctl;
  const bool ctl_ok = ctl.Connect(sut.port());
  gate->Check(ctl_ok, "control connect");
  if (ctl_ok) {
    ControlResult res;
    Control(ctl, ControlOp::kDrain, {}, &res, NowNs() + 60 * kSecond);
  }
  const uint64_t alert_deadline = NowNs() + 10 * kSecond;
  while (alerts.matched() < p.expected_reports && NowNs() < alert_deadline) {
    sub.WaitReadable(5);
    if (!sub.Pump()) break;
    drain_alerts(NowNs());
  }
  alerts.Report(gate, "ALERT stream differs from the mirror's per-shard reports");
  if (ctl_ok) CheckState(ctl, p.stream_items, p.keys, p.answers, gate);

  auto append = [](std::vector<double>* to, const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  append(&out->ack_us, ingest_book.LatenciesUs());
  append(&out->query_us, query_book.LatenciesUs());
  append(&out->late_us, ingest_book.LatenessUs());
  return io_ok;
}

ServingResult RunServing(const Env& env, const Prepared& p, uint64_t seed) {
  ServingResult r;
  Gate& gate = r.gate;
  const WorkloadSpec& spec = p.spec;
  const bool durable = spec.shape == SutShape::kDurableServer;
  int wal_seq = 0;
  auto fresh_wal = [&]() -> std::string {
    if (!durable) return "";
    const std::string dir = env.run_dir + "/wal" + std::to_string(wal_seq++);
    std::filesystem::remove_all(dir);
    return dir;
  };
  std::string error;

  // Cloud-durable set-up is crash recovery: log a fixed WAL prefix once,
  // kill -9, and time every later boot on that log (recovery replays the
  // prefix before the first CONTROL reply).
  const std::string recovery_wal = fresh_wal();
  const uint64_t prefix_frames = p.wal_prefix_items / kFrameItems;
  if (durable) {
    Sut sut;
    double s = 0;
    gate.Check(sut.Boot(env, spec, recovery_wal, &s, &error), "boot: " + error);
    Wire w;
    uint64_t bad = 0;
    const bool logged =
        w.Connect(sut.port()) &&
        SendWindowed(w, p, prefix_frames, kClosedWindow, &bad) == prefix_frames;
    gate.Check(logged && bad == 0, "WAL prefix acked");
    sut.Kill();  // SIGKILL; acked batches are in the log (page cache)
  }

  // Rounds interleave set-up, closed-loop and open-loop phases, so every
  // metric samples the whole run rather than one slice of it: the host's
  // speed drifts by several percent over seconds (see README.md).
  std::vector<double> setups, rates, rss, cpu;
  // Per-round percentiles; the run reports their better quartile (below).
  struct RoundPct {
    const char* name;
    std::vector<double> OpenLoopOut::*samples;
    double q;
    std::vector<double> per_round;
    size_t samples_total = 0;
  };
  std::vector<RoundPct> pcts = {
      {"ack_p50_us", &OpenLoopOut::ack_us, 0.5, {}},
      {"ack_p90_us", &OpenLoopOut::ack_us, 0.9, {}},
      {"alert_p50_us", &OpenLoopOut::alert_us, 0.5, {}},
      {"alert_p90_us", &OpenLoopOut::alert_us, 0.9, {}},
      {"query_p50_us", &OpenLoopOut::query_us, 0.5, {}},
      {"query_p90_us", &OpenLoopOut::query_us, 0.9, {}},
  };
  std::unordered_set<uint64_t> reported;
  std::vector<double> late_us;
  double gen_wall_s = 0, gen_busy_s = 0;
  uint64_t open_items = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (int t = 0; t < kSetupTrialsPerRound; ++t) {
      Sut sut;
      double secs = 0;
      if (!sut.Boot(env, spec, recovery_wal, &secs, &error)) {
        gate.Check(false, "boot: " + error);
        continue;
      }
      setups.push_back(secs);
      if (durable && round == 0 && t == 0) {
        Wire ctl;
        gate.Check(ctl.Connect(sut.port()), "recovery connect");
        CheckState(ctl, prefix_frames * kFrameItems, p.prefix_keys,
                   p.prefix_answers, &gate);
      }
    }
    {
      Sut sut;
      double secs = 0;
      if (sut.Boot(env, spec, fresh_wal(), &secs, &error)) {
        rates.push_back(ClosedLoop(p, sut, &gate));
      } else {
        gate.Check(false, "boot: " + error);
      }
    }
    Sut sut;
    double secs = 0;
    if (!sut.Boot(env, spec, fresh_wal(), &secs, &error)) {
      gate.Check(false, "boot: " + error);
      continue;
    }
    OpenLoopOut ol;
    OpenLoop(p, sut, seed, &gate, &ol, nullptr);
    rss.push_back(static_cast<double>(sut.PeakRssBytes()) / (1024.0 * 1024.0));
    if (ol.items > 0) cpu.push_back(static_cast<double>(ol.sut_cpu_ns) / ol.items);
    std::printf("round %d: closed %.0f items/s, cpu %.1f ns/item", round,
                rates.empty() ? 0.0 : rates.back(), cpu.empty() ? 0.0 : cpu.back());
    for (RoundPct& pc : pcts) {
      std::vector<double>& v = ol.*(pc.samples);
      const Percentile sel = SelectPercentile(v, pc.q);
      if (sel.samples > 0) pc.per_round.push_back(sel.value);
      pc.samples_total += sel.samples;
      std::printf(", %s %.1f", pc.name, sel.value);
    }
    std::printf("\n");
    reported.insert(ol.reported.begin(), ol.reported.end());
    late_us.insert(late_us.end(), ol.late_us.begin(), ol.late_us.end());
    gen_wall_s += ol.wall_s;
    gen_busy_s += ol.gen_busy_s;
    open_items += ol.items;
  }

  // A shared host's interference only ever slows a round down, so each
  // timing is the better quartile of its per-round values: it follows the
  // program and stays put while up to three quarters of the rounds are
  // disturbed (README.md, "Steadiness").
  r.metrics.push_back({"setup_s", BetterQuartile(setups, false), "s", setups.size()});
  r.metrics.push_back({"ingest_items_per_s", BetterQuartile(rates, true), "1/s", rates.size()});
  r.metrics.push_back({"cpu_ns_per_item", BetterQuartile(cpu, false), "ns", open_items});
  for (const RoundPct& pc : pcts) {
    r.metrics.push_back({pc.name, BetterQuartile(pc.per_round, false), "us", pc.samples_total});
  }

  // F1 of the keys the SUT alerted on against ExactDetector's truth (every
  // round's SUT sees the same stream, so the union is one round's set).
  uint64_t tp = 0;
  for (const uint64_t k : reported) tp += p.truth.count(k);
  const double precision =
      reported.empty() ? 0 : static_cast<double>(tp) / reported.size();
  const double recall =
      p.truth.empty() ? 0 : static_cast<double>(tp) / p.truth.size();
  const double f1 = precision + recall > 0
                        ? 2 * precision * recall / (precision + recall)
                        : 0;
  r.metrics.push_back({"f1", f1, "ratio", reported.size()});
  r.metrics.push_back({"rss_mb", Median(rss), "MB", rss.size()});

  const Percentile late99 = SelectPercentile(late_us, 0.99);
  r.gen_late_p99_us = late99.value;
  r.gen_late_max_us = late_us.empty() ? 0 : late_us.back();
  r.gen_cpu_util = gen_wall_s > 0 ? gen_busy_s / gen_wall_s : 0;
  r.generator_behind = late99.value > kBehindP99Us;
  return r;
}

}  // namespace perfbench
