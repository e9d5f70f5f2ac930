#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "common/random.h"
#include "common/zipf.h"
#include "core/sharded_filter.h"
#include "durable/checkpoint.h"
#include "durable/log.h"
#include "durable/recovery.h"
#include "durable/storage.h"
#include "parallel/pipeline.h"
#include "stats.h"

namespace perfbench {

namespace {

using qf::net::ControlOp;
using qf::net::ControlResult;
using qf::net::FrameDecoder;
using qf::net::FrameType;
using qf::net::FrameView;
using Sharded = qf::ShardedQuantileFilter<>;

constexpr uint64_t kSecond = 1000000000ull;
constexpr size_t kCoreQueryBatches = 2000;
constexpr size_t kQueryKeys = 64;
constexpr uint64_t kQueryEvery = 8;         // window-1 passes: a QUERY per N frames
constexpr size_t kBurstWindow = 64;         // cluster burst: unacked frames
constexpr uint64_t kMetricsPollEvery = 128;  // cluster burst: frames per kMetrics poll
constexpr uint64_t kWalFrames = 4096;       // durable phase: frames logged
constexpr uint64_t kWalSyncEvery = 16;      // durable phase: appends per Sync

/// Keeps the timed query loop from being optimized away.
volatile int64_t g_query_sink = 0;

struct Ladder {
  SpanRecorder rec;
  std::vector<Metric> metrics;
  Gate gate;
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0) {
    metrics.push_back({name, value, unit, samples});
  }
};

Sharded MakeFilter(const Prepared& p) {
  Sharded::Filter::Options fo;
  fo.memory_bytes = p.spec.memory_bytes;
  fo.seed = kFilterSeed;
  fo.vague_layout = qf::VagueLayout::kBlocked;
  return Sharded(fo, p.criteria, kShards);
}

const qf::Item& StreamItem(const Prepared& p, uint64_t j) {
  return p.base[j % p.base.size()];
}

/// Keys whose (qweight, candidate) in `f` differ from the mirror's.
uint64_t Mismatches(const Sharded& f, const std::vector<uint64_t>& keys,
                    const std::vector<qf::net::QueryAnswer>& answers) {
  uint64_t bad = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (f.QueryQweight(keys[i]) != answers[i].qweight ||
        (f.IsCandidate(keys[i]) ? 1 : 0) != answers[i].is_candidate) {
      ++bad;
    }
  }
  return bad;
}

double SpanSumNs(const SpanRecorder& rec, const std::string& name) {
  double ns = 0;
  for (const Span& s : rec.spans()) {
    if (s.name == name) ns += static_cast<double>(s.end_ns - s.start_ns);
  }
  return ns;
}

std::vector<double> SpanDurationsUs(const SpanRecorder& rec, const std::string& name) {
  std::vector<double> us;
  for (const Span& s : rec.spans()) {
    if (s.name == name) us.push_back(1e-3 * static_cast<double>(s.end_ns - s.start_ns));
  }
  return us;
}

double P50(std::vector<double> v) { return SelectPercentile(v, 0.5).value; }

// --- core ------------------------------------------------------------------

/// Inserts the stream frame by frame the way a shard worker does: each
/// frame's items are split by owning shard and each part goes through that
/// shard's InsertBatch, one "core.insert" span per part under a
/// "core.frame" span. Shards run in parallel in the server, so a frame's
/// core cost is its slowest part (`frame_core_ns`, used by the net phase).
void CoreLayer(const Prepared& p, uint64_t seed, Ladder* L,
               std::vector<uint64_t>* frame_core_ns) {
  Sharded f = MakeFilter(p);
  const size_t fi = kFrameItems;
  frame_core_ns->assign(p.stream_frames, 0);
  std::vector<std::vector<qf::Item>> parts(static_cast<size_t>(f.num_shards()));
  for (uint64_t fr = 0; fr < p.stream_frames; ++fr) {
    for (auto& part : parts) part.clear();
    for (size_t i = 0; i < fi; ++i) {
      const qf::Item& it = StreamItem(p, fr * fi + i);
      parts[static_cast<size_t>(f.ShardFor(it.key))].push_back(it);
    }
    const int frame = L->rec.Begin("core.frame", NowNs(), kNoParent, fr);
    for (int s = 0; s < f.num_shards(); ++s) {
      const uint64_t t0 = NowNs();
      f.shard(s).InsertBatch(parts[static_cast<size_t>(s)]);
      const uint64_t t1 = NowNs();
      L->rec.Add("core.insert", t0, t1, frame, fr);
      (*frame_core_ns)[fr] = std::max((*frame_core_ns)[fr], t1 - t0);
    }
    L->rec.End(frame, NowNs());
  }
  const auto st = f.AggregateStats();
  const double items = static_cast<double>(st.items);
  L->Add("core.insert_ns_per_item", SpanSumNs(L->rec, "core.insert") / items, "ns");

  qf::Rng rng(seed ^ 0xC04Eull);
  const qf::ZipfSampler zipf(p.keys_by_frequency.size(), 1.0);
  std::vector<uint64_t> keys(kQueryKeys);
  int64_t sink = 0;
  for (size_t b = 0; b < kCoreQueryBatches; ++b) {
    for (uint64_t& k : keys) k = p.keys_by_frequency[zipf.Sample(rng) - 1];
    const int s = L->rec.Begin("core.query", NowNs(), kNoParent, b);
    for (const uint64_t k : keys) sink += f.QueryQweight(k) + f.IsCandidate(k);
    L->rec.End(s, NowNs());
  }
  g_query_sink = sink;
  L->Add("core.query_ns_per_key",
         SpanSumNs(L->rec, "core.query") / (kCoreQueryBatches * kQueryKeys), "ns");
  L->Add("core.candidate_hit_ratio", st.candidate_hits / items, "ratio");
  L->Add("core.vague_insert_ratio", st.vague_inserts / items, "ratio");
  L->Add("core.swaps_per_mitem", st.swaps / items * 1e6, "1/Mitem");
  L->Add("core.reports", static_cast<double>(st.reports), "count");
  L->gate.CheckMany(p.keys.size(), Mismatches(f, p.keys, p.answers),
                    "core: filter state differs from the mirror");
}

// --- parallel --------------------------------------------------------------

void ParallelLayer(const Env& env, const Prepared& p, Ladder* L,
                   std::vector<uint64_t>* frame_push_ns) {
  Sharded f = MakeFilter(p);
  qf::IngestPipeline<>::Options po;
  po.batch_size = 32;
  po.ring_batches = 1024;
  if (env.cores.pinned && env.cores.online >= 4) {
    po.placement.pin_threads = true;
    po.placement.core_offset = env.cores.sut_cores.front();
  }
  qf::IngestPipeline<> pipe(f, po);
  pipe.Start();
  const size_t fi = kFrameItems;
  frame_push_ns->assign(p.stream_frames, 0);
  std::vector<qf::Item> frame(fi);
  const int root = L->rec.Begin("parallel.ingest", NowNs(), kNoParent, 0);
  for (uint64_t fr = 0; fr < p.stream_frames; ++fr) {
    for (size_t i = 0; i < fi; ++i) frame[i] = StreamItem(p, fr * fi + i);
    const uint64_t t0 = NowNs();
    pipe.PushBatch(frame);
    const uint64_t t1 = NowNs();
    L->rec.Add("parallel.push", t0, t1, root, fr);
    (*frame_push_ns)[fr] = t1 - t0;
  }
  const int flush = L->rec.Begin("parallel.flush", NowNs(), root, 0);
  pipe.Flush();
  L->rec.End(flush, NowNs());
  const int fence = L->rec.Begin("parallel.fence", NowNs(), root, 0);
  pipe.Fence();
  const uint64_t end = NowNs();
  L->rec.End(fence, end);
  L->rec.End(root, end);
  const Span& r = L->rec.spans()[static_cast<size_t>(root)];
  const double items = static_cast<double>(p.stream_items);
  L->Add("parallel.items_per_s", items / (static_cast<double>(r.end_ns - r.start_ns) * 1e-9),
         "1/s");
  L->Add("parallel.push_ns_per_item", SpanSumNs(L->rec, "parallel.push") / items, "ns");
  L->Add("parallel.fence_us", SpanSumNs(L->rec, "parallel.fence") * 1e-3, "us");
  double max_items = 0, sum_items = 0;
  for (int s = 0; s < pipe.num_shards(); ++s) {
    const double n = static_cast<double>(pipe.shard_items(s));
    max_items = std::max(max_items, n);
    sum_items += n;
  }
  L->Add("parallel.shard_skew", max_items / (sum_items / pipe.num_shards()), "ratio");
  pipe.Stop();
  L->gate.Check(pipe.totals().items_processed == p.stream_items,
                "parallel: processed != pushed");
  L->gate.CheckMany(p.keys.size(), Mismatches(f, p.keys, p.answers),
                    "parallel: filter state differs from the mirror");
}

// --- net: codec ------------------------------------------------------------

void CodecLayer(const Prepared& p, Ladder* L) {
  const size_t fi = kFrameItems;
  const size_t frames = p.frame_off.size();
  std::vector<uint8_t> out;
  out.reserve(p.frames.size());
  constexpr size_t kBlock = 64;
  for (size_t f = 0; f < frames; f += kBlock) {
    const int s = L->rec.Begin("net.encode", NowNs(), kNoParent, f);
    for (size_t g = f; g < std::min(frames, f + kBlock); ++g) {
      qf::net::EncodeIngestTo(
          g, std::span<const qf::Item>(p.base.data() + g * fi, fi), &out);
    }
    L->rec.End(s, NowNs());
  }
  L->gate.Check(out == p.frames, "net: re-encoded frames differ");

  FrameDecoder dec;
  qf::net::IngestRequest req;
  uint64_t decoded = 0;
  constexpr size_t kChunk = 64 * 1024;
  for (size_t at = 0; at < p.frames.size(); at += kChunk) {
    const int s = L->rec.Begin("net.decode", NowNs(), kNoParent, at);
    dec.Append(p.frames.data() + at, std::min(kChunk, p.frames.size() - at));
    FrameView view;
    while (dec.NextView(&view) == FrameDecoder::Result::kFrame) {
      if (qf::net::ParseIngest(view.payload, &req)) decoded += req.items.size();
    }
    L->rec.End(s, NowNs());
  }
  L->gate.Check(decoded == p.base.size(), "net: decoded item count");
  const double items = static_cast<double>(p.base.size());
  L->Add("net.encode_ns_per_item", SpanSumNs(L->rec, "net.encode") / items, "ns");
  L->Add("net.decode_ns_per_item", SpanSumNs(L->rec, "net.decode") / items, "ns");
  L->Add("net.wire_bytes_per_item", static_cast<double>(p.frames.size()) / items, "B/item");
}

// --- window-1 passes over the wire ----------------------------------------

/// Everything a window-1 pass of the whole stream observed.
struct Window1 {
  std::vector<uint64_t> sent_ns;  // per frame
  std::vector<double> rtt_us;     // per frame (window-1 part only)
  std::vector<double> query_us;
  /// Alert delivery per predicted alert (shard-major order, -1 if missing).
  std::vector<std::vector<double>> alert_us;
  double migrate_ms = 0;
  double ledger_depth_max = 0;
  double coalesced_batch_items = 0;
};

/// Sends the stream to `sut` one frame at a time (frames [0, window1_frames))
/// and then with kBurstWindow unacked frames, while a subscriber times each
/// predicted alert from its frame's send. A QUERY round trip runs every
/// kQueryEvery frames. `poll_cluster` polls the coordinator's kMetrics in
/// the burst. Ends with the correctness gate. Spans are recorded as
/// `prefix`.ack_rtt / .query_rtt / .alert.
bool Window1Pass(const Prepared& p, Sut& sut, uint64_t seed, uint64_t window1_frames,
                 bool poll_cluster, const std::string& prefix, Ladder* L,
                 Window1* out) {
  Wire ingest, sub, query, ctl;
  if (!ingest.Connect(sut.port()) || !sub.Connect(sut.port()) ||
      !query.Connect(sut.port()) || !ctl.Connect(sut.port())) {
    L->gate.Check(false, prefix + ": connect");
    return false;
  }
  std::vector<uint8_t> request, payload;
  qf::net::EncodeSubscribeTo(1, true, &request);
  L->gate.Check(sub.RoundTrip(request, FrameType::kSubscribe, &payload,
                              NowNs() + 10 * kSecond),
                prefix + ": subscribe");

  qf::Rng rng(seed ^ 0x57A7ull);
  const qf::ZipfSampler zipf(p.keys_by_frequency.size(), 1.0);
  std::vector<uint64_t> qkeys(kQueryKeys);

  out->sent_ns.assign(p.stream_frames, 0);
  out->alert_us.assign(p.alerts.size(), {});
  for (size_t s = 0; s < p.alerts.size(); ++s) out->alert_us[s].assign(p.alerts[s].size(), -1);
  AlertMatcher alerts(p);
  uint64_t bad_acks = 0, bad_queries = 0;
  auto poll_alerts = [&] {
    if (!sub.Pump()) return;
    FrameView view;
    qf::net::WireAlert alert;
    size_t k = 0;
    const uint64_t now = NowNs();
    while (sub.Next(&view) == FrameDecoder::Result::kFrame) {
      const ExpectedAlert* e = alerts.Match(view, &alert, &k);
      if (e == nullptr) continue;
      const uint64_t frame = e->item / kFrameItems;
      out->alert_us[alert.shard][k] = 1e-3 * static_cast<double>(now - out->sent_ns[frame]);
      L->rec.Add(prefix + ".alert", out->sent_ns[frame], now, kNoParent, frame);
    }
  };

  const uint64_t deadline = NowNs() + 120 * kSecond;
  uint64_t next = 0, acked = 0;
  qf::net::IngestAck ack;
  qf::net::QueryResult qr;
  bool ok = true;
  while (ok && acked < p.stream_frames && NowNs() < deadline) {
    const size_t window = next < window1_frames ? 1 : kBurstWindow;
    while (next < p.stream_frames && next - acked < window &&
           (next < window1_frames || acked >= window1_frames)) {
      size_t size = 0;
      const uint8_t* bytes = FrameBytes(p, next, &size);
      out->sent_ns[next] = NowNs();
      ok = ok && ingest.Send(bytes, size);
      ++next;
    }
    ok = ok && ingest.Flush() && ingest.Pump();
    FrameView view;
    while (ingest.Next(&view) == FrameDecoder::Result::kFrame) {
      const uint64_t now = NowNs();
      if (view.type != FrameType::kIngestAck || !qf::net::ParseIngestAck(view.payload, &ack) ||
          ack.token != acked % p.frame_off.size()) {
        ++bad_acks;
      }
      if (acked < window1_frames) {
        out->rtt_us.push_back(1e-3 * static_cast<double>(now - out->sent_ns[acked]));
        L->rec.Add(prefix + ".ack_rtt", out->sent_ns[acked], now, kNoParent, acked);
      }
      ++acked;
      if (acked % kQueryEvery == 0 && acked <= window1_frames) {
        for (uint64_t& k : qkeys) k = p.keys_by_frequency[zipf.Sample(rng) - 1];
        request.clear();
        qf::net::EncodeQueryTo(acked, qkeys, &request);
        const uint64_t t0 = NowNs();
        if (query.RoundTrip(request, FrameType::kQueryResult, &payload, deadline) &&
            qf::net::ParseQueryResult(payload, &qr) && qr.answers.size() == kQueryKeys) {
          const uint64_t t1 = NowNs();
          out->query_us.push_back(1e-3 * static_cast<double>(t1 - t0));
          L->rec.Add(prefix + ".query_rtt", t0, t1, kNoParent, acked);
        } else {
          ++bad_queries;
        }
      }
      if (poll_cluster && acked > window1_frames && acked % kMetricsPollEvery == 0) {
        ControlResult res;
        qf::obs::MetricsSnapshot snap;
        if (Control(ctl, ControlOp::kMetrics, {}, &res, deadline) &&
            qf::net::ParseMetricsPayload(res.payload, &snap)) {
          for (const auto& g : snap.gauges) {
            if (g.name == "qf_cluster_credit_ledger_depth") {
              out->ledger_depth_max =
                  std::max(out->ledger_depth_max, static_cast<double>(g.value));
            }
          }
        }
      }
    }
    poll_alerts();
  }
  L->gate.CheckMany(p.stream_frames, bad_acks + (p.stream_frames - acked),
                    prefix + ": INGEST acks");
  L->gate.CheckMany(p.stream_frames / kQueryEvery, bad_queries, prefix + ": QUERY replies");

  CheckStats(ctl, p.stream_items, &L->gate);
  const uint64_t alert_deadline = NowNs() + 10 * kSecond;
  while (alerts.matched() < p.expected_reports && NowNs() < alert_deadline) {
    sub.WaitReadable(5);
    poll_alerts();
  }
  alerts.Report(&L->gate, prefix + ": ALERT stream differs from the mirror");
  CheckAnswers(ctl, p.keys, p.answers, &L->gate);

  if (poll_cluster) {
    ControlResult res;
    qf::obs::MetricsSnapshot snap;
    if (Control(ctl, ControlOp::kMetrics, {}, &res, deadline) &&
        qf::net::ParseMetricsPayload(res.payload, &snap)) {
      for (const auto& h : snap.histograms) {
        if (h.name == "qf_cluster_coalesced_batch_items") {
          out->coalesced_batch_items = h.data.Mean();
        }
      }
    }
    // One live migration of slot 0 to the other backend, then the answers
    // must still equal the mirror's.
    std::vector<uint8_t> mig;
    qf::net::EncodeMigratePayloadTo(qf::net::MigrateRequest{0, 1}, &mig);
    const uint64_t t0 = NowNs();
    L->gate.Check(Control(ctl, ControlOp::kMigrate, mig, &res, deadline), prefix + ": migrate");
    const uint64_t t1 = NowNs();
    out->migrate_ms = 1e-6 * static_cast<double>(t1 - t0);
    L->rec.Add(prefix + ".migrate", t0, t1, kNoParent, 0);
    CheckAnswers(ctl, p.keys, p.answers, &L->gate);
  }
  return ok;
}

/// Server stage histograms (qf_stage_*) fetched over kMetrics, recorded next
/// to the benchmark's spans as a cross-check: one span per stage whose
/// length is the stage's mean, plus a printed line.
void RecordStages(Sut& sut, Ladder* L) {
  Wire ctl;
  ControlResult res;
  qf::obs::MetricsSnapshot snap;
  if (!ctl.Connect(sut.port()) ||
      !Control(ctl, ControlOp::kMetrics, {}, &res, NowNs() + 10 * kSecond) ||
      !qf::net::ParseMetricsPayload(res.payload, &snap)) {
    std::printf("stage histograms: unavailable\n");
    return;
  }
  const uint64_t at = NowNs();
  for (const auto& h : snap.histograms) {
    if (h.name.rfind("qf_stage_", 0) != 0) continue;
    const double mean = h.data.Mean();
    std::printf("stage %-28s mean %10.1f ns  p50 %10llu ns  p99 %10llu ns\n",
                h.name.c_str(), mean,
                static_cast<unsigned long long>(h.data.Quantile(0.5)),
                static_cast<unsigned long long>(h.data.Quantile(0.99)));
    L->rec.Add("server." + h.name + ".mean", at, at + static_cast<uint64_t>(mean),
               kNoParent, 0);
  }
}

// --- durable -----------------------------------------------------------------

void DurableLayer(const Env& env, const Prepared& p, Ladder* L) {
  const std::string dir = env.run_dir + "/trace-wal";
  std::filesystem::remove_all(dir);
  qf::durable::FsStorage storage(dir);
  if (!storage.ok()) {
    L->gate.Check(false, "durable: storage " + storage.error());
    return;
  }
  qf::durable::WalOptions wo;
  wo.fsync = qf::durable::FsyncMode::kGroup;
  qf::durable::WalWriter wal(&storage, wo);
  L->gate.Check(wal.Init(1, 1), "durable: wal init");
  const size_t fi = kFrameItems;
  const uint64_t frames = std::min<uint64_t>(kWalFrames, p.stream_frames);
  const uint64_t items = frames * fi;
  std::vector<qf::Item> frame(fi);
  Sharded reference = MakeFilter(p);
  bool appended = true;
  for (uint64_t fr = 0; fr < frames; ++fr) {
    for (size_t i = 0; i < fi; ++i) {
      frame[i] = StreamItem(p, fr * fi + i);
      reference.Insert(frame[i].key, frame[i].value);
    }
    const int s = L->rec.Begin("durable.append", NowNs(), kNoParent, fr);
    appended = appended && wal.Append(frame, nullptr);
    L->rec.End(s, NowNs());
    if ((fr + 1) % kWalSyncEvery == 0) {
      const int y = L->rec.Begin("durable.sync", NowNs(), kNoParent, fr);
      appended = appended && wal.Sync();
      L->rec.End(y, NowNs());
    }
  }
  L->gate.Check(appended, "durable: append/sync");
  L->Add("durable.append_ns_per_item",
         SpanSumNs(L->rec, "durable.append") / static_cast<double>(items), "ns");
  L->Add("durable.sync_us", P50(SpanDurationsUs(L->rec, "durable.sync")), "us");
  uint64_t log_bytes = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.is_regular_file()) log_bytes += e.file_size();
  }
  L->Add("durable.log_bytes_per_item", static_cast<double>(log_bytes) / items, "B/item");

  // Keys of the logged prefix with the reference answers.
  std::vector<uint64_t> keys;
  for (uint64_t j = 0; j < items; ++j) keys.push_back(StreamItem(p, j).key);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<qf::net::QueryAnswer> want;
  for (const uint64_t k : keys) {
    want.push_back({reference.QueryQweight(k),
                    static_cast<uint8_t>(reference.IsCandidate(k) ? 1 : 0)});
  }

  // Replay: recover the log and re-drive its tail into a fresh filter.
  Sharded replayed = MakeFilter(p);
  const int r = L->rec.Begin("durable.replay", NowNs(), kNoParent, 0);
  qf::durable::Recovered rec = qf::durable::Recover(storage, {});
  std::string err;
  const bool applied = rec.ok && qf::durable::ApplyCheckpoints(rec, &replayed, &err);
  for (const qf::Item& it : rec.tail) replayed.Insert(it.key, it.value);
  L->rec.End(r, NowNs());
  L->gate.Check(applied && rec.tail.size() == items, "durable: recover " + rec.error + err);
  L->Add("durable.replay_items_per_s",
         static_cast<double>(rec.tail.size()) / (SpanSumNs(L->rec, "durable.replay") * 1e-9),
         "1/s");
  L->gate.CheckMany(keys.size(), Mismatches(replayed, keys, want),
                    "durable: replayed state differs from the reference");

  // Checkpoint the replayed state, then recover from the checkpoint alone.
  std::vector<qf::durable::RngState> rngs(static_cast<size_t>(replayed.num_shards()));
  for (int s = 0; s < replayed.num_shards(); ++s) {
    replayed.shard(s).GetRngState(rngs[static_cast<size_t>(s)].data());
  }
  qf::durable::CheckpointStore store(&storage);
  const int c = L->rec.Begin("durable.checkpoint", NowNs(), kNoParent, 0);
  const std::vector<uint8_t> blob = replayed.SerializeState();
  const bool wrote = store.WriteFull(1, wal.wal_gen(), wal.next_seq() - 1, blob, rngs);
  L->rec.End(c, NowNs());
  L->gate.Check(wrote, "durable: checkpoint write");
  L->Add("durable.checkpoint_ms", SpanSumNs(L->rec, "durable.checkpoint") * 1e-6, "ms");
  L->Add("durable.checkpoint_bytes", static_cast<double>(blob.size()), "B");
  Sharded restored = MakeFilter(p);
  qf::durable::Recovered rec2 = qf::durable::Recover(storage, {});
  const bool applied2 = rec2.ok && rec2.had_checkpoint && rec2.tail.empty() &&
                        qf::durable::ApplyCheckpoints(rec2, &restored, &err);
  L->gate.Check(applied2, "durable: recover from checkpoint " + rec2.error + err);
  L->gate.CheckMany(keys.size(), Mismatches(restored, keys, want),
                    "durable: checkpointed state differs from the reference");
  std::filesystem::remove_all(dir);
}

}  // namespace

LayerResult RunLayers(const Env& env, const Prepared& p, uint64_t seed,
                      const std::string& trace_path) {
  Ladder L;
  std::string error;

  std::vector<uint64_t> frame_core_ns, frame_push_ns;
  CoreLayer(p, seed, &L, &frame_core_ns);
  ParallelLayer(env, p, &L, &frame_push_ns);
  CodecLayer(p, &L);

  // Direct server (the workload's server shape; plain qf_server for the
  // cluster workload), window 1.
  WorkloadSpec direct_spec = p.spec;
  if (direct_spec.shape == SutShape::kCluster) direct_spec.shape = SutShape::kServer;
  const std::string wal = direct_spec.shape == SutShape::kDurableServer
                              ? env.run_dir + "/trace-direct-wal"
                              : "";
  if (!wal.empty()) std::filesystem::remove_all(wal);
  Window1 direct;
  {
    Sut sut;
    double secs = 0;
    if (sut.Boot(env, direct_spec, wal, &secs, &error)) {
      Window1Pass(p, sut, seed, p.stream_frames, false, "net", &L, &direct);
      RecordStages(sut, &L);
    } else {
      L.gate.Check(false, "boot: " + error);
    }
  }
  // Self time of each ack round trip: the RTT minus the in-process cost of
  // the same frame's parallel push and (slowest shard's) core insert, laid
  // in as child spans.
  std::vector<double> self_us;
  {
    std::vector<int> rtts;
    for (size_t i = 0; i < L.rec.spans().size(); ++i) {
      if (L.rec.spans()[i].name == "net.ack_rtt") rtts.push_back(static_cast<int>(i));
    }
    for (const int i : rtts) {
      const Span rtt = L.rec.spans()[static_cast<size_t>(i)];
      const uint64_t push = frame_push_ns[rtt.request];
      const uint64_t core = frame_core_ns[rtt.request];
      L.rec.Add("net.ack_rtt.parallel", rtt.start_ns, rtt.start_ns + push, i, rtt.request);
      L.rec.Add("net.ack_rtt.core", rtt.start_ns + push, rtt.start_ns + push + core, i,
                rtt.request);
    }
    const std::vector<uint64_t> self = L.rec.SelfTimes();
    for (const int i : rtts) self_us.push_back(1e-3 * static_cast<double>(self[static_cast<size_t>(i)]));
  }
  L.Add("net.ack_rtt_p50_us", P50(direct.rtt_us), "us", direct.rtt_us.size());
  L.Add("net.server_self_us", P50(self_us), "us", self_us.size());
  L.Add("net.query_rtt_p50_us", P50(direct.query_us), "us", direct.query_us.size());
  std::vector<double> direct_alerts;
  for (const auto& v : direct.alert_us) {
    for (const double us : v) {
      if (us >= 0) direct_alerts.push_back(us);
    }
  }
  L.Add("net.alert_delivery_p50_us", P50(direct_alerts), "us", direct_alerts.size());

  DurableLayer(env, p, &L);

  // Cluster: the same stream through a coordinator over two backends; the
  // first half window 1 (per-frame hop), the second half as a burst.
  {
    WorkloadSpec cspec = p.spec;
    cspec.shape = SutShape::kCluster;
    Sut sut;
    double secs = 0;
    Window1 prox;
    if (sut.Boot(env, cspec, "", &secs, &error)) {
      Window1Pass(p, sut, seed, p.stream_frames / 2, true, "cluster", &L, &prox);
    } else {
      L.gate.Check(false, "boot: " + error);
    }
    std::vector<double> hop;
    for (size_t f = 0; f < prox.rtt_us.size() && f < direct.rtt_us.size(); ++f) {
      hop.push_back(prox.rtt_us[f] - direct.rtt_us[f]);
    }
    std::vector<double> reseq;
    for (size_t s = 0; s < prox.alert_us.size() && s < direct.alert_us.size(); ++s) {
      for (size_t k = 0; k < prox.alert_us[s].size() && k < direct.alert_us[s].size(); ++k) {
        const uint64_t frame = p.alerts[s][k].item / kFrameItems;
        if (frame < p.stream_frames / 2 && prox.alert_us[s][k] >= 0 &&
            direct.alert_us[s][k] >= 0) {
          reseq.push_back(prox.alert_us[s][k] - direct.alert_us[s][k]);
        }
      }
    }
    L.Add("cluster.hop_p50_us", P50(hop), "us", hop.size());
    L.Add("cluster.coalesced_batch_items", prox.coalesced_batch_items, "items");
    L.Add("cluster.credit_ledger_depth_max", prox.ledger_depth_max, "count");
    L.Add("cluster.query_fanout_p50_us", P50(prox.query_us), "us", prox.query_us.size());
    L.Add("cluster.alert_reseq_p50_us", P50(reseq), "us", reseq.size());
    L.Add("cluster.migrate_ms", prox.migrate_ms, "ms");
  }

  // End to end, untraced then traced, on fresh SUTs of the workload's shape:
  // generator health from the first, the tracing overhead from the pair.
  OpenLoopOut plain, traced;
  for (int pass = 0; pass < 2; ++pass) {
    const std::string ewal = p.spec.shape == SutShape::kDurableServer
                                 ? env.run_dir + "/trace-e2e-wal" + std::to_string(pass)
                                 : "";
    if (!ewal.empty()) std::filesystem::remove_all(ewal);
    Sut sut;
    double secs = 0;
    if (!sut.Boot(env, p.spec, ewal, &secs, &error)) {
      L.gate.Check(false, "boot: " + error);
      continue;
    }
    OpenLoop(p, sut, seed, &L.gate, pass == 0 ? &plain : &traced,
             pass == 0 ? nullptr : &L.rec);
  }
  std::vector<double> late = plain.late_us;
  const Percentile late99 = SelectPercentile(late, 0.99);
  L.Add("gen.late_p99_us", late99.value, "us", late99.samples);
  L.Add("gen.late_max_us", late.empty() ? 0 : late.back(), "us", late.size());
  L.Add("gen.cpu_util", plain.wall_s > 0 ? plain.gen_busy_s / plain.wall_s : 0, "ratio");
  const double plain_p50 = P50(plain.ack_us), traced_p50 = P50(traced.ack_us);
  std::printf("open loop ack p50: untraced %.1f us (n=%zu), traced %.1f us (n=%zu)\n",
              plain_p50, plain.ack_us.size(), traced_p50, traced.ack_us.size());
  L.Add("trace.overhead_ratio", plain_p50 > 0 ? traced_p50 / plain_p50 : 0, "ratio");

  const bool wrote = L.rec.WriteChromeJson(trace_path);
  std::printf("trace: %zu spans %s %s\n", L.rec.spans().size(),
              wrote ? "written to" : "could not be written to", trace_path.c_str());
  L.gate.Check(wrote, "trace file");
  return LayerResult{std::move(L.metrics), std::move(L.gate)};
}

}  // namespace perfbench
