// Workloads of the serving benchmark and their in-bench oracles.
//
// A workload fixes the trace family, the SUT shape and the offered rates;
// the seed (a benchmark argument) fixes the trace. Prepare() generates the
// stream, pre-encodes its INGEST frames, and runs two oracles over it:
//
//   * the mirror — a ShardedQuantileFilter with the SUT's exact geometry,
//     seed and criteria. With one reactor the server applies each shard's
//     items in stream order, so the mirror predicts every QUERY answer and
//     every shard's ALERT sequence bit for bit, and names the stream item
//     that triggered each alert;
//   * ExactDetector — the paper's zero-error ground truth, for F1.
//
// See README.md for why each workload was chosen.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/criteria.h"
#include "net/protocol.h"
#include "stream/item.h"

namespace perfbench {

enum class TraceKind { kInternet, kCloud };
enum class SutShape { kServer, kDurableServer, kCluster };

/// Shared by every workload (see README.md for the numbers behind them).
inline constexpr double kRateItemsPerS = 3'000'000;  // open-loop offered rate
inline constexpr size_t kFrameItems = 256;           // items per INGEST frame
inline constexpr int kShards = 2;  // server shards; cluster slots and backend --shards
inline constexpr uint64_t kFilterSeed = 0x9F17E60ULL;  // SUT and mirror filter seed
/// A run repeats kRounds rounds: set-up trials, a closed-loop pass and an
/// open-loop pass, each on fresh SUT processes. The open-loop passes
/// together last kOpenFraction of --seconds; the stream is sized from that,
/// and the closed-loop passes replay the same stream.
inline constexpr int kRounds = 10;
inline constexpr double kOpenFraction = 0.45;

struct WorkloadSpec {
  std::string name;
  TraceKind trace = TraceKind::kInternet;
  SutShape shape = SutShape::kServer;
  /// Items generated per seed; the stream repeats this trace as needed (the
  /// internet trace's key population is small and stationary, so repeating
  /// it keeps its character). 0 sizes the trace to the stream.
  size_t base_items = 0;
  double threshold = 300.0;
  /// Filter budget of every SUT of the workload (split across shards), and
  /// of the mirror.
  uint64_t memory_bytes = 1u << 20;
  /// Cloud-durable: items in the WAL prefix replayed by each recovery.
  size_t wal_prefix_items = 0;
};

/// The three benchmark workloads by name; false if unknown.
bool FindWorkload(const std::string& name, WorkloadSpec* out);

struct ExpectedAlert {
  uint64_t item = 0;  // stream index of the triggering item
  uint64_t key = 0;
  double value = 0.0;
};

struct Prepared {
  WorkloadSpec spec;
  qf::Criteria criteria;
  std::vector<qf::Item> base;     // the generated trace (one cycle)
  uint64_t stream_items = 0;      // base.size() * cycles
  /// INGEST frames for one cycle, back to back; frame f starts at
  /// frame_off[f] and carries token f (acks return in order per
  /// connection, so the token checks the ack's position).
  std::vector<uint8_t> frames;
  std::vector<size_t> frame_off;
  uint64_t stream_frames = 0;
  /// Mirror predictions at the end of the stream.
  std::vector<uint64_t> keys;  // every distinct key, ascending
  std::vector<qf::net::QueryAnswer> answers;
  std::vector<std::vector<ExpectedAlert>> alerts;  // per shard, in order
  uint64_t expected_reports = 0;
  /// Mirror predictions after the WAL prefix (cloud-durable): its first
  /// wal_prefix_items stream items, at most the whole stream.
  uint64_t wal_prefix_items = 0;
  std::vector<uint64_t> prefix_keys;
  std::vector<qf::net::QueryAnswer> prefix_answers;
  /// ExactDetector's outstanding keys over the stream.
  std::unordered_set<uint64_t> truth;
  /// Zipf-ranked keys for the live QUERY phase (most frequent first).
  std::vector<uint64_t> keys_by_frequency;
};

/// Builds the stream for `seed`. `mirror_seed` is the filter seed the
/// mirror uses — the SUT always runs kFilterSeed, so passing anything else
/// must make the correctness gate fail (the must-fail leg).
Prepared Prepare(const WorkloadSpec& spec, uint64_t seed, double seconds,
                 uint64_t mirror_seed);

/// Positions where `got` and `want` differ in qweight or candidate status
/// (plus any length difference): the gate's comparison of SUT answers with
/// the mirror's.
inline uint64_t CountAnswerMismatches(std::span<const qf::net::QueryAnswer> got,
                                      std::span<const qf::net::QueryAnswer> want) {
  const size_t n = std::min(got.size(), want.size());
  uint64_t bad = std::max(got.size(), want.size()) - n;
  for (size_t i = 0; i < n; ++i) {
    if (got[i].qweight != want[i].qweight ||
        got[i].is_candidate != want[i].is_candidate) {
      ++bad;
    }
  }
  return bad;
}

/// Frame `f` of the stream (cycling over the base trace).
inline const uint8_t* FrameBytes(const Prepared& p, uint64_t f, size_t* size) {
  const size_t i = static_cast<size_t>(f % p.frame_off.size());
  const size_t end = i + 1 < p.frame_off.size() ? p.frame_off[i + 1] : p.frames.size();
  *size = end - p.frame_off[i];
  return p.frames.data() + p.frame_off[i];
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
