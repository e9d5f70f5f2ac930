#include "workload.h"

#include <algorithm>
#include <cmath>

#include "baseline/exact_detector.h"
#include "core/sharded_filter.h"
#include "stream/generators.h"

namespace perfbench {

namespace {

std::vector<WorkloadSpec> AllWorkloads() {
  std::vector<WorkloadSpec> all;

  WorkloadSpec serve;
  serve.name = "internet-serve";
  serve.trace = TraceKind::kInternet;
  serve.shape = SutShape::kServer;
  serve.base_items = 2'000'000;
  serve.threshold = 300.0;
  all.push_back(serve);

  WorkloadSpec durable;
  durable.name = "cloud-durable";
  durable.trace = TraceKind::kCloud;
  durable.shape = SutShape::kDurableServer;
  durable.base_items = 0;  // sized to the stream: no key repeats by cycling
  durable.threshold = 20000.0;
  durable.wal_prefix_items = 1'000'192;  // a whole number of frames
  all.push_back(durable);

  WorkloadSpec cluster = serve;
  cluster.name = "internet-cluster";
  cluster.shape = SutShape::kCluster;
  all.push_back(cluster);
  return all;
}

std::vector<uint64_t> DistinctKeys(const std::vector<qf::Item>& items, size_t n) {
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = items[i].key;
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

}  // namespace

bool FindWorkload(const std::string& name, WorkloadSpec* out) {
  for (const WorkloadSpec& w : AllWorkloads()) {
    if (w.name == name) {
      *out = w;
      return true;
    }
  }
  return false;
}

Prepared Prepare(const WorkloadSpec& spec, uint64_t seed, double seconds,
                 uint64_t mirror_seed) {
  Prepared p;
  p.spec = spec;
  p.criteria = qf::Criteria(30.0, 0.95, spec.threshold);

  const double open_s = seconds * kOpenFraction / kRounds;
  p.stream_frames = static_cast<uint64_t>(
      std::llround(kRateItemsPerS * open_s /
                   static_cast<double>(kFrameItems)));
  p.stream_frames = std::max<uint64_t>(p.stream_frames, 1);
  p.stream_items = p.stream_frames * kFrameItems;
  p.wal_prefix_items = std::min<uint64_t>(spec.wal_prefix_items, p.stream_items);

  size_t base_items = spec.base_items == 0
                          ? static_cast<size_t>(p.stream_items)
                          : std::min<size_t>(spec.base_items, p.stream_items);
  base_items -= base_items % kFrameItems;
  if (spec.trace == TraceKind::kInternet) {
    qf::InternetTraceOptions o;
    o.num_items = base_items;
    o.seed = seed;
    p.base = qf::GenerateInternetTrace(o);
  } else {
    qf::CloudTraceOptions o;
    o.num_items = base_items;
    o.seed = seed;
    p.base = qf::GenerateCloudTrace(o);
  }

  // One cycle of pre-encoded INGEST frames.
  const size_t cycle_frames = p.base.size() / kFrameItems;
  p.frames.reserve(cycle_frames * (kFrameItems * sizeof(qf::Item) + 24));
  p.frame_off.reserve(cycle_frames);
  for (size_t f = 0; f < cycle_frames; ++f) {
    p.frame_off.push_back(p.frames.size());
    qf::net::EncodeIngestTo(
        f, std::span<const qf::Item>(p.base.data() + f * kFrameItems,
                                     kFrameItems),
        &p.frames);
  }

  // Mirror + exact oracle over the whole stream.
  qf::ShardedQuantileFilter<>::Filter::Options fo;
  fo.memory_bytes = spec.memory_bytes;
  fo.seed = mirror_seed;
  fo.vague_layout = qf::VagueLayout::kBlocked;
  qf::ShardedQuantileFilter<> mirror(fo, p.criteria, kShards);
  p.alerts.assign(static_cast<size_t>(kShards), {});
  std::unordered_set<uint64_t> truth;
  {
    qf::ExactDetector exact(p.criteria);
    for (uint64_t j = 0; j < p.stream_items; ++j) {
      const qf::Item& it = p.base[j % p.base.size()];
      if (mirror.Insert(it.key, it.value)) {
        p.alerts[static_cast<size_t>(mirror.ShardFor(it.key))].push_back(
            ExpectedAlert{j, it.key, it.value});
        ++p.expected_reports;
      }
      if (exact.Insert(it.key, it.value)) truth.insert(it.key);
      if (j + 1 == p.wal_prefix_items) {
        p.prefix_keys = DistinctKeys(p.base, j + 1);
        p.prefix_answers.reserve(p.prefix_keys.size());
        for (const uint64_t key : p.prefix_keys) {
          p.prefix_answers.push_back(qf::net::QueryAnswer{
              mirror.QueryQweight(key),
              static_cast<uint8_t>(mirror.IsCandidate(key) ? 1 : 0)});
        }
      }
    }
  }
  // Distinct keys ascending, and ranked by frequency in one cycle.
  std::vector<uint64_t> all(p.base.size());
  for (size_t i = 0; i < p.base.size(); ++i) all[i] = p.base[i].key;
  std::sort(all.begin(), all.end());
  std::vector<std::pair<uint64_t, uint64_t>> by_freq;  // (count, key)
  for (size_t i = 0; i < all.size();) {
    size_t j = i;
    while (j < all.size() && all[j] == all[i]) ++j;
    by_freq.emplace_back(j - i, all[i]);
    p.keys.push_back(all[i]);
    i = j;
  }
  std::sort(by_freq.begin(), by_freq.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  p.keys_by_frequency.reserve(by_freq.size());
  for (const auto& [n, key] : by_freq) p.keys_by_frequency.push_back(key);
  p.truth = std::move(truth);
  p.answers.reserve(p.keys.size());
  for (const uint64_t key : p.keys) {
    p.answers.push_back(qf::net::QueryAnswer{
        mirror.QueryQweight(key),
        static_cast<uint8_t>(mirror.IsCandidate(key) ? 1 : 0)});
  }
  return p;
}

}  // namespace perfbench
