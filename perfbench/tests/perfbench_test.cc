// Unit tests for the serving benchmark's own code: percentile selection,
// span self time, due-time latency accounting, and the correctness gate's
// must-fail leg (a mirror with another filter seed must disagree).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/sharded_filter.h"
#include "openloop.h"
#include "spans.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

TEST(SelectPercentile, NearestRankWithSampleCount) {
  std::vector<double> v = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  Percentile p50 = SelectPercentile(v, 0.5);
  EXPECT_EQ(p50.value, 5);
  EXPECT_EQ(p50.samples, 10u);
  Percentile p90 = SelectPercentile(v, 0.9);
  EXPECT_EQ(p90.value, 9);
  EXPECT_EQ(SelectPercentile(v, 1.0).value, 10);
}

TEST(SelectPercentile, RoundsRankUpAndHandlesSmallInputs) {
  std::vector<double> three = {30, 10, 20};
  EXPECT_EQ(SelectPercentile(three, 0.5).value, 20);  // rank ceil(1.5) = 2
  EXPECT_EQ(SelectPercentile(three, 0.9).value, 30);  // rank ceil(2.7) = 3
  std::vector<double> one = {7};
  EXPECT_EQ(SelectPercentile(one, 0.01).value, 7);
  std::vector<double> none;
  const Percentile empty = SelectPercentile(none, 0.5);
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_EQ(empty.value, 0);
}

TEST(BetterQuartile, ThirdBestOfTenEitherWay) {
  const std::vector<double> v = {9, 1, 8, 2, 7, 3, 6, 4, 5, 10};
  EXPECT_EQ(BetterQuartile(v, /*higher_is_better=*/false), 3);
  EXPECT_EQ(BetterQuartile(v, /*higher_is_better=*/true), 8);
  EXPECT_EQ(BetterQuartile({}, false), 0);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(SpanSelfTime, ParentMinusUnionOfDirectChildren) {
  SpanRecorder rec;
  const int parent = rec.Add("parent", 0, 100, kNoParent, 1);
  const int a = rec.Add("a", 10, 30, parent, 1);
  rec.Add("b", 20, 50, parent, 1);  // overlaps a: union [10, 50)
  rec.Add("c", 60, 70, parent, 1);
  rec.Add("grandchild", 12, 18, a, 1);  // counts against a, not parent
  const std::vector<uint64_t> self = rec.SelfTimes();
  EXPECT_EQ(self[static_cast<size_t>(parent)], 100u - 40u - 10u);
  EXPECT_EQ(self[static_cast<size_t>(a)], 20u - 6u);
  EXPECT_EQ(self[3], 10u);
}

TEST(SpanSelfTime, ChildrenAreClippedToTheParent) {
  SpanRecorder rec;
  const int parent = rec.Add("parent", 100, 200, kNoParent, 7);
  rec.Add("early", 50, 120, parent, 7);  // only [100, 120) is inside
  rec.Add("late", 190, 400, parent, 7);  // only [190, 200) is inside
  EXPECT_EQ(rec.SelfTimes()[static_cast<size_t>(parent)], 100u - 20u - 10u);
  const int lone = rec.Add("lone", 0, 5, kNoParent, 8);
  EXPECT_EQ(rec.SelfTimes()[static_cast<size_t>(lone)], 5u);
}

TEST(SpanRecorder, WritesChromeTracingJson) {
  SpanRecorder rec;
  const int s = rec.Begin("net.ack_rtt", 1000, kNoParent, 3);
  rec.End(s, 4000);
  const std::string path = ::testing::TempDir() + "/perfbench_spans.json";
  ASSERT_TRUE(rec.WriteChromeJson(path));
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"net.ack_rtt\""), std::string::npos);
  EXPECT_NE(text.find("\"ts\":1.000,\"dur\":3.000"), std::string::npos);
  std::remove(path.c_str());
}

TEST(DueTime, LatencyCountsFromTheDueTimeNotTheSend) {
  const Schedule sched(1'000'000, 1e6);  // one frame per microsecond
  EXPECT_EQ(sched.Due(0), 1'000'000u);
  EXPECT_EQ(sched.Due(5), 1'005'000u);
  DueTimeBook book(3);
  // Frame 0 on time; frame 1 sent 500 ns late; frame 2 never completes.
  book.MarkSent(0, sched.Due(0), sched.Due(0));
  book.MarkDone(0, sched.Due(0) + 2'000);
  book.MarkSent(1, sched.Due(1), sched.Due(1) + 500);
  book.MarkDone(1, sched.Due(1) + 800);
  book.MarkSent(2, sched.Due(2), sched.Due(2));
  const std::vector<double> lat = book.LatenciesUs();
  ASSERT_EQ(lat.size(), 2u);
  EXPECT_DOUBLE_EQ(lat[0], 2.0);
  EXPECT_DOUBLE_EQ(lat[1], 0.8);  // not 0.3: the late send is charged
  const std::vector<double> late = book.LatenessUs();
  ASSERT_EQ(late.size(), 3u);
  EXPECT_DOUBLE_EQ(late[1], 0.5);
}

TEST(DueTime, AStallIsChargedToEveryFrameQueuedBehindIt) {
  const Schedule sched(0, 1e6);
  DueTimeBook book(5);
  // The system stalls until t = 10 us, then answers everything at once.
  for (size_t i = 0; i < 5; ++i) {
    book.MarkSent(i, sched.Due(i), sched.Due(i));
    book.MarkDone(i, 10'000);
  }
  std::vector<double> lat = book.LatenciesUs();
  EXPECT_DOUBLE_EQ(lat[0], 10.0);
  EXPECT_DOUBLE_EQ(lat[4], 6.0);
  EXPECT_EQ(SelectPercentile(lat, 0.5).value, 8.0);
}

/// A small internet stream, replayed through a filter configured exactly as
/// the SUT is (kFilterSeed), against mirrors with two filter seeds.
class MirrorGate : public ::testing::Test {
 protected:
  static Prepared Make(uint64_t mirror_seed) {
    WorkloadSpec spec;
    EXPECT_TRUE(FindWorkload("internet-serve", &spec));
    spec.base_items = 50'176;
    spec.memory_bytes = 32 * 1024;  // small enough that hashing matters
    return Prepare(spec, /*seed=*/3, /*seconds=*/0.7, mirror_seed);  // ~94k items
  }

  static std::vector<qf::net::QueryAnswer> SutAnswers(const Prepared& p) {
    qf::ShardedQuantileFilter<>::Filter::Options fo;
    fo.memory_bytes = p.spec.memory_bytes;
    fo.seed = kFilterSeed;
    fo.vague_layout = qf::VagueLayout::kBlocked;
    qf::ShardedQuantileFilter<> sut(fo, p.criteria, kShards);
    for (uint64_t j = 0; j < p.stream_items; ++j) {
      const qf::Item& it = p.base[j % p.base.size()];
      sut.Insert(it.key, it.value);
    }
    std::vector<qf::net::QueryAnswer> got;
    for (const uint64_t k : p.keys) {
      got.push_back({sut.QueryQweight(k), static_cast<uint8_t>(sut.IsCandidate(k))});
    }
    return got;
  }
};

TEST_F(MirrorGate, MatchingMirrorPasses) {
  const Prepared p = Make(kFilterSeed);
  ASSERT_GT(p.stream_items, p.base.size());  // the stream cycles the trace
  EXPECT_EQ(CountAnswerMismatches(SutAnswers(p), p.answers), 0u);
  EXPECT_GT(p.expected_reports, 0u);
  EXPECT_FALSE(p.truth.empty());
}

TEST_F(MirrorGate, MirrorWithAnotherFilterSeedMustFail) {
  const Prepared good = Make(kFilterSeed);
  const Prepared bad = Make(kFilterSeed + 1);
  ASSERT_EQ(bad.keys, good.keys);  // same stream, different mirror
  EXPECT_GT(CountAnswerMismatches(SutAnswers(good), bad.answers), 0u);
}

TEST(CountAnswerMismatches, CountsLengthDifferences) {
  const std::vector<qf::net::QueryAnswer> two = {{1, 0}, {2, 1}};
  const std::vector<qf::net::QueryAnswer> one = {{1, 0}};
  EXPECT_EQ(CountAnswerMismatches(two, one), 1u);
  EXPECT_EQ(CountAnswerMismatches(two, two), 0u);
}

}  // namespace
}  // namespace perfbench
