// Reactor-pass write path (DESIGN.md §11): replies are queued while a pass
// handles its frames and written once per connection at the end of the
// pass, after the pass's items are published, its WAL group is committed
// and the alert rings are drained. These tests pin what that must not
// change — per-connection reply order in every WAL mode, ack-after-fsync,
// error-then-close — and the read side's one-buffer-per-event rule, which
// keeps a flooding client from starving the alert drain.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "durable/log.h"
#include "durable/storage.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"

namespace qf::net {
namespace {

QfServer::Options PassOptions() {
  QfServer::Options o;
  o.port = 0;  // ephemeral
  o.num_shards = 2;
  o.filter.memory_bytes = 128 * 1024;
  o.criteria = Criteria(30, 0.95, 300);
  return o;
}

int ConnectRaw(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::vector<uint8_t>& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = send(fd, bytes.data() + off, bytes.size() - off, 0);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Reads frames until the server closes the connection.
std::vector<Frame> ReadUntilEof(int fd) {
  std::vector<Frame> frames;
  FrameDecoder decoder;
  uint8_t buf[4096];
  while (true) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    if (!decoder.Append(buf, static_cast<size_t>(n))) break;
    Frame frame;
    while (decoder.Next(&frame) == FrameDecoder::Result::kFrame) {
      frames.push_back(frame);
    }
  }
  return frames;
}

std::vector<Item> Items(uint64_t first_key, size_t count) {
  std::vector<Item> items;
  for (size_t i = 0; i < count; ++i) {
    items.push_back(Item{first_key + i, 1.0 + static_cast<double>(i % 7)});
  }
  return items;
}

enum class WalMode { kOff, kFsyncNone, kFsyncGroup };

class NetServerPassTest : public ::testing::TestWithParam<WalMode> {};

// One client write carries INGEST, QUERY, CONTROL kStats, INGEST, then a
// frame type the server never accepts, then one more INGEST. All six reach
// the server in one read, so every reply is queued in a single pass and
// written at its end: the replies must still come back in request order,
// the second ack after the first (and, under group commit, after the
// fsync that covers it), the ERROR last, then EOF — nothing after the
// ERROR is answered.
TEST_P(NetServerPassTest, OneWriteGetsRepliesInRequestOrderThenErrorClose) {
  QfServer::Options opts = PassOptions();
  durable::MemStorage storage;
  if (GetParam() != WalMode::kOff) {
    opts.durable.storage = &storage;
    opts.durable.fsync = GetParam() == WalMode::kFsyncGroup
                             ? durable::FsyncMode::kGroup
                             : durable::FsyncMode::kNone;
  }
  QfServer server(opts);
  ASSERT_TRUE(server.Start()) << server.error();

  const std::vector<Item> first = Items(1, 300);
  const std::vector<Item> second = Items(1000, 200);
  const std::vector<uint64_t> keys = {1, 2, 3, 999};
  std::vector<uint8_t> wire;
  EncodeIngestTo(11, first, &wire);
  EncodeQueryTo(12, keys, &wire);
  EncodeControlTo(13, ControlOp::kStats, {}, &wire);
  EncodeIngestTo(14, second, &wire);
  EncodeAlertTo(WireAlert{}, &wire);  // server-to-client type: rejected
  EncodeIngestTo(15, Items(5000, 10), &wire);

  const int fd = ConnectRaw(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, wire));
  const std::vector<Frame> frames = ReadUntilEof(fd);
  close(fd);

  ASSERT_EQ(frames.size(), 5u);
  ASSERT_EQ(frames[0].type, FrameType::kIngestAck);
  IngestAck ack;
  ASSERT_TRUE(ParseIngestAck(frames[0].payload, &ack));
  EXPECT_EQ(ack.token, 11u);
  EXPECT_EQ(ack.count, first.size());
  EXPECT_EQ(ack.total_items, first.size());

  ASSERT_EQ(frames[1].type, FrameType::kQueryResult);
  QueryResult qr;
  ASSERT_TRUE(ParseQueryResult(frames[1].payload, &qr));
  EXPECT_EQ(qr.token, 12u);
  EXPECT_EQ(qr.answers.size(), keys.size());

  ASSERT_EQ(frames[2].type, FrameType::kControlResult);
  ControlResult cr;
  ASSERT_TRUE(ParseControlResult(frames[2].payload, &cr));
  EXPECT_EQ(cr.token, 13u);
  EXPECT_EQ(cr.status, ControlStatus::kOk);
  WireStats stats;
  ASSERT_TRUE(ParseWireStats(cr.payload, &stats));
  EXPECT_EQ(stats.items_ingested, first.size());  // before the 2nd INGEST

  ASSERT_EQ(frames[3].type, FrameType::kIngestAck);
  ASSERT_TRUE(ParseIngestAck(frames[3].payload, &ack));
  EXPECT_EQ(ack.token, 14u);
  EXPECT_EQ(ack.total_items, first.size() + second.size());

  ASSERT_EQ(frames[4].type, FrameType::kError);
  ErrorFrame err;
  ASSERT_TRUE(ParseError(frames[4].payload, &err));
  EXPECT_EQ(err.code, ErrorCode::kUnsupportedType);

  // The connection is gone but the server serves on, with both acked
  // batches applied and logged.
  QfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port())) << client.error();
  ASSERT_TRUE(client.Drain()) << client.error();
  ASSERT_TRUE(client.Stats(&stats)) << client.error();
  EXPECT_EQ(stats.items_ingested, first.size() + second.size());
  EXPECT_EQ(stats.items_processed, stats.items_ingested);
  if (GetParam() != WalMode::kOff) {
    EXPECT_EQ(stats.wal_records_appended, 2u);
  }
  server.Stop();
}

INSTANTIATE_TEST_SUITE_P(WalModes, NetServerPassTest,
                         ::testing::Values(WalMode::kOff, WalMode::kFsyncNone,
                                           WalMode::kFsyncGroup),
                         [](const ::testing::TestParamInfo<WalMode>& info) {
                           switch (info.param) {
                             case WalMode::kOff:
                               return std::string("NoWal");
                             case WalMode::kFsyncNone:
                               return std::string("FsyncNone");
                             case WalMode::kFsyncGroup:
                               return std::string("FsyncGroup");
                           }
                           return std::string("Unknown");
                         });

// A client keeps 64 INGEST frames in flight, every item of which reports
// (and so pushes an alert record), with nobody subscribed. Reactor 0 must
// still drain the alert rings between reads: a pass reads at most one
// 64 KiB buffer (< 4096 items) and the worker can be at most one arena
// (ring_batches x 64 = 4096 items) behind, so an alert ring above their
// sum cannot overflow between two drains. A reactor that kept reading
// while the client kept its socket full never reached the drain and
// dropped alerts.
TEST(NetServerFloodTest, SixtyFourFramesDeepDropNoAlerts) {
  QfServer::Options opts = PassOptions();
  opts.num_shards = 1;
  // eps/(1-delta) = 1 and T = 0: any positive item reaches the report
  // threshold on its own, so every fresh key alerts.
  opts.criteria = Criteria(0.5, 0.5, 0.0);
  opts.ring_batches = 64;          // arena: 64 x kMaxBatch = 4096 items
  opts.alert_ring_records = 16384;  // > one read + one arena
  QfServer server(opts);
  ASSERT_TRUE(server.Start()) << server.error();

  QfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port())) << client.error();
  constexpr size_t kFrameItems = 256;
  constexpr size_t kWindow = 64;
  constexpr size_t kFrames = 1024;  // 262144 items, 16x the alert ring
  std::vector<Item> frame(kFrameItems);
  for (size_t f = 0; f < kFrames; ++f) {
    for (size_t i = 0; i < kFrameItems; ++i) {
      frame[i] = Item{f * kFrameItems + i + 1, 1.0};  // fresh key each
    }
    ASSERT_TRUE(client.SendIngest(frame)) << client.error();
    while (client.ingest_in_flight() >= kWindow) {
      ASSERT_TRUE(client.AwaitIngestAck()) << client.error();
    }
  }
  while (client.ingest_in_flight() > 0) {
    ASSERT_TRUE(client.AwaitIngestAck()) << client.error();
  }
  ASSERT_TRUE(client.Drain()) << client.error();
  WireStats stats;
  ASSERT_TRUE(client.Stats(&stats)) << client.error();
  EXPECT_EQ(stats.items_processed, kFrames * kFrameItems);
  // The flood really was an alert flood: far more reports than the ring
  // holds, so only the drain cadence kept them from overflowing it.
  EXPECT_GT(stats.reports, 4 * opts.alert_ring_records);
  EXPECT_EQ(stats.alerts_dropped, 0u);
  server.Stop();
}

}  // namespace
}  // namespace qf::net
