// The transport and frame layer: loopback and TCP must behave identically —
// same framing, same failure classes (transient IOError for conn loss,
// corruption, short reads), same counters. Parameterized over both so every
// assertion runs on the in-memory path and on real sockets.
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/coding.h"
#include "io/env.h"
#include "mr/metrics.h"
#include "net/frame.h"
#include "net/shuffle_service.h"
#include "net/transport.h"
#include "net/wire.h"

namespace antimr {
namespace net {
namespace {

class TransportTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    transport_ = GetParam() == std::string("tcp") ? NewTcpTransport()
                                                  : NewLoopbackTransport();
  }

  /// Listener plus the first accepted conn, driven from a helper thread.
  struct Pair {
    std::unique_ptr<Listener> listener;
    std::unique_ptr<Conn> client;
    std::unique_ptr<Conn> server;
  };

  Pair Connect() {
    Pair p;
    EXPECT_TRUE(transport_->Listen("", &p.listener).ok());
    std::thread accepter(
        [&p] { EXPECT_TRUE(p.listener->Accept(&p.server).ok()); });
    EXPECT_TRUE(transport_->Dial(p.listener->addr(), &p.client).ok());
    accepter.join();
    return p;
  }

  std::unique_ptr<Transport> transport_;
};

TEST_P(TransportTest, FrameRoundTrip) {
  Pair p = Connect();
  const std::vector<std::pair<uint8_t, std::string>> frames = {
      {kFetchReq, "segment_0"},
      {kHeartbeat, ""},
      {kFetchChunk, std::string(100000, 'x')},
  };
  std::thread sender([&] {
    for (const auto& [type, payload] : frames) {
      ASSERT_TRUE(WriteFrame(p.client.get(), type, payload).ok());
    }
  });
  for (const auto& [want_type, want_payload] : frames) {
    uint8_t type = 0;
    std::string payload;
    ASSERT_TRUE(ReadFrame(p.server.get(), &type, &payload).ok());
    EXPECT_EQ(type, want_type);
    EXPECT_EQ(payload, want_payload);
  }
  sender.join();
}

TEST_P(TransportTest, WireCountersMeasureBothSides) {
  Pair p = Connect();
  const WireCounters before = SnapshotWireCounters();
  const std::string payload(1000, 'p');
  ASSERT_TRUE(WriteFrame(p.client.get(), kFetchChunk, payload).ok());
  uint8_t type = 0;
  std::string got;
  ASSERT_TRUE(ReadFrame(p.server.get(), &type, &got).ok());
  const WireCounters after = SnapshotWireCounters();
  EXPECT_EQ(after.bytes_sent - before.bytes_sent,
            kFrameHeaderBytes + payload.size());
  EXPECT_EQ(after.bytes_received - before.bytes_received,
            kFrameHeaderBytes + payload.size());
  EXPECT_EQ(after.frames_sent - before.frames_sent, 1u);
  EXPECT_EQ(after.frames_received - before.frames_received, 1u);
}

TEST_P(TransportTest, CrcMismatchIsTransientIOError) {
  Pair p = Connect();
  // A hand-built frame whose CRC doesn't match the payload: a flipped bit
  // anywhere in flight must surface, not deliver garbage.
  std::string wire;
  const std::string payload = "damaged goods";
  PutFixed32(&wire, static_cast<uint32_t>(payload.size()));
  wire.push_back(static_cast<char>(kFetchChunk));
  PutFixed32(&wire, 0xdeadbeef);
  wire.append(payload);
  ASSERT_TRUE(p.client->Write(wire).ok());
  uint8_t type = 0;
  std::string got;
  const Status st = ReadFrame(p.server.get(), &type, &got);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsTransient()) << st.ToString();
  EXPECT_NE(st.ToString().find("crc"), std::string::npos) << st.ToString();
}

TEST_P(TransportTest, ShortReadIsIOError) {
  Pair p = Connect();
  // Header promises 100 payload bytes; the peer dies after 3.
  std::string wire;
  PutFixed32(&wire, 100);
  wire.push_back(static_cast<char>(kFetchChunk));
  PutFixed32(&wire, 0);
  wire.append("abc");
  ASSERT_TRUE(p.client->Write(wire).ok());
  p.client->Close();
  uint8_t type = 0;
  std::string got;
  const Status st = ReadFrame(p.server.get(), &type, &got);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsTransient()) << st.ToString();
}

TEST_P(TransportTest, InsaneLengthHeaderIsRejected) {
  Pair p = Connect();
  std::string wire;
  PutFixed32(&wire, 0xffffffffu);  // 4 GiB "payload"
  wire.push_back(static_cast<char>(kFetchChunk));
  PutFixed32(&wire, 0);
  ASSERT_TRUE(p.client->Write(wire).ok());
  uint8_t type = 0;
  std::string got;
  const Status st = ReadFrame(p.server.get(), &type, &got);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("exceeds"), std::string::npos)
      << st.ToString();
}

TEST_P(TransportTest, ReadAfterPeerCloseReportsConnectionClosed) {
  Pair p = Connect();
  p.client->Close();
  uint8_t type = 0;
  std::string got;
  const Status st = ReadFrame(p.server.get(), &type, &got);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsTransient()) << st.ToString();
}

TEST_P(TransportTest, DialAfterListenerCloseFails) {
  std::unique_ptr<Listener> listener;
  ASSERT_TRUE(transport_->Listen("", &listener).ok());
  const std::string addr = listener->addr();
  listener->Close();
  std::unique_ptr<Conn> conn;
  // TCP may need a beat for the kernel to tear the listen socket down; the
  // dial either fails outright or the dead conn fails on first use.
  const Status st = transport_->Dial(addr, &conn);
  if (st.ok()) {
    uint8_t type = 0;
    std::string payload;
    EXPECT_FALSE(ReadFrame(conn.get(), &type, &payload).ok());
  }
}

TEST_P(TransportTest, ReconnectAfterServerConnDrop) {
  Pair p = Connect();
  p.server->Close();  // server kicks the client
  // The old conn is dead...
  uint8_t type = 0;
  std::string payload;
  EXPECT_FALSE(ReadFrame(p.client.get(), &type, &payload).ok());
  // ...but the listener still accepts a fresh dial.
  std::unique_ptr<Conn> server2;
  std::thread accepter(
      [&] { EXPECT_TRUE(p.listener->Accept(&server2).ok()); });
  std::unique_ptr<Conn> client2;
  ASSERT_TRUE(transport_->Dial(p.listener->addr(), &client2).ok());
  accepter.join();
  ASSERT_TRUE(WriteFrame(client2.get(), kHeartbeat, "hi").ok());
  ASSERT_TRUE(ReadFrame(server2.get(), &type, &payload).ok());
  EXPECT_EQ(payload, "hi");
}

// --- shuffle service over the transport ----------------------------------

void WriteEnvFile(Env* env, const std::string& name,
                  const std::string& body) {
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile(name, &file).ok());
  ASSERT_TRUE(file->Append(body).ok());
  ASSERT_TRUE(file->Close().ok());
}

TEST_P(TransportTest, SegmentFetchRoundTrip) {
  std::unique_ptr<Env> env = NewMemEnv();
  // Big enough to span several FetchChunk frames.
  std::string body;
  for (int i = 0; i < 50000; ++i) body += "record " + std::to_string(i);
  WriteEnvFile(env.get(), "job/seg_0", body);

  SegmentServer server(transport_.get(), env.get());
  ASSERT_TRUE(server.Start("").ok());
  ShuffleClient client(transport_.get());
  FetchedSegment seg;
  ASSERT_TRUE(client.Fetch(server.addr(), "job/seg_0", &seg).ok());
  EXPECT_EQ(seg.frames, body);
  EXPECT_EQ(seg.fetched_bytes, body.size());
}

TEST_P(TransportTest, MissingSegmentSurfacesAsTransientAndServerSurvives) {
  std::unique_ptr<Env> env = NewMemEnv();
  WriteEnvFile(env.get(), "job/real", "payload");
  SegmentServer server(transport_.get(), env.get());
  ASSERT_TRUE(server.Start("").ok());
  ShuffleClient client(transport_.get());
  FetchedSegment seg;
  const Status st = client.Fetch(server.addr(), "job/ghost", &seg);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsTransient()) << st.ToString();
  // The error was answered in-protocol: the same client (and conn pool)
  // keeps working.
  ASSERT_TRUE(client.Fetch(server.addr(), "job/real", &seg).ok());
  EXPECT_EQ(seg.frames, "payload");
}

TEST_P(TransportTest, PooledConnSurvivesServerRestart) {
  std::unique_ptr<Env> env = NewMemEnv();
  WriteEnvFile(env.get(), "seg", "before");
  ShuffleClient client(transport_.get());
  std::string addr;
  {
    SegmentServer server(transport_.get(), env.get());
    ASSERT_TRUE(server.Start("").ok());
    addr = server.addr();
    FetchedSegment seg;
    ASSERT_TRUE(client.Fetch(addr, "seg", &seg).ok());
  }
  // Server gone: the pooled conn is stale and a fresh dial fails too.
  FetchedSegment seg;
  EXPECT_FALSE(client.Fetch(addr, "seg", &seg).ok());
  // A new server at a fresh address serves the same client again.
  SegmentServer revived(transport_.get(), env.get());
  ASSERT_TRUE(revived.Start("").ok());
  ASSERT_TRUE(client.Fetch(revived.addr(), "seg", &seg).ok());
  EXPECT_EQ(seg.frames, "before");
}

INSTANTIATE_TEST_SUITE_P(Transports, TransportTest,
                         ::testing::Values("loopback", "tcp"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// --- wire message round trips --------------------------------------------

TEST(WireTest, TaskAssignRoundTrip) {
  TaskAssignMsg msg;
  msg.rpc_id = 77;
  msg.kind = TaskKind::kReduce;
  msg.job_name = "wordcount";
  msg.params = {{"reduces", "4"}, {"anti_combine", "eager"}};
  msg.job_id = "job_a1";
  msg.task_index = 3;
  msg.attempt = 2;
  msg.split_records = "opaque bytes \x01\x02";
  msg.segments = {{"127.0.0.1:1234", "job/m0/p3"}, {"loopback:1", "m1/p3"}};
  msg.collect_output = true;
  msg.network_mb_per_s = 12.5;

  std::string payload;
  EncodeTaskAssign(msg, &payload);
  TaskAssignMsg got;
  ASSERT_TRUE(DecodeTaskAssign(payload, &got).ok());
  EXPECT_EQ(got.rpc_id, msg.rpc_id);
  EXPECT_EQ(got.kind, msg.kind);
  EXPECT_EQ(got.job_name, msg.job_name);
  EXPECT_EQ(got.params, msg.params);
  EXPECT_EQ(got.job_id, msg.job_id);
  EXPECT_EQ(got.task_index, msg.task_index);
  EXPECT_EQ(got.attempt, msg.attempt);
  EXPECT_EQ(got.split_records, msg.split_records);
  ASSERT_EQ(got.segments.size(), 2u);
  EXPECT_EQ(got.segments[0].addr, "127.0.0.1:1234");
  EXPECT_EQ(got.segments[1].file, "m1/p3");
  EXPECT_EQ(got.collect_output, msg.collect_output);
  EXPECT_DOUBLE_EQ(got.network_mb_per_s, msg.network_mb_per_s);
}

TEST(WireTest, TaskResultCarriesStatus) {
  TaskResultMsg msg;
  msg.rpc_id = 9;
  msg.status_code = static_cast<int32_t>(Status::Code::kIOError);
  msg.status_msg = "disk on fire";
  std::string payload;
  EncodeTaskResult(msg, &payload);
  TaskResultMsg got;
  ASSERT_TRUE(DecodeTaskResult(payload, &got).ok());
  EXPECT_EQ(got.rpc_id, 9u);
  const Status st = StatusFromWire(got.status_code, got.status_msg);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsTransient());
  EXPECT_TRUE(got.segment_files.empty());
}

TEST(WireTest, TaskResultCarriesPerPartitionRunLists) {
  TaskResultMsg msg;
  msg.rpc_id = 4;
  // An empty partition, a single run, several runs (in merge order), and a
  // merged segment.
  msg.segment_files = {{},
                       {"j/map_3_p1_r0"},
                       {"j/map_3_p2_r0", "j/map_3_p2_r1", "j/map_3_p2_r2"},
                       {"j/map_3_p3"}};
  msg.output_records = "out";
  msg.metrics = "metrics";
  msg.cpu_nanos = 77;
  msg.trace_chunk = "trace";
  std::string payload;
  EncodeTaskResult(msg, &payload);
  TaskResultMsg got;
  ASSERT_TRUE(DecodeTaskResult(payload, &got).ok());
  EXPECT_EQ(got.segment_files, msg.segment_files);
  // The fields after the run lists still line up.
  EXPECT_EQ(got.output_records, "out");
  EXPECT_EQ(got.metrics, "metrics");
  EXPECT_EQ(got.cpu_nanos, 77u);
  EXPECT_EQ(got.trace_chunk, "trace");

  // No partitions at all (a failed map) round-trips too.
  msg.segment_files.clear();
  EncodeTaskResult(msg, &payload);
  ASSERT_TRUE(DecodeTaskResult(payload, &got).ok());
  EXPECT_TRUE(got.segment_files.empty());

  // Every strict prefix of a message is malformed, never a shorter list.
  msg.segment_files = {{}, {"a"}, {"b", "c"}};
  EncodeTaskResult(msg, &payload);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(DecodeTaskResult(payload.substr(0, cut), &got).ok())
        << "cut at " << cut;
  }
}

TEST(WireTest, KVListRoundTrip) {
  std::vector<KV> records = {{"key", "value"},
                             {"", ""},
                             {std::string(1, '\0'), "binary\x7f"}};
  std::string payload;
  EncodeKVList(records, &payload);
  std::vector<KV> got;
  ASSERT_TRUE(DecodeKVList(payload, &got).ok());
  EXPECT_EQ(got, records);
}

TEST(WireTest, TruncatedPayloadIsRejected) {
  RegisterMsg reg;
  reg.worker_name = "w";
  reg.shuffle_addr = "addr";
  reg.slots = 2;
  std::string payload;
  EncodeRegister(reg, &payload);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    RegisterMsg got;
    EXPECT_FALSE(DecodeRegister(payload.substr(0, cut), &got).ok())
        << "truncation at " << cut << " decoded successfully";
  }
}

}  // namespace
}  // namespace net
}  // namespace antimr
