#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "engine/cluster.h"
#include "engine/master.h"
#include "engine/messages.h"
#include "engine/worker.h"
#include "forest/forest.h"
#include "rpc/crc32c.h"
#include "rpc/crc32c_internal.h"
#include "rpc/frame.h"
#include "rpc/tcp_transport.h"
#include "table/datasets.h"
#include "tcp_cluster.h"

namespace treeserver {
namespace {

// ---------------------------------------------------------------------------
// CRC-32C
// ---------------------------------------------------------------------------

TEST(Crc32cTest, KnownAnswer) {
  // The canonical CRC-32C check value (RFC 3720 appendix B.4 vectors).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(Crc32cTest, Rfc3720Vectors) {
  std::vector<uint8_t> data(32, 0x00);
  EXPECT_EQ(Crc32c(data.data(), data.size()), 0x8A9136AAu);
  std::fill(data.begin(), data.end(), 0xFF);
  EXPECT_EQ(Crc32c(data.data(), data.size()), 0x62A8AB43u);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(Crc32c(data.data(), data.size()), 0x46DD794Eu);
  std::reverse(data.begin(), data.end());
  EXPECT_EQ(Crc32c(data.data(), data.size()), 0x113FDB5Cu);
}

// The dispatched path (hardware where the CPU has it) and the portable
// slicing-by-8 path must agree at every length and alignment, so every
// build tests both no matter which one Crc32c picks.
TEST(Crc32cTest, HardwareAndPortablePathsAgree) {
  std::mt19937 gen(20261019);
  std::vector<uint8_t> buf(300 + 8);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(gen());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      const uint8_t* p = buf.data() + offset;
      const uint32_t portable = crc32c_internal::ExtendPortable(0, p, len);
      ASSERT_EQ(Crc32c(p, len), portable)
          << "offset " << offset << " len " << len;
#if defined(__x86_64__)
      if (crc32c_internal::HardwareAvailable()) {
        ASSERT_EQ(crc32c_internal::ExtendHardware(0, p, len), portable)
            << "offset " << offset << " len " << len;
      }
#endif
    }
  }
  // Random split points through the incremental form, from a random
  // running checksum.
  for (int trial = 0; trial < 200; ++trial) {
    const size_t len = gen() % 300;
    const size_t split = gen() % (len + 1);
    const uint32_t seed = static_cast<uint32_t>(gen());
    const uint8_t* p = buf.data() + trial % 8;
    const uint32_t whole = crc32c_internal::ExtendPortable(seed, p, len);
    EXPECT_EQ(crc32c_internal::ExtendPortable(
                  crc32c_internal::ExtendPortable(seed, p, split), p + split,
                  len - split),
              whole);
    EXPECT_EQ(Crc32cExtend(Crc32cExtend(seed, p, split), p + split,
                           len - split),
              whole);
#if defined(__x86_64__)
    if (crc32c_internal::HardwareAvailable()) {
      EXPECT_EQ(crc32c_internal::ExtendHardware(
                    crc32c_internal::ExtendHardware(seed, p, split),
                    p + split, len - split),
                whole);
    }
#endif
  }
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Crc32cExtend(0, data.data(), split);
    crc = Crc32cExtend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, Crc32c(data.data(), data.size())) << "split at " << split;
  }
}

// ---------------------------------------------------------------------------
// Wire framing
// ---------------------------------------------------------------------------

Message TestMessage() {
  Message msg;
  msg.src = 3;
  msg.dst = kMasterRank;
  msg.type = 11;
  msg.payload = "subtree result payload bytes";
  msg.trace_id = 0xDEADBEEFCAFEull;
  return msg;
}

std::string FrameOf(const Message& msg) {
  std::string buf;
  AppendFrame(kWireChannelData, msg, &buf);
  return buf;
}

void PutLe32(std::string* buf, size_t offset, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*buf)[offset + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

// Rewrites the trailing header CRC so a deliberately hostile header is
// otherwise self-consistent — the decoder must reject it on semantic
// grounds, not just the checksum.
void FixHeaderCrc(std::string* buf) {
  PutLe32(buf, kFrameHeaderBytes - 4, Crc32c(buf->data(), kFrameHeaderBytes - 4));
}

TEST(FrameTest, RoundTripPreservesAllFields) {
  const Message msg = TestMessage();
  const std::string buf = FrameOf(msg);
  ASSERT_EQ(buf.size(), kFrameHeaderBytes + msg.payload.size());

  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(DecodeFrame(buf, &header, &payload).ok());
  EXPECT_EQ(header.version, kFrameVersion);
  EXPECT_EQ(header.channel, kWireChannelData);
  EXPECT_EQ(header.msg_type, 11u);
  EXPECT_EQ(header.src, 3);
  EXPECT_EQ(header.dst, kMasterRank);
  EXPECT_EQ(header.trace_id, 0xDEADBEEFCAFEull);
  EXPECT_EQ(payload, msg.payload);
}

TEST(FrameTest, ControlFrameRoundTrip) {
  std::string buf;
  AppendControlFrame(kCtrlHello, 2, kMasterRank, std::string("\x02\x00\x00\x00", 4),
                     &buf);
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(DecodeFrame(buf, &header, &payload).ok());
  EXPECT_EQ(header.channel, kWireChannelControl);
  EXPECT_EQ(header.msg_type, kCtrlHello);
  EXPECT_EQ(payload.size(), 4u);
}

TEST(FrameTest, EveryTruncationFails) {
  const std::string buf = FrameOf(TestMessage());
  for (size_t len = 0; len < buf.size(); ++len) {
    FrameHeader header;
    std::string payload;
    EXPECT_FALSE(DecodeFrame(buf.substr(0, len), &header, &payload).ok())
        << "truncation to " << len << " bytes was accepted";
  }
}

TEST(FrameTest, EverySingleBitFlipFails) {
  const std::string buf = FrameOf(TestMessage());
  for (size_t byte = 0; byte < buf.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = buf;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      FrameHeader header;
      std::string payload;
      EXPECT_FALSE(DecodeFrame(corrupt, &header, &payload).ok())
          << "bit " << bit << " of byte " << byte << " was accepted";
    }
  }
}

TEST(FrameTest, WrongVersionRejectedEvenWithValidCrc) {
  std::string buf = FrameOf(TestMessage());
  buf[4] = static_cast<char>(kFrameVersion + 1);
  FixHeaderCrc(&buf);
  FrameHeader header;
  std::string payload;
  EXPECT_FALSE(DecodeFrame(buf, &header, &payload).ok());
}

TEST(FrameTest, BadChannelRejected) {
  std::string buf = FrameOf(TestMessage());
  buf[5] = 7;  // not a wire channel
  FixHeaderCrc(&buf);
  FrameHeader header;
  std::string payload;
  EXPECT_FALSE(DecodeFrame(buf, &header, &payload).ok());
}

TEST(FrameTest, GenerationRoundTrips) {
  const Message msg = TestMessage();
  std::string buf;
  AppendFrame(kWireChannelData, msg, &buf, /*generation=*/7);
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(DecodeFrame(buf, &header, &payload).ok());
  EXPECT_EQ(header.src_generation, 7u);
  EXPECT_EQ(payload, msg.payload);

  // The default generation is 0 — byte-identical to pre-fencing frames
  // whose reserved field was required to be zero.
  std::string old_style;
  AppendFrame(kWireChannelData, msg, &old_style);
  ASSERT_TRUE(DecodeFrame(old_style, &header, &payload).ok());
  EXPECT_EQ(header.src_generation, 0u);
}

TEST(FrameTest, OversizedLengthRejectedBeforeAllocation) {
  // A header announcing a multi-GiB payload must be rejected from the
  // header alone (the receive path would otherwise try to reserve it).
  std::string head = FrameOf(TestMessage()).substr(0, kFrameHeaderBytes);
  PutLe32(&head, 28, kMaxFramePayload + 1);
  FixHeaderCrc(&head);
  FrameHeader header;
  EXPECT_FALSE(ParseFrameHeader(head.data(), head.size(), &header).ok());
}

TEST(FrameTest, PayloadCrcMismatchRejected) {
  const Message msg = TestMessage();
  std::string buf = FrameOf(msg);
  // Swap in a different payload of the same length; header stays valid.
  for (size_t i = 0; i < msg.payload.size(); ++i) {
    buf[kFrameHeaderBytes + i] = 'x';
  }
  FrameHeader header;
  ASSERT_TRUE(ParseFrameHeader(buf.data(), buf.size(), &header).ok());
  EXPECT_FALSE(
      VerifyFramePayload(header, buf.data() + kFrameHeaderBytes, msg.payload.size())
          .ok());
}

// ---------------------------------------------------------------------------
// Hostile bytes into the engine decoders
// ---------------------------------------------------------------------------

// Every engine payload decoder must return a Status on garbage — never
// crash, assert, or attempt an absurd allocation.
template <typename T>
void FuzzDecoder(const std::string& valid, std::mt19937* rng) {
  std::uniform_int_distribution<size_t> pick_len(0, 96);
  std::uniform_int_distribution<int> pick_byte(0, 255);
  // Pure noise.
  for (int i = 0; i < 200; ++i) {
    std::string noise(pick_len(*rng), '\0');
    for (char& c : noise) c = static_cast<char>(pick_byte(*rng));
    T out;
    (void)T::Decode(noise, &out);
  }
  // Mutations of a valid encoding: bit flips and truncations land on
  // interior length/type fields that pure noise rarely reaches.
  for (int i = 0; i < 400 && !valid.empty(); ++i) {
    std::string mutated = valid;
    switch (i % 3) {
      case 0:
        mutated[static_cast<size_t>(rng->operator()()) % mutated.size()] ^=
            static_cast<char>(1 << (i % 8));
        break;
      case 1:
        mutated.resize(static_cast<size_t>(rng->operator()()) % mutated.size());
        break;
      default:
        // Blow up a random 4-byte window — often a vector length.
        for (int j = 0; j < 4 && mutated.size() > 4; ++j) {
          mutated[static_cast<size_t>(rng->operator()()) % mutated.size()] =
              static_cast<char>(0xFF);
        }
        break;
    }
    T out;
    (void)T::Decode(mutated, &out);
  }
}

TEST(MessageDecodeFuzzTest, HostilePayloadsNeverCrash) {
  std::mt19937 rng(20260806);

  ColumnTaskPlan plan;
  plan.task_id = 42;
  plan.tree_id = 3;
  plan.n_rows = 1000;
  plan.columns = {0, 4, 7};
  FuzzDecoder<ColumnTaskPlan>(plan.Encode(), &rng);

  SubtreeTaskPlan subtree;
  subtree.task_id = 43;
  subtree.columns = {1, 2};
  subtree.column_servers = {0, 1};
  FuzzDecoder<SubtreeTaskPlan>(subtree.Encode(), &rng);

  ColumnTaskResponse response;
  response.task_id = 42;
  response.worker = 1;
  FuzzDecoder<ColumnTaskResponse>(response.Encode(), &rng);

  BestSplitNotify notify;
  notify.task_id = 42;
  notify.is_delegate = 1;
  FuzzDecoder<BestSplitNotify>(notify.Encode(), &rng);

  SubtreeResult result;
  result.task_id = 43;
  result.worker = 2;
  result.tree_bytes = "not actually a tree";
  FuzzDecoder<SubtreeResult>(result.Encode(), &rng);

  IxRequest ix_req;
  ix_req.parent_task = 41;
  ix_req.requester_task = 42;
  ix_req.requester_worker = 0;
  FuzzDecoder<IxRequest>(ix_req.Encode(), &rng);

  IxResponse ix_resp;
  ix_resp.requester_task = 42;
  ix_resp.rows = {1, 5, 9, 200};
  FuzzDecoder<IxResponse>(ix_resp.Encode(), &rng);
  ix_resp.compress = true;
  FuzzDecoder<IxResponse>(ix_resp.Encode(), &rng);

  ColumnDataRequest data_req;
  data_req.task_id = 44;
  data_req.columns = {0, 1};
  data_req.n_rows = 100;
  FuzzDecoder<ColumnDataRequest>(data_req.Encode(), &rng);

  FuzzDecoder<TaskIdOnly>(TaskIdOnly{42}.Encode(), &rng);
  FuzzDecoder<TreeIdOnly>(TreeIdOnly{7}.Encode(), &rng);
}

TEST(MessageDecodeFuzzTest, TreeModelDeserializeRejectsGarbage) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> pick_byte(0, 255);
  for (int i = 0; i < 300; ++i) {
    std::string noise(static_cast<size_t>(i % 64), '\0');
    for (char& c : noise) c = static_cast<char>(pick_byte(rng));
    BinaryReader r(noise);
    TreeModel model;
    (void)TreeModel::Deserialize(&r, &model);
  }
}

// ---------------------------------------------------------------------------
// TcpTransport: framing + accounting over real sockets
// ---------------------------------------------------------------------------

struct TcpPair {
  std::unique_ptr<TcpTransport> master;
  std::unique_ptr<TcpTransport> worker;

  explicit TcpPair(int64_t heartbeat_ms = 50, int miss_limit = 20) {
    TcpTransportOptions mo;
    mo.num_workers = 1;
    mo.local_rank = kMasterRank;
    mo.heartbeat_period_ms = heartbeat_ms;
    mo.heartbeat_miss_limit = miss_limit;
    master = std::make_unique<TcpTransport>(mo);
    TcpTransportOptions wo = mo;
    wo.local_rank = 0;
    worker = std::make_unique<TcpTransport>(wo);
  }

  std::vector<std::string> Peers() const {
    return {"127.0.0.1:" + std::to_string(worker->local_port()),
            "127.0.0.1:" + std::to_string(master->local_port())};
  }

  void Connect() {
    ASSERT_TRUE(master->ConnectPeers(Peers()).ok());
    ASSERT_TRUE(worker->ConnectPeers(Peers()).ok());
    ASSERT_TRUE(master->WaitForPeers(10000));
    ASSERT_TRUE(worker->WaitForPeers(10000));
  }

  ~TcpPair() {
    if (worker) worker->Shutdown();
    if (master) master->Shutdown();
  }
};

TEST(TcpTransportTest, DeliversMessagesWithTraceIdAndAccounting) {
  TcpPair pair;
  pair.Connect();

  Message msg;
  msg.src = kMasterRank;
  msg.dst = 0;
  msg.type = 1;
  msg.payload = "hello";
  msg.trace_id = 77;
  ASSERT_TRUE(pair.master->Send(ChannelKind::kTask, msg));

  auto got = pair.worker->task_queue(0).Pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->src, kMasterRank);
  EXPECT_EQ(got->dst, 0);
  EXPECT_EQ(got->type, 1u);
  EXPECT_EQ(got->payload, "hello");
  EXPECT_EQ(got->trace_id, 77u);

  // Modeled accounting (payload + kHeaderBytes) is split between the
  // two processes: the sender charges sent, the receiver charges recv.
  const uint64_t charged = 5 + Transport::kHeaderBytes;
  EXPECT_EQ(pair.master->bytes_sent(kMasterRank), charged);
  EXPECT_EQ(pair.master->bytes_received(0), 0u);
  EXPECT_EQ(pair.worker->bytes_received(0), charged);

  // Data channel routes to the worker's data queue.
  msg.type = 21;
  msg.payload = "rows";
  ASSERT_TRUE(pair.master->Send(ChannelKind::kData, msg));
  got = pair.worker->data_queue(0).Pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, 21u);

  // Reply lands in the master queue.
  Message reply;
  reply.src = 0;
  reply.dst = kMasterRank;
  reply.type = 10;
  reply.payload = "result";
  ASSERT_TRUE(pair.worker->Send(ChannelKind::kTask, reply));
  got = pair.master->master_queue().Pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, 10u);
  EXPECT_EQ(got->payload, "result");

  // The bounded send buffer saw at least one queued frame.
  NetworkStats stats = pair.master->GetStats();
  ASSERT_EQ(stats.endpoints.size(), 2u);
  EXPECT_GT(stats.endpoints[0].send_buffer_hwm, 0u);
  EXPECT_GT(stats.task_payload_bytes.count, 0u);
}

TEST(TcpTransportTest, LocalDeliveryBypassesSockets) {
  TcpPair pair;
  pair.Connect();
  Message msg;
  msg.src = 0;
  msg.dst = 0;
  msg.type = 20;
  msg.payload = "self";
  ASSERT_TRUE(pair.worker->Send(ChannelKind::kTask, msg));
  auto got = pair.worker->task_queue(0).Pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, "self");
}

TEST(TcpTransportTest, CrashedPeerDropsTraffic) {
  TcpPair pair;
  pair.Connect();
  pair.master->SetCrashed(0);
  EXPECT_TRUE(pair.master->IsCrashed(0));
  Message msg;
  msg.src = kMasterRank;
  msg.dst = 0;
  msg.type = 1;
  msg.payload = "late";
  EXPECT_FALSE(pair.master->Send(ChannelKind::kTask, msg));
  EXPECT_GE(pair.master->msgs_dropped(0), 1u);
}

TEST(TcpTransportTest, HeartbeatDetectsDeadPeer) {
  TcpPair pair(/*heartbeat_ms=*/10, /*miss_limit=*/4);
  std::atomic<int> dead_rank{kMasterRank - 1};
  pair.master->SetPeerDeadCallback([&](int rank) { dead_rank.store(rank); });
  pair.Connect();

  // Abrupt teardown: the worker process "vanishes" — stops
  // heartbeating and closes its sockets without any goodbye protocol.
  pair.worker->Shutdown();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (dead_rank.load() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(dead_rank.load(), 0);
  EXPECT_TRUE(pair.master->IsCrashed(0));
  NetworkStats stats = pair.master->GetStats();
  EXPECT_GT(stats.endpoints[0].heartbeat_misses, 0u);
}

TEST(TcpTransportTest, PeerDeclaredDeadExactlyOnce) {
  TcpPair pair(/*heartbeat_ms=*/10, /*miss_limit=*/4);
  std::atomic<int> dead_calls{0};
  pair.master->SetPeerDeadCallback([&](int rank) {
    if (rank == 0) dead_calls.fetch_add(1);
  });
  pair.Connect();
  pair.worker->Shutdown();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (dead_calls.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(dead_calls.load(), 1);
  // Keep the heartbeat thread running well past more miss windows, and
  // poke the crash path again: the callback must never re-fire.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  pair.master->SetCrashed(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(dead_calls.load(), 1);
}

TEST(TcpTransportTest, FramesFromDeadPeerAreFencedAndCounted) {
  TcpPair pair;
  pair.Connect();
  Counter* fenced = MetricsRegistry::Global().GetCounter("engine.fenced_msgs");
  const uint64_t before = fenced->value();

  // The master declares worker 0 dead; the worker does not know (a
  // healed partition's zombie) and keeps sending engine frames. They
  // must be counted and dropped before reaching the mailboxes.
  pair.master->SetCrashed(0);
  while (pair.master->master_queue().TryPop().has_value()) {
  }
  Message msg;
  msg.src = 0;
  msg.dst = kMasterRank;
  msg.type = 10;
  msg.payload = "zombie result";
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fenced->value() == before &&
         std::chrono::steady_clock::now() < deadline) {
    pair.worker->Send(ChannelKind::kTask, msg);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(fenced->value(), before);
  EXPECT_FALSE(pair.master->master_queue().TryPop().has_value());
}

TEST(TcpTransportTest, StaleGenerationFramesAreFenced) {
  // Incarnation 2 of worker 0 handshakes with the master; a lingering
  // incarnation-0 connection then delivers a frame. The master must
  // fence the stale generation rather than hand it to the engine.
  TcpTransportOptions mo;
  mo.num_workers = 1;
  mo.local_rank = kMasterRank;
  auto master = std::make_unique<TcpTransport>(mo);

  TcpTransportOptions wo = mo;
  wo.local_rank = 0;
  wo.generation = 2;
  auto worker_new = std::make_unique<TcpTransport>(wo);

  const std::vector<std::string> peers = {
      "127.0.0.1:" + std::to_string(worker_new->local_port()),
      "127.0.0.1:" + std::to_string(master->local_port())};
  ASSERT_TRUE(master->ConnectPeers(peers).ok());
  ASSERT_TRUE(worker_new->ConnectPeers(peers).ok());
  ASSERT_TRUE(master->WaitForPeers(10000));
  ASSERT_TRUE(worker_new->WaitForPeers(10000));

  // A generation-2 frame flows through normally.
  Message msg;
  msg.src = 0;
  msg.dst = kMasterRank;
  msg.type = 10;
  msg.payload = "fresh";
  ASSERT_TRUE(worker_new->Send(ChannelKind::kTask, msg));
  auto got = master->master_queue().Pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, "fresh");

  // The zombie incarnation (default generation 0) dials in and sends.
  TcpTransportOptions zo = wo;
  zo.generation = 0;
  auto worker_old = std::make_unique<TcpTransport>(zo);
  ASSERT_TRUE(worker_old->ConnectPeers(peers).ok());
  Counter* fenced = MetricsRegistry::Global().GetCounter("engine.fenced_msgs");
  const uint64_t before = fenced->value();
  msg.payload = "stale";
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fenced->value() == before &&
         std::chrono::steady_clock::now() < deadline) {
    worker_old->Send(ChannelKind::kTask, msg);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(fenced->value(), before);
  EXPECT_FALSE(master->master_queue().TryPop().has_value());

  worker_old->Shutdown();
  worker_new->Shutdown();
  master->Shutdown();
}

// ---------------------------------------------------------------------------
// End-to-end training over loopback TCP (all ranks in one process,
// each with its own TcpTransport — real sockets, real framing)
// ---------------------------------------------------------------------------

DataTable MakeClusterData(size_t rows, uint64_t seed) {
  DatasetProfile p;
  p.rows = rows;
  p.num_numeric = 6;
  p.num_categorical = 2;
  p.num_classes = 3;
  p.noise = 0.08;
  return GenerateTable(p, seed);
}

std::string SerializeForest(const ForestModel& forest) {
  BinaryWriter w;
  forest.Serialize(&w);
  return w.buffer();
}

ForestJobSpec SmallJob() {
  ForestJobSpec spec;
  spec.num_trees = 6;
  spec.tree.max_depth = 8;
  spec.tree.min_leaf = 2;
  spec.column_ratio = 0.8;
  spec.seed = 99;
  return spec;
}

EngineConfig SmallClusterConfig(int workers) {
  EngineConfig cfg;
  cfg.num_workers = workers;
  cfg.compers_per_worker = 2;
  // Force the column-task path (nodes above tau_d rows fan out over
  // workers) so the wire carries I_x pulls and column responses, not
  // just whole-subtree shipping.
  cfg.tau_d = 400;
  cfg.tau_dfs = 1200;
  return cfg;
}

TEST(TcpClusterTest, TrainsByteIdenticalToInProcessAndSerial) {
  DataTable data = MakeClusterData(3000, 301);
  const EngineConfig cfg = SmallClusterConfig(2);
  const ForestJobSpec spec = SmallJob();

  ForestModel tcp_forest;
  {
    TcpCluster cluster(MakeClusterData(3000, 301), cfg, 50, 20);
    tcp_forest = cluster.Train(spec);
  }
  ASSERT_EQ(tcp_forest.num_trees(), spec.num_trees);

  // Same engine, simulated in-process network.
  TreeServerCluster inproc(data, cfg);
  ForestModel inproc_forest = inproc.Wait(inproc.Submit(spec));

  EXPECT_EQ(SerializeForest(tcp_forest), SerializeForest(inproc_forest))
      << "TCP and in-process transports must produce identical bytes";

  // And both match the serial reference trainer exactly: Canonicalize
  // re-lays task-completion order into the serial creation order.
  ForestModel reference = TrainForestSerial(data, spec, 2);
  EXPECT_EQ(SerializeForest(tcp_forest), SerializeForest(reference))
      << "distributed forest must serialize identically to the serial one";
}

TEST(TcpClusterTest, HistogramModeTrainsByteIdenticalAcrossTransports) {
  // Same parity contract as above, but with the histogram split kernel:
  // classification histograms are integer counts, so every transport
  // (and the worker-side sibling-subtraction cache) is bit-exact.
  DataTable data = MakeClusterData(3000, 301);
  const EngineConfig cfg = SmallClusterConfig(2);
  ForestJobSpec spec = SmallJob();
  spec.tree.split_method = SplitMethod::kHistogram;
  spec.tree.max_bins = 64;

  ForestModel tcp_forest;
  {
    TcpCluster cluster(MakeClusterData(3000, 301), cfg, 50, 20);
    tcp_forest = cluster.Train(spec);
  }
  ASSERT_EQ(tcp_forest.num_trees(), spec.num_trees);

  TreeServerCluster inproc(data, cfg);
  ForestModel inproc_forest = inproc.Wait(inproc.Submit(spec));
  EXPECT_EQ(SerializeForest(tcp_forest), SerializeForest(inproc_forest))
      << "TCP and in-process histogram training must produce identical bytes";

  ForestModel reference = TrainForestSerial(data, spec, 2);
  EXPECT_EQ(SerializeForest(tcp_forest), SerializeForest(reference))
      << "histogram-mode distributed forest must match the serial one";
}

TEST(TcpClusterTest, SurvivesKilledWorkerMidJob) {
  DataTable data = MakeClusterData(3000, 301);
  EngineConfig cfg = SmallClusterConfig(3);
  cfg.replication = 2;
  ForestJobSpec spec = SmallJob();
  spec.num_trees = 8;

  ForestModel forest;
  uint64_t heartbeat_misses = 0;
  {
    TcpCluster cluster(MakeClusterData(3000, 301), cfg, 10, 5);
    uint32_t job = cluster.master->Submit(spec);
    // Kill as soon as the job has scheduled work, so the kill lands
    // mid-job however fast the job runs: worker 2 holds most columns,
    // so some task sent to it is lost and the job cannot finish before
    // the master declares it dead (five missed 10 ms heartbeats).
    const auto start = std::chrono::steady_clock::now();
    while (cluster.master->tasks_scheduled() == 0) {
      ASSERT_LT(std::chrono::steady_clock::now() - start,
                std::chrono::seconds(10))
          << "the job scheduled no task";
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    cluster.KillWorker(2);
    // A job that never finishes after the kill fails here instead of
    // holding the suite until ctest's timeout. The blocked master
    // cannot be joined, so the process exits.
    auto done = std::async(std::launch::async,
                           [&] { return cluster.master->Wait(job); });
    if (done.wait_for(std::chrono::seconds(60)) !=
        std::future_status::ready) {
      std::fprintf(stderr, "job did not finish within 60 s of the kill\n");
      std::_Exit(1);
    }
    forest = done.get();
    heartbeat_misses =
        cluster.master_tx->GetStats().endpoints[2].heartbeat_misses;
    EXPECT_TRUE(cluster.master_tx->IsCrashed(2));
  }
  ASSERT_EQ(forest.num_trees(), spec.num_trees);
  EXPECT_GT(heartbeat_misses, 0u);

  ForestModel reference = TrainForestSerial(data, spec, 2);
  EXPECT_EQ(SerializeForest(forest), SerializeForest(reference))
      << "post-crash forest must still match the reference bytes";
}

}  // namespace
}  // namespace treeserver
