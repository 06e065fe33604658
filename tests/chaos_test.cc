#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics_registry.h"
#include "engine/checkpoint_io.h"
#include "engine/master.h"
#include "engine/messages.h"
#include "engine/reliable.h"
#include "engine/worker.h"
#include "forest/forest.h"
#include "rpc/fault_injection.h"
#include "rpc/in_process_transport.h"
#include "table/datasets.h"

namespace treeserver {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

Message Msg(int src, int dst, uint32_t type, std::string payload) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.type = type;
  m.payload = std::move(payload);
  return m;
}

std::optional<Message> PopWithin(BlockingQueue<Message>& q, int timeout_ms) {
  const auto deadline = steady_clock::now() + milliseconds(timeout_ms);
  while (steady_clock::now() < deadline) {
    auto m = q.TryPop();
    if (m.has_value()) return m;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return std::nullopt;
}

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

// ---------------------------------------------------------------------------
// FaultInjectingTransport
// ---------------------------------------------------------------------------

TEST(FaultInjectTest, EmptySchedulePassesThroughInOrder) {
  InProcessTransport net(2, 0.0);
  FaultSchedule sched;  // empty
  ASSERT_TRUE(sched.Empty());
  FaultInjectingTransport chaos(&net, sched);
  const uint64_t drops_before = CounterValue("chaos.drops");
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(chaos.Send(ChannelKind::kTask,
                           Msg(kMasterRank, 0, 1, std::to_string(i))));
  }
  for (int i = 0; i < 100; ++i) {
    auto m = PopWithin(net.task_queue(0), 1000);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->payload, std::to_string(i));
  }
  EXPECT_EQ(CounterValue("chaos.drops"), drops_before);
}

TEST(FaultInjectTest, CertainDropNeverDelivers) {
  InProcessTransport net(2, 0.0);
  FaultSchedule sched;
  sched.channels[static_cast<int>(ChannelKind::kTask)].drop = 1.0;
  FaultInjectingTransport chaos(&net, sched);
  const uint64_t before = CounterValue("chaos.drops");
  // Drops still report success: recovery belongs to the reliable layer.
  EXPECT_TRUE(chaos.Send(ChannelKind::kTask, Msg(kMasterRank, 0, 1, "x")));
  EXPECT_TRUE(chaos.Send(ChannelKind::kTask, Msg(kMasterRank, 0, 1, "y")));
  EXPECT_EQ(CounterValue("chaos.drops"), before + 2);
  EXPECT_FALSE(PopWithin(net.task_queue(0), 50).has_value());
  // The data channel is untouched by this schedule.
  EXPECT_TRUE(chaos.Send(ChannelKind::kData, Msg(kMasterRank, 0, 21, "d")));
  EXPECT_TRUE(PopWithin(net.data_queue(0), 1000).has_value());
}

TEST(FaultInjectTest, CertainDuplicateDeliversTwice) {
  InProcessTransport net(2, 0.0);
  FaultSchedule sched;
  sched.channels[static_cast<int>(ChannelKind::kTask)].duplicate = 1.0;
  FaultInjectingTransport chaos(&net, sched);
  const uint64_t before = CounterValue("chaos.dups");
  ASSERT_TRUE(chaos.Send(ChannelKind::kTask, Msg(kMasterRank, 0, 1, "twin")));
  auto first = PopWithin(net.task_queue(0), 1000);
  auto second = PopWithin(net.task_queue(0), 1000);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->payload, "twin");
  EXPECT_EQ(second->payload, "twin");
  EXPECT_EQ(CounterValue("chaos.dups"), before + 1);
}

TEST(FaultInjectTest, SelfSendsAreNeverTouched) {
  InProcessTransport net(2, 0.0);
  FaultSchedule sched;
  sched.channels[static_cast<int>(ChannelKind::kTask)].drop = 1.0;
  FaultInjectingTransport chaos(&net, sched);
  // The master's own crash notice (src == dst) must survive a 100%
  // drop rate: it never crosses the reliable layer.
  ASSERT_TRUE(chaos.Send(ChannelKind::kTask,
                         Msg(kMasterRank, kMasterRank, 30, "crash notice")));
  auto m = PopWithin(net.master_queue(), 1000);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload, "crash notice");
}

TEST(FaultInjectTest, CertainCorruptionFlipsExactlyOneBit) {
  InProcessTransport net(2, 0.0);
  FaultSchedule sched;
  sched.channels[static_cast<int>(ChannelKind::kTask)].corrupt = 1.0;
  FaultInjectingTransport chaos(&net, sched);
  const std::string payload = "0123456789abcdef";
  ASSERT_TRUE(chaos.Send(ChannelKind::kTask, Msg(kMasterRank, 0, 1, payload)));
  auto m = PopWithin(net.task_queue(0), 1000);
  ASSERT_TRUE(m.has_value());
  ASSERT_EQ(m->payload.size(), payload.size());
  int flipped_bits = 0;
  for (size_t i = 0; i < payload.size(); ++i) {
    uint8_t diff = static_cast<uint8_t>(m->payload[i]) ^
                   static_cast<uint8_t>(payload[i]);
    while (diff != 0) {
      flipped_bits += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(flipped_bits, 1);
}

TEST(FaultInjectTest, PartitionWindowDropsBothDirections) {
  InProcessTransport net(2, 0.0);
  FaultSchedule sched;
  sched.partitions.push_back({0, kMasterRank, 0, 60000});
  FaultInjectingTransport chaos(&net, sched);
  const uint64_t before = CounterValue("chaos.partitions");
  EXPECT_TRUE(chaos.Send(ChannelKind::kTask, Msg(kMasterRank, 0, 1, "m2w")));
  EXPECT_TRUE(chaos.Send(ChannelKind::kTask, Msg(0, kMasterRank, 10, "w2m")));
  EXPECT_EQ(CounterValue("chaos.partitions"), before + 2);
  EXPECT_FALSE(PopWithin(net.task_queue(0), 50).has_value());
  EXPECT_FALSE(PopWithin(net.master_queue(), 50).has_value());
  // Unpartitioned pairs are unaffected.
  EXPECT_TRUE(chaos.Send(ChannelKind::kTask, Msg(kMasterRank, 1, 1, "ok")));
  EXPECT_TRUE(PopWithin(net.task_queue(1), 1000).has_value());
}

TEST(FaultInjectTest, SameSeedMakesIdenticalDecisions) {
  FaultSchedule sched;
  sched.seed = 20260808;
  sched.channels[static_cast<int>(ChannelKind::kTask)].drop = 0.5;
  auto run = [&sched] {
    InProcessTransport net(2, 0.0);
    FaultInjectingTransport chaos(&net, sched);
    std::vector<std::string> delivered;
    for (int i = 0; i < 200; ++i) {
      chaos.Send(ChannelKind::kTask, Msg(kMasterRank, 0, 1, std::to_string(i)));
    }
    while (auto m = net.task_queue(0).TryPop()) {
      delivered.push_back(m->payload);
    }
    return delivered;
  };
  std::vector<std::string> first = run();
  std::vector<std::string> second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_LT(first.size(), 200u);  // some dropped
  EXPECT_EQ(first, second) << "fault decisions must replay from the seed";
}

TEST(FaultInjectTest, StopFlushesHeldMessages) {
  InProcessTransport net(2, 0.0);
  FaultSchedule sched;
  sched.stalls.push_back({0, 0, 60000});  // worker 0 frozen for a minute
  FaultInjectingTransport chaos(&net, sched);
  ASSERT_TRUE(chaos.Send(ChannelKind::kTask, Msg(0, kMasterRank, 10, "held")));
  EXPECT_FALSE(PopWithin(net.master_queue(), 50).has_value());
  chaos.Stop();  // flushes instead of dropping
  auto m = PopWithin(net.master_queue(), 1000);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload, "held");
}

// ---------------------------------------------------------------------------
// ReliableLink
// ---------------------------------------------------------------------------

constexpr uint32_t kReliableType =
    static_cast<uint32_t>(MsgType::kColumnTaskPlan);
constexpr uint32_t kAckType = static_cast<uint32_t>(MsgType::kAck);

ReliableOptions FastRetry() {
  ReliableOptions o;
  o.ack_timeout_ms = 20;
  o.ack_backoff_max_ms = 100;
  o.max_retransmits = 50;
  return o;
}

TEST(ReliableLinkTest, AckClearsPending) {
  InProcessTransport net(1, 0.0);
  ReliableLink master_link(&net, kMasterRank, FastRetry());
  ReliableLink worker_link(&net, 0, FastRetry());
  master_link.Start();
  worker_link.Start();

  ASSERT_TRUE(master_link.Send(ChannelKind::kTask,
                               Msg(kMasterRank, 0, kReliableType, "plan")));
  EXPECT_EQ(master_link.PendingCount(), 1u);

  auto wire = PopWithin(net.task_queue(0), 1000);
  ASSERT_TRUE(wire.has_value());
  EXPECT_EQ(wire->payload.size(), 4u + ReliableLink::kPrefixBytes);
  ASSERT_TRUE(worker_link.OnReceive(&*wire, ChannelKind::kTask));
  EXPECT_EQ(wire->payload, "plan") << "prefix must be stripped on delivery";

  // The ack travels back on the same channel; consuming it clears the
  // pending entry.
  auto ack = PopWithin(net.master_queue(), 1000);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->type, kAckType);
  EXPECT_FALSE(master_link.OnReceive(&*ack, ChannelKind::kTask));
  EXPECT_EQ(master_link.PendingCount(), 0u);

  worker_link.Stop();
  master_link.Stop();
}

TEST(ReliableLinkTest, DuplicateIsSuppressedAndReAcked) {
  InProcessTransport net(1, 0.0);
  ReliableLink master_link(&net, kMasterRank, FastRetry());
  ReliableLink worker_link(&net, 0, FastRetry());

  ASSERT_TRUE(master_link.Send(ChannelKind::kTask,
                               Msg(kMasterRank, 0, kReliableType, "plan")));
  auto wire = PopWithin(net.task_queue(0), 1000);
  ASSERT_TRUE(wire.has_value());
  Message replay = *wire;  // the network replays the same frame

  const uint64_t dups_before = CounterValue("engine.duplicate_msgs");
  EXPECT_TRUE(worker_link.OnReceive(&*wire, ChannelKind::kTask));
  EXPECT_FALSE(worker_link.OnReceive(&replay, ChannelKind::kTask));
  EXPECT_EQ(CounterValue("engine.duplicate_msgs"), dups_before + 1);

  // Both the delivery and the duplicate produce an ack (the original
  // ack may have been the one that was lost).
  ASSERT_TRUE(PopWithin(net.master_queue(), 1000).has_value());
  ASSERT_TRUE(PopWithin(net.master_queue(), 1000).has_value());
}

TEST(ReliableLinkTest, CorruptPayloadDroppedWithoutAck) {
  InProcessTransport net(1, 0.0);
  ReliableLink master_link(&net, kMasterRank, FastRetry());
  ReliableLink worker_link(&net, 0, FastRetry());

  ASSERT_TRUE(master_link.Send(ChannelKind::kTask,
                               Msg(kMasterRank, 0, kReliableType, "plan")));
  auto wire = PopWithin(net.task_queue(0), 1000);
  ASSERT_TRUE(wire.has_value());
  wire->payload[ReliableLink::kPrefixBytes] ^= 0x01;  // flip a payload bit

  const uint64_t corrupt_before = CounterValue("engine.corrupt_msgs");
  EXPECT_FALSE(worker_link.OnReceive(&*wire, ChannelKind::kTask));
  EXPECT_EQ(CounterValue("engine.corrupt_msgs"), corrupt_before + 1);
  // No ack: the sender's retransmit is what recovers the message.
  EXPECT_FALSE(PopWithin(net.master_queue(), 50).has_value());
}

TEST(ReliableLinkTest, StaleGenerationIsFenced) {
  InProcessTransport net(1, 0.0);
  ReliableOptions new_epoch = FastRetry();
  new_epoch.generation = 3;
  ReliableLink new_master(&net, kMasterRank, new_epoch);
  ReliableLink old_master(&net, kMasterRank, FastRetry());  // generation 0
  ReliableLink worker_link(&net, 0, FastRetry());

  // The post-failover master speaks first: the worker learns epoch 3.
  ASSERT_TRUE(new_master.Send(ChannelKind::kTask,
                              Msg(kMasterRank, 0, kReliableType, "fresh")));
  auto fresh = PopWithin(net.task_queue(0), 1000);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_TRUE(worker_link.OnReceive(&*fresh, ChannelKind::kTask));

  // A zombie frame from the pre-failover master must be fenced.
  ASSERT_TRUE(old_master.Send(ChannelKind::kTask,
                              Msg(kMasterRank, 0, kReliableType, "stale")));
  auto stale = PopWithin(net.task_queue(0), 1000);
  ASSERT_TRUE(stale.has_value());
  const uint64_t fenced_before = CounterValue("engine.fenced_msgs");
  EXPECT_FALSE(worker_link.OnReceive(&*stale, ChannelKind::kTask));
  EXPECT_EQ(CounterValue("engine.fenced_msgs"), fenced_before + 1);
}

TEST(ReliableLinkTest, RetransmitBridgesDropsEndToEnd) {
  // A 60%-lossy link between two pumped links: at-least-once delivery
  // plus dedup must get exactly one copy of every message through.
  InProcessTransport net(1, 0.0);
  FaultSchedule sched;
  sched.seed = 99;
  sched.channels[static_cast<int>(ChannelKind::kTask)].drop = 0.6;
  FaultInjectingTransport chaos(&net, sched);

  ReliableLink master_link(&chaos, kMasterRank, FastRetry());
  ReliableLink worker_link(&chaos, 0, FastRetry());
  master_link.Start();
  worker_link.Start();

  constexpr int kMessages = 20;
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(master_link.Send(
        ChannelKind::kTask,
        Msg(kMasterRank, 0, kReliableType, "msg-" + std::to_string(i))));
  }

  std::vector<std::string> delivered;
  const auto deadline = steady_clock::now() + std::chrono::seconds(30);
  while ((delivered.size() < kMessages || master_link.PendingCount() > 0) &&
         steady_clock::now() < deadline) {
    if (auto m = net.task_queue(0).TryPop()) {
      if (worker_link.OnReceive(&*m, ChannelKind::kTask)) {
        delivered.push_back(m->payload);
      }
      continue;
    }
    if (auto m = net.master_queue().TryPop()) {
      master_link.OnReceive(&*m, ChannelKind::kTask);
      continue;
    }
    std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_EQ(delivered.size(), static_cast<size_t>(kMessages));
  std::sort(delivered.begin(), delivered.end());
  EXPECT_EQ(std::unique(delivered.begin(), delivered.end()), delivered.end())
      << "dedup must suppress every replayed copy";
  EXPECT_EQ(master_link.PendingCount(), 0u);
  EXPECT_GT(CounterValue("engine.retransmits"), 0u);

  worker_link.Stop();
  master_link.Stop();
  chaos.Stop();
}

TEST(ReliableLinkTest, GivesUpOnCrashedPeer) {
  InProcessTransport net(1, 0.0);
  ReliableOptions opts = FastRetry();
  ReliableLink master_link(&net, kMasterRank, opts);
  master_link.Start();
  ASSERT_TRUE(master_link.Send(ChannelKind::kTask,
                               Msg(kMasterRank, 0, kReliableType, "doomed")));
  EXPECT_EQ(master_link.PendingCount(), 1u);
  master_link.DropPeer(0);  // the engine declared worker 0 crashed
  EXPECT_EQ(master_link.PendingCount(), 0u);
  master_link.Stop();
}

// ---------------------------------------------------------------------------
// In-process engine under chaos: byte-identical forest
// ---------------------------------------------------------------------------

DataTable ChaosData(uint64_t seed) {
  DatasetProfile p;
  p.rows = 2500;
  p.num_numeric = 6;
  p.num_categorical = 2;
  p.num_classes = 3;
  p.noise = 0.08;
  return GenerateTable(p, seed);
}

std::string Bytes(const ForestModel& forest) {
  BinaryWriter w;
  forest.Serialize(&w);
  return w.buffer();
}

/// Master + workers assembled over one shared in-process transport with
/// a fault injector between the engine and the wire — the in-process
/// twin of `treeserver_node --chaos-profile`.
ForestModel TrainUnderChaos(const EngineConfig& cfg, const ForestJobSpec& spec,
                            const std::string& profile, uint64_t seed) {
  auto table = std::make_shared<const DataTable>(ChaosData(417));
  InProcessTransport net(cfg.num_workers, cfg.bandwidth_mbps);
  FaultSchedule sched;
  TS_CHECK(FaultSchedule::Profile(profile, seed, &sched));
  FaultInjectingTransport chaos(&net, sched);

  auto master = std::make_unique<Master>(table, &chaos, cfg);
  std::vector<std::unique_ptr<PeakGauge>> gauges;
  std::vector<std::unique_ptr<BusyClock>> clocks;
  std::vector<std::unique_ptr<Worker>> workers;
  for (int i = 0; i < cfg.num_workers; ++i) {
    gauges.push_back(std::make_unique<PeakGauge>());
    clocks.push_back(std::make_unique<BusyClock>());
    workers.push_back(std::make_unique<Worker>(
        i, table, &chaos, cfg.compers_per_worker, gauges.back().get(),
        clocks.back().get(), cfg.compress_transfers, 0,
        cfg.ReliableConfig()));
  }
  master->Start();
  for (auto& w : workers) w->Start();

  ForestModel model = master->Wait(master->Submit(spec));

  master->Stop();
  net.CloseAll();
  for (auto& w : workers) w->Join();
  chaos.Stop();
  return model;
}

TEST(ChaosEngineTest, MixedProfileTrainsByteIdenticalForest) {
  EngineConfig cfg;
  cfg.num_workers = 4;
  cfg.compers_per_worker = 2;
  cfg.tau_d = 400;  // force the distributed column-task path
  cfg.tau_dfs = 1200;
  cfg.ack_timeout_ms = 25;
  cfg.ack_backoff_max_ms = 200;
  cfg.max_retransmits = 200;

  ForestJobSpec spec;
  spec.num_trees = 4;
  spec.tree.max_depth = 8;
  spec.tree.min_leaf = 2;
  spec.column_ratio = 0.8;
  spec.seed = 99;

  ForestModel chaotic = TrainUnderChaos(cfg, spec, "mixed", 20260808);
  ASSERT_EQ(chaotic.num_trees(), spec.num_trees);

  ForestModel reference = TrainForestSerial(ChaosData(417), spec, 2);
  EXPECT_EQ(Bytes(chaotic), Bytes(reference))
      << "a chaos run must converge to the fault-free forest bytes";
}

TEST(ChaosEngineTest, DropHeavyProfileTrainsByteIdenticalForest) {
  EngineConfig cfg;
  cfg.num_workers = 2;
  cfg.compers_per_worker = 2;
  cfg.tau_d = 400;
  cfg.tau_dfs = 1200;
  cfg.ack_timeout_ms = 25;
  cfg.ack_backoff_max_ms = 200;
  cfg.max_retransmits = 200;

  ForestJobSpec spec;
  spec.num_trees = 4;
  spec.tree.max_depth = 8;
  spec.tree.min_leaf = 2;
  spec.column_ratio = 0.8;
  spec.seed = 99;

  ForestModel chaotic = TrainUnderChaos(cfg, spec, "drop-heavy", 7);
  ASSERT_EQ(chaotic.num_trees(), spec.num_trees);
  ForestModel reference = TrainForestSerial(ChaosData(417), spec, 2);
  EXPECT_EQ(Bytes(chaotic), Bytes(reference));
}

// ---------------------------------------------------------------------------
// Durable checkpoints: CRC-trailered, atomic-rename, fuzz rejection
// ---------------------------------------------------------------------------

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

TEST(ChaosCheckpointTest, RoundTripsArbitraryBytes) {
  const std::string path = TempPath("ckpt_roundtrip.bin");
  std::string snapshot = "master state \x00\x01\xFF with binary bytes";
  snapshot.push_back('\0');
  ASSERT_TRUE(SaveCheckpoint(path, snapshot).ok());
  std::string restored;
  ASSERT_TRUE(LoadCheckpoint(path, &restored).ok());
  EXPECT_EQ(restored, snapshot);
  std::remove(path.c_str());
}

TEST(ChaosCheckpointTest, EveryTruncationIsRejected) {
  const std::string path = TempPath("ckpt_trunc_src.bin");
  const std::string mangled = TempPath("ckpt_trunc.bin");
  ASSERT_TRUE(SaveCheckpoint(path, "state to be truncated").ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_FALSE(bytes.empty());
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::ofstream out(mangled, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(len));
    out.close();
    std::string restored;
    EXPECT_FALSE(LoadCheckpoint(mangled, &restored).ok())
        << "truncation to " << len << " bytes restored silently";
  }
  std::remove(path.c_str());
  std::remove(mangled.c_str());
}

TEST(ChaosCheckpointTest, EveryBitFlipIsRejected) {
  const std::string path = TempPath("ckpt_flip_src.bin");
  const std::string mangled = TempPath("ckpt_flip.bin");
  ASSERT_TRUE(SaveCheckpoint(path, "bit flip fuzz target").ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_FALSE(bytes.empty());
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      std::ofstream out(mangled, std::ios::binary | std::ios::trunc);
      out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
      out.close();
      std::string restored;
      EXPECT_FALSE(LoadCheckpoint(mangled, &restored).ok())
          << "bit " << bit << " of byte " << byte << " restored silently";
    }
  }
  std::remove(path.c_str());
  std::remove(mangled.c_str());
}

TEST(ChaosCheckpointTest, TrailingGarbageIsRejected) {
  const std::string path = TempPath("ckpt_trailing.bin");
  ASSERT_TRUE(SaveCheckpoint(path, "clean state").ok());
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << "garbage";
  out.close();
  std::string restored;
  EXPECT_FALSE(LoadCheckpoint(path, &restored).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace treeserver
