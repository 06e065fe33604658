#include <gtest/gtest.h>

#include <thread>

#include "common/timer.h"
#include "engine/cost_model.h"
#include "rpc/in_process_transport.h"
#include "table/datasets.h"

namespace treeserver {
namespace {

TEST(NetworkTest, RoutesToQueues) {
  InProcessTransport net(2, 0.0);
  net.Send(ChannelKind::kTask, Message{kMasterRank, 0, 1, "plan"});
  net.Send(ChannelKind::kData, Message{1, 0, 2, "data"});
  net.Send(ChannelKind::kTask, Message{0, kMasterRank, 3, "result"});

  auto task = net.task_queue(0).TryPop();
  ASSERT_TRUE(task.has_value());
  EXPECT_EQ(task->payload, "plan");
  auto data = net.data_queue(0).TryPop();
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->src, 1);
  auto master = net.master_queue().TryPop();
  ASSERT_TRUE(master.has_value());
  EXPECT_EQ(master->type, 3u);
}

TEST(NetworkTest, CountsBytesPerEndpoint) {
  InProcessTransport net(3, 0.0);
  net.Send(ChannelKind::kData, Message{0, 1, 1, std::string(100, 'x')});
  net.Send(ChannelKind::kData, Message{0, 2, 1, std::string(50, 'x')});
  EXPECT_EQ(net.bytes_sent(0), 100u + 50u + 2 * 24u);
  EXPECT_EQ(net.bytes_received(1), 100u + 24u);
  EXPECT_EQ(net.bytes_received(2), 50u + 24u);
  EXPECT_EQ(net.total_bytes(), net.bytes_sent(0));
  net.ResetCounters();
  EXPECT_EQ(net.total_bytes(), 0u);
}

TEST(NetworkTest, LocalDeliveryIsFree) {
  InProcessTransport net(2, 0.0);
  net.Send(ChannelKind::kData, Message{1, 1, 1, std::string(1000, 'x')});
  EXPECT_EQ(net.bytes_sent(1), 0u);
  EXPECT_TRUE(net.data_queue(1).TryPop().has_value());
}

TEST(NetworkTest, CrashedWorkerTrafficDropped) {
  InProcessTransport net(2, 0.0);
  net.SetCrashed(1);
  EXPECT_TRUE(net.IsCrashed(1));
  EXPECT_FALSE(net.Send(ChannelKind::kTask, Message{kMasterRank, 1, 1, "x"}));
  EXPECT_FALSE(net.Send(ChannelKind::kTask, Message{1, kMasterRank, 1, "x"}));
  // Worker 0 still reachable.
  EXPECT_TRUE(net.Send(ChannelKind::kTask, Message{kMasterRank, 0, 1, "x"}));
}

TEST(NetworkTest, CountsDroppedMessagesPerEndpoint) {
  InProcessTransport net(3, 0.0);
  EXPECT_EQ(net.total_msgs_dropped(), 0u);
  net.SetCrashed(1);
  // Dropped because the destination is crashed: charged to 1.
  net.Send(ChannelKind::kTask, Message{kMasterRank, 1, 1, "x"});
  net.Send(ChannelKind::kData, Message{0, 1, 1, "x"});
  // Dropped because the source is crashed: also charged to 1.
  net.Send(ChannelKind::kTask, Message{1, kMasterRank, 1, "x"});
  // Delivered fine: no drop.
  EXPECT_TRUE(net.Send(ChannelKind::kTask, Message{kMasterRank, 2, 1, "x"}));
  EXPECT_EQ(net.msgs_dropped(1), 3u);
  EXPECT_EQ(net.msgs_dropped(0), 0u);
  EXPECT_EQ(net.msgs_dropped(2), 0u);
  EXPECT_EQ(net.msgs_dropped(kMasterRank), 0u);
  EXPECT_EQ(net.total_msgs_dropped(), 3u);

  NetworkStats stats = net.GetStats();
  ASSERT_EQ(stats.endpoints.size(), 4u);
  EXPECT_EQ(stats.endpoints[1].msgs_dropped, 3u);
  EXPECT_EQ(stats.endpoints[0].msgs_dropped, 0u);

  net.ResetCounters();
  EXPECT_EQ(net.total_msgs_dropped(), 0u);
  EXPECT_EQ(net.msgs_dropped(1), 0u);
}

TEST(NetworkTest, ThrottleDelaysBigSends) {
  // 1 Mbps -> 125000 bytes/s; 125000 bytes should take about a second.
  // Use a smaller payload to keep the test fast: 12500 bytes ~ 100 ms.
  InProcessTransport net(2, 1.0);
  WallTimer timer;
  net.Send(ChannelKind::kData, Message{0, 1, 1, std::string(12500, 'x')});
  EXPECT_GT(timer.Seconds(), 0.05);
}

TEST(ColumnPlacementTest, ReplicationAndBalance) {
  DatasetProfile p;
  p.rows = 10;
  p.num_numeric = 8;
  p.num_classes = 2;
  DataTable t = GenerateTable(p, 1);
  ColumnPlacement placement(t.schema(), 4, 2);
  std::vector<int> held(4, 0);
  for (int col = 0; col < 8; ++col) {
    EXPECT_EQ(placement.holders(col).size(), 2u);
    for (int h : placement.holders(col)) {
      ASSERT_GE(h, 0);
      ASSERT_LT(h, 4);
      ++held[h];
    }
  }
  // Round-robin placement balances to 4 columns per worker.
  for (int h : held) EXPECT_EQ(h, 4);
  // Target column has no holder entry.
  EXPECT_TRUE(placement.holders(t.schema().target_index()).empty());
}

TEST(ColumnPlacementTest, RemoveWorkerKeepsAReplica) {
  DatasetProfile p;
  p.rows = 10;
  p.num_numeric = 6;
  p.num_classes = 2;
  DataTable t = GenerateTable(p, 2);
  ColumnPlacement placement(t.schema(), 3, 2);
  std::vector<int> lost = placement.RemoveWorker(1);
  EXPECT_FALSE(lost.empty());
  for (int col : lost) {
    EXPECT_GE(placement.holders(col).size(), 1u);
    for (int h : placement.holders(col)) EXPECT_NE(h, 1);
  }
  placement.AddHolder(lost[0], 2);
  placement.AddHolder(lost[0], 2);  // idempotent
  int count = 0;
  for (int h : placement.holders(lost[0])) count += (h == 2);
  EXPECT_EQ(count, 1);
}

TEST(LoadMatrixTest, ApplyAndDeduct) {
  LoadMatrix m(2);
  LoadDelta d;
  d.Add(0, 100, 10, 5);
  d.Add(1, 0, 0, 50);
  m.Apply(d, 1.0);
  EXPECT_EQ(m.Get(0)[0], 100);
  EXPECT_EQ(m.Get(1)[2], 50);
  m.Apply(d, -1.0);
  EXPECT_EQ(m.Get(0)[0], 0);
  EXPECT_EQ(m.Get(1)[2], 0);
}

TEST(LoadMatrixTest, ColumnTaskBalancesAcrossHolders) {
  DatasetProfile p;
  p.rows = 10;
  p.num_numeric = 8;
  p.num_classes = 2;
  DataTable t = GenerateTable(p, 3);
  ColumnPlacement placement(t.schema(), 4, 2);
  LoadMatrix m(4);
  std::vector<bool> alive(4, true);
  std::vector<int> cols = {0, 1, 2, 3, 4, 5, 6, 7};
  auto a = m.AssignColumnTask(placement, cols, 1000, /*parent=*/0, alive);
  // Every column assigned exactly once, to one of its holders.
  size_t assigned = 0;
  for (const auto& [w, wc] : a.worker_columns) {
    for (int32_t col : wc) {
      bool holds = false;
      for (int h : placement.holders(col)) holds |= (h == w);
      EXPECT_TRUE(holds) << "col " << col << " -> non-holder " << w;
      ++assigned;
    }
  }
  EXPECT_EQ(assigned, cols.size());
  // Parent worker got charged send workload for I_x transfers.
  EXPECT_GT(m.Get(0)[1], 0.0);
}

TEST(LoadMatrixTest, SubtreeTaskPicksIdleKeyWorker) {
  DatasetProfile p;
  p.rows = 10;
  p.num_numeric = 4;
  p.num_classes = 2;
  DataTable t = GenerateTable(p, 4);
  ColumnPlacement placement(t.schema(), 3, 2);
  LoadMatrix m(3);
  // Pre-load workers 0 and 1 with compute.
  LoadDelta busy;
  busy.Add(0, 1e9, 0, 0);
  busy.Add(1, 1e9, 0, 0);
  m.Apply(busy, 1.0);
  std::vector<bool> alive(3, true);
  auto a = m.AssignSubtreeTask(placement, {0, 1, 2, 3}, 500, 0, alive);
  EXPECT_EQ(a.key_worker, 2);
  EXPECT_EQ(a.columns.size(), 4u);
  EXPECT_EQ(a.servers.size(), 4u);
  // Key worker got the |I_x| |C| log|I_x| compute charge.
  EXPECT_GT(m.Get(2)[0], 0.0);
}

TEST(LoadMatrixTest, SubtreeAssignmentSkipsDeadWorkers) {
  DatasetProfile p;
  p.rows = 10;
  p.num_numeric = 4;
  p.num_classes = 2;
  DataTable t = GenerateTable(p, 5);
  ColumnPlacement placement(t.schema(), 3, 3);  // full replication
  LoadMatrix m(3);
  std::vector<bool> alive = {true, false, true};
  auto a = m.AssignSubtreeTask(placement, {0, 1, 2, 3}, 500, -1, alive);
  EXPECT_NE(a.key_worker, 1);
  for (int s : a.servers) EXPECT_NE(s, 1);
}

}  // namespace
}  // namespace treeserver
