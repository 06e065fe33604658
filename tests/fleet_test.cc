#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "common/serial.h"

#include "fleet/replica.h"
#include "fleet/router.h"
#include "fleet/wire.h"
#include "forest/forest.h"
#include "rpc/fault_injection.h"
#include "rpc/in_process_transport.h"
#include "serve/compiled_model.h"
#include "table/datasets.h"

namespace treeserver {
namespace {

DataTable FleetData(size_t rows, uint64_t seed, int classes = 3) {
  DatasetProfile p;
  p.rows = rows;
  p.num_numeric = 5;
  p.num_categorical = 3;
  p.num_classes = classes;
  p.missing_fraction = 0.05;
  p.noise = 0.05;
  p.concept_depth = 5;
  return GenerateTable(p, seed);
}

ForestModel TrainFleetForest(const DataTable& t, uint64_t seed = 17,
                             int trees = 6) {
  ForestJobSpec spec;
  spec.num_trees = trees;
  spec.tree.max_depth = 6;
  spec.column_ratio = 0.7;
  spec.seed = seed;
  if (t.schema().task_kind() == TaskKind::kRegression) {
    spec.tree.impurity = Impurity::kVariance;
  }
  return TrainForestSerial(t, spec, 2);
}

std::string SerializeForest(const ForestModel& forest) {
  BinaryWriter w;
  forest.Serialize(&w);
  return w.Release();
}

std::vector<int32_t> ReferenceLabels(const ForestModel& forest,
                                     const DataTable& table) {
  CompiledForest compiled = CompiledForest::Compile(forest);
  std::vector<uint32_t> rows(table.num_rows());
  for (uint32_t i = 0; i < table.num_rows(); ++i) rows[i] = i;
  std::vector<int32_t> labels(table.num_rows());
  compiled.PredictLabel(table, rows.data(), rows.size(), -1, labels.data());
  return labels;
}

/// Router + N started replicas over one in-process transport, with
/// fast timers sized for tests.
struct FleetHarness {
  explicit FleetHarness(int num_replicas, FleetRouterConfig router_config = {},
                        Transport* transport_override = nullptr)
      : net(num_replicas, 0.0),
        transport(transport_override != nullptr ? transport_override : &net) {
    for (int r = 0; r < num_replicas; ++r) {
      FleetReplicaConfig rc;
      rc.rank = r;
      rc.serve.num_workers = 2;
      rc.serve.max_batch = 16;
      rc.serve.batch_deadline_us = 100;
      replicas.push_back(std::make_unique<FleetReplica>(transport, rc));
    }
    if (router_config.health_period_ms == 100) {
      router_config.health_period_ms = 20;
    }
    if (router_config.retry_period_ms == 250) {
      router_config.retry_period_ms = 60;
    }
    router = std::make_unique<FleetRouter>(transport, router_config);
  }

  ~FleetHarness() {
    router->Stop();
    for (auto& r : replicas) r->Stop();
  }

  void Start(int skip_replica = -1) {
    for (int r = 0; r < static_cast<int>(replicas.size()); ++r) {
      if (r != skip_replica) replicas[r]->Start();
    }
    router->Start();
  }

  InProcessTransport net;
  Transport* transport;
  std::vector<std::unique_ptr<FleetReplica>> replicas;
  std::unique_ptr<FleetRouter> router;
};

// ---------------------------------------------------------------------
// Wire codec.
// ---------------------------------------------------------------------

TEST(FleetWire, PredictBatchRoundTripsBitExact) {
  DataTable table = FleetData(64, 11);
  std::vector<uint32_t> rows = {0, 7, 13, 63};
  FleetPredictMsg msg =
      FleetPredictMsg::FromRows(42, "m", table, rows.data(), rows.size());
  const std::string wire = msg.Encode();

  FleetPredictMsg decoded;
  ASSERT_TRUE(FleetPredictMsg::Decode(wire, &decoded).ok());
  EXPECT_EQ(decoded.request_id, 42u);
  EXPECT_EQ(decoded.model, "m");
  EXPECT_EQ(decoded.num_rows, rows.size());

  Result<std::shared_ptr<const DataTable>> rebuilt = decoded.ToTable();
  ASSERT_TRUE(rebuilt.ok());
  const DataTable& out = **rebuilt;
  ASSERT_EQ(out.num_rows(), rows.size());
  ASSERT_EQ(out.num_columns(), table.num_columns());
  EXPECT_EQ(out.schema().target_index(), table.schema().target_index());
  for (int c = 0; c < table.num_columns(); ++c) {
    for (size_t i = 0; i < rows.size(); ++i) {
      if (table.column(c)->type() == DataType::kNumeric) {
        const double a = table.column(c)->numeric_at(rows[i]);
        const double b = out.column(c)->numeric_at(i);
        // Bit-exact, including NaN (missing values).
        EXPECT_EQ(std::memcmp(&a, &b, sizeof(a)), 0);
      } else {
        EXPECT_EQ(table.column(c)->category_at(rows[i]),
                  out.column(c)->category_at(i));
      }
    }
  }
}

TEST(FleetWire, CorruptionIsDetectedAtEverySeam) {
  DataTable table = FleetData(16, 3);
  std::vector<uint32_t> rows = {1, 2};
  std::string wire =
      FleetPredictMsg::FromRows(7, "m", table, rows.data(), rows.size())
          .Encode();
  // Flip one byte anywhere: the CRC seal must catch it.
  for (size_t pos : {size_t{0}, size_t{5}, wire.size() / 2, wire.size() - 1}) {
    std::string bad = wire;
    bad[pos] ^= 0x40;
    FleetPredictMsg out;
    EXPECT_FALSE(FleetPredictMsg::Decode(bad, &out).ok()) << "pos " << pos;
  }
  // Truncation too.
  FleetPredictMsg out;
  EXPECT_FALSE(FleetPredictMsg::Decode(wire.substr(0, 3), &out).ok());
  EXPECT_FALSE(
      FleetPredictMsg::Decode(wire.substr(0, wire.size() - 2), &out).ok());
}

TEST(FleetWire, AdminAndHealthRoundTrip) {
  FleetPushMsg push;
  push.op_id = 9;
  push.model = "m";
  push.model_bytes = std::string("\x01\x02\x00\x03", 4);
  FleetPushMsg push2;
  ASSERT_TRUE(FleetPushMsg::Decode(push.Encode(), &push2).ok());
  EXPECT_EQ(push2.model_bytes, push.model_bytes);

  FleetHealthPongMsg pong;
  pong.nonce = 5;
  pong.replica = 2;
  pong.queue_depth = 7;
  pong.models.push_back({"m", 3, 2});
  FleetHealthPongMsg pong2;
  ASSERT_TRUE(FleetHealthPongMsg::Decode(pong.Encode(), &pong2).ok());
  ASSERT_EQ(pong2.models.size(), 1u);
  EXPECT_EQ(pong2.models[0].name, "m");
  EXPECT_EQ(pong2.models[0].version, 3u);
}

// ---------------------------------------------------------------------
// Router + replicas, in-process.
// ---------------------------------------------------------------------

TEST(FleetRouterTest, PredictionsMatchSingleProcessReference) {
  DataTable table = FleetData(256, 21);
  ForestModel forest = TrainFleetForest(table);
  const std::vector<int32_t> reference = ReferenceLabels(forest, table);

  FleetHarness fleet(3);
  fleet.Start();
  ASSERT_TRUE(fleet.router->Push("m", SerializeForest(forest)).ok());

  std::vector<std::future<Result<FleetBatchResult>>> futures;
  for (uint32_t row = 0; row < table.num_rows(); ++row) {
    futures.push_back(fleet.router->Predict("m", table, row));
  }
  for (uint32_t row = 0; row < table.num_rows(); ++row) {
    Result<FleetBatchResult> result = futures[row].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->labels.size(), 1u);
    EXPECT_EQ(result->labels[0], reference[row]) << "row " << row;
  }

  const FleetStatus status = fleet.router->GetStatus();
  EXPECT_EQ(status.shed, 0u);
  EXPECT_GE(status.accepted, table.num_rows());
}

TEST(FleetRouterTest, DispatchSpreadsOneModelAcrossReplicas) {
  DataTable table = FleetData(32, 7);

  FleetRouterConfig config;
  // Nothing answers and nothing is retried or shed during the test, so
  // the outstanding counts show exactly where each batch went.
  config.health_miss_limit = 1000000;
  config.retry_period_ms = 600000;
  config.default_deadline_ms = 600000;
  MetricsRegistry metrics;
  config.metrics = &metrics;
  FleetHarness fleet(2, config);  // replicas never Start()ed
  fleet.router->Start();

  std::vector<std::future<Result<FleetBatchResult>>> futures;
  for (uint32_t row = 0; row < 8; ++row) {
    futures.push_back(fleet.router->PredictRows("m", table, &row, 1));
  }
  // Replicas are stateless, so one model's traffic balances across
  // them rather than sticking to one.
  const FleetStatus status = fleet.router->GetStatus();
  ASSERT_EQ(status.replicas.size(), 2u);
  EXPECT_EQ(status.replicas[0].outstanding, 4u);
  EXPECT_EQ(status.replicas[1].outstanding, 4u);
  EXPECT_EQ(status.accepted, 8u);
}

TEST(FleetRouterTest, BatchedRowsMatchReference) {
  DataTable table = FleetData(128, 23);
  ForestModel forest = TrainFleetForest(table);
  const std::vector<int32_t> reference = ReferenceLabels(forest, table);

  FleetHarness fleet(2);
  fleet.Start();
  ASSERT_TRUE(fleet.router->Push("m", SerializeForest(forest)).ok());

  std::vector<uint32_t> rows;
  for (uint32_t r = 0; r < table.num_rows(); r += 2) rows.push_back(r);
  Result<FleetBatchResult> result =
      fleet.router->PredictRows("m", table, rows.data(), rows.size()).get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->labels.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(result->labels[i], reference[rows[i]]);
  }
}

TEST(FleetRouterTest, ShedsAtAdmissionAndDeadlineWithCounts) {
  DataTable table = FleetData(32, 5);

  FleetRouterConfig config;
  config.max_inflight = 4;
  config.default_deadline_ms = 150;
  MetricsRegistry metrics;
  config.metrics = &metrics;
  // Replicas exist but are never started: nothing drains the
  // mailboxes, so accepted requests age out and late ones shed at
  // admission.
  FleetHarness fleet(2, config);
  fleet.router->Start();

  std::vector<std::future<Result<FleetBatchResult>>> futures;
  for (uint32_t row = 0; row < 8; ++row) {
    futures.push_back(fleet.router->Predict("m", table, row));
  }
  size_t unavailable = 0;
  for (auto& f : futures) {
    Result<FleetBatchResult> r = f.get();
    ASSERT_FALSE(r.ok());
    if (r.status().code() == StatusCode::kUnavailable) ++unavailable;
  }
  // All 8 resolved Unavailable: 4 at admission, 4 at the deadline —
  // and the shed counter saw every one (nothing dropped silently).
  EXPECT_EQ(unavailable, 8u);
  EXPECT_EQ(metrics.GetCounter("fleet.shed")->value(), 8u);
}

TEST(FleetRouterTest, FailoverReroutesAwayFromDeadReplica) {
  DataTable table = FleetData(128, 31);
  ForestModel forest = TrainFleetForest(table);
  const std::vector<int32_t> reference = ReferenceLabels(forest, table);

  FleetHarness fleet(3);
  fleet.Start();
  ASSERT_TRUE(fleet.router->Push("m", SerializeForest(forest)).ok());

  // Kill replica 0 mid-load: its in-flight work must re-dispatch.
  std::vector<std::future<Result<FleetBatchResult>>> futures;
  for (uint32_t row = 0; row < 64; ++row) {
    futures.push_back(fleet.router->Predict("m", table, row));
  }
  fleet.replicas[0]->Stop();
  fleet.net.SetCrashed(0);
  fleet.router->MarkReplicaDead(0);
  for (uint32_t row = 64; row < 128; ++row) {
    futures.push_back(fleet.router->Predict("m", table, row));
  }

  for (uint32_t row = 0; row < 128; ++row) {
    Result<FleetBatchResult> result = futures[row].get();
    ASSERT_TRUE(result.ok()) << "row " << row << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->labels[0], reference[row]);
    // Pre-kill rows may well have been answered by replica 0 before it
    // died; only traffic sent after MarkReplicaDead must avoid it.
    if (row >= 64) {
      EXPECT_NE(result->replica, 0) << "dead replica answered row " << row;
    }
  }
  const FleetStatus status = fleet.router->GetStatus();
  EXPECT_FALSE(status.replicas[0].alive);
  EXPECT_FALSE(status.replicas[0].in_rotation);
}

TEST(FleetRouterTest, HealthRotationDropsAndHealsSilentReplica) {
  FleetRouterConfig config;
  config.health_period_ms = 10;
  config.health_miss_limit = 3;
  FleetHarness fleet(2, config);
  // Replica 1 exists but does not serve its mailbox yet.
  fleet.Start(/*skip_replica=*/1);

  // Replica 1 misses pings until it leaves rotation.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool out_of_rotation = false;
  while (std::chrono::steady_clock::now() < deadline) {
    const FleetStatus status = fleet.router->GetStatus();
    if (!status.replicas[1].in_rotation) {
      out_of_rotation = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(out_of_rotation);
  {
    const FleetStatus status = fleet.router->GetStatus();
    EXPECT_TRUE(status.replicas[1].alive);  // silent, not dead
    EXPECT_TRUE(status.replicas[0].in_rotation);
  }

  // It starts serving (partition heals): first pong re-admits it.
  fleet.replicas[1]->Start();
  bool healed = false;
  const auto heal_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < heal_deadline) {
    if (fleet.router->GetStatus().replicas[1].in_rotation) {
      healed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(healed);
}

TEST(FleetRouterTest, CanaryRollbackLeavesOldVersionEverywhere) {
  DataTable table = FleetData(128, 41);
  ForestModel v1 = TrainFleetForest(table, 17);
  ForestModel v2 = TrainFleetForest(table, 99);
  const std::vector<int32_t> reference_v1 = ReferenceLabels(v1, table);

  FleetRouterConfig config;
  config.canary_fraction = 0.5;
  FleetHarness fleet(3, config);
  fleet.Start();
  ASSERT_TRUE(fleet.router->Push("m", SerializeForest(v1)).ok());

  Result<int> canary_replica =
      fleet.router->PushCanary("m", SerializeForest(v2));
  ASSERT_TRUE(canary_replica.ok()) << canary_replica.status().ToString();

  // Half the traffic sees v2 (from the canary replica only), half v1.
  bool saw_canary = false;
  bool saw_baseline = false;
  for (uint32_t row = 0; row < 64; ++row) {
    Result<FleetBatchResult> r = fleet.router->Predict("m", table, row).get();
    ASSERT_TRUE(r.ok());
    if (r->version == 2) {
      saw_canary = true;
      EXPECT_EQ(r->replica, *canary_replica);
    } else {
      EXPECT_EQ(r->version, 1u);
      EXPECT_NE(r->replica, *canary_replica)
          << "baseline traffic hit the canary replica";
      saw_baseline = true;
    }
  }
  EXPECT_TRUE(saw_canary);
  EXPECT_TRUE(saw_baseline);
  {
    const FleetStatus status = fleet.router->GetStatus();
    ASSERT_EQ(status.canaries.size(), 1u);
    EXPECT_EQ(status.canaries[0].replica, *canary_replica);
    EXPECT_GT(status.canaries[0].canary.count +
                  status.canaries[0].baseline.count,
              0u);
  }

  // Forced rollback: every replica serves v1 again, no v2 anywhere.
  ASSERT_TRUE(fleet.router->Rollback("m").ok());
  EXPECT_TRUE(fleet.router->GetStatus().canaries.empty());
  for (uint32_t row = 0; row < 64; ++row) {
    Result<FleetBatchResult> r = fleet.router->Predict("m", table, row).get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->version, 1u);
    EXPECT_EQ(r->labels[0], reference_v1[row]);
  }
  for (auto& replica : fleet.replicas) {
    auto current = replica->registry()->Current("m");
    ASSERT_NE(current, nullptr);
    EXPECT_EQ(current->version, 1u);
  }
}

TEST(FleetRouterTest, CanaryPromoteShipsNewVersionEverywhere) {
  DataTable table = FleetData(96, 43);
  ForestModel v1 = TrainFleetForest(table, 17);
  ForestModel v2 = TrainFleetForest(table, 99);
  const std::vector<int32_t> reference_v2 = ReferenceLabels(v2, table);

  FleetHarness fleet(2);
  fleet.Start();
  ASSERT_TRUE(fleet.router->Push("m", SerializeForest(v1)).ok());
  ASSERT_TRUE(fleet.router->PushCanary("m", SerializeForest(v2)).ok());
  ASSERT_TRUE(fleet.router->Promote("m").ok());
  EXPECT_TRUE(fleet.router->GetStatus().canaries.empty());

  for (uint32_t row = 0; row < 64; ++row) {
    Result<FleetBatchResult> r = fleet.router->Predict("m", table, row).get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->version, 2u);
    EXPECT_EQ(r->labels[0], reference_v2[row]);
  }
}

TEST(FleetRouterTest, RegressionValuesAreByteIdentical) {
  DatasetProfile p;
  p.rows = 96;
  p.num_numeric = 6;
  p.num_categorical = 2;
  p.num_classes = 0;  // regression
  p.noise = 0.1;
  DataTable table = GenerateTable(p, 7);
  ForestModel forest = TrainFleetForest(table);
  CompiledForest compiled = CompiledForest::Compile(forest);
  std::vector<uint32_t> rows(table.num_rows());
  for (uint32_t i = 0; i < table.num_rows(); ++i) rows[i] = i;
  std::vector<double> reference(table.num_rows());
  compiled.PredictValue(table, rows.data(), rows.size(), -1, reference.data());

  FleetHarness fleet(2);
  fleet.Start();
  ASSERT_TRUE(fleet.router->Push("m", SerializeForest(forest)).ok());
  for (uint32_t row = 0; row < table.num_rows(); ++row) {
    Result<FleetBatchResult> r = fleet.router->Predict("m", table, row).get();
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->values.size(), 1u);
    // Byte-identical doubles, not approximately equal.
    EXPECT_EQ(std::memcmp(&r->values[0], &reference[row], sizeof(double)), 0)
        << "row " << row;
  }
}

TEST(FleetRouterTest, MalformedBatchesAreRejectedAndReplicaKeepsServing) {
  DataTable table = FleetData(64, 29);
  ForestModel forest = TrainFleetForest(table);
  const CompiledForest compiled = CompiledForest::Compile(forest);
  const std::vector<int32_t>& used = compiled.used_columns();
  ASSERT_GE(used.back(), 2);
  std::vector<uint32_t> rows(table.num_rows());
  for (uint32_t i = 0; i < table.num_rows(); ++i) rows[i] = i;

  // Too few columns: feature 0 and the target only, so the highest
  // split column is out of range.
  const int target = table.schema().target_index();
  Result<DataTable> narrow = DataTable::Make(
      Schema({table.schema().column(0), table.schema().column(target)}, 1,
             table.schema().task_kind()),
      {table.column(0), table.column(target)});
  ASSERT_TRUE(narrow.ok()) << narrow.status().ToString();

  // Type flip: a numeric split column sent as categorical.
  int numeric = -1;
  for (int32_t c : used) {
    if (table.column(c)->type() == DataType::kNumeric) {
      numeric = c;
      break;
    }
  }
  ASSERT_GE(numeric, 0);
  std::vector<ColumnMeta> metas;
  std::vector<ColumnPtr> cols;
  for (int c = 0; c < table.num_columns(); ++c) {
    metas.push_back(table.schema().column(c));
    cols.push_back(table.column(c));
  }
  metas[numeric] = {"flipped", DataType::kCategorical, 1};
  cols[numeric] = Column::Categorical(
      "flipped", std::vector<int32_t>(table.num_rows(), 0), 1);
  Result<DataTable> flipped = DataTable::Make(
      Schema(metas, target, table.schema().task_kind()), cols);
  ASSERT_TRUE(flipped.ok()) << flipped.status().ToString();

  FleetHarness fleet(1);
  fleet.Start();
  ASSERT_TRUE(fleet.router->Push("m", SerializeForest(forest)).ok());
  for (const DataTable* bad : {&*narrow, &*flipped}) {
    Result<FleetBatchResult> r =
        fleet.router->PredictRows("m", *bad, rows.data(), rows.size()).get();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status().ToString();
  }

  // The same replica still answers a valid batch, byte-identical to
  // row-at-a-time ForestModel.
  Result<FleetBatchResult> good =
      fleet.router->PredictRows("m", table, rows.data(), rows.size()).get();
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  ASSERT_EQ(good->labels.size(), rows.size());
  for (uint32_t row : rows) {
    EXPECT_EQ(good->labels[row], forest.PredictLabel(table, row))
        << "row " << row;
  }
}

// ---------------------------------------------------------------------
// Chaos: the fleet under the PR 7 fault injector.
// ---------------------------------------------------------------------

TEST(FleetChaosTest, MixedProfilePreservesParity) {
  DataTable table = FleetData(128, 53);
  ForestModel forest = TrainFleetForest(table);
  const std::vector<int32_t> reference = ReferenceLabels(forest, table);

  InProcessTransport inner(3, 0.0);
  FaultSchedule schedule;
  ASSERT_TRUE(FaultSchedule::Profile("mixed", 20260808, &schedule));
  schedule.crashes.clear();  // replica death is FailoverReroutes' job
  FaultInjectingTransport chaos(&inner, schedule);

  {
    FleetRouterConfig config;
    config.default_deadline_ms = 20000;
    config.retry_period_ms = 80;
    FleetHarness fleet(3, config, &chaos);
    fleet.Start();
    ASSERT_TRUE(fleet.router->Push("m", SerializeForest(forest)).ok());

    std::vector<std::future<Result<FleetBatchResult>>> futures;
    for (uint32_t row = 0; row < table.num_rows(); ++row) {
      futures.push_back(fleet.router->Predict("m", table, row));
    }
    size_t served = 0;
    for (uint32_t row = 0; row < table.num_rows(); ++row) {
      Result<FleetBatchResult> result = futures[row].get();
      // Every accepted request either returns the byte-identical
      // prediction or is counted as shed — never a wrong answer.
      if (result.ok()) {
        EXPECT_EQ(result->labels[0], reference[row]) << "row " << row;
        ++served;
      } else {
        EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
      }
    }
    const FleetStatus status = fleet.router->GetStatus();
    EXPECT_EQ(served + status.shed, table.num_rows());
    EXPECT_GT(served, table.num_rows() / 2);  // chaos, not an outage
  }
  chaos.Stop();
}

}  // namespace
}  // namespace treeserver
