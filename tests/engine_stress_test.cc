#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>

#include "common/serial.h"
#include "engine/cluster.h"
#include "engine/master.h"
#include "forest/forest.h"
#include "table/datasets.h"

namespace treeserver {
namespace {

DataTable MakeData(int classes, size_t rows, uint64_t seed) {
  DatasetProfile p;
  p.rows = rows;
  p.num_numeric = 6;
  p.num_categorical = 2;
  p.num_classes = classes;
  p.noise = 0.08;
  return GenerateTable(p, seed);
}

TEST(EngineStressTest, ManySmallJobsInterleaved) {
  DataTable t = MakeData(3, 1200, 201);
  EngineConfig cfg;
  cfg.num_workers = 3;
  cfg.compers_per_worker = 2;
  cfg.tau_d = 300;
  cfg.tau_dfs = 900;
  TreeServerCluster cluster(t, cfg);

  std::vector<uint32_t> jobs;
  std::vector<ForestJobSpec> specs;
  for (int j = 0; j < 12; ++j) {
    ForestJobSpec spec;
    spec.num_trees = 1 + j % 3;
    spec.tree.max_depth = 4 + j % 5;
    spec.tree.impurity = j % 2 == 0 ? Impurity::kGini : Impurity::kEntropy;
    spec.column_ratio = 0.5 + 0.05 * (j % 5);
    spec.seed = 100 + j;
    specs.push_back(spec);
    jobs.push_back(cluster.Submit(spec));
  }
  // Wait in reverse submission order to stress the pool.
  for (int j = 11; j >= 0; --j) {
    ForestModel m = cluster.Wait(jobs[j]);
    ASSERT_EQ(m.num_trees(), static_cast<size_t>(specs[j].num_trees));
    ForestModel ref = TrainForestSerial(t, specs[j]);
    for (size_t i = 0; i < m.num_trees(); ++i) {
      EXPECT_TRUE(m.tree(i).StructurallyEqual(ref.tree(i)))
          << "job " << j << " tree " << i;
    }
  }
}

TEST(EngineStressTest, ConcurrentSubmittersFromManyThreads) {
  DataTable t = MakeData(2, 1000, 203);
  EngineConfig cfg;
  cfg.num_workers = 2;
  cfg.compers_per_worker = 2;
  cfg.tau_d = 400;
  cfg.tau_dfs = 1200;
  TreeServerCluster cluster(t, cfg);

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < 3; ++round) {
        ForestJobSpec spec;
        spec.num_trees = 2;
        spec.tree.max_depth = 5;
        spec.seed = c * 31 + round;
        ForestModel m = cluster.TrainForest(spec);
        if (m.num_trees() != 2) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(EngineStressTest, TwoCrashesWithTripleReplication) {
  DataTable t = MakeData(2, 3000, 207);
  EngineConfig cfg;
  cfg.num_workers = 5;
  cfg.compers_per_worker = 2;
  cfg.replication = 3;  // survives two failures
  cfg.tau_d = 400;
  cfg.tau_dfs = 1200;
  ForestJobSpec spec;
  spec.num_trees = 8;
  spec.tree.max_depth = 8;
  spec.seed = 5;

  TreeServerCluster cluster(t, cfg);
  uint32_t job = cluster.Submit(spec);
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  cluster.CrashWorker(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  cluster.CrashWorker(4);
  ForestModel forest = cluster.Wait(job);
  ASSERT_EQ(forest.num_trees(), 8u);

  ForestModel reference = TrainForestSerial(t, spec, 2);
  for (size_t i = 0; i < forest.num_trees(); ++i) {
    EXPECT_TRUE(forest.tree(i).StructurallyEqual(reference.tree(i)));
  }
}

TEST(EngineStressTest, CrashAfterJobCompletesIsHarmless) {
  DataTable t = MakeData(2, 1000, 211);
  EngineConfig cfg;
  cfg.num_workers = 3;
  cfg.compers_per_worker = 1;
  TreeServerCluster cluster(t, cfg);
  ForestJobSpec spec;
  spec.num_trees = 2;
  cluster.TrainForest(spec);
  cluster.CrashWorker(0);
  // New work still completes on the survivors.
  ForestJobSpec again;
  again.num_trees = 2;
  again.seed = 7;
  ForestModel m = cluster.TrainForest(again);
  EXPECT_EQ(m.num_trees(), 2u);
}

TEST(EngineStressTest, SingleWorkerClusterHandlesEverything) {
  DataTable t = MakeData(4, 2000, 213);
  EngineConfig cfg;
  cfg.num_workers = 1;
  cfg.compers_per_worker = 3;
  cfg.replication = 1;
  cfg.tau_d = 300;
  cfg.tau_dfs = 900;
  TreeServerCluster cluster(t, cfg);
  ForestJobSpec spec;
  spec.num_trees = 4;
  spec.tree.max_depth = 8;
  spec.column_ratio = 0.7;
  ForestModel forest = cluster.TrainForest(spec);
  ForestModel reference = TrainForestSerial(t, spec);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(forest.tree(i).StructurallyEqual(reference.tree(i)));
  }
}

TEST(EngineStressTest, TinyTableEdgeCases) {
  // 3 rows: the root is immediately a subtree-task and mostly a leaf.
  std::vector<ColumnMeta> metas = {{"a", DataType::kNumeric, 0},
                                   {"y", DataType::kCategorical, 2}};
  auto t = DataTable::Make(
      Schema(metas, 1, TaskKind::kClassification),
      {Column::Numeric("a", {1, 2, 3}), Column::Categorical("y", {0, 1, 0}, 2)});
  ASSERT_TRUE(t.ok());
  EngineConfig cfg;
  cfg.num_workers = 2;
  cfg.compers_per_worker = 1;
  TreeServerCluster cluster(*t, cfg);
  ForestJobSpec spec;
  spec.num_trees = 1;
  ForestModel m = cluster.TrainForest(spec);
  TreeModel ref = TrainTreeOnTable(*t, {0}, spec.tree);
  EXPECT_TRUE(m.tree(0).StructurallyEqual(ref));
}

TEST(EngineStressTest, PureTargetMakesSingleLeaf) {
  std::vector<ColumnMeta> metas = {{"a", DataType::kNumeric, 0},
                                   {"y", DataType::kCategorical, 2}};
  auto t = DataTable::Make(
      Schema(metas, 1, TaskKind::kClassification),
      {Column::Numeric("a", {1, 2, 3, 4}),
       Column::Categorical("y", {1, 1, 1, 1}, 2)});
  ASSERT_TRUE(t.ok());
  EngineConfig cfg;
  cfg.num_workers = 2;
  cfg.compers_per_worker = 1;
  cfg.tau_d = 0;  // force the column-task path even for the root
  cfg.tau_dfs = 0;
  TreeServerCluster cluster(*t, cfg);
  ForestJobSpec spec;
  spec.num_trees = 1;
  ForestModel m = cluster.TrainForest(spec);
  EXPECT_EQ(m.tree(0).num_nodes(), 1u);
  EXPECT_TRUE(m.tree(0).node(0).is_leaf());
  EXPECT_EQ(m.tree(0).node(0).label, 1);
}

TEST(EngineStressTest, WideTableManyColumns) {
  DatasetProfile p;
  p.rows = 800;
  p.num_numeric = 120;
  p.num_categorical = 0;
  p.num_classes = 3;
  DataTable t = GenerateTable(p, 217);
  EngineConfig cfg;
  cfg.num_workers = 4;
  cfg.compers_per_worker = 2;
  cfg.tau_d = 200;
  cfg.tau_dfs = 600;
  TreeServerCluster cluster(t, cfg);
  ForestJobSpec spec;
  spec.num_trees = 2;
  spec.tree.max_depth = 6;
  spec.sqrt_columns = true;
  ForestModel forest = cluster.TrainForest(spec);
  ForestModel reference = TrainForestSerial(t, spec);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(forest.tree(i).StructurallyEqual(reference.tree(i)));
  }
}

// Exact regression with non-integer targets on three compers per
// worker. Every worker ranks a held column in the first column task
// that needs it, so compers race on the same column's first use (the
// rank cache's once_flag), and each subtree task ranks its gathered
// columns. The forest must still match the serial trainer byte for
// byte, and only a column's holders may rank it.
TEST(EngineStressTest, ExactRegressionRacesRankBuildsAndMatchesSerialBytes) {
  DatasetProfile p;
  p.rows = 3000;
  p.num_numeric = 6;
  p.num_categorical = 2;
  p.num_classes = 0;
  p.noise = 0.08;
  p.missing_fraction = 0.05;
  DataTable t = GenerateTable(p, 223);
  const std::vector<double>& y = t.target()->numeric_values();
  ASSERT_TRUE(std::any_of(y.begin(), y.end(),
                          [](double v) { return v != std::round(v); }))
      << "targets must be non-integer";

  EngineConfig cfg;
  cfg.num_workers = 3;
  cfg.compers_per_worker = 3;
  cfg.tau_d = 400;
  cfg.tau_dfs = 1200;
  ForestJobSpec spec;
  spec.num_trees = 4;
  spec.tree.max_depth = 8;
  spec.tree.impurity = Impurity::kVariance;
  spec.column_ratio = 0.8;
  auto bytes = [](const ForestModel& m) {
    BinaryWriter w;
    m.Serialize(&w);
    return w.Release();
  };
  const std::string reference = bytes(TrainForestSerial(t, spec, 2));

  TreeServerCluster cluster(t, cfg);
  EXPECT_EQ(bytes(cluster.TrainForest(spec)), reference);
  size_t ranked = 0;
  for (const WorkerStats& w : cluster.GetEngineStats().workers) {
    ranked += w.ranked_columns.size();
    for (int32_t col : w.ranked_columns) {
      const std::vector<int> holders =
          cluster.master().placement().holders(col);
      EXPECT_NE(std::find(holders.begin(), holders.end(), w.worker),
                holders.end())
          << "w" << w.worker << " ranked column " << col
          << " without holding it";
    }
  }
  EXPECT_GT(ranked, 0u) << "no column task ranked a column";
}

}  // namespace
}  // namespace treeserver
