#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "common/serial.h"
#include "forest/forest.h"
#include "rpc/crc32c.h"
#include "table/datasets.h"

namespace treeserver {
namespace {

DataTable MakeData(int classes, size_t rows = 2000, uint64_t seed = 5) {
  DatasetProfile p;
  p.rows = rows;
  p.num_numeric = 6;
  p.num_categorical = 2;
  p.num_classes = classes;
  p.noise = 0.05;
  p.concept_depth = 6;
  return GenerateTable(p, seed);
}

// -------------------------------------------------------------------
// Serial forests on the benchmark tables, pinned to recorded bytes.
// -------------------------------------------------------------------

// The training table of one perfbench workload (perfbench/src/
// workloads.cc, MakeTable): half of a fixed 2x population, drawn by
// `seed`, with the regression target optionally rounded to integers.
DataTable BenchTable(DatasetProfile profile, bool round_target,
                     uint64_t seed) {
  DatasetProfile population = profile;
  population.rows *= 2;
  std::vector<uint32_t> rows(population.rows);
  std::iota(rows.begin(), rows.end(), 0u);
  Rng rng(seed);
  rng.Shuffle(&rows);
  rows.resize(profile.rows);
  std::sort(rows.begin(), rows.end());
  DataTable table = GenerateTable(population, 20220516).GatherRows(rows);
  if (!round_target) return table;
  std::vector<double> y = table.target()->numeric_values();
  for (double& v : y) v = std::round(v);
  std::vector<ColumnPtr> columns;
  for (int c = 0; c < table.num_columns(); ++c) {
    columns.push_back(c == table.schema().target_index()
                          ? Column::Numeric(table.column(c)->name(), y)
                          : table.column(c));
  }
  return DataTable(table.schema(), std::move(columns));
}

std::pair<size_t, uint32_t> SerialForestDigest(const DataTable& table,
                                               const ForestJobSpec& spec) {
  BinaryWriter w;
  TrainForestSerial(table, spec, 1).Serialize(&w);
  return {w.size(), Crc32c(w.buffer().data(), w.size())};
}

// Size and CRC-32C of the serial forests of both benchmark workloads at
// seed 7, recorded before the bin index moved to a radix-sort build and
// histogram-mode rows began to partition by bin code. Both changes
// must leave every forest byte as it was.
TEST(SerialForestGoldenTest, BenchmarkTablesKeepTheirForestBytes) {
  DatasetProfile cls;
  cls.name = "covtype_like";
  cls.rows = 100000;
  cls.num_numeric = 54;
  cls.num_categorical = 0;
  cls.num_classes = 7;
  cls.concept_depth = 8;
  ForestJobSpec cls_spec;
  cls_spec.num_trees = 4;
  cls_spec.tree.max_depth = 10;
  cls_spec.tree.min_leaf = 2;
  cls_spec.tree.impurity = Impurity::kGini;
  cls_spec.sqrt_columns = true;
  cls_spec.seed = 7;
  EXPECT_EQ(SerialForestDigest(BenchTable(cls, false, 7), cls_spec),
            std::make_pair(size_t{726065}, uint32_t{0x7bcc6814}));

  DatasetProfile reg;
  reg.name = "allstate_like";
  reg.rows = 150000;
  reg.num_numeric = 13;
  reg.num_categorical = 14;
  reg.num_classes = 0;
  reg.missing_fraction = 0.05;
  reg.concept_depth = 8;
  ForestJobSpec reg_spec;
  reg_spec.num_trees = 12;
  reg_spec.tree.max_depth = 10;
  reg_spec.tree.min_leaf = 2;
  reg_spec.tree.impurity = Impurity::kVariance;
  reg_spec.tree.split_method = SplitMethod::kHistogram;
  reg_spec.column_ratio = 0.5;
  reg_spec.seed = 7;
  EXPECT_EQ(SerialForestDigest(BenchTable(reg, true, 7), reg_spec),
            std::make_pair(size_t{1905701}, uint32_t{0x86920a6e}));
}

// Size and CRC-32C of an exact-mode regression forest on the allstate-
// like table at seed 7 (integer targets, 5% missing cells), recorded
// while numeric splits still sorted (value, y) pairs per node. The rank
// kernel must keep every byte: with integer targets each regression sum
// is exact whatever order tied values are added in.
TEST(SerialForestGoldenTest, ExactRegressionKeepsItsForestBytes) {
  DatasetProfile reg;
  reg.name = "allstate_like";
  reg.rows = 150000;
  reg.num_numeric = 13;
  reg.num_categorical = 14;
  reg.num_classes = 0;
  reg.missing_fraction = 0.05;
  reg.concept_depth = 8;
  ForestJobSpec spec;
  spec.num_trees = 2;
  spec.tree.max_depth = 10;
  spec.tree.min_leaf = 2;
  spec.tree.impurity = Impurity::kVariance;
  spec.column_ratio = 0.5;
  spec.seed = 7;
  EXPECT_EQ(SerialForestDigest(BenchTable(reg, true, 7), spec),
            std::make_pair(size_t{320367}, uint32_t{0x076ddab8}));
}

TEST(ForestJobSpecTest, ColumnsPerTree) {
  ForestJobSpec spec;
  spec.column_ratio = 0.5;
  EXPECT_EQ(spec.ColumnsPerTree(10), 5);
  spec.column_ratio = 0.0;
  EXPECT_EQ(spec.ColumnsPerTree(10), 1);  // at least one column
  spec.sqrt_columns = true;
  EXPECT_EQ(spec.ColumnsPerTree(100), 10);
  EXPECT_EQ(spec.ColumnsPerTree(30), 5);
}

TEST(ForestJobSpecTest, SampleColumnsDeterministicAndValid) {
  DataTable t = MakeData(3);
  ForestJobSpec spec;
  spec.seed = 9;
  spec.column_ratio = 0.5;
  auto a = spec.SampleColumns(t.schema(), 2);
  auto b = spec.SampleColumns(t.schema(), 2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 4u);
  for (int col : a) {
    EXPECT_NE(col, t.schema().target_index());
    EXPECT_GE(col, 0);
    EXPECT_LT(col, t.num_columns());
  }
  // Different trees generally get different sets.
  auto c = spec.SampleColumns(t.schema(), 3);
  EXPECT_TRUE(std::is_sorted(c.begin(), c.end()));
}

TEST(ForestJobSpecTest, FullRatioUsesAllFeatures) {
  DataTable t = MakeData(2, 500);
  ForestJobSpec spec;
  spec.column_ratio = 1.0;
  EXPECT_EQ(spec.SampleColumns(t.schema(), 0), t.schema().FeatureIndices());
}

TEST(ForestModelTest, SerialForestBeatsSingleTreeOnNoisyData) {
  DataTable all = MakeData(4, 4000, 21);
  Rng rng(3);
  auto [train, test] = all.TrainTestSplit(0.3, &rng);

  ForestJobSpec one;
  one.num_trees = 1;
  one.tree.max_depth = 8;
  ForestModel single = TrainForestSerial(train, one);

  ForestJobSpec many = one;
  many.num_trees = 15;
  many.column_ratio = 0.6;
  many.seed = 5;
  ForestModel forest = TrainForestSerial(train, many, /*num_threads=*/4);

  double acc1 = EvaluateAccuracy(single, test);
  double accN = EvaluateAccuracy(forest, test);
  EXPECT_GT(accN, 0.5);
  EXPECT_GE(accN, acc1 - 0.05);  // bagging should not be much worse
}

TEST(ForestModelTest, PredictPmfAveragesTrees) {
  DataTable t = MakeData(2, 600);
  ForestJobSpec spec;
  spec.num_trees = 5;
  spec.tree.max_depth = 4;
  spec.column_ratio = 0.7;
  ForestModel forest = TrainForestSerial(t, spec);
  auto pmf = forest.PredictPmf(t, 0);
  ASSERT_EQ(pmf.size(), 2u);
  EXPECT_NEAR(pmf[0] + pmf[1], 1.0f, 1e-5f);
}

TEST(ForestModelTest, RegressionForest) {
  DatasetProfile p;
  p.rows = 4000;
  p.num_numeric = 5;
  p.num_categorical = 2;
  p.num_classes = 0;  // regression
  p.noise = 0.02;
  p.concept_depth = 4;  // learnable with this many rows
  DataTable all = GenerateTable(p, 77);
  Rng rng(4);
  auto [train, test] = all.TrainTestSplit(0.25, &rng);

  ForestJobSpec spec;
  spec.num_trees = 10;
  spec.tree.max_depth = 10;
  spec.tree.impurity = Impurity::kVariance;
  spec.column_ratio = 0.8;
  ForestModel forest = TrainForestSerial(train, spec, 4);
  double rmse = EvaluateRmse(forest, test);

  // Baseline: predicting the global mean.
  RegStats stats;
  for (size_t i = 0; i < train.num_rows(); ++i) {
    stats.Add(train.target_value_at(i));
  }
  double baseline = 0.0;
  for (size_t i = 0; i < test.num_rows(); ++i) {
    double d = stats.Mean() - test.target_value_at(i);
    baseline += d * d;
  }
  baseline = std::sqrt(baseline / test.num_rows());
  EXPECT_LT(rmse, baseline * 0.8);
  EXPECT_EQ(EvaluateMetric(forest, test), rmse);
}

TEST(ForestModelTest, SerializationRoundTrip) {
  DataTable t = MakeData(3, 800);
  ForestJobSpec spec;
  spec.num_trees = 4;
  spec.tree.max_depth = 5;
  ForestModel forest = TrainForestSerial(t, spec);

  BinaryWriter w;
  forest.Serialize(&w);
  BinaryReader r(w.buffer());
  ForestModel back;
  ASSERT_TRUE(ForestModel::Deserialize(&r, &back).ok());
  EXPECT_EQ(back.num_trees(), 4u);
  EXPECT_EQ(back.kind(), TaskKind::kClassification);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(forest.PredictLabel(t, i), back.PredictLabel(t, i));
  }
}

TEST(ForestModelTest, ExtraTreesForestTrains) {
  DataTable t = MakeData(3, 1500);
  ForestJobSpec spec;
  spec.num_trees = 10;
  spec.tree.max_depth = 10;
  spec.tree.extra_trees = true;
  ForestModel forest = TrainForestSerial(t, spec, 2);
  double acc = EvaluateAccuracy(forest, t);
  EXPECT_GT(acc, 0.4);  // completely-random trees still learn something
}

TEST(ForestModelTest, MultithreadedMatchesSingleThreaded) {
  DataTable t = MakeData(2, 1000);
  ForestJobSpec spec;
  spec.num_trees = 6;
  spec.tree.max_depth = 6;
  spec.column_ratio = 0.5;
  spec.seed = 13;
  ForestModel a = TrainForestSerial(t, spec, 1);
  ForestModel b = TrainForestSerial(t, spec, 4);
  ASSERT_EQ(a.num_trees(), b.num_trees());
  for (size_t i = 0; i < a.num_trees(); ++i) {
    EXPECT_TRUE(a.tree(i).StructurallyEqual(b.tree(i)));
  }
}

}  // namespace
}  // namespace treeserver
