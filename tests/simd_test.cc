// Randomized scalar-vs-SIMD parity fuzz for the hot-path kernels
// (tree/hist_kernels.h) and the batched serving accumulators
// (serve/serve_kernels.h). The contract under test is EXACTNESS, not
// closeness: histograms must be bit-identical between the scalar
// reference and the active vector level, and compiled predictions must
// be byte-identical to row-at-a-time ForestModel at every SIMD level.
// On a scalar-only build (-DTS_SIMD=OFF) or CPU the level loop
// degenerates to scalar-vs-scalar and the ForestModel comparison still
// carries the coverage.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "forest/forest.h"
#include "serve/compiled_model.h"
#include "table/binned.h"
#include "table/datasets.h"
#include "tree/hist.h"
#include "tree/split.h"

namespace treeserver {
namespace {

/// Forces a SIMD level for one scope and always restores the previous
/// one, so a failing assertion cannot leak a forced level into later
/// tests.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) : prev_(ActiveSimdLevel()) {
    forced_ = SetSimdLevel(level);
    EXPECT_TRUE(forced_) << "cannot force level " << SimdLevelName(level);
  }
  ~ScopedSimdLevel() { SetSimdLevel(prev_); }

 private:
  SimdLevel prev_;
  bool forced_;
};

/// The levels worth comparing on this machine: scalar always, plus the
/// detected vector level when there is one.
std::vector<SimdLevel> LevelsUnderTest() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (DetectedSimdLevel() != SimdLevel::kScalar) {
    levels.push_back(DetectedSimdLevel());
  }
  return levels;
}

/// Batch shapes the kernels must agree on: single row, odd tails, one
/// below / one above the vector unroll, the fused-dispatch threshold
/// neighborhood, and "everything".
std::vector<size_t> RaggedSizes(size_t n) {
  std::vector<size_t> sizes = {1, 7, 127, 129, 1000};
  sizes.push_back(n);
  return sizes;
}

/// A sorted scattered row subset of size m (row ids, not positions —
/// the kernels index labels/targets by row id).
std::vector<uint32_t> RandomRows(size_t n, size_t m, Rng* rng) {
  std::vector<uint32_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = static_cast<uint32_t>(i);
  rng->Shuffle(&rows);
  rows.resize(std::min(m, n));
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Classification table whose numeric features take `distinct` values
/// (> 255 forces the uint16 bin-code kernels) with missing holes, so
/// binned columns carry a populated missing bin and, with max_bins >
/// distinct, empty bins never touched by any row.
DataTable FuzzClsTable(size_t rows, int num_cols, int distinct, int classes,
                       uint64_t seed, double missing_fraction) {
  Rng rng(seed);
  std::vector<std::vector<double>> feats(num_cols, std::vector<double>(rows));
  std::vector<int32_t> y(rows);
  for (size_t r = 0; r < rows; ++r) {
    double s = 0.0;
    for (int c = 0; c < num_cols; ++c) {
      if (rng.Bernoulli(missing_fraction)) {
        feats[c][r] = MissingNumeric();
      } else {
        feats[c][r] = static_cast<double>(rng.Uniform(distinct));
        s += feats[c][r];
      }
    }
    y[r] = static_cast<int32_t>(rng.Bernoulli(0.3)
                                    ? rng.Uniform(classes)
                                    : static_cast<uint64_t>(s) % classes);
  }
  std::vector<ColumnMeta> metas;
  std::vector<ColumnPtr> cols;
  for (int c = 0; c < num_cols; ++c) {
    std::string name = "x" + std::to_string(c);
    metas.push_back({name, DataType::kNumeric, 0});
    cols.push_back(Column::Numeric(name, std::move(feats[c])));
  }
  metas.push_back({"y", DataType::kCategorical, classes});
  cols.push_back(Column::Categorical("y", std::move(y), classes));
  auto t = DataTable::Make(Schema(metas, num_cols, TaskKind::kClassification),
                           std::move(cols));
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

/// Regression twin with CONTINUOUS targets: real-valued sums make any
/// reassociation in the vector kernels visible as a bit difference,
/// which is exactly what the per-bin accumulation-order contract
/// forbids.
DataTable FuzzRegTable(size_t rows, int num_cols, int distinct, uint64_t seed,
                       double missing_fraction) {
  Rng rng(seed);
  std::vector<std::vector<double>> feats(num_cols, std::vector<double>(rows));
  std::vector<double> y(rows);
  for (size_t r = 0; r < rows; ++r) {
    for (int c = 0; c < num_cols; ++c) {
      feats[c][r] = rng.Bernoulli(missing_fraction)
                        ? MissingNumeric()
                        : static_cast<double>(rng.Uniform(distinct));
    }
    y[r] = rng.Normal() * 3.7 + rng.UniformDouble();
  }
  std::vector<ColumnMeta> metas;
  std::vector<ColumnPtr> cols;
  for (int c = 0; c < num_cols; ++c) {
    std::string name = "x" + std::to_string(c);
    metas.push_back({name, DataType::kNumeric, 0});
    cols.push_back(Column::Numeric(name, std::move(feats[c])));
  }
  metas.push_back({"y", DataType::kNumeric, 0});
  cols.push_back(Column::Numeric("y", std::move(y)));
  auto t = DataTable::Make(Schema(metas, num_cols, TaskKind::kRegression),
                           std::move(cols));
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

void ExpectBitExact(const NodeHistogram& a, const NodeHistogram& b,
                    const char* what) {
  ASSERT_EQ(a.slots(), b.slots()) << what;
  ASSERT_EQ(a.cls_size(), b.cls_size()) << what;
  ASSERT_EQ(a.reg_size(), b.reg_size()) << what;
  // A histogram holds either class counts or regression bins; the
  // other pool is empty and its data() may be null, which memcmp must
  // not be handed even for a zero length.
  if (a.cls_size() > 0) {
    EXPECT_EQ(std::memcmp(a.cls_data(), b.cls_data(),
                          a.cls_size() * sizeof(int64_t)),
              0)
        << what << ": class counts differ";
  }
  if (a.reg_size() > 0) {
    EXPECT_EQ(std::memcmp(a.reg_data(), b.reg_data(),
                          a.reg_size() * sizeof(HistRegBin)),
              0)
        << what << ": regression bins differ";
  }
}

/// Builds every column's histogram via the fused BuildMany path at
/// `level` (num_cols spans a full fuse group plus a remainder).
std::vector<NodeHistogram> BuildAt(SimdLevel level, const DataTable& t,
                                   const std::vector<const BinnedColumn*>& cols,
                                   const SplitContext& ctx,
                                   const uint32_t* rows, size_t n) {
  ScopedSimdLevel forced(level);
  std::vector<NodeHistogram> out(cols.size());
  NodeHistogram::BuildMany(cols.data(), cols.size(), *t.target(), ctx,
                           rows, n, out.data());
  return out;
}

// -------------------------------------------------------------------
// Histogram kernels: scalar vs vector, bit for bit.
// -------------------------------------------------------------------

void FuzzHistograms(TaskKind kind) {
  const size_t n = 3000;
  const int num_cols = 5;  // one full fuse-of-4 plus a remainder column
  Rng rng(kind == TaskKind::kClassification ? 101 : 202);
  // distinct = 9 exercises the uint8 code kernels, 700 the uint16
  // fallback; max_bins = 900 > distinct leaves empty bins in between.
  for (int distinct : {9, 700}) {
    DataTable t = kind == TaskKind::kClassification
                      ? FuzzClsTable(n, num_cols, distinct, 4, 11 + distinct,
                                     /*missing_fraction=*/0.15)
                      : FuzzRegTable(n, num_cols, distinct, 13 + distinct,
                                     /*missing_fraction=*/0.15);
    SplitContext ctx =
        kind == TaskKind::kClassification
            ? SplitContext{TaskKind::kClassification, Impurity::kGini, 4}
            : SplitContext{TaskKind::kRegression, Impurity::kVariance, 0};
    std::vector<std::shared_ptr<const BinnedColumn>> owned;
    std::vector<const BinnedColumn*> cols;
    for (int c = 0; c < num_cols; ++c) {
      owned.push_back(BinnedColumn::Build(*t.column(c), 900));
      cols.push_back(owned.back().get());
    }
    ASSERT_EQ(cols[0]->wide(), distinct > 255);
    for (size_t m : RaggedSizes(n)) {
      // Identity mapping (rows == nullptr) and a scattered subset.
      for (bool scattered : {false, true}) {
        std::vector<uint32_t> rows;
        const uint32_t* rows_ptr = nullptr;
        if (scattered) {
          rows = RandomRows(n, m, &rng);
          rows_ptr = rows.data();
        }
        const size_t take = scattered ? rows.size() : std::min(m, n);
        std::vector<NodeHistogram> ref =
            BuildAt(SimdLevel::kScalar, t, cols, ctx, rows_ptr, take);
        for (SimdLevel level : LevelsUnderTest()) {
          std::vector<NodeHistogram> got =
              BuildAt(level, t, cols, ctx, rows_ptr, take);
          for (int c = 0; c < num_cols; ++c) {
            const std::string what =
                std::string(SimdLevelName(level)) + " distinct=" +
                std::to_string(distinct) + " n=" + std::to_string(take) +
                (scattered ? " scattered" : " identity") + " col=" +
                std::to_string(c);
            ExpectBitExact(ref[c], got[c], what.c_str());
          }
        }
      }
    }
  }
}

TEST(SimdParityTest, ClassificationHistogramsBitExact) {
  FuzzHistograms(TaskKind::kClassification);
}

TEST(SimdParityTest, RegressionHistogramsBitExact) {
  FuzzHistograms(TaskKind::kRegression);
}

// -------------------------------------------------------------------
// Serving: byte-identical predictions at every SIMD level and against
// row-at-a-time ForestModel, over ragged scattered batches and depth
// cutoffs.
// -------------------------------------------------------------------

ForestModel TrainFuzzForest(const DataTable& table, int trees,
                            bool sqrt_columns) {
  ForestJobSpec spec;
  spec.num_trees = trees;
  spec.tree.max_depth = 9;
  spec.sqrt_columns = sqrt_columns;
  return TrainForestSerial(table, spec, 2);
}

void CheckServingParity(const DataTable& table, const ForestModel& forest) {
  const CompiledForest compiled = CompiledForest::Compile(forest);
  const size_t n = table.num_rows();
  Rng rng(31);
  const bool classification = compiled.is_classification();
  const size_t k = static_cast<size_t>(compiled.num_classes());
  for (int max_depth : {-1, 0, 3}) {
    for (size_t m : {size_t{1}, size_t{7}, size_t{127}, size_t{129}, n}) {
      const std::vector<uint32_t> rows = RandomRows(n, m, &rng);
      // Reference: row-at-a-time ForestModel.
      std::vector<int32_t> ref_labels(rows.size());
      std::vector<double> ref_values(rows.size());
      std::vector<float> ref_pmf;
      for (size_t i = 0; i < rows.size(); ++i) {
        if (classification) {
          ref_labels[i] = forest.PredictLabel(table, rows[i], max_depth);
          const std::vector<float> p =
              forest.PredictPmf(table, rows[i], max_depth);
          ASSERT_EQ(p.size(), k);
          ref_pmf.insert(ref_pmf.end(), p.begin(), p.end());
        } else {
          ref_values[i] = forest.PredictValue(table, rows[i], max_depth);
        }
      }
      for (SimdLevel level : LevelsUnderTest()) {
        ScopedSimdLevel forced(level);
        const std::string what = std::string(SimdLevelName(level)) +
                                 " depth=" + std::to_string(max_depth) +
                                 " m=" + std::to_string(rows.size());
        if (classification) {
          std::vector<int32_t> labels(rows.size());
          compiled.PredictLabel(table, rows.data(), rows.size(), max_depth,
                                labels.data());
          EXPECT_EQ(labels, ref_labels) << what;
          std::vector<float> pmf(rows.size() * k);
          compiled.PredictPmf(table, rows.data(), rows.size(), max_depth,
                              pmf.data());
          EXPECT_EQ(std::memcmp(pmf.data(), ref_pmf.data(),
                                pmf.size() * sizeof(float)),
                    0)
              << what << ": PMFs not byte-identical";
        } else {
          std::vector<double> values(rows.size());
          compiled.PredictValue(table, rows.data(), rows.size(), max_depth,
                                values.data());
          EXPECT_EQ(std::memcmp(values.data(), ref_values.data(),
                                values.size() * sizeof(double)),
                    0)
              << what << ": values not byte-identical";
        }
      }
    }
  }
}

TEST(SimdParityTest, ClassificationServingByteIdentical) {
  DatasetProfile profile;
  profile.name = "simd_fuzz_cls";
  profile.rows = 2500;
  profile.num_numeric = 5;
  profile.num_categorical = 2;
  profile.num_classes = 4;
  profile.missing_fraction = 0.08;
  DataTable table = GenerateTable(profile, 17);
  CheckServingParity(table, TrainFuzzForest(table, 6, /*sqrt_columns=*/true));
}

TEST(SimdParityTest, RegressionServingByteIdentical) {
  DatasetProfile profile;
  profile.name = "simd_fuzz_reg";
  profile.rows = 2500;
  profile.num_numeric = 6;
  profile.num_categorical = 1;
  profile.num_classes = 0;  // regression
  profile.missing_fraction = 0.08;
  DataTable table = GenerateTable(profile, 19);
  CheckServingParity(table, TrainFuzzForest(table, 5, /*sqrt_columns=*/true));
}

TEST(SimdParityTest, WideCategoricalColumnsServingByteIdentical) {
  // 100 categories force multi-word categorical bitmasks, with
  // missing categories and (rare) codes the training split never saw.
  const size_t n = 2000;
  const int card = 100;
  Rng rng(59);
  std::vector<int32_t> cat(n);
  std::vector<double> num(n);
  std::vector<int32_t> y(n);
  for (size_t r = 0; r < n; ++r) {
    cat[r] = rng.Bernoulli(0.05)
                 ? kMissingCategory
                 : static_cast<int32_t>(rng.Uniform(card));
    num[r] = rng.Bernoulli(0.05) ? MissingNumeric()
                                 : static_cast<double>(rng.Uniform(37));
    const int32_t base = cat[r] < 0 ? 0 : (cat[r] / 25) % 3;
    y[r] = rng.Bernoulli(0.1) ? static_cast<int32_t>(rng.Uniform(3)) : base;
  }
  std::vector<ColumnMeta> metas = {{"c", DataType::kCategorical, card},
                                   {"x", DataType::kNumeric, 0},
                                   {"y", DataType::kCategorical, 3}};
  std::vector<ColumnPtr> cols = {Column::Categorical("c", std::move(cat), card),
                                 Column::Numeric("x", std::move(num)),
                                 Column::Categorical("y", std::move(y), 3)};
  auto made = DataTable::Make(Schema(metas, 2, TaskKind::kClassification),
                              std::move(cols));
  ASSERT_TRUE(made.ok());
  DataTable table = std::move(made).value();
  CheckServingParity(table,
                     TrainFuzzForest(table, 4, /*sqrt_columns=*/false));
}

}  // namespace
}  // namespace treeserver
