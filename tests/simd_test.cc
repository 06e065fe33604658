// Randomized parity fuzz for the histogram kernels (tree/hist_kernels.h).
// The contract under test is EXACTNESS, not closeness: every built
// histogram must be bit-identical to a plain in-test count/sum loop.
// Regression runs at scalar and at the detected vector level, where the
// fused kernel must keep the reference's per-bin add order;
// classification has one path, the scalar twin. On a scalar-only build
// (-DTS_SIMD=OFF) or CPU the level loop degenerates to scalar and the
// reference loop still carries the coverage.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "table/binned.h"
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

/// The reference every kernel must match: one plain pass per column in
/// row order through the column and target accessors.
struct RefHist {
  std::vector<int64_t> cls;
  std::vector<HistRegBin> reg;
};

RefHist ReferenceHist(const BinnedColumn& binned, const Column& target,
                      const SplitContext& ctx, const uint32_t* rows,
                      size_t n) {
  RefHist h;
  const size_t slots = static_cast<size_t>(binned.missing_code()) + 1;
  const size_t c = static_cast<size_t>(ctx.num_classes);
  if (ctx.kind == TaskKind::kClassification) {
    h.cls.assign(slots * c, 0);
  } else {
    h.reg.assign(slots, HistRegBin{});
  }
  for (size_t i = 0; i < n; ++i) {
    const uint32_t row = rows ? rows[i] : static_cast<uint32_t>(i);
    if (ctx.kind == TaskKind::kClassification) {
      h.cls[binned.code_at(row) * c + target.category_at(row)]++;
    } else {
      HistRegBin& b = h.reg[binned.code_at(row)];
      const double y = target.numeric_at(row);
      ++b.n;
      b.sum += y;
      b.sum_sq += y * y;
    }
  }
  return h;
}

void ExpectBitExact(const RefHist& want, const NodeHistogram& got,
                    const char* what) {
  ASSERT_EQ(got.cls_size(), want.cls.size()) << what;
  ASSERT_EQ(got.reg_size(), want.reg.size()) << what;
  // A histogram holds either class counts or regression bins; the
  // other pool is empty and its data() may be null, which memcmp must
  // not be handed even for a zero length.
  if (!want.cls.empty()) {
    EXPECT_EQ(std::memcmp(want.cls.data(), got.cls_data(),
                          want.cls.size() * sizeof(int64_t)),
              0)
        << what << ": class counts differ";
  }
  if (!want.reg.empty()) {
    EXPECT_EQ(std::memcmp(want.reg.data(), got.reg_data(),
                          want.reg.size() * sizeof(HistRegBin)),
              0)
        << what << ": regression bins differ";
  }
}

/// Builds every column's histogram via BuildMany at `level` (num_cols
/// spans a full fuse group plus a remainder).
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
// Histogram kernels against the reference loop, bit for bit.
// -------------------------------------------------------------------

void FuzzHistograms(TaskKind kind) {
  const size_t n = 3000;
  const int num_cols = 5;  // one full fuse-of-4 plus a remainder column
  Rng rng(kind == TaskKind::kClassification ? 101 : 202);
  const std::vector<SimdLevel> levels =
      kind == TaskKind::kRegression ? LevelsUnderTest()
                                    : std::vector<SimdLevel>{ActiveSimdLevel()};
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
        std::vector<RefHist> ref;
        for (const BinnedColumn* col : cols) {
          ref.push_back(ReferenceHist(*col, *t.target(), ctx, rows_ptr, take));
        }
        for (SimdLevel level : levels) {
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

}  // namespace
}  // namespace treeserver
