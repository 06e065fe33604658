// Differential tests of the exact numeric kernel over rank codes
// (FindBestNumericSplit) against a copy of the kernel it replaced,
// which gathered (value, y) pairs per node and comparison-sorted them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "common/serial.h"
#include "table/binned.h"
#include "tree/split.h"

namespace treeserver {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ------------------------------------------------------------------
// Reference: the comparison-sort kernels, as they were.
// ------------------------------------------------------------------

TargetStats MakeStats(const SplitContext& ctx) {
  return ctx.kind == TaskKind::kClassification
             ? TargetStats::Classification(ctx.num_classes)
             : TargetStats::Regression();
}

void AddRow(TargetStats* stats, const Column& target, uint32_t row) {
  if (stats->kind == TaskKind::kClassification) {
    stats->cls.Add(target.category_at(row));
  } else {
    stats->reg.Add(target.numeric_at(row));
  }
}

SplitOutcome SortedClassification(const Column& feature, int column_index,
                                  const Column& target,
                                  const SplitContext& ctx,
                                  const uint32_t* rows, size_t n) {
  struct Pair {
    double v;
    int32_t y;
  };
  SplitOutcome out;
  std::vector<Pair> pairs;
  TargetStats missing = MakeStats(ctx);
  for (size_t i = 0; i < n; ++i) {
    uint32_t row = rows ? rows[i] : static_cast<uint32_t>(i);
    double v = feature.numeric_at(row);
    if (IsMissingNumeric(v)) {
      AddRow(&missing, target, row);
    } else {
      pairs.push_back({v, target.category_at(row)});
    }
  }
  const size_t k = pairs.size();
  if (k < 2) return out;
  std::sort(pairs.begin(), pairs.end(),
            [](const Pair& a, const Pair& b) { return a.v < b.v; });
  ClassStats left(ctx.num_classes);
  ClassStats total(ctx.num_classes);
  for (const Pair& p : pairs) total.Add(p.y);
  ClassStats right = total;
  ClassStats best_left(ctx.num_classes);
  double best_score = kInf;
  size_t best_idx = k;
  const double kd = static_cast<double>(k);
  for (size_t i = 0; i + 1 < k; ++i) {
    left.Add(pairs[i].y);
    right.Remove(pairs[i].y);
    if (pairs[i].v == pairs[i + 1].v) continue;
    double score =
        (static_cast<double>(left.n) * left.ImpurityValue(ctx.impurity) +
         static_cast<double>(right.n) * right.ImpurityValue(ctx.impurity)) /
        kd;
    if (score < best_score) {
      best_score = score;
      best_idx = i;
      best_left = left;
    }
  }
  if (best_idx == k) return out;
  out.left_stats = MakeStats(ctx);
  out.left_stats.cls = best_left;
  out.right_stats = MakeStats(ctx);
  out.right_stats.cls = total;
  for (size_t j = 0; j < best_left.counts.size(); ++j) {
    out.right_stats.cls.counts[j] -= best_left.counts[j];
  }
  out.right_stats.cls.n -= best_left.n;
  out.condition.column = column_index;
  out.condition.type = DataType::kNumeric;
  out.condition.threshold = pairs[best_idx].v;
  FinishSplitOutcome(ctx, missing, &out);
  return out;
}

SplitOutcome SortedRegression(const Column& feature, int column_index,
                              const Column& target, const SplitContext& ctx,
                              const uint32_t* rows, size_t n) {
  struct Pair {
    double v;
    double y;
  };
  SplitOutcome out;
  std::vector<Pair> pairs;
  TargetStats missing = MakeStats(ctx);
  for (size_t i = 0; i < n; ++i) {
    uint32_t row = rows ? rows[i] : static_cast<uint32_t>(i);
    double v = feature.numeric_at(row);
    if (IsMissingNumeric(v)) {
      AddRow(&missing, target, row);
    } else {
      pairs.push_back({v, target.numeric_at(row)});
    }
  }
  const size_t k = pairs.size();
  if (k < 2) return out;
  std::sort(pairs.begin(), pairs.end(),
            [](const Pair& a, const Pair& b) { return a.v < b.v; });
  RegStats total;
  for (const Pair& p : pairs) total.Add(p.y);
  RegStats left;
  RegStats right = total;
  RegStats best_left;
  double best_score = kInf;
  size_t best_idx = k;
  const double kd = static_cast<double>(k);
  for (size_t i = 0; i + 1 < k; ++i) {
    left.Add(pairs[i].y);
    right.Remove(pairs[i].y);
    if (pairs[i].v == pairs[i + 1].v) continue;
    double score = (static_cast<double>(left.n) * left.Variance() +
                    static_cast<double>(right.n) * right.Variance()) /
                   kd;
    if (score < best_score) {
      best_score = score;
      best_idx = i;
      best_left = left;
    }
  }
  if (best_idx == k) return out;
  out.left_stats = MakeStats(ctx);
  out.left_stats.reg = best_left;
  out.right_stats = MakeStats(ctx);
  out.right_stats.reg.n = total.n - best_left.n;
  out.right_stats.reg.sum = total.sum - best_left.sum;
  out.right_stats.reg.sum_sq = total.sum_sq - best_left.sum_sq;
  out.condition.column = column_index;
  out.condition.type = DataType::kNumeric;
  out.condition.threshold = pairs[best_idx].v;
  FinishSplitOutcome(ctx, missing, &out);
  return out;
}

SplitOutcome SortedSplit(const Column& feature, const Column& target,
                         const SplitContext& ctx, const uint32_t* rows,
                         size_t n) {
  return ctx.kind == TaskKind::kClassification
             ? SortedClassification(feature, 4, target, ctx, rows, n)
             : SortedRegression(feature, 4, target, ctx, rows, n);
}

std::string Bytes(const SplitOutcome& o) {
  BinaryWriter w;
  o.Serialize(&w);
  return w.Release();
}

// The rank kernel's outcome must serialize to the reference's bytes,
// except for the sign of a zero threshold: the reference kept whichever
// zero the comparison sort left last, the rank kernel always gives
// +0.0. Checks the full column and a row subset, with the column ranked
// whole (as on a holder) and as a gathered subset (as in a subtree
// task).
void ExpectMatchesReference(const std::vector<double>& x,
                            const ColumnPtr& target, const SplitContext& ctx,
                            const std::vector<uint32_t>& subset) {
  const ColumnPtr feature = Column::Numeric("x", x);
  const std::unique_ptr<RankedColumn> ranks = RankedColumn::Build(*feature);
  auto check = [&](const SplitOutcome& ref, SplitOutcome got) {
    ASSERT_EQ(got.valid, ref.valid);
    if (!ref.valid) return;
    EXPECT_EQ(got.condition.threshold, ref.condition.threshold);
    EXPECT_FALSE(got.condition.threshold == 0.0 &&
                 std::signbit(got.condition.threshold))
        << "a zero threshold must be +0.0";
    got.condition.threshold = ref.condition.threshold;
    EXPECT_EQ(Bytes(got), Bytes(ref));
  };

  const size_t n = x.size();
  const SplitOutcome whole = SortedSplit(*feature, *target, ctx, nullptr, n);
  check(whole,
        FindBestNumericSplit(*feature, *ranks, 4, *target, ctx, nullptr, n));
  check(whole, FindBestSplit(*feature, 4, *target, ctx, nullptr, n));
  if (subset.empty()) return;
  check(SortedSplit(*feature, *target, ctx, subset.data(), subset.size()),
        FindBestNumericSplit(*feature, *ranks, 4, *target, ctx, subset.data(),
                             subset.size()));
  const ColumnPtr gathered = feature->Gather(subset);
  const ColumnPtr gathered_y = target->Gather(subset);
  check(SortedSplit(*gathered, *gathered_y, ctx, nullptr, subset.size()),
        FindBestNumericSplit(*gathered, *RankedColumn::Build(*gathered), 4,
                             *gathered_y, ctx, nullptr, subset.size()));
}

// A random third of the rows in ascending order (the order a node's
// row list keeps), and for small columns every other row as well.
std::vector<std::vector<uint32_t>> Subsets(size_t n, Rng* rng) {
  std::vector<uint32_t> even;
  std::vector<uint32_t> third;
  for (uint32_t r = 0; r < n; ++r) {
    if (r % 2 == 0) even.push_back(r);
    if (rng->Uniform(3) == 0) third.push_back(r);
  }
  if (n > 10000) return {third};
  return {even, third};
}

ColumnPtr ClassTarget(size_t n, int classes, Rng* rng) {
  std::vector<int32_t> y(n);
  for (int32_t& v : y) v = static_cast<int32_t>(rng->Uniform(classes));
  return Column::Categorical("y", y, classes);
}

// Integer targets keep every regression sum exact in any order.
ColumnPtr IntegerTarget(size_t n, Rng* rng) {
  std::vector<double> y(n);
  for (double& v : y) v = static_cast<double>(rng->Uniform(200)) - 100.0;
  return Column::Numeric("y", y);
}

// Runs the comparison for every class count and impurity, and for
// integer-target regression.
void ExpectAllTasksMatch(const std::vector<double>& x, uint64_t seed) {
  Rng rng(seed);
  for (const std::vector<uint32_t>& subset : Subsets(x.size(), &rng)) {
    for (int classes : {2, 3, 7, 20}) {
      const ColumnPtr y = ClassTarget(x.size(), classes, &rng);
      for (Impurity imp : {Impurity::kGini, Impurity::kEntropy}) {
        SCOPED_TRACE(testing::Message() << classes << " classes, impurity "
                                        << static_cast<int>(imp));
        ExpectMatchesReference(
            x, y, SplitContext{TaskKind::kClassification, imp, classes},
            subset);
      }
    }
    SCOPED_TRACE("integer regression");
    ExpectMatchesReference(
        x, IntegerTarget(x.size(), &rng),
        SplitContext{TaskKind::kRegression, Impurity::kVariance, 0}, subset);
  }
}

// A column of `distinct` distinct values (each at least once) over
// `rows` rows, in random order.
std::vector<double> DistinctColumn(size_t distinct, size_t rows, Rng* rng) {
  std::vector<double> x(rows);
  for (size_t i = 0; i < rows; ++i) {
    const size_t v = i < distinct ? i : rng->Uniform(distinct);
    x[i] = static_cast<double>(v) * 0.25 - 100.0;
  }
  rng->Shuffle(&x);
  return x;
}

TEST(SplitRankedTest, HeavyTiesMatchTheSortKernel) {
  Rng rng(1);
  for (size_t n : {40, 97, 5000}) {  // below and above the small sort
    for (size_t distinct : {2, 3, 7, 60}) {
      SCOPED_TRACE(testing::Message() << n << " rows, " << distinct
                                      << " distinct");
      ExpectAllTasksMatch(DistinctColumn(std::min(n, distinct), n, &rng),
                          n * 31 + distinct);
    }
  }
}

TEST(SplitRankedTest, AllEqualColumnAndFewRowsHaveNoSplit) {
  const ColumnPtr y = Column::Categorical("y", {0, 1, 0, 1, 1}, 2);
  const SplitContext ctx{TaskKind::kClassification, Impurity::kGini, 2};
  const ColumnPtr equal = Column::Numeric("x", {3.0, 3.0, 3.0, 3.0, 3.0});
  const auto ranks = RankedColumn::Build(*equal);
  EXPECT_EQ(ranks->num_ranks(), 1u);
  EXPECT_FALSE(
      FindBestNumericSplit(*equal, *ranks, 0, *y, ctx, nullptr, 5).valid);
  // k < 2: one row, and one non-missing row among missing ones.
  EXPECT_FALSE(
      FindBestNumericSplit(*equal, *ranks, 0, *y, ctx, nullptr, 1).valid);
  const double nan = MissingNumeric();
  const ColumnPtr sparse = Column::Numeric("x", {nan, 1.0, nan, nan, nan});
  EXPECT_FALSE(FindBestNumericSplit(*sparse, *RankedColumn::Build(*sparse), 0,
                                    *y, ctx, nullptr, 5)
                   .valid);
  const ColumnPtr empty = Column::Numeric("x", {nan, nan, nan, nan, nan});
  const auto none = RankedColumn::Build(*empty);
  EXPECT_EQ(none->num_ranks(), 0u);
  EXPECT_FALSE(
      FindBestNumericSplit(*empty, *none, 0, *y, ctx, nullptr, 5).valid);
  ExpectAllTasksMatch({3.0, 3.0, 3.0, 3.0, 3.0, 3.0}, 2);
  ExpectAllTasksMatch({1.5}, 3);
  ExpectAllTasksMatch({nan, 2.0, nan}, 4);
}

TEST(SplitRankedTest, NanInfinitiesAndSignedZerosMatchTheSortKernel) {
  const double nan = MissingNumeric();
  const std::vector<double> pool = {nan,  -kInf, -1.5, -0.0, 0.0,
                                    -0.0, 0.0,   0.5,  kInf, nan};
  Rng rng(5);
  for (size_t n : {12, 64, 3000}) {
    std::vector<double> x(n);
    for (double& v : x) {
      v = rng.Uniform(4) == 0 ? rng.UniformDouble(-2.0, 2.0)
                              : pool[rng.Uniform(pool.size())];
    }
    SCOPED_TRACE(testing::Message() << n << " rows");
    ExpectAllTasksMatch(x, n);
  }
  // Only zeros of both signs against the rest: the best cut is at zero,
  // and its threshold is +0.0 whichever zero the rows hold.
  std::vector<double> zeros = {-0.0, -0.0, 1.0, 1.0, -0.0, 0.0, 1.0};
  const ColumnPtr x = Column::Numeric("x", zeros);
  const ColumnPtr y = Column::Categorical("y", {0, 0, 1, 1, 0, 0, 1}, 2);
  const SplitContext ctx{TaskKind::kClassification, Impurity::kGini, 2};
  const auto ranks = RankedColumn::Build(*x);
  EXPECT_EQ(ranks->num_ranks(), 2u);
  EXPECT_EQ(ranks->rank_at(0), ranks->rank_at(5));
  SplitOutcome o = FindBestNumericSplit(*x, *ranks, 0, *y, ctx, nullptr, 7);
  ASSERT_TRUE(o.valid);
  EXPECT_EQ(o.condition.threshold, 0.0);
  EXPECT_FALSE(std::signbit(o.condition.threshold));
}

TEST(SplitRankedTest, EveryRankWidthMatchesTheSortKernel) {
  struct Case {
    size_t distinct;
    int width;
  };
  Rng rng(9);
  for (Case c : {Case{255, 1}, Case{256, 2}, Case{65535, 2}, Case{65536, 4},
                 Case{100000, 4}}) {
    SCOPED_TRACE(testing::Message() << c.distinct << " distinct");
    std::vector<double> x =
        DistinctColumn(c.distinct, c.distinct + 1000, &rng);
    x.push_back(MissingNumeric());
    const ColumnPtr col = Column::Numeric("x", x);
    const auto ranks = RankedColumn::Build(*col);
    EXPECT_EQ(ranks->width(), c.width);
    EXPECT_EQ(ranks->num_ranks(), c.distinct);
    EXPECT_EQ(ranks->rank_at(x.size() - 1), c.distinct);  // missing
    ExpectAllTasksMatch(x, c.distinct);
  }
}

TEST(SplitRankedTest, RanksFollowValueOrder) {
  Rng rng(13);
  std::vector<double> x(2000);
  for (double& v : x) {
    v = rng.Uniform(10) == 0 ? MissingNumeric()
                             : std::round(rng.UniformDouble(-50, 50)) / 4;
  }
  const ColumnPtr col = Column::Numeric("x", x);
  const auto ranks = RankedColumn::Build(*col);
  std::vector<double> distinct;
  for (double v : x) {
    if (!IsMissingNumeric(v)) distinct.push_back(v);
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  EXPECT_EQ(ranks->num_ranks(), distinct.size());
  for (size_t r = 0; r < x.size(); ++r) {
    if (IsMissingNumeric(x[r])) {
      EXPECT_EQ(ranks->rank_at(r), ranks->missing_rank());
    } else {
      EXPECT_EQ(ranks->rank_at(r),
                std::lower_bound(distinct.begin(), distinct.end(), x[r]) -
                    distinct.begin());
    }
  }
}

// Values one ulp apart share the high half of their sort key, so the
// rank build orders them in its second stage: runs of several lengths,
// with exact duplicates inside each.
TEST(SplitRankedTest, ValuesApartOnlyInLowKeyBitsRankInOrder) {
  Rng rng(17);
  std::vector<double> x;
  for (size_t run : {3, 50, 1500}) {
    const double base = 1.0 + static_cast<double>(run);
    for (size_t i = 0; i < run; ++i) {
      const double v = std::nextafter(base, 2.0 * base) +
                       static_cast<double>(rng.Uniform(run)) *
                           std::numeric_limits<double>::epsilon() * base;
      x.push_back(v);
      if (i % 7 == 0) x.push_back(v);
    }
  }
  x.push_back(-0.0);
  x.push_back(0.0);
  x.push_back(MissingNumeric());
  rng.Shuffle(&x);
  const ColumnPtr col = Column::Numeric("x", x);
  const auto ranks = RankedColumn::Build(*col);
  for (size_t a = 0; a < x.size(); ++a) {
    for (size_t b = 0; b < x.size(); ++b) {
      if (IsMissingNumeric(x[a]) || IsMissingNumeric(x[b])) continue;
      ASSERT_EQ(x[a] < x[b], ranks->rank_at(a) < ranks->rank_at(b))
          << x[a] << " vs " << x[b];
      ASSERT_EQ(x[a] == x[b], ranks->rank_at(a) == ranks->rank_at(b));
    }
  }
  ExpectAllTasksMatch(x, 17);
}

TEST(SplitRankedTest, TableRanksNumericFeaturesOnFirstUse) {
  const ColumnPtr x = Column::Numeric("x", {1.0, 2.0, 2.0});
  const ColumnPtr c = Column::Categorical("c", {0, 1, 0}, 2);
  const ColumnPtr y = Column::Categorical("y", {0, 1, 1}, 2);
  Schema schema({{"x", DataType::kNumeric, 0},
                 {"c", DataType::kCategorical, 2},
                 {"y", DataType::kCategorical, 2}},
                2, TaskKind::kClassification);
  DataTable table(schema, {x, c, y});
  RankedTable ranked(table);
  EXPECT_TRUE(ranked.ranked_columns().empty());
  EXPECT_EQ(ranked.column(1), nullptr);  // categorical
  EXPECT_EQ(ranked.column(2), nullptr);  // target
  EXPECT_EQ(ranked.column(7), nullptr);  // absent
  const RankedColumn* first = ranked.column(0);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->num_ranks(), 2u);
  EXPECT_EQ(ranked.column(0), first);  // built once
  EXPECT_EQ(ranked.ranked_columns(), std::vector<int32_t>{0});
}

}  // namespace
}  // namespace treeserver
