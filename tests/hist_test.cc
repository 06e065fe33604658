#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics_registry.h"
#include "common/rng.h"
#include "engine/cluster.h"
#include "engine/messages.h"
#include "forest/forest.h"
#include "table/binned.h"
#include "table/datasets.h"
#include "tcp_cluster.h"
#include "tree/hist.h"
#include "tree/split.h"
#include "tree/trainer.h"

namespace treeserver {
namespace {

SplitContext ClsCtx(int classes, Impurity imp = Impurity::kGini) {
  return SplitContext{TaskKind::kClassification, imp, classes};
}
SplitContext RegCtx() {
  return SplitContext{TaskKind::kRegression, Impurity::kVariance, 0};
}

std::string SerializeCanonical(TreeModel model) {
  model.Canonicalize();
  BinaryWriter w;
  model.Serialize(&w);
  return w.buffer();
}

std::string SerializeForestBytes(const ForestModel& forest) {
  BinaryWriter w;
  forest.Serialize(&w);
  return w.buffer();
}

/// Classification table whose numeric features take at most `grid`
/// distinct values, so histogram mode with max_bins >= grid must
/// reproduce the exact tree bit for bit.
DataTable GridClsTable(size_t rows, int num_cols, int grid, int classes,
                       uint64_t seed, double missing_fraction = 0.0) {
  Rng rng(seed);
  std::vector<std::vector<double>> feats(num_cols,
                                         std::vector<double>(rows));
  std::vector<int32_t> y(rows);
  for (size_t r = 0; r < rows; ++r) {
    double s = 0.0;
    for (int c = 0; c < num_cols; ++c) {
      if (missing_fraction > 0 && rng.Bernoulli(missing_fraction)) {
        feats[c][r] = MissingNumeric();
      } else {
        feats[c][r] = static_cast<double>(rng.Uniform(grid));
        s += (c + 1) * feats[c][r];
      }
    }
    int32_t label = static_cast<int32_t>(s / grid) % classes;
    if (rng.Bernoulli(0.05)) {
      label = static_cast<int32_t>(rng.Uniform(classes));
    }
    y[r] = label;
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

/// Regression table with grid features and integer-valued targets:
/// integer sums make the floating-point histogram arithmetic exact, so
/// parity with the exact kernel is bit-for-bit.
DataTable GridRegTable(size_t rows, int num_cols, int grid, uint64_t seed,
                       double missing_fraction = 0.0) {
  Rng rng(seed);
  std::vector<std::vector<double>> feats(num_cols,
                                         std::vector<double>(rows));
  std::vector<double> y(rows);
  for (size_t r = 0; r < rows; ++r) {
    double s = 0.0;
    for (int c = 0; c < num_cols; ++c) {
      if (missing_fraction > 0 && rng.Bernoulli(missing_fraction)) {
        feats[c][r] = MissingNumeric();
      } else {
        feats[c][r] = static_cast<double>(rng.Uniform(grid));
        s += (c + 1) * feats[c][r];
      }
    }
    y[r] = std::floor(s) + static_cast<double>(rng.Uniform(5));
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

// -------------------------------------------------------------------
// Binning.
// -------------------------------------------------------------------

TEST(BinnedColumnTest, OneBinPerDistinctValueWhenTheyFit) {
  auto col = Column::Numeric("x", {5.0, 1.0, 3.0, 1.0, 5.0, 3.0, 3.0});
  auto binned = BinnedColumn::Build(*col, 255);
  ASSERT_EQ(binned->num_bins(), 3);
  EXPECT_FALSE(binned->wide());
  EXPECT_DOUBLE_EQ(binned->upper(0), 1.0);
  EXPECT_DOUBLE_EQ(binned->upper(1), 3.0);
  EXPECT_DOUBLE_EQ(binned->upper(2), 5.0);
  // Codes follow value order.
  EXPECT_EQ(binned->code_at(0), 2);
  EXPECT_EQ(binned->code_at(1), 0);
  EXPECT_EQ(binned->code_at(2), 1);
  EXPECT_EQ(binned->num_rows(), 7u);
}

TEST(BinnedColumnTest, MissingValuesGetTheMissingBin) {
  auto col = Column::Numeric("x", {1.0, MissingNumeric(), 2.0,
                                   MissingNumeric()});
  auto binned = BinnedColumn::Build(*col, 16);
  ASSERT_EQ(binned->num_bins(), 2);
  EXPECT_EQ(binned->missing_code(), 2);
  EXPECT_EQ(binned->code_at(1), binned->missing_code());
  EXPECT_EQ(binned->code_at(3), binned->missing_code());
  EXPECT_EQ(binned->CodeOf(MissingNumeric()), binned->missing_code());
}

TEST(BinnedColumnTest, QuantileCutsBoundTheBinCountAndCoverTheMax) {
  Rng rng(7);
  std::vector<double> values(5000);
  for (double& v : values) v = rng.UniformDouble(-10.0, 10.0);
  auto col = Column::Numeric("x", values);
  auto binned = BinnedColumn::Build(*col, 64);
  EXPECT_LE(binned->num_bins(), 64);
  EXPECT_GE(binned->num_bins(), 32);  // smooth data: cuts shouldn't collapse
  double max_v = *std::max_element(values.begin(), values.end());
  EXPECT_DOUBLE_EQ(binned->upper(binned->num_bins() - 1), max_v);
  // Every value's bin upper bound is >= the value, and the previous
  // bin's upper bound (if any) is < the value.
  for (size_t i = 0; i < values.size(); ++i) {
    int b = binned->code_at(i);
    EXPECT_GE(binned->upper(b), values[i]);
    if (b > 0) {
      EXPECT_LT(binned->upper(b - 1), values[i]);
    }
  }
}

TEST(BinnedColumnTest, WideCodesBeyond255Bins) {
  std::vector<double> values(1000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i);  // 1000 distinct values
  }
  auto col = Column::Numeric("x", values);
  auto binned = BinnedColumn::Build(*col, 1000);
  EXPECT_EQ(binned->num_bins(), 1000);
  EXPECT_TRUE(binned->wide());
  EXPECT_EQ(binned->code_at(999), 999);
}

TEST(BinnedColumnTest, GatherCopiesCodesAndSharesBoundaries) {
  // 1000 distinct values and ~10% missing: 32 bins give uint8 codes,
  // 300 bins give uint16 codes.
  Rng rng(7);
  std::vector<double> values(2000);
  for (double& v : values) {
    v = rng.Bernoulli(0.1) ? MissingNumeric()
                           : static_cast<double>(rng.Uniform(1000)) / 4;
  }
  auto col = Column::Numeric("x", values);
  // Unordered, with repeats, like a subtree's I_x after several splits.
  std::vector<uint32_t> rows(700);
  for (uint32_t& r : rows) {
    r = static_cast<uint32_t>(rng.Uniform(values.size()));
  }

  for (int max_bins : {32, 300}) {
    SCOPED_TRACE(max_bins);
    auto global = BinnedColumn::Build(*col, max_bins);
    ASSERT_EQ(global->wide(), max_bins > 255);
    auto gathered = global->Gather(rows);
    ASSERT_EQ(gathered->num_rows(), rows.size());
    EXPECT_EQ(gathered->wide(), global->wide());
    EXPECT_EQ(gathered->num_bins(), global->num_bins());
    EXPECT_EQ(&gathered->boundaries(), &global->boundaries());
    size_t missing = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      const double v = values[rows[i]];
      EXPECT_EQ(gathered->code_at(i), global->CodeOf(v)) << "row " << i;
      if (IsMissingNumeric(v)) ++missing;
    }
    EXPECT_GT(missing, 0u);
  }
}

// The comparison-sort build that BinnedColumn::Build replaced: sort
// the non-missing values, cut one bin per distinct value or at the
// max_bins quantiles, then one std::lower_bound per value.
struct ReferenceBins {
  std::vector<double> upper;
  std::vector<uint16_t> codes;
};

ReferenceBins ReferenceBuild(const std::vector<double>& values,
                             int max_bins) {
  max_bins = std::clamp(max_bins, 2, 65535);
  std::vector<double> sorted;
  for (double v : values) {
    if (!std::isnan(v)) sorted.push_back(v);
  }
  std::sort(sorted.begin(), sorted.end());
  ReferenceBins out;
  if (!sorted.empty()) {
    std::vector<double> distinct;
    for (double v : sorted) {
      if (distinct.empty() || v != distinct.back()) distinct.push_back(v);
      if (distinct.size() > static_cast<size_t>(max_bins)) break;
    }
    if (distinct.size() <= static_cast<size_t>(max_bins)) {
      out.upper = distinct;
    } else {
      const size_t k = sorted.size();
      for (int b = 0; b < max_bins; ++b) {
        size_t rank = (static_cast<size_t>(b) + 1) * k / max_bins;
        double v = sorted[rank == 0 ? 0 : rank - 1];
        if (out.upper.empty() || v != out.upper.back()) out.upper.push_back(v);
      }
      if (out.upper.back() != sorted.back()) out.upper.push_back(sorted.back());
    }
  }
  for (double v : values) {
    size_t b = out.upper.size();
    if (!std::isnan(v)) {
      b = std::lower_bound(out.upper.begin(), out.upper.end(), v) -
          out.upper.begin();
      if (b >= out.upper.size()) b = out.upper.size() - 1;
    }
    out.codes.push_back(static_cast<uint16_t>(b));
  }
  return out;
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

// Boundaries (bit for bit), width and every code match the reference.
void ExpectMatchesReference(const std::vector<double>& values, int max_bins) {
  SCOPED_TRACE("max_bins " + std::to_string(max_bins));
  const ReferenceBins ref = ReferenceBuild(values, max_bins);
  auto col = Column::Numeric("x", values);
  auto binned = BinnedColumn::Build(*col, max_bins);
  ASSERT_EQ(binned->num_bins(), static_cast<int>(ref.upper.size()));
  EXPECT_EQ(binned->wide(), ref.upper.size() + 1 > 256);
  for (size_t b = 0; b < ref.upper.size(); ++b) {
    ASSERT_EQ(Bits(binned->upper(static_cast<int>(b))), Bits(ref.upper[b]))
        << "boundary " << b;
  }
  ASSERT_EQ(binned->num_rows(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(binned->code_at(i), ref.codes[i]) << "row " << i;
  }
}

const int kBudgets[] = {2, 255, 300, 65535};

TEST(BinnedColumnTest, RadixBuildMatchesSortBuildOnHeavyTies) {
  // 40 distinct values, one holding ~70% of the rows: at most 40 bins
  // (one per value) for budgets >= 40, quantile cuts swallowed by the
  // heavy value for budget 2.
  Rng rng(3);
  std::vector<double> values(6000);
  for (double& v : values) {
    v = rng.Bernoulli(0.7) ? 12.5
                           : static_cast<double>(rng.Uniform(40)) * 0.5 - 7;
  }
  for (int max_bins : kBudgets) ExpectMatchesReference(values, max_bins);
}

TEST(BinnedColumnTest, RadixBuildMatchesSortBuildOnContinuousValues) {
  // ~20k distinct values: more than 2, 255 and 300 bins (quantile
  // cuts), fewer than 65535 (one bin per value, uint16 codes).
  Rng rng(4);
  std::vector<double> values(20000);
  for (double& v : values) v = rng.UniformDouble(-1e3, 1e6);
  for (int max_bins : kBudgets) ExpectMatchesReference(values, max_bins);
  // More distinct values than even the largest budget.
  std::vector<double> many(70000);
  for (size_t i = 0; i < many.size(); ++i) {
    many[i] = static_cast<double>((i * 7919) % many.size()) * 0.25;
  }
  ExpectMatchesReference(many, 65535);
}

TEST(BinnedColumnTest, RadixBuildMatchesSortBuildOnNanInfAndDenormals) {
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double tiny = std::numeric_limits<double>::min() / 4;  // subnormal
  const std::vector<double> specials = {
      inf, -inf, denorm, -denorm, tiny, -tiny, 1e308, -1e308, 1.0, -1.0};
  Rng rng(5);
  std::vector<double> values(3000);
  for (double& v : values) {
    const uint64_t pick = rng.Uniform(4);
    v = pick == 0   ? MissingNumeric()
        : pick == 1 ? specials[rng.Uniform(specials.size())]
                    : rng.UniformDouble(-50.0, 50.0);
  }
  for (int max_bins : kBudgets) ExpectMatchesReference(values, max_bins);
  // Only specials and NaN: few distinct values, one bin each.
  std::vector<double> few;
  for (int i = 0; i < 200; ++i) {
    few.push_back(i % 3 == 0 ? MissingNumeric()
                             : specials[static_cast<size_t>(i) % 10]);
  }
  for (int max_bins : kBudgets) ExpectMatchesReference(few, max_bins);
}

TEST(BinnedColumnTest, AllMissingColumnHasOnlyTheMissingBin) {
  const std::vector<double> values(50, MissingNumeric());
  for (int max_bins : kBudgets) ExpectMatchesReference(values, max_bins);
  auto binned = BinnedColumn::Build(*Column::Numeric("x", values), 255);
  EXPECT_EQ(binned->num_bins(), 0);
  EXPECT_EQ(binned->code_at(49), binned->missing_code());
}

TEST(BinnedColumnTest, NegativeAndPositiveZeroShareAPositiveBoundary) {
  // A comparison sort leaves -0.0 and +0.0 in unspecified order, so the
  // zero boundary's sign was unspecified; the radix build folds -0.0
  // into +0.0. Codes do not depend on the sign either way.
  const std::vector<double> values = {-1.0, -0.0, 0.0, -0.0, 2.0,
                                      0.0,  MissingNumeric(), -0.0};
  const std::vector<double> only_negative = {-0.0, 3.0, -0.0, -2.0};
  for (const std::vector<double>* column : {&values, &only_negative}) {
    for (int max_bins : {255, 2}) {
      SCOPED_TRACE(max_bins);
      auto binned = BinnedColumn::Build(*Column::Numeric("x", *column),
                                        max_bins);
      const ReferenceBins ref = ReferenceBuild(*column, max_bins);
      ASSERT_EQ(binned->num_bins(), static_cast<int>(ref.upper.size()));
      int zero_bins = 0;
      for (int b = 0; b < binned->num_bins(); ++b) {
        if (binned->upper(b) == 0.0) {
          ++zero_bins;
          EXPECT_FALSE(std::signbit(binned->upper(b))) << "bin " << b;
        }
      }
      EXPECT_EQ(zero_bins, 1);
      for (size_t i = 0; i < column->size(); ++i) {
        EXPECT_EQ(binned->code_at(i), ref.codes[i]) << "row " << i;
      }
      EXPECT_EQ(binned->CodeOf(-0.0), binned->CodeOf(0.0));
    }
  }
}

// -------------------------------------------------------------------
// Bin codes on the wire (ColumnDataResponse).
// -------------------------------------------------------------------

std::shared_ptr<const BinnedColumn> Codes(std::vector<double> values,
                                          int max_bins) {
  return BinnedColumn::Build(*Column::Numeric("x", std::move(values)),
                             max_bins);
}

// One gathered binned column of `rows` rows: 40 distinct values plus
// missing ones, so 40 bins and uint8 codes.
std::shared_ptr<const BinnedColumn> NarrowCodes(size_t rows) {
  std::vector<double> values(rows);
  for (size_t i = 0; i < rows; ++i) {
    values[i] = i % 7 == 0 ? MissingNumeric()
                           : static_cast<double>((i * 13) % 40) + 0.5;
  }
  return Codes(std::move(values), 255);
}

std::string EncodeResponse(std::vector<GatheredColumn> data) {
  ColumnDataResponse resp;
  resp.task_id = 77;
  for (size_t i = 0; i < data.size(); ++i) {
    resp.columns.push_back(static_cast<int32_t>(i));
  }
  resp.data = std::move(data);
  return resp.Encode();
}

GatheredColumn CodesColumn(std::shared_ptr<const BinnedColumn> codes) {
  GatheredColumn g;
  g.codes = std::move(codes);
  return g;
}

bool DecodesAsCorruption(const std::string& payload) {
  ColumnDataResponse out;
  return ColumnDataResponse::Decode(payload, &out).code() ==
         StatusCode::kCorruption;
}

// Byte offset of the first (only) column's payload: task id, the
// column-id vector (count + one int32), the column count, the tag.
constexpr size_t kTagOffset = 8 + 8 + 4 + 8;

TEST(BinnedWireTest, CodesRoundTripInBothWidths) {
  std::vector<double> wide_values(600);
  for (size_t i = 0; i < wide_values.size(); ++i) {
    wide_values[i] = i % 11 == 0 ? MissingNumeric() : static_cast<double>(i);
  }
  const auto narrow = NarrowCodes(600);
  const auto wide = Codes(wide_values, 300);
  ASSERT_FALSE(narrow->wide());
  ASSERT_TRUE(wide->wide());
  GatheredColumn cat;
  cat.values = Column::Categorical("c", std::vector<int32_t>(600, 2), 4);

  ColumnDataResponse out;
  ASSERT_TRUE(ColumnDataResponse::Decode(
                  EncodeResponse({CodesColumn(narrow), CodesColumn(wide), cat}),
                  &out)
                  .ok());
  ASSERT_EQ(out.data.size(), 3u);
  for (size_t c = 0; c < 2; ++c) {
    const BinnedColumn& sent = c == 0 ? *narrow : *wide;
    const BinnedColumn& got = *out.data[c].codes;
    EXPECT_EQ(got.wide(), sent.wide());
    EXPECT_EQ(got.boundaries(), sent.boundaries());
    ASSERT_EQ(got.num_rows(), sent.num_rows());
    for (size_t i = 0; i < sent.num_rows(); ++i) {
      ASSERT_EQ(got.code_at(i), sent.code_at(i));
    }
  }
  EXPECT_EQ(out.data[2].values->categorical_codes(),
            cat.values->categorical_codes());
}

TEST(BinnedWireTest, TruncationAtEveryByteIsCorruption) {
  GatheredColumn cat;
  cat.values = Column::Categorical("c", std::vector<int32_t>(30, 1), 3);
  const std::string valid =
      EncodeResponse({CodesColumn(NarrowCodes(30)), cat});
  for (size_t len = 0; len < valid.size(); ++len) {
    ASSERT_TRUE(DecodesAsCorruption(valid.substr(0, len))) << "length " << len;
  }
}

TEST(BinnedWireTest, OutOfRangeCodesAreCorruption) {
  const auto codes = NarrowCodes(30);
  const std::string valid = EncodeResponse({CodesColumn(codes)});
  // The codes are the last 30 bytes; the missing code is legal, one
  // past it is not.
  const size_t first_code = valid.size() - 30;
  for (size_t i = first_code; i < valid.size(); ++i) {
    std::string payload = valid;
    payload[i] = static_cast<char>(codes->missing_code());
    ColumnDataResponse out;
    ASSERT_TRUE(ColumnDataResponse::Decode(payload, &out).ok());
    payload[i] = static_cast<char>(codes->missing_code() + 1);
    ASSERT_TRUE(DecodesAsCorruption(payload)) << "code byte " << i;
  }
}

TEST(BinnedWireTest, BitFlipsInCodesAndBoundariesNeverDecodeInvalidBins) {
  const auto codes = NarrowCodes(60);
  const std::string valid = EncodeResponse({CodesColumn(codes)});
  const size_t boundaries_begin = kTagOffset + 1 + 8;
  const size_t boundaries_end = boundaries_begin + 8 * codes->num_bins();
  const size_t codes_begin = boundaries_end + 8;
  ASSERT_EQ(codes_begin + 60, valid.size());
  size_t rejected = 0;
  for (size_t byte = boundaries_begin; byte < valid.size(); ++byte) {
    if (byte >= boundaries_end && byte < codes_begin) continue;  // count
    for (int bit = 0; bit < 8; ++bit) {
      std::string payload = valid;
      payload[byte] ^= static_cast<char>(1 << bit);
      ColumnDataResponse out;
      Status st = ColumnDataResponse::Decode(payload, &out);
      if (!st.ok()) {
        ASSERT_EQ(st.code(), StatusCode::kCorruption);
        ++rejected;
        continue;
      }
      // A flip that still describes valid bins (another code below
      // the missing bin, a boundary that stays in order) is for the
      // frame checksum to catch; the decoder guarantees the invariants.
      const BinnedColumn& got = *out.data[0].codes;
      const std::vector<double>& upper = got.boundaries();
      for (size_t b = 1; b < upper.size(); ++b) {
        ASSERT_LT(upper[b - 1], upper[b]);
      }
      for (size_t i = 0; i < got.num_rows(); ++i) {
        ASSERT_LE(got.code_at(i), got.missing_code());
      }
    }
  }
  // Every flip of a code's high bits leaves [0, 40], and every sign or
  // top exponent flip of an interior boundary breaks the order.
  EXPECT_GT(rejected, 60u * 2);
  // A boundary equal to its predecessor, or NaN, is not ascending.
  for (int b = 1; b < codes->num_bins(); ++b) {
    for (double v : {codes->upper(b - 1), MissingNumeric()}) {
      std::string payload = valid;
      std::memcpy(&payload[boundaries_begin + 8 * b], &v, sizeof v);
      ASSERT_TRUE(DecodesAsCorruption(payload)) << "boundary " << b;
    }
  }
}

TEST(BinnedWireTest, MoreThan65535BoundariesIsCorruption) {
  // Hand-built: the first column's tag from a valid encoding, then
  // 65536 ascending boundaries and one uint16 code.
  const std::string valid = EncodeResponse({CodesColumn(NarrowCodes(1))});
  BinaryWriter w;
  w.Write(uint64_t{77});
  w.WriteVector(std::vector<int32_t>{0});
  w.Write(uint64_t{1});
  w.Write(static_cast<uint8_t>(valid[kTagOffset]));
  std::vector<double> boundaries(65536);
  for (size_t i = 0; i < boundaries.size(); ++i) {
    boundaries[i] = static_cast<double>(i);
  }
  w.WriteVector(boundaries);
  w.WriteVector(std::vector<uint16_t>{0});
  EXPECT_TRUE(DecodesAsCorruption(w.buffer()));
  // The same layout with 65535 boundaries is a legal column.
  boundaries.pop_back();
  BinaryWriter ok;
  ok.Write(uint64_t{77});
  ok.WriteVector(std::vector<int32_t>{0});
  ok.Write(uint64_t{1});
  ok.Write(static_cast<uint8_t>(valid[kTagOffset]));
  ok.WriteVector(boundaries);
  ok.WriteVector(std::vector<uint16_t>{65535});
  ColumnDataResponse out;
  ASSERT_TRUE(ColumnDataResponse::Decode(ok.buffer(), &out).ok());
  EXPECT_EQ(out.data[0].codes->code_at(0), out.data[0].codes->missing_code());
}

TEST(BinnedWireTest, RowAndColumnCountsThatDisagreeAreCorruption) {
  GatheredColumn short_values;
  short_values.values =
      Column::Categorical("c", std::vector<int32_t>(29, 0), 2);
  EXPECT_TRUE(DecodesAsCorruption(
      EncodeResponse({CodesColumn(NarrowCodes(30)), short_values})));
  EXPECT_TRUE(DecodesAsCorruption(EncodeResponse(
      {CodesColumn(NarrowCodes(30)), CodesColumn(NarrowCodes(31))})));
  GatheredColumn same;
  same.values = Column::Numeric("v", std::vector<double>(30, 1.0));
  ColumnDataResponse out;
  EXPECT_TRUE(ColumnDataResponse::Decode(
                  EncodeResponse({CodesColumn(NarrowCodes(30)), same}), &out)
                  .ok());
  // Two column ids with one payload: the receiver would index past it.
  ColumnDataResponse missing_payload;
  missing_payload.columns = {0, 1};
  missing_payload.data = {same};
  EXPECT_TRUE(DecodesAsCorruption(missing_payload.Encode()));
}


// -------------------------------------------------------------------
// Category codes on the wire.
// -------------------------------------------------------------------

// One categorical column of `rows` rows over `card` categories, every
// eleventh cell missing.
std::shared_ptr<const BinnedColumn> CategoryCodes(size_t rows, int32_t card) {
  std::vector<int32_t> cats(rows);
  for (size_t i = 0; i < rows; ++i) {
    cats[i] = i % 11 == 0 ? kMissingCategory
                          : static_cast<int32_t>((i * 7) % card);
  }
  return BinnedColumn::Build(*Column::Categorical("c", std::move(cats), card),
                             255);
}

// A ColumnDataResponse holding one category-code column, written field
// by field so a test can state a cardinality, width and codes that
// disagree.
template <typename Code>
std::string CategoryPayload(int32_t card, uint8_t width,
                            const std::vector<Code>& codes) {
  BinaryWriter w;
  w.Write(uint64_t{77});
  w.WriteVector(std::vector<int32_t>{0});
  w.Write(uint64_t{1});
  w.Write(uint8_t{4});  // category-code wire tag
  w.Write(card);
  w.Write(width);
  w.WriteVector(codes);
  return w.Release();
}

TEST(BinnedWireTest, CategoryCodesRoundTripInBothWidths) {
  for (int32_t card : {1, 12, 255, 256, 300}) {
    auto sent = CategoryCodes(500, card);
    ASSERT_NE(sent, nullptr);
    ColumnDataResponse out;
    ASSERT_TRUE(
        ColumnDataResponse::Decode(EncodeResponse({CodesColumn(sent)}), &out)
            .ok())
        << "card " << card;
    ASSERT_EQ(out.data.size(), 1u);
    const BinnedColumn& got = *out.data[0].codes;
    EXPECT_TRUE(got.categorical());
    EXPECT_EQ(got.num_bins(), card);
    EXPECT_EQ(got.wide(), card >= 256);
    ASSERT_EQ(got.num_rows(), sent->num_rows());
    for (size_t r = 0; r < got.num_rows(); ++r) {
      ASSERT_EQ(got.code_at(r), sent->code_at(r)) << "card " << card;
    }
  }
}

TEST(BinnedWireTest, CategoryCodeTruncationAtEveryByteIsCorruption) {
  for (int32_t card : {12, 300}) {
    const std::string full = EncodeResponse({CodesColumn(CategoryCodes(40, card))});
    for (size_t len = 0; len < full.size(); ++len) {
      EXPECT_TRUE(DecodesAsCorruption(full.substr(0, len)))
          << "card " << card << " len " << len;
    }
  }
}

TEST(BinnedWireTest, CategoryCodeAboveTheCardinalityIsCorruption) {
  // Codes 0..card are valid (card is the missing code); card + 1 is not.
  EXPECT_FALSE(DecodesAsCorruption(
      CategoryPayload<uint8_t>(12, 1, {0, 5, 11, 12})));
  EXPECT_TRUE(DecodesAsCorruption(
      CategoryPayload<uint8_t>(12, 1, {0, 5, 13, 12})));
  EXPECT_TRUE(DecodesAsCorruption(
      CategoryPayload<uint16_t>(300, 2, {0, 300, 301})));
  EXPECT_TRUE(DecodesAsCorruption(
      CategoryPayload<uint8_t>(0, 1, {0, 1})));
}

TEST(BinnedWireTest, CategoryCodeWidthThatMismatchesTheCardinalityIsCorruption) {
  EXPECT_TRUE(DecodesAsCorruption(CategoryPayload<uint16_t>(12, 2, {0, 1})));
  EXPECT_TRUE(DecodesAsCorruption(CategoryPayload<uint8_t>(300, 1, {0, 1})));
  EXPECT_TRUE(DecodesAsCorruption(CategoryPayload<uint8_t>(255, 2, {0, 1})));
  EXPECT_TRUE(DecodesAsCorruption(CategoryPayload<uint16_t>(256, 1, {0, 1})));
  for (uint8_t width : {0, 3, 4, 255}) {
    EXPECT_TRUE(DecodesAsCorruption(CategoryPayload<uint8_t>(12, width, {0})))
        << "width " << static_cast<int>(width);
  }
}

TEST(BinnedWireTest, NegativeOrOversizedCardinalityIsCorruption) {
  EXPECT_TRUE(DecodesAsCorruption(CategoryPayload<uint8_t>(-1, 1, {0})));
  EXPECT_TRUE(DecodesAsCorruption(
      CategoryPayload<uint8_t>(std::numeric_limits<int32_t>::min(), 1, {0})));
  EXPECT_TRUE(DecodesAsCorruption(CategoryPayload<uint16_t>(65536, 2, {0})));
}

TEST(BinnedWireTest, CategoryCodesWithBitFlipsNeverDecodeInvalidCodes) {
  const std::string clean =
      EncodeResponse({CodesColumn(CategoryCodes(64, 12))});
  for (size_t byte = kTagOffset; byte < clean.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = clean;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      ColumnDataResponse out;
      if (!ColumnDataResponse::Decode(flipped, &out).ok()) continue;
      if (out.data.empty() || out.data[0].codes == nullptr) continue;
      const BinnedColumn& got = *out.data[0].codes;
      for (size_t r = 0; r < got.num_rows(); ++r) {
        ASSERT_LE(got.code_at(r), got.missing_code())
            << "byte " << byte << " bit " << bit;
      }
    }
  }
}

// -------------------------------------------------------------------
// Histogram kernel vs exact kernel.
// -------------------------------------------------------------------

TEST(NodeHistogramTest, MatchesExactKernelClassification) {
  DataTable t = GridClsTable(800, 3, 20, 3, 42, /*missing=*/0.1);
  SplitContext ctx = ClsCtx(3);
  for (int col = 0; col < 3; ++col) {
    auto binned = BinnedColumn::Build(*t.column(col), 255);
    NodeHistogram h = NodeHistogram::Build(*binned, *t.target(), ctx,
                                           nullptr, t.num_rows());
    SplitOutcome hist = h.BestSplit(*binned, col, ctx);
    SplitOutcome exact = FindBestSplit(*t.column(col), col, *t.target(), ctx,
                                       nullptr, t.num_rows());
    ASSERT_EQ(hist.valid, exact.valid) << "col " << col;
    if (!exact.valid) continue;
    EXPECT_TRUE(hist.condition == exact.condition) << "col " << col;
    EXPECT_DOUBLE_EQ(hist.gain, exact.gain) << "col " << col;
    EXPECT_EQ(hist.n_left(), exact.n_left());
    EXPECT_EQ(hist.n_right(), exact.n_right());
    EXPECT_EQ(hist.left_stats.cls.counts, exact.left_stats.cls.counts);
    EXPECT_EQ(hist.right_stats.cls.counts, exact.right_stats.cls.counts);
  }
}

TEST(NodeHistogramTest, MatchesExactKernelRegression) {
  DataTable t = GridRegTable(800, 3, 20, 43, /*missing=*/0.1);
  SplitContext ctx = RegCtx();
  for (int col = 0; col < 3; ++col) {
    auto binned = BinnedColumn::Build(*t.column(col), 255);
    NodeHistogram h = NodeHistogram::Build(*binned, *t.target(), ctx,
                                           nullptr, t.num_rows());
    SplitOutcome hist = h.BestSplit(*binned, col, ctx);
    SplitOutcome exact = FindBestSplit(*t.column(col), col, *t.target(), ctx,
                                       nullptr, t.num_rows());
    ASSERT_EQ(hist.valid, exact.valid) << "col " << col;
    if (!exact.valid) continue;
    EXPECT_TRUE(hist.condition == exact.condition) << "col " << col;
    EXPECT_DOUBLE_EQ(hist.gain, exact.gain) << "col " << col;
    EXPECT_DOUBLE_EQ(hist.left_stats.reg.sum, exact.left_stats.reg.sum);
    EXPECT_DOUBLE_EQ(hist.right_stats.reg.sum, exact.right_stats.reg.sum);
  }
}

TEST(NodeHistogramTest, MissingRowsRouteToTheLargerChild) {
  // 2 + 4 non-missing rows and 3 missing ones: the missing rows must
  // land in the right (larger) child, exactly like the exact kernel.
  auto x = Column::Numeric("x", {1, 1, 2, 2, 2, 2, MissingNumeric(),
                                 MissingNumeric(), MissingNumeric()});
  auto y = Column::Categorical("y", {0, 0, 1, 1, 1, 1, 0, 1, 0}, 2);
  SplitContext ctx = ClsCtx(2);
  auto binned = BinnedColumn::Build(*x, 16);
  NodeHistogram h = NodeHistogram::Build(*binned, *y, ctx, nullptr, 9);
  SplitOutcome hist = h.BestSplit(*binned, 0, ctx);
  ASSERT_TRUE(hist.valid);
  EXPECT_FALSE(hist.condition.missing_to_left);
  EXPECT_EQ(hist.n_left(), 2);
  EXPECT_EQ(hist.n_right(), 7);  // 4 non-missing + 3 missing

  SplitOutcome exact = FindBestSplit(*x, 0, *y, ctx, nullptr, 9);
  ASSERT_TRUE(exact.valid);
  EXPECT_TRUE(hist.condition == exact.condition);
  EXPECT_DOUBLE_EQ(hist.gain, exact.gain);
}

TEST(NodeHistogramTest, SubtractionMatchesDirectBuild) {
  DataTable t = GridClsTable(600, 1, 12, 3, 77, /*missing=*/0.05);
  SplitContext ctx = ClsCtx(3);
  auto binned = BinnedColumn::Build(*t.column(0), 255);
  std::vector<uint32_t> left_rows, right_rows;
  for (uint32_t r = 0; r < t.num_rows(); ++r) {
    (r % 3 == 0 ? left_rows : right_rows).push_back(r);
  }
  NodeHistogram parent = NodeHistogram::Build(*binned, *t.target(), ctx,
                                              nullptr, t.num_rows());
  NodeHistogram left = NodeHistogram::Build(*binned, *t.target(), ctx,
                                            left_rows.data(),
                                            left_rows.size());
  NodeHistogram right = NodeHistogram::Build(*binned, *t.target(), ctx,
                                             right_rows.data(),
                                             right_rows.size());
  NodeHistogram derived = NodeHistogram::Subtract(parent, left);
  SplitOutcome from_direct = right.BestSplit(*binned, 0, ctx);
  SplitOutcome from_derived = derived.BestSplit(*binned, 0, ctx);
  ASSERT_EQ(from_direct.valid, from_derived.valid);
  if (from_direct.valid) {
    EXPECT_TRUE(from_direct.condition == from_derived.condition);
    EXPECT_DOUBLE_EQ(from_direct.gain, from_derived.gain);
    EXPECT_EQ(from_direct.left_stats.cls.counts,
              from_derived.left_stats.cls.counts);
  }
}


// -------------------------------------------------------------------
// Categorical columns through the histogram kernel.
// -------------------------------------------------------------------

// The exact categorical kernels as they were before categorical columns
// joined the histogram path: per-category ClassStats / RegStats summed
// row by row, then one-vs-rest (classification) or Breiman's sorted
// prefix (regression). The shared scan must reproduce them byte for
// byte.
SplitOutcome RefCategoricalClassification(const Column& feature, int col,
                                          const Column& target,
                                          const SplitContext& ctx,
                                          const std::vector<uint32_t>& rows) {
  SplitOutcome out;
  const int32_t card = feature.cardinality();
  std::vector<ClassStats> per_cat(card, ClassStats(ctx.num_classes));
  ClassStats total(ctx.num_classes);
  TargetStats missing = TargetStats::Classification(ctx.num_classes);
  for (uint32_t row : rows) {
    const int32_t c = feature.category_at(row);
    if (c == kMissingCategory) {
      missing.cls.Add(target.category_at(row));
    } else {
      per_cat[c].Add(target.category_at(row));
      total.Add(target.category_at(row));
    }
  }
  if (total.n < 2) return out;
  std::vector<int32_t> seen;
  for (int32_t c = 0; c < card; ++c) {
    if (per_cat[c].n > 0) seen.push_back(c);
  }
  if (seen.size() < 2) return out;
  double best_score = std::numeric_limits<double>::infinity();
  int32_t best_cat = -1;
  for (int32_t c : seen) {
    ClassStats rest = total;
    for (size_t j = 0; j < rest.counts.size(); ++j) {
      rest.counts[j] -= per_cat[c].counts[j];
    }
    rest.n -= per_cat[c].n;
    double score = (static_cast<double>(per_cat[c].n) *
                        per_cat[c].ImpurityValue(ctx.impurity) +
                    static_cast<double>(rest.n) *
                        rest.ImpurityValue(ctx.impurity)) /
                   static_cast<double>(total.n);
    if (score < best_score) {
      best_score = score;
      best_cat = c;
    }
  }
  out.left_stats = TargetStats::Classification(ctx.num_classes);
  out.right_stats = TargetStats::Classification(ctx.num_classes);
  out.left_stats.cls = per_cat[best_cat];
  out.right_stats.cls = total;
  for (size_t j = 0; j < total.counts.size(); ++j) {
    out.right_stats.cls.counts[j] -= per_cat[best_cat].counts[j];
  }
  out.right_stats.cls.n -= per_cat[best_cat].n;
  out.condition.column = col;
  out.condition.type = DataType::kCategorical;
  out.condition.left_categories = {best_cat};
  out.condition.seen_categories = seen;
  FinishSplitOutcome(ctx, missing, &out);
  return out;
}

SplitOutcome RefCategoricalRegression(const Column& feature, int col,
                                      const Column& target,
                                      const SplitContext& ctx,
                                      const std::vector<uint32_t>& rows) {
  SplitOutcome out;
  const int32_t card = feature.cardinality();
  std::vector<RegStats> per_cat(card);
  TargetStats missing = TargetStats::Regression();
  for (uint32_t row : rows) {
    const int32_t c = feature.category_at(row);
    if (c == kMissingCategory) {
      missing.reg.Add(target.numeric_at(row));
    } else {
      per_cat[c].Add(target.numeric_at(row));
    }
  }
  std::vector<int32_t> seen;
  for (int32_t c = 0; c < card; ++c) {
    if (per_cat[c].n > 0) seen.push_back(c);
  }
  if (seen.size() < 2) return out;
  std::vector<int32_t> order = seen;
  std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    return per_cat[a].Mean() < per_cat[b].Mean();
  });
  RegStats total;
  for (int32_t c : seen) total.Merge(per_cat[c]);
  RegStats left;
  RegStats right = total;
  double best_score = std::numeric_limits<double>::infinity();
  size_t best_prefix = 0;
  for (size_t i = 0; i + 1 < order.size(); ++i) {
    left.Merge(per_cat[order[i]]);
    right.n -= per_cat[order[i]].n;
    right.sum -= per_cat[order[i]].sum;
    right.sum_sq -= per_cat[order[i]].sum_sq;
    double score = (static_cast<double>(left.n) * left.Variance() +
                    static_cast<double>(right.n) * right.Variance()) /
                   static_cast<double>(total.n);
    if (score < best_score) {
      best_score = score;
      best_prefix = i + 1;
    }
  }
  if (best_prefix == 0) return out;
  std::vector<int32_t> left_cats(order.begin(), order.begin() + best_prefix);
  std::sort(left_cats.begin(), left_cats.end());
  out.left_stats = TargetStats::Regression();
  out.right_stats = TargetStats::Regression();
  for (size_t i = 0; i < order.size(); ++i) {
    (i < best_prefix ? out.left_stats : out.right_stats)
        .reg.Merge(per_cat[order[i]]);
  }
  out.condition.column = col;
  out.condition.type = DataType::kCategorical;
  out.condition.left_categories = std::move(left_cats);
  out.condition.seen_categories = seen;
  FinishSplitOutcome(ctx, missing, &out);
  return out;
}

std::string OutcomeBytes(const SplitOutcome& o) {
  BinaryWriter w;
  o.Serialize(&w);
  return w.Release();
}

// One categorical feature of `card` categories (7% missing cells; with
// `odd_absent`, odd categories never occur) and a target that depends
// on it: `classes` labels, or a non-integer (`integer_y` false) or
// integer regression target when `classes` is 0.
DataTable CategoryTable(size_t rows, int32_t card, int classes,
                        bool odd_absent, bool integer_y, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> cats(rows);
  std::vector<int32_t> labels(rows);
  std::vector<double> y(rows);
  for (size_t r = 0; r < rows; ++r) {
    int32_t c = static_cast<int32_t>(rng.Uniform(card));
    if (odd_absent && card > 1) c &= ~1;
    cats[r] = rng.Bernoulli(0.07) ? kMissingCategory : c;
    if (classes > 0) {
      labels[r] = rng.Bernoulli(0.2)
                      ? static_cast<int32_t>(rng.Uniform(classes))
                      : (c * 5 / 3) % classes;
    } else {
      y[r] = integer_y ? static_cast<double>((c * 7) % 11 + rng.Uniform(4))
                       : std::sin(c * 0.9) * 10.0 + rng.Normal();
    }
  }
  std::vector<ColumnMeta> metas = {{"c", DataType::kCategorical, card}};
  std::vector<ColumnPtr> cols = {
      Column::Categorical("c", std::move(cats), card)};
  if (classes > 0) {
    metas.push_back({"y", DataType::kCategorical, classes});
    cols.push_back(Column::Categorical("y", std::move(labels), classes));
  } else {
    metas.push_back({"y", DataType::kNumeric, 0});
    cols.push_back(Column::Numeric("y", std::move(y)));
  }
  auto t = DataTable::Make(
      Schema(metas, 1,
             classes > 0 ? TaskKind::kClassification : TaskKind::kRegression),
      std::move(cols));
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

TEST(HistCategoricalTest, CodesAreTheCategoriesWithMissingLast) {
  for (int32_t card : {1, 2, 255, 256, 65535}) {
    DataTable t = CategoryTable(3000, card, 2, false, false, 3);
    const Column& col = *t.column(0);
    auto binned = BinnedColumn::Build(col, /*max_bins=*/16);
    ASSERT_NE(binned, nullptr);
    EXPECT_TRUE(binned->categorical());
    EXPECT_EQ(binned->num_bins(), card) << "max_bins does not apply";
    EXPECT_EQ(binned->wide(), card >= 256);
    for (size_t r = 0; r < col.size(); ++r) {
      const int32_t v = col.category_at(r);
      ASSERT_EQ(binned->code_at(r), v == kMissingCategory ? card : v);
    }
  }
  // More categories than a uint16 code holds: not binned, and the
  // column stays on the exact kernel.
  auto huge = Column::Categorical("c", {0, 70000, kMissingCategory}, 70001);
  EXPECT_EQ(BinnedColumn::Build(*huge, 255), nullptr);
}

TEST(HistCategoricalTest, MatchesTheExactKernelByteForByte) {
  struct Task {
    int classes;
    Impurity impurity;
  };
  const Task tasks[] = {{2, Impurity::kGini},
                        {2, Impurity::kEntropy},
                        {7, Impurity::kGini},
                        {7, Impurity::kEntropy},
                        {0, Impurity::kVariance}};
  uint64_t seed = 100;
  for (const Task& task : tasks) {
    const SplitContext ctx{task.classes > 0 ? TaskKind::kClassification
                                            : TaskKind::kRegression,
                           task.impurity, task.classes};
    for (int32_t card : {1, 2, 12, 255, 256}) {
      for (bool odd_absent : {false, true}) {
        DataTable t = CategoryTable(2500, card, task.classes, odd_absent,
                                    /*integer_y=*/false, ++seed);
        const Column& feature = *t.column(0);
        auto binned = BinnedColumn::Build(feature, 255);
        std::vector<uint32_t> all(t.num_rows());
        std::iota(all.begin(), all.end(), 0u);
        std::vector<uint32_t> some;
        for (uint32_t r = 0; r < t.num_rows(); r += 3) some.push_back(r);
        for (const std::vector<uint32_t>* rows : {&all, &some}) {
          const SplitOutcome ref =
              task.classes > 0
                  ? RefCategoricalClassification(feature, 0, *t.target(),
                                                 ctx, *rows)
                  : RefCategoricalRegression(feature, 0, *t.target(), ctx,
                                             *rows);
          const NodeHistogram h = NodeHistogram::Build(
              *binned, *t.target(), ctx, rows->data(), rows->size());
          const SplitOutcome hist = h.BestSplit(*binned, 0, ctx);
          const SplitOutcome exact = FindBestSplit(
              feature, 0, *t.target(), ctx, rows->data(), rows->size());
          const std::string where = "classes " +
                                    std::to_string(task.classes) + " card " +
                                    std::to_string(card) + " rows " +
                                    std::to_string(rows->size());
          EXPECT_EQ(hist.valid, card > (odd_absent ? 2 : 1)) << where;
          EXPECT_EQ(OutcomeBytes(hist), OutcomeBytes(ref)) << where;
          EXPECT_EQ(OutcomeBytes(exact), OutcomeBytes(ref)) << where;
        }
      }
    }
  }
}

TEST(HistCategoricalTest, SubtractedHistogramsSplitLikeDirectBuilds) {
  // Class counts, and integer regression targets, keep every sum exact,
  // so parent - sibling is the other child's histogram bit for bit.
  for (int classes : {2, 7, 0}) {
    const SplitContext ctx =
        classes > 0 ? ClsCtx(classes) : RegCtx();
    for (int32_t card : {12, 256}) {
      DataTable t = CategoryTable(3000, card, classes, /*odd_absent=*/false,
                                  /*integer_y=*/true, 7 + card + classes);
      auto binned = BinnedColumn::Build(*t.column(0), 255);
      std::vector<uint32_t> left_rows, right_rows;
      for (uint32_t r = 0; r < t.num_rows(); ++r) {
        (r % 3 == 0 ? left_rows : right_rows).push_back(r);
      }
      const NodeHistogram parent = NodeHistogram::Build(
          *binned, *t.target(), ctx, nullptr, t.num_rows());
      const NodeHistogram left = NodeHistogram::Build(
          *binned, *t.target(), ctx, left_rows.data(), left_rows.size());
      const NodeHistogram right = NodeHistogram::Build(
          *binned, *t.target(), ctx, right_rows.data(), right_rows.size());
      const NodeHistogram derived = NodeHistogram::Subtract(parent, left);
      ASSERT_EQ(derived.cls_size(), right.cls_size());
      ASSERT_EQ(derived.reg_size(), right.reg_size());
      // One payload is empty (and may be null) for each task kind.
      EXPECT_TRUE(right.cls_size() == 0 ||
                  std::memcmp(derived.cls_data(), right.cls_data(),
                              right.cls_size() * sizeof(int64_t)) == 0);
      EXPECT_TRUE(right.reg_size() == 0 ||
                  std::memcmp(derived.reg_data(), right.reg_data(),
                              right.reg_size() * sizeof(HistRegBin)) == 0);
      EXPECT_EQ(OutcomeBytes(derived.BestSplit(*binned, 0, ctx)),
                OutcomeBytes(right.BestSplit(*binned, 0, ctx)))
          << "classes " << classes << " card " << card;
    }
  }
}

TEST(HistCategoricalTest, CodePartitionMatchesValuePartition) {
  // A histogram tree over codes only (the categorical values are null,
  // as in a subtree task's D_x) partitions rows by a per-code table; it
  // must grow the exact tree, which partitions by value.
  const size_t rows = 3000;
  for (int classes : {3, 0}) {
    Rng rng(41 + classes);
    const int32_t cards[] = {3, 40, 300};
    std::vector<ColumnMeta> metas;
    std::vector<ColumnPtr> cols;
    std::vector<std::vector<int32_t>> cats(3, std::vector<int32_t>(rows));
    std::vector<double> num(rows);
    std::vector<int32_t> labels(rows);
    std::vector<double> y(rows);
    for (size_t r = 0; r < rows; ++r) {
      int64_t s = 0;
      for (int j = 0; j < 3; ++j) {
        const int32_t c = static_cast<int32_t>(rng.Uniform(cards[j]));
        cats[j][r] = rng.Bernoulli(0.05) ? kMissingCategory : c;
        s += (c * (j + 3)) % 7;
      }
      num[r] = static_cast<double>(rng.Uniform(30));
      s += static_cast<int64_t>(num[r]) / 10;
      labels[r] = static_cast<int32_t>(s % 3);
      y[r] = static_cast<double>(s + rng.Uniform(3));
    }
    for (int j = 0; j < 3; ++j) {
      const std::string name = "c" + std::to_string(j);
      metas.push_back({name, DataType::kCategorical, cards[j]});
      cols.push_back(Column::Categorical(name, std::move(cats[j]), cards[j]));
    }
    metas.push_back({"x", DataType::kNumeric, 0});
    cols.push_back(Column::Numeric("x", std::move(num)));
    if (classes > 0) {
      metas.push_back({"y", DataType::kCategorical, classes});
      cols.push_back(Column::Categorical("y", std::move(labels), classes));
    } else {
      metas.push_back({"y", DataType::kNumeric, 0});
      cols.push_back(Column::Numeric("y", std::move(y)));
    }
    const Schema schema(metas, 4,
                        classes > 0 ? TaskKind::kClassification
                                    : TaskKind::kRegression);
    auto made = DataTable::Make(schema, cols);
    ASSERT_TRUE(made.ok());
    const DataTable t = std::move(made).value();

    TreeConfig exact_cfg;
    exact_cfg.max_depth = 9;
    exact_cfg.min_leaf = 2;
    exact_cfg.impurity = classes > 0 ? Impurity::kGini : Impurity::kVariance;
    TreeConfig hist_cfg = exact_cfg;
    hist_cfg.split_method = SplitMethod::kHistogram;
    hist_cfg.max_bins = 64;

    std::shared_ptr<const BinnedTable> binned =
        BinnedTable::Build(t, hist_cfg.max_bins);
    std::vector<ColumnPtr> codes_only = cols;
    for (int j = 0; j < 3; ++j) codes_only[j] = nullptr;
    const DataTable dx =
        DataTable::ForGatheredSubset(schema, std::move(codes_only), rows);

    const TreeModel exact = TrainTreeOnTable(t, {0, 1, 2, 3}, exact_cfg);
    const TreeModel hist =
        TrainTreeOnTable(dx, {0, 1, 2, 3}, hist_cfg, nullptr, binned.get());
    EXPECT_GT(exact.num_nodes(), 7u);
    EXPECT_EQ(SerializeCanonical(exact), SerializeCanonical(hist))
        << "classes " << classes;
  }
}

// -------------------------------------------------------------------
// Whole-tree parity.
// -------------------------------------------------------------------

TEST(HistTreeParityTest, ClassificationTreeIsByteIdentical) {
  DataTable t = GridClsTable(2000, 4, 40, 3, 9, /*missing=*/0.08);
  TreeConfig exact_cfg;
  exact_cfg.max_depth = 9;
  exact_cfg.min_leaf = 2;
  TreeConfig hist_cfg = exact_cfg;
  hist_cfg.split_method = SplitMethod::kHistogram;
  hist_cfg.max_bins = 64;  // >= 40 distinct values: exact degeneration

  TreeModel exact = TrainTreeOnTable(t, {0, 1, 2, 3}, exact_cfg);
  TreeModel hist = TrainTreeOnTable(t, {0, 1, 2, 3}, hist_cfg);
  EXPECT_GT(exact.num_nodes(), 1u);
  EXPECT_EQ(SerializeCanonical(exact), SerializeCanonical(hist));
}

TEST(HistTreeParityTest, RegressionTreeIsByteIdentical) {
  DataTable t = GridRegTable(2000, 4, 40, 10, /*missing=*/0.08);
  TreeConfig exact_cfg;
  exact_cfg.max_depth = 9;
  exact_cfg.min_leaf = 2;
  exact_cfg.impurity = Impurity::kVariance;
  TreeConfig hist_cfg = exact_cfg;
  hist_cfg.split_method = SplitMethod::kHistogram;
  hist_cfg.max_bins = 64;

  TreeModel exact = TrainTreeOnTable(t, {0, 1, 2, 3}, exact_cfg);
  TreeModel hist = TrainTreeOnTable(t, {0, 1, 2, 3}, hist_cfg);
  EXPECT_GT(exact.num_nodes(), 1u);
  EXPECT_EQ(SerializeCanonical(exact), SerializeCanonical(hist));
}

TEST(HistTreeParityTest, ManyCategoryColumnsMatchTheExactKernel) {
  // A categorical column with more categories than max_bins still gets
  // one identity code per category, so both methods run the same
  // one-vs-rest scan over the same per-category counts.
  const int kCard = 80;
  Rng rng(5);
  const size_t rows = 1500;
  std::vector<int32_t> cat(rows);
  std::vector<double> num(rows);
  std::vector<int32_t> y(rows);
  for (size_t r = 0; r < rows; ++r) {
    cat[r] = static_cast<int32_t>(rng.Uniform(kCard));
    num[r] = static_cast<double>(rng.Uniform(30));
    y[r] = (cat[r] % 3 == 0 || num[r] > 20) ? 1 : 0;
    if (rng.Bernoulli(0.05)) y[r] = 1 - y[r];
  }
  std::vector<ColumnMeta> metas = {{"c", DataType::kCategorical, kCard},
                                   {"x", DataType::kNumeric, 0},
                                   {"y", DataType::kCategorical, 2}};
  std::vector<ColumnPtr> cols = {Column::Categorical("c", cat, kCard),
                                 Column::Numeric("x", num),
                                 Column::Categorical("y", y, 2)};
  auto made = DataTable::Make(Schema(metas, 2, TaskKind::kClassification),
                              std::move(cols));
  ASSERT_TRUE(made.ok());
  DataTable t = std::move(made).value();

  TreeConfig exact_cfg;
  exact_cfg.max_depth = 8;
  TreeConfig hist_cfg = exact_cfg;
  hist_cfg.split_method = SplitMethod::kHistogram;
  hist_cfg.max_bins = 64;

  TreeModel exact = TrainTreeOnTable(t, {0, 1}, exact_cfg);
  TreeModel hist = TrainTreeOnTable(t, {0, 1}, hist_cfg);
  EXPECT_GT(exact.num_nodes(), 1u);
  EXPECT_EQ(SerializeCanonical(exact), SerializeCanonical(hist));
}

TEST(HistTreeParityTest, CoarseBinsStillGrowAUsefulTree) {
  // More distinct values than bins: no parity promise, but the tree
  // must still split and fit the planted concept reasonably.
  DatasetProfile p;
  p.rows = 4000;
  p.num_numeric = 5;
  p.num_categorical = 0;
  p.num_classes = 2;
  p.noise = 0.05;
  DataTable t = GenerateTable(p, 21);
  TreeConfig cfg;
  cfg.max_depth = 8;
  cfg.split_method = SplitMethod::kHistogram;
  cfg.max_bins = 16;
  TreeModel tree = TrainTreeOnTable(t, {0, 1, 2, 3, 4}, cfg);
  EXPECT_GT(tree.num_nodes(), 8u);
  size_t correct = 0;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (tree.PredictLabel(t, r) == t.target()->category_at(r)) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / t.num_rows(), 0.8);
}

TEST(HistCountersTest, KernelsReportToTheMetricsRegistry) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* builds = reg.GetCounter("split.histogram_builds");
  Counter* subs = reg.GetCounter("split.sibling_subtractions");
  Counter* sorts = reg.GetCounter("split.exact_sorts");

  DataTable t = GridClsTable(1200, 3, 25, 3, 3);
  TreeConfig cfg;
  cfg.max_depth = 7;

  uint64_t sorts0 = sorts->value();
  TrainTreeOnTable(t, {0, 1, 2}, cfg);
  EXPECT_GT(sorts->value(), sorts0);

  cfg.split_method = SplitMethod::kHistogram;
  uint64_t builds0 = builds->value();
  uint64_t subs0 = subs->value();
  TrainTreeOnTable(t, {0, 1, 2}, cfg);
  EXPECT_GT(builds->value(), builds0);
  EXPECT_GT(subs->value(), subs0);  // deep tree: siblings get derived
}

// -------------------------------------------------------------------
// Cluster-mode parity (in-process engine).
// -------------------------------------------------------------------

EngineConfig SmallEngine() {
  EngineConfig cfg;
  cfg.num_workers = 3;
  cfg.compers_per_worker = 2;
  cfg.replication = 2;
  cfg.tau_d = 600;    // force column-tasks near the root
  cfg.tau_dfs = 1500;
  return cfg;
}

TEST(HistEngineParityTest, ClassificationForestMatchesSerialHistogram) {
  DatasetProfile p;
  p.rows = 3000;
  p.num_numeric = 6;
  p.num_categorical = 2;
  p.num_classes = 3;
  p.noise = 0.08;
  DataTable t = GenerateTable(p, 11);

  ForestJobSpec spec;
  spec.num_trees = 3;
  spec.tree.max_depth = 8;
  spec.tree.split_method = SplitMethod::kHistogram;
  spec.tree.max_bins = 32;  // coarse on purpose: continuous columns

  TreeServerCluster cluster(t, SmallEngine());
  ForestModel forest = cluster.TrainForest(spec);
  ForestModel reference = TrainForestSerial(t, spec, 2);
  ASSERT_EQ(forest.num_trees(), static_cast<size_t>(spec.num_trees));
  EXPECT_EQ(SerializeForestBytes(forest), SerializeForestBytes(reference))
      << "histogram-mode engine must reproduce serial histogram training";
}

TEST(HistEngineParityTest, RegressionForestMatchesSerialWithIntegerTargets) {
  // Integer-valued targets keep every histogram sum exact, so even the
  // regression path is byte-reproducible between engine and serial.
  DataTable t = GridRegTable(2500, 5, 60, 33);
  ForestJobSpec spec;
  spec.num_trees = 2;
  spec.tree.max_depth = 8;
  spec.tree.impurity = Impurity::kVariance;
  spec.tree.split_method = SplitMethod::kHistogram;
  spec.tree.max_bins = 64;

  TreeServerCluster cluster(t, SmallEngine());
  ForestModel forest = cluster.TrainForest(spec);
  ForestModel reference = TrainForestSerial(t, spec, 2);
  ASSERT_EQ(forest.num_trees(), static_cast<size_t>(spec.num_trees));
  EXPECT_EQ(SerializeForestBytes(forest), SerializeForestBytes(reference));
}

// D_x column payload bytes pulled between workers so far, by wire
// form (process-wide counters: the checks below use differences).
struct PulledBytes {
  uint64_t numeric = 0;
  uint64_t categorical = 0;
  uint64_t codes = 0;

  static PulledBytes Now() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    PulledBytes out;
    out.numeric = reg.GetCounter("engine.pulled_column_bytes.numeric")->value();
    out.categorical =
        reg.GetCounter("engine.pulled_column_bytes.categorical")->value();
    out.codes = reg.GetCounter("engine.pulled_column_bytes.codes")->value();
    return out;
  }
};

// Histogram-mode subtree pulls carry codes, never values: no 8-byte
// numeric values and no 4-byte category values.
void ExpectCodePulls(const PulledBytes& before) {
  const PulledBytes after = PulledBytes::Now();
  EXPECT_EQ(after.numeric, before.numeric)
      << "a histogram-mode pull shipped numeric values";
  EXPECT_EQ(after.categorical, before.categorical)
      << "a histogram-mode pull shipped category values";
  EXPECT_GT(after.codes, before.codes) << "no remote column pull ran";
}

// Every column a live worker binned is one it holds.
void ExpectBinsOnlyOnHolders(const Master& master, const WorkerStats& stats) {
  for (int32_t col : stats.binned_columns) {
    const std::vector<int> holders = master.placement().holders(col);
    EXPECT_NE(std::find(holders.begin(), holders.end(), stats.worker),
              holders.end())
        << "w" << stats.worker << " binned column " << col
        << " without holding it";
  }
}

// Trains `spec` on the in-process engine and on a loopback TCP
// cluster, optionally killing worker 1 shortly after submission. Both
// must run subtree tasks that pull remote numeric columns as bin codes,
// bin only held columns, and reproduce TrainForestSerial's bytes.
void ExpectEnginesMatchSerial(const DataTable& t, const ForestJobSpec& spec,
                              bool crash = false) {
  Histogram* subtrees = MetricsRegistry::Global().GetHistogram(
      "master.subtree_task_latency_us");
  const std::string reference =
      SerializeForestBytes(TrainForestSerial(t, spec, 2));
  constexpr int kVictim = 1;
  // With a crash, four workers: the three survivors still each miss
  // some columns after re-replication. Two survivors of three would
  // hold every column, and a subtree task that starts after the crash
  // would pull nothing.
  EngineConfig cfg = SmallEngine();
  if (crash) cfg.num_workers = 4;
  {
    const uint64_t before = subtrees->Count();
    const PulledBytes pulled = PulledBytes::Now();
    TreeServerCluster cluster(t, cfg);
    const uint32_t job = cluster.Submit(spec);
    if (crash) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      cluster.CrashWorker(kVictim);
    }
    EXPECT_EQ(SerializeForestBytes(cluster.Wait(job)), reference)
        << "in-process engine must reproduce serial histogram training";
    EXPECT_GT(subtrees->Count(), before) << "no subtree task ran in-process";
    ExpectCodePulls(pulled);
    bool binned_categorical = false;
    for (const WorkerStats& w : cluster.GetEngineStats().workers) {
      if (!crash || w.worker != kVictim) {
        ExpectBinsOnlyOnHolders(cluster.master(), w);
      }
      for (int32_t col : w.binned_columns) {
        binned_categorical |=
            t.schema().column(col).type == DataType::kCategorical;
      }
    }
    bool has_categorical = false;
    for (int col : t.schema().FeatureIndices()) {
      has_categorical |= t.schema().column(col).type == DataType::kCategorical;
    }
    EXPECT_EQ(binned_categorical, has_categorical)
        << "categorical columns are binned, with identity codes, on holders";
  }
  {
    const uint64_t before = subtrees->Count();
    const PulledBytes pulled = PulledBytes::Now();
    TcpCluster cluster(t, cfg, /*heartbeat_ms=*/crash ? 10 : 50,
                       /*miss_limit=*/crash ? 5 : 20);
    const uint32_t job = cluster.master->Submit(spec);
    if (crash) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      cluster.KillWorker(kVictim);
    }
    EXPECT_EQ(SerializeForestBytes(cluster.master->Wait(job)), reference)
        << "TCP engine must reproduce serial histogram training";
    EXPECT_GT(subtrees->Count(), before) << "no subtree task ran over TCP";
    ExpectCodePulls(pulled);
    for (int w = 0; w < cluster.cfg.num_workers; ++w) {
      if (!crash || w != kVictim) {
        ExpectBinsOnlyOnHolders(*cluster.master,
                                cluster.nodes[w]->worker->GetStats());
      }
    }
  }
}

TEST(HistEngineParityTest, RemoteUint8CodePulls) {
  DatasetProfile p;
  p.rows = 3000;
  p.num_numeric = 6;
  p.num_categorical = 2;
  p.num_classes = 3;
  p.noise = 0.08;
  p.missing_fraction = 0.05;
  DataTable t = GenerateTable(p, 13);

  ForestJobSpec spec;
  spec.num_trees = 3;
  spec.tree.max_depth = 8;
  spec.tree.split_method = SplitMethod::kHistogram;
  spec.tree.max_bins = 32;  // continuous columns: quantile bins, uint8
  ExpectEnginesMatchSerial(t, spec);
}

TEST(HistEngineParityTest, WorkerCrashMidJobWithUint16CodePulls) {
  // Integer targets keep the regression sums exact; a 400-value grid
  // under 300 bins gives uint16 codes. Enough trees that the crash
  // lands while the job runs; the dead worker's columns move to new
  // holders, which bin them on first use.
  DataTable t = GridRegTable(4000, 6, 400, 35, /*missing=*/0.05);
  ForestJobSpec spec;
  spec.num_trees = 8;
  spec.tree.max_depth = 9;
  spec.tree.impurity = Impurity::kVariance;
  spec.tree.split_method = SplitMethod::kHistogram;
  spec.tree.max_bins = 300;
  ExpectEnginesMatchSerial(t, spec, /*crash=*/true);
}

TEST(HistEngineParityTest, ClassificationWithMissingValuesAndWideBins) {
  DatasetProfile p;
  p.rows = 3000;
  p.num_numeric = 6;
  p.num_categorical = 2;
  p.num_classes = 3;
  p.noise = 0.08;
  p.missing_fraction = 0.1;
  DataTable t = GenerateTable(p, 12);

  ForestJobSpec spec;
  spec.num_trees = 3;
  spec.tree.max_depth = 8;
  spec.tree.split_method = SplitMethod::kHistogram;
  spec.tree.max_bins = 300;  // > 255: uint16 codes
  ExpectEnginesMatchSerial(t, spec);
}

TEST(HistEngineParityTest, NonIntegerRegressionWithCategoricalColumns) {
  // Non-integer targets: histogram sums round, so parent - sibling is
  // not a direct build. The serial trainer must then build every
  // regression histogram, as column tasks do, and take node statistics
  // from split outcomes, as the master does.
  DatasetProfile p;
  p.rows = 3000;
  p.num_numeric = 4;
  p.num_categorical = 4;
  p.num_classes = 0;
  p.noise = 0.2;
  p.missing_fraction = 0.05;
  DataTable t = GenerateTable(p, 19);

  ForestJobSpec spec;
  spec.num_trees = 3;
  spec.tree.max_depth = 9;
  spec.tree.impurity = Impurity::kVariance;
  spec.tree.split_method = SplitMethod::kHistogram;
  spec.tree.max_bins = 32;
  ExpectEnginesMatchSerial(t, spec);
}

TEST(HistEngineParityTest, RegressionWithMissingValuesAndWideBins) {
  // Integer targets keep every histogram sum exact; a 400-value grid
  // under 300 bins gives quantile bins with uint16 codes.
  DataTable t = GridRegTable(2500, 5, 400, 34, /*missing=*/0.1);
  ForestJobSpec spec;
  spec.num_trees = 2;
  spec.tree.max_depth = 8;
  spec.tree.impurity = Impurity::kVariance;
  spec.tree.split_method = SplitMethod::kHistogram;
  spec.tree.max_bins = 300;
  ExpectEnginesMatchSerial(t, spec);
}

}  // namespace
}  // namespace treeserver
