#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
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

TEST(HistTreeParityTest, ManyCategoryColumnsFallBackToTheExactKernel) {
  // A categorical column with > 64 categories is never binned; both
  // methods must run the identical one-vs-rest kernel on it.
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

// Histogram-mode subtree pulls carry bin codes, never 8-byte values.
void ExpectCodePulls(const PulledBytes& before) {
  const PulledBytes after = PulledBytes::Now();
  EXPECT_EQ(after.numeric, before.numeric)
      << "a histogram-mode pull shipped numeric values";
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
    for (const WorkerStats& w : cluster.GetEngineStats().workers) {
      if (!crash || w.worker != kVictim) {
        ExpectBinsOnlyOnHolders(cluster.master(), w);
      }
    }
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
