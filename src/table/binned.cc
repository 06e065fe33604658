#include "table/binned.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "common/logging.h"

namespace treeserver {

namespace {

constexpr int kMinBins = 2;

int ClampBins(int max_bins) {
  return std::max(kMinBins, std::min(BinnedColumn::kMaxBins, max_bins));
}

constexpr uint64_t kSignBit = uint64_t{1} << 63;

// Order-preserving map of a non-NaN double to an unsigned key: a < b
// exactly when OrderedKey(a) < OrderedKey(b). Positive values get the
// sign bit set; negative values are bit-inverted, so larger magnitudes
// sort lower. −0.0 is folded into +0.0 first.
uint64_t OrderedKey(double v) {
  if (v == 0.0) v = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

double FromOrderedKey(uint64_t key) {
  const uint64_t bits = (key & kSignBit) != 0 ? key & ~kSignBit : ~key;
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

// LSD radix sort of `keys`, one byte per pass. One read pass counts all
// eight digits; a pass whose digit is the same for every key moves
// nothing and is skipped (the sign and exponent bytes of a column's
// values rarely vary much). `scratch` is the other ping-pong buffer.
void RadixSort(std::vector<uint64_t>* keys, std::vector<uint64_t>* scratch) {
  const size_t n = keys->size();
  if (n < 2) return;
  scratch->resize(n);
  std::array<std::array<size_t, 256>, 8> counts{};
  for (uint64_t k : *keys) {
    for (int p = 0; p < 8; ++p) ++counts[p][(k >> (8 * p)) & 0xFF];
  }
  uint64_t* src = keys->data();
  uint64_t* dst = scratch->data();
  for (int p = 0; p < 8; ++p) {
    std::array<size_t, 256>& offset = counts[p];
    const int shift = 8 * p;
    if (offset[(src[0] >> shift) & 0xFF] == n) continue;
    size_t sum = 0;
    for (size_t& c : offset) {
      const size_t count = c;
      c = sum;
      sum += count;
    }
    for (size_t i = 0; i < n; ++i) {
      const uint64_t k = src[i];
      dst[offset[(k >> shift) & 0xFF]++] = k;
    }
    std::swap(src, dst);
  }
  if (src != keys->data()) keys->swap(*scratch);
}

// std::lower_bound over upper[0, nb) without a data-dependent branch
// (the comparison feeds a conditional move), clamped to the last bin:
// values above the max (possible only for data outside the build set)
// land there. nb >= 1.
size_t SearchBins(const double* upper, size_t nb, double v) {
  const double* base = upper;
  size_t len = nb;
  while (len > 1) {
    const size_t half = len / 2;
    base = base[half] < v ? base + half : base;
    len -= half;
  }
  const size_t b = static_cast<size_t>(base - upper) + (*base < v ? 1 : 0);
  return b < nb ? b : nb - 1;
}

template <typename Code>
void AssignCodes(const std::vector<double>& values,
                 const std::vector<double>& upper, std::vector<Code>* codes) {
  const Code missing = static_cast<Code>(upper.size());
  codes->resize(values.size());
  Code* out = codes->data();
  if (upper.empty()) {
    std::fill(codes->begin(), codes->end(), missing);
    return;
  }
  const double* u = upper.data();
  const size_t nb = upper.size();
  for (size_t i = 0; i < values.size(); ++i) {
    const double v = values[i];
    const Code b = static_cast<Code>(SearchBins(u, nb, v));
    out[i] = IsMissingNumeric(v) ? missing : b;
  }
}

template <typename Code>
std::vector<Code> GatherCodes(const std::vector<Code>& codes,
                              const std::vector<uint32_t>& rows) {
  std::vector<Code> out(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) out[i] = codes[rows[i]];
  return out;
}

Status CheckBoundaries(const std::vector<double>& upper, bool wide) {
  if (upper.size() > static_cast<size_t>(BinnedColumn::kMaxBins)) {
    return Status::Corruption("binned column: more than 65535 bins");
  }
  for (size_t b = 0; b < upper.size(); ++b) {
    if (std::isnan(upper[b]) || (b > 0 && !(upper[b - 1] < upper[b]))) {
      return Status::Corruption(
          "binned column: boundaries not strictly ascending");
    }
  }
  if (BinnedColumn::WideFor(upper.size()) != wide) {
    return Status::Corruption("binned column: code width does not match");
  }
  return Status::OK();
}

template <typename Code>
Status CheckCodes(const std::vector<Code>& codes, size_t num_bins) {
  Code max_code = 0;
  for (Code c : codes) max_code = std::max(max_code, c);
  if (max_code > num_bins) {
    return Status::Corruption("binned column: code beyond the missing bin");
  }
  return Status::OK();
}

}  // namespace

uint16_t BinnedColumn::CodeOf(double v) const {
  if (IsMissingNumeric(v)) return static_cast<uint16_t>(missing_code());
  return static_cast<uint16_t>(SearchBins(upper_->data(), upper_->size(), v));
}

size_t BinnedColumn::ByteSize() const {
  return codes8_.size() * sizeof(uint8_t) +
         codes16_.size() * sizeof(uint16_t) +
         (upper_ ? upper_->size() * sizeof(double) : 0);
}

std::unique_ptr<BinnedColumn> BinnedColumn::Build(const Column& column,
                                                  int max_bins) {
  TS_CHECK(column.type() == DataType::kNumeric)
      << "only numeric columns are binned";
  max_bins = ClampBins(max_bins);
  const std::vector<double>& values = column.numeric_values();

  std::vector<uint64_t> sorted;
  sorted.reserve(values.size());
  for (double v : values) {
    if (!IsMissingNumeric(v)) sorted.push_back(OrderedKey(v));
  }
  {
    std::vector<uint64_t> scratch;
    RadixSort(&sorted, &scratch);
  }

  auto upper = std::make_shared<std::vector<double>>();
  if (!sorted.empty()) {
    std::vector<double> distinct;
    distinct.reserve(std::min<size_t>(sorted.size(),
                                      static_cast<size_t>(max_bins) + 1));
    for (size_t i = 0; i < sorted.size(); ++i) {
      if (i == 0 || sorted[i] != sorted[i - 1]) {
        distinct.push_back(FromOrderedKey(sorted[i]));
      }
      if (distinct.size() > static_cast<size_t>(max_bins)) break;
    }
    if (distinct.size() <= static_cast<size_t>(max_bins)) {
      // Few distinct values: one bin per value, binned == exact.
      *upper = std::move(distinct);
    } else {
      // Quantile cuts: bin b's upper bound is the value at rank
      // (b+1) * k / max_bins - 1, deduplicated (heavy values swallow
      // neighbouring quantiles). The last cut is always the max.
      const size_t k = sorted.size();
      upper->reserve(max_bins);
      for (int b = 0; b < max_bins; ++b) {
        size_t rank =
            (static_cast<size_t>(b) + 1) * k / static_cast<size_t>(max_bins);
        double v = FromOrderedKey(sorted[rank == 0 ? 0 : rank - 1]);
        if (upper->empty() || v != upper->back()) upper->push_back(v);
      }
      const double max_v = FromOrderedKey(sorted.back());
      if (upper->back() != max_v) upper->push_back(max_v);
    }
  }
  std::vector<uint64_t>().swap(sorted);  // free before the codes

  auto out = std::unique_ptr<BinnedColumn>(new BinnedColumn());
  out->num_bins_ = static_cast<int>(upper->size());
  out->wide_ = WideFor(out->num_bins_);
  if (out->wide_) {
    AssignCodes(values, *upper, &out->codes16_);
  } else {
    AssignCodes(values, *upper, &out->codes8_);
  }
  out->upper_ = std::move(upper);
  return out;
}

template <typename Code>
Result<std::unique_ptr<BinnedColumn>> BinnedColumn::FromCodes(
    std::vector<double> boundaries, std::vector<Code> codes) {
  constexpr bool kWide = std::is_same_v<Code, uint16_t>;
  TS_RETURN_IF_ERROR(CheckBoundaries(boundaries, kWide));
  TS_RETURN_IF_ERROR(CheckCodes(codes, boundaries.size()));
  auto out = std::unique_ptr<BinnedColumn>(new BinnedColumn());
  out->num_bins_ = static_cast<int>(boundaries.size());
  out->wide_ = kWide;
  out->upper_ =
      std::make_shared<const std::vector<double>>(std::move(boundaries));
  if constexpr (kWide) {
    out->codes16_ = std::move(codes);
  } else {
    out->codes8_ = std::move(codes);
  }
  return out;
}

template Result<std::unique_ptr<BinnedColumn>> BinnedColumn::FromCodes(
    std::vector<double>, std::vector<uint8_t>);
template Result<std::unique_ptr<BinnedColumn>> BinnedColumn::FromCodes(
    std::vector<double>, std::vector<uint16_t>);

std::unique_ptr<BinnedColumn> BinnedColumn::Gather(
    const std::vector<uint32_t>& rows) const {
  auto out = std::unique_ptr<BinnedColumn>(new BinnedColumn());
  out->num_bins_ = num_bins_;
  out->upper_ = upper_;  // shared column boundaries
  out->wide_ = wide_;
  if (wide_) {
    out->codes16_ = GatherCodes(codes16_, rows);
  } else {
    out->codes8_ = GatherCodes(codes8_, rows);
  }
  return out;
}

std::shared_ptr<const BinnedTable> BinnedTable::Build(const DataTable& table,
                                                      int max_bins) {
  std::vector<std::shared_ptr<const BinnedColumn>> columns(
      table.num_columns());
  const int target = table.schema().target_index();
  for (int c = 0; c < table.num_columns(); ++c) {
    if (c == target) continue;
    const ColumnPtr& col = table.column(c);
    if (col == nullptr || col->type() != DataType::kNumeric) continue;
    columns[c] = BinnedColumn::Build(*col, max_bins);
  }
  return FromColumns(std::move(columns));
}

std::shared_ptr<const BinnedTable> BinnedTable::FromColumns(
    std::vector<std::shared_ptr<const BinnedColumn>> columns) {
  auto out = std::shared_ptr<BinnedTable>(new BinnedTable());
  out->columns_ = std::move(columns);
  return out;
}

}  // namespace treeserver
