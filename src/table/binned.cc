#include "table/binned.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "common/logging.h"
#include "table/radix_sort.h"

namespace treeserver {

namespace {

constexpr int kMinBins = 2;

int ClampBins(int max_bins) {
  return std::max(kMinBins, std::min(BinnedColumn::kMaxBins, max_bins));
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

// Sort items of the rank build: a 32-bit key half above a row id.
uint32_t RowOf(uint64_t item) { return static_cast<uint32_t>(item); }
uint32_t HalfOf(uint64_t item) { return static_cast<uint32_t>(item >> 32); }

// Writes rank_of[i] at the row of sorted item i; rows absent from
// `sorted` (missing values) keep `missing`.
template <typename Rank>
void ScatterRanks(const uint64_t* sorted, const uint32_t* rank_of, size_t k,
                  size_t num_rows, uint32_t missing,
                  std::vector<Rank>* ranks) {
  ranks->assign(num_rows, static_cast<Rank>(missing));
  Rank* out = ranks->data();
  for (size_t i = 0; i < k; ++i) {
    out[RowOf(sorted[i])] = static_cast<Rank>(rank_of[i]);
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

// Identity codes of a categorical column: the category, or
// `cardinality` for a missing cell.
template <typename Code>
void AssignCategoryCodes(const std::vector<int32_t>& cats, int32_t cardinality,
                         std::vector<Code>* codes) {
  codes->resize(cats.size());
  Code* out = codes->data();
  for (size_t i = 0; i < cats.size(); ++i) {
    const int32_t c = cats[i];
    out[i] = static_cast<Code>(c == kMissingCategory ? cardinality : c);
  }
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
  if (column.type() == DataType::kCategorical) {
    const int32_t card = column.cardinality();
    if (card > kMaxBins) return nullptr;
    auto out = std::unique_ptr<BinnedColumn>(new BinnedColumn());
    out->num_bins_ = card;
    out->wide_ = WideFor(static_cast<size_t>(card));
    out->categorical_ = true;
    if (out->wide_) {
      AssignCategoryCodes(column.categorical_codes(), card, &out->codes16_);
    } else {
      AssignCategoryCodes(column.categorical_codes(), card, &out->codes8_);
    }
    return out;
  }
  max_bins = ClampBins(max_bins);
  const std::vector<double>& values = column.numeric_values();

  std::vector<uint64_t> sorted;
  sorted.reserve(values.size());
  for (double v : values) {
    if (!IsMissingNumeric(v)) sorted.push_back(OrderedKey(v));
  }
  {
    std::vector<uint64_t> scratch(sorted.size());
    if (RadixSort(sorted.data(), scratch.data(), sorted.size(), 0, 64) !=
        sorted.data()) {
      sorted.swap(scratch);
    }
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

template <typename Code>
Result<std::unique_ptr<BinnedColumn>> BinnedColumn::FromCategoryCodes(
    int32_t cardinality, std::vector<Code> codes) {
  constexpr bool kWide = std::is_same_v<Code, uint16_t>;
  if (cardinality < 0 || cardinality > kMaxBins) {
    return Status::Corruption("category codes: cardinality out of range");
  }
  if (WideFor(static_cast<size_t>(cardinality)) != kWide) {
    return Status::Corruption("category codes: code width does not match");
  }
  TS_RETURN_IF_ERROR(CheckCodes(codes, static_cast<size_t>(cardinality)));
  auto out = std::unique_ptr<BinnedColumn>(new BinnedColumn());
  out->num_bins_ = cardinality;
  out->wide_ = kWide;
  out->categorical_ = true;
  if constexpr (kWide) {
    out->codes16_ = std::move(codes);
  } else {
    out->codes8_ = std::move(codes);
  }
  return out;
}

template Result<std::unique_ptr<BinnedColumn>>
BinnedColumn::FromCategoryCodes(int32_t, std::vector<uint8_t>);
template Result<std::unique_ptr<BinnedColumn>>
BinnedColumn::FromCategoryCodes(int32_t, std::vector<uint16_t>);

std::unique_ptr<BinnedColumn> BinnedColumn::Gather(
    const std::vector<uint32_t>& rows) const {
  auto out = std::unique_ptr<BinnedColumn>(new BinnedColumn());
  out->num_bins_ = num_bins_;
  out->upper_ = upper_;  // shared column boundaries
  out->wide_ = wide_;
  out->categorical_ = categorical_;
  if (wide_) {
    out->codes16_ = GatherCodes(codes16_, rows);
  } else {
    out->codes8_ = GatherCodes(codes8_, rows);
  }
  return out;
}

std::unique_ptr<RankedColumn> RankedColumn::Build(const Column& column) {
  TS_CHECK(column.type() == DataType::kNumeric)
      << "only numeric columns are ranked";
  const std::vector<double>& values = column.numeric_values();
  const size_t n = values.size();
  // Stage 1: radix-sort (high key half << 32 | row) items over the high
  // half. That moves 8-byte items through three passes, where sorting
  // (key, row) over the whole key would move 12 bytes through six.
  // Buffers are default-initialised: the sort writes every slot it
  // reads.
  std::unique_ptr<uint64_t[]> items(new uint64_t[n]);
  std::unique_ptr<uint64_t[]> scratch(new uint64_t[n]);
  size_t k = 0;
  for (size_t r = 0; r < n; ++r) {
    if (!IsMissingNumeric(values[r])) {
      items[k++] = OrderedKey(values[r]) >> 32 << 32 | r;
    }
  }
  uint64_t* sorted = RadixSort(items.get(), scratch.get(), k, 32, 32);

  // Stage 2: a run of equal high halves (rare in a continuous column)
  // is re-keyed by (low half << 32 | row) and sorted again, which keeps
  // equal keys in row order as stage 1 did. Then a rank starts at each
  // run and at each low-half change inside a run.
  std::unique_ptr<uint32_t[]> rank_of(new uint32_t[k]);
  uint32_t distinct = 0;
  for (size_t i = 0; i < k;) {
    size_t j = i + 1;
    while (j < k && HalfOf(sorted[j]) == HalfOf(sorted[i])) ++j;
    if (j - i > 1) {
      bool one_key = true;  // a run of duplicates is already in order
      for (size_t t = i; t < j; ++t) {
        const uint32_t row = RowOf(sorted[t]);
        sorted[t] = OrderedKey(values[row]) << 32 | row;
        one_key = one_key && HalfOf(sorted[t]) == HalfOf(sorted[i]);
      }
      if (!one_key) std::sort(sorted + i, sorted + j);
    }
    for (size_t t = i; t < j; ++t) {
      if (t == i || HalfOf(sorted[t]) != HalfOf(sorted[t - 1])) ++distinct;
      rank_of[t] = distinct - 1;
    }
    i = j;
  }

  auto out = std::unique_ptr<RankedColumn>(new RankedColumn());
  out->num_ranks_ = distinct;
  // The missing rank is `distinct` itself, so it must fit as well.
  if (distinct <= 0xFF) {
    out->width_ = 1;
    ScatterRanks(sorted, rank_of.get(), k, n, distinct, &out->ranks8_);
  } else if (distinct <= 0xFFFF) {
    out->width_ = 2;
    ScatterRanks(sorted, rank_of.get(), k, n, distinct, &out->ranks16_);
  } else {
    out->width_ = 4;
    ScatterRanks(sorted, rank_of.get(), k, n, distinct, &out->ranks32_);
  }
  return out;
}

RankedTable::RankedTable(const DataTable& table)
    : table_(table), slots_(new Slot[table.num_columns()]) {}

const RankedColumn* RankedTable::column(int i) const {
  if (i < 0 || i >= table_.num_columns() ||
      i == table_.schema().target_index()) {
    return nullptr;
  }
  const ColumnPtr& col = table_.column(i);
  if (col == nullptr || col->type() != DataType::kNumeric) return nullptr;
  Slot& slot = slots_[i];
  std::call_once(slot.once, [&] {
    slot.ranks = RankedColumn::Build(*col);
    slot.built.store(true, std::memory_order_release);
  });
  return slot.ranks.get();
}

std::vector<int32_t> RankedTable::ranked_columns() const {
  std::vector<int32_t> out;
  for (int i = 0; i < table_.num_columns(); ++i) {
    if (slots_[i].built.load(std::memory_order_acquire)) out.push_back(i);
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
    if (col != nullptr) columns[c] = BinnedColumn::Build(*col, max_bins);
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
