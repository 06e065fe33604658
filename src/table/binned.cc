#include "table/binned.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace treeserver {

namespace {

constexpr int kMinBins = 2;
constexpr int kMaxBins = 65535;

int ClampBins(int max_bins) {
  return std::max(kMinBins, std::min(kMaxBins, max_bins));
}

template <typename Code>
std::vector<Code> GatherCodes(const std::vector<Code>& codes,
                              const std::vector<uint32_t>& rows) {
  std::vector<Code> out(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) out[i] = codes[rows[i]];
  return out;
}

}  // namespace

uint16_t BinnedColumn::CodeOf(double v) const {
  if (IsMissingNumeric(v)) return static_cast<uint16_t>(missing_code());
  const std::vector<double>& upper = *upper_;
  // First bin whose upper bound is >= v. Values above the global max
  // (possible only for data outside the build set) clamp to the last
  // bin.
  size_t b = std::lower_bound(upper.begin(), upper.end(), v) - upper.begin();
  if (b >= upper.size()) b = upper.size() - 1;
  return static_cast<uint16_t>(b);
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

  std::vector<double> sorted;
  sorted.reserve(values.size());
  for (double v : values) {
    if (!IsMissingNumeric(v)) sorted.push_back(v);
  }
  std::sort(sorted.begin(), sorted.end());

  auto upper = std::make_shared<std::vector<double>>();
  if (!sorted.empty()) {
    std::vector<double> distinct;
    distinct.reserve(std::min<size_t>(sorted.size(),
                                      static_cast<size_t>(max_bins) + 1));
    for (double v : sorted) {
      if (distinct.empty() || v != distinct.back()) distinct.push_back(v);
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
        double v = sorted[rank == 0 ? 0 : rank - 1];
        if (upper->empty() || v != upper->back()) upper->push_back(v);
      }
      if (upper->back() != sorted.back()) upper->push_back(sorted.back());
    }
  }

  auto out = std::unique_ptr<BinnedColumn>(new BinnedColumn());
  out->num_bins_ = static_cast<int>(upper->size());
  out->upper_ = std::move(upper);
  out->wide_ = out->num_bins_ + 1 > 256;
  if (out->wide_) {
    out->codes16_.resize(values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      out->codes16_[i] = out->CodeOf(values[i]);
    }
  } else {
    out->codes8_.resize(values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      out->codes8_[i] = static_cast<uint8_t>(out->CodeOf(values[i]));
    }
  }
  return out;
}

std::unique_ptr<BinnedColumn> BinnedColumn::Gather(
    const std::vector<uint32_t>& rows) const {
  auto out = std::unique_ptr<BinnedColumn>(new BinnedColumn());
  out->num_bins_ = num_bins_;
  out->upper_ = upper_;  // shared global boundaries
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
  auto out = std::shared_ptr<BinnedTable>(new BinnedTable());
  out->max_bins_ = ClampBins(max_bins);
  out->columns_.resize(table.num_columns());
  const int target = table.schema().target_index();
  for (int c = 0; c < table.num_columns(); ++c) {
    if (c == target) continue;
    const ColumnPtr& col = table.column(c);
    if (col == nullptr || col->type() != DataType::kNumeric) continue;
    out->columns_[c] = BinnedColumn::Build(*col, out->max_bins_);
  }
  return out;
}

std::shared_ptr<const BinnedTable> BinnedTable::Gather(
    const std::vector<uint32_t>& rows, const std::vector<int>& columns) const {
  auto out = std::shared_ptr<BinnedTable>(new BinnedTable());
  out->max_bins_ = max_bins_;
  out->columns_.resize(columns_.size());
  for (int c : columns) {
    const BinnedColumn* bc = column(c);
    if (bc != nullptr) out->columns_[c] = bc->Gather(rows);
  }
  return out;
}

size_t BinnedTable::ByteSize() const {
  size_t total = 0;
  for (const auto& c : columns_) {
    if (c != nullptr) total += c->ByteSize();
  }
  return total;
}

}  // namespace treeserver
