#ifndef TREESERVER_TABLE_BINNED_H_
#define TREESERVER_TABLE_BINNED_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "table/data_table.h"

namespace treeserver {

/// Quantile-binned view of one numeric column.
///
/// Every non-missing value is mapped to a bin code in [0, num_bins);
/// missing values map to the dedicated missing bin `num_bins`. Bin b
/// covers the value range (upper(b-1), upper(b)], where upper(b) is the
/// largest value of the column that falls into bin b — an actual data
/// value, so histogram split thresholds stay real observations exactly
/// like exact-mode thresholds. When the column has at most `max_bins`
/// distinct values each distinct value gets its own bin and binned
/// split finding degenerates to the exact algorithm.
///
/// Codes are stored as uint8 when num_bins + 1 (the missing bin) fits
/// in a byte, uint16 otherwise. Boundaries are shared (shared_ptr) so a
/// gathered subset reuses the full-column boundaries.
class BinnedColumn {
 public:
  /// Largest bin budget; a column never has more bins than this.
  static constexpr int kMaxBins = 65535;

  /// Builds bins + codes from a numeric column in linear time: an LSD
  /// radix sort of order-preserving integer keys of the non-missing
  /// values, then a branchless search of each value over the
  /// boundaries. Boundaries and codes are those of a comparison sort
  /// plus one lower_bound per value, with one refinement: −0.0 and
  /// +0.0 are the same key, so a zero boundary is always +0.0 (a
  /// comparison sort leaves the two in unspecified order). Codes do not
  /// depend on the sign, because −0.0 <= +0.0 and +0.0 <= −0.0.
  /// `max_bins` is clamped to [2, kMaxBins].
  static std::unique_ptr<BinnedColumn> Build(const Column& column,
                                             int max_bins);

  /// Reassembles a gathered column from its boundaries and codes, as
  /// received from the column's holder. Returns Corruption unless the
  /// boundaries are at most kMaxBins strictly ascending non-NaN values,
  /// every code is at most num_bins (the missing code) and `Code` is
  /// the width WideFor(num_bins) implies. Defined for uint8_t and
  /// uint16_t.
  template <typename Code>
  static Result<std::unique_ptr<BinnedColumn>> FromCodes(
      std::vector<double> boundaries, std::vector<Code> codes);

  /// Whether a column of `num_bins` value bins stores uint16 codes.
  static bool WideFor(size_t num_bins) { return num_bins + 1 > 256; }

  /// The codes of `rows`, in order: row i of the result carries
  /// code_at(rows[i]). Boundaries are shared, not copied.
  std::unique_ptr<BinnedColumn> Gather(const std::vector<uint32_t>& rows) const;

  /// Value bins (excluding the missing bin).
  int num_bins() const { return num_bins_; }
  /// Code used for missing values; also the histogram slot count is
  /// missing_code() + 1.
  int missing_code() const { return num_bins_; }
  size_t num_rows() const {
    return wide_ ? codes16_.size() : codes8_.size();
  }
  bool wide() const { return wide_; }

  uint16_t code_at(size_t row) const {
    return wide_ ? codes16_[row] : codes8_[row];
  }

  /// Raw code arrays for the SIMD kernels and the wire: exactly one is
  /// non-null, matching wide().
  const uint8_t* codes8_data() const {
    return wide_ ? nullptr : codes8_.data();
  }
  const uint16_t* codes16_data() const {
    return wide_ ? codes16_.data() : nullptr;
  }

  /// Largest column value in bin b — the split threshold "v <= upper".
  double upper(int bin) const { return (*upper_)[bin]; }
  /// All bin upper bounds; one vector shared by a column and its
  /// gathered subsets.
  const std::vector<double>& boundaries() const { return *upper_; }

  /// Bin code of a raw value (missing_code() for NaN). For a split
  /// threshold t = upper(b), `v <= t` holds exactly when
  /// CodeOf(v) <= CodeOf(t) = b, so rows partition by code.
  uint16_t CodeOf(double v) const;

  /// Payload bytes (codes + boundaries), for memory accounting.
  size_t ByteSize() const;

 private:
  BinnedColumn() = default;

  int num_bins_ = 0;
  bool wide_ = false;
  std::shared_ptr<const std::vector<double>> upper_;
  std::vector<uint8_t> codes8_;
  std::vector<uint16_t> codes16_;
};

/// Per-table bin index: one BinnedColumn per numeric feature column.
/// The serial trainer builds one per job and shares it read-only across
/// the job's trees; an engine worker instead bins each column it holds
/// on first use and assembles a subtree task's view from gathered codes
/// (FromColumns). Categorical columns and the target are not binned
/// (categorical split finding is already a per-category histogram).
class BinnedTable {
 public:
  /// Bins every numeric feature column of `table` (each in linear time,
  /// see BinnedColumn::Build).
  static std::shared_ptr<const BinnedTable> Build(const DataTable& table,
                                                  int max_bins);

  /// A view over already-binned columns: `columns[i]` is column i's
  /// index, nullptr when column i is not binned.
  static std::shared_ptr<const BinnedTable> FromColumns(
      std::vector<std::shared_ptr<const BinnedColumn>> columns);

  /// The binned view of column `i`, or nullptr when the column is not
  /// binned (categorical, target, or absent from a gathered subset).
  const BinnedColumn* column(int i) const {
    return i >= 0 && i < static_cast<int>(columns_.size())
               ? columns_[i].get()
               : nullptr;
  }

 private:
  BinnedTable() = default;

  std::vector<std::shared_ptr<const BinnedColumn>> columns_;
};

}  // namespace treeserver

#endif  // TREESERVER_TABLE_BINNED_H_
