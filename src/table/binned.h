#ifndef TREESERVER_TABLE_BINNED_H_
#define TREESERVER_TABLE_BINNED_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "table/data_table.h"

namespace treeserver {

/// Bin-code view of one feature column, the index every histogram
/// split reads.
///
/// A numeric column is quantile-binned: every non-missing value maps to
/// a bin code in [0, num_bins), and bin b covers the value range
/// (upper(b-1), upper(b)], where upper(b) is the largest value of the
/// column that falls into bin b — an actual data value, so histogram
/// split thresholds stay real observations exactly like exact-mode
/// thresholds. When the column has at most `max_bins` distinct values
/// each distinct value gets its own bin and binned split finding
/// degenerates to the exact algorithm.
///
/// A categorical column holds identity codes: the code of a cell is its
/// category, num_bins() is the cardinality, and no boundaries are kept.
/// Its histogram is exactly the per-category table the exact
/// one-vs-rest and Breiman scans read, so both split methods agree.
///
/// Either way missing cells map to the dedicated missing bin
/// `num_bins`, and codes are stored as uint8 when num_bins + 1 fits in
/// a byte, uint16 otherwise. Numeric boundaries are shared (shared_ptr)
/// so a gathered subset reuses the full-column boundaries.
class BinnedColumn {
 public:
  /// Largest bin budget; a column never has more bins than this.
  static constexpr int kMaxBins = 65535;

  /// Builds the codes of a feature column in linear time.
  ///
  /// Numeric: an LSD radix sort of order-preserving integer keys of the
  /// non-missing values, then a branchless search of each value over
  /// the boundaries. Boundaries and codes are those of a comparison
  /// sort plus one lower_bound per value, with one refinement: −0.0
  /// and +0.0 are the same key, so a zero boundary is always +0.0 (a
  /// comparison sort leaves the two in unspecified order). Codes do not
  /// depend on the sign, because −0.0 <= +0.0 and +0.0 <= −0.0.
  /// `max_bins` is clamped to [2, kMaxBins].
  ///
  /// Categorical: one copy of the category codes, ignoring `max_bins`.
  /// Returns nullptr for a column of more than kMaxBins categories,
  /// which no code width holds; it stays on the exact kernel.
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

  /// Reassembles a gathered categorical column from its cardinality and
  /// identity codes. Returns Corruption unless 0 <= cardinality <=
  /// kMaxBins, `Code` is the width WideFor(cardinality) implies and
  /// every code is at most cardinality (the missing code). Defined for
  /// uint8_t and uint16_t.
  template <typename Code>
  static Result<std::unique_ptr<BinnedColumn>> FromCategoryCodes(
      int32_t cardinality, std::vector<Code> codes);

  /// Whether a column of `num_bins` value bins stores uint16 codes.
  static bool WideFor(size_t num_bins) { return num_bins + 1 > 256; }

  /// The codes of `rows`, in order: row i of the result carries
  /// code_at(rows[i]). Boundaries are shared, not copied.
  std::unique_ptr<BinnedColumn> Gather(const std::vector<uint32_t>& rows) const;

  /// Identity codes of a categorical column (no boundaries).
  bool categorical() const { return categorical_; }
  /// Value bins (excluding the missing bin); the cardinality of a
  /// categorical column.
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
  /// Numeric columns only, like boundaries() and CodeOf().
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
  bool categorical_ = false;
  std::shared_ptr<const std::vector<double>> upper_;  // null if categorical
  std::vector<uint8_t> codes8_;
  std::vector<uint16_t> codes16_;
};

/// Per-table bin index: one BinnedColumn per feature column, numeric
/// (quantile bins) and categorical (identity codes) alike, so one
/// histogram path serves every feature in histogram mode. The serial
/// trainer builds one per job and shares it read-only across the job's
/// trees; an engine worker instead bins each column it holds on first
/// use and assembles a subtree task's view from gathered codes
/// (FromColumns). The target is not binned, nor is a categorical
/// column of more than kMaxBins categories.
class BinnedTable {
 public:
  /// Bins every feature column of `table` (each in linear time, see
  /// BinnedColumn::Build).
  static std::shared_ptr<const BinnedTable> Build(const DataTable& table,
                                                  int max_bins);

  /// A view over already-binned columns: `columns[i]` is column i's
  /// index, nullptr when column i is not binned.
  static std::shared_ptr<const BinnedTable> FromColumns(
      std::vector<std::shared_ptr<const BinnedColumn>> columns);

  /// The binned view of column `i`, or nullptr when the column is not
  /// binned (target, too many categories, or absent from a gathered
  /// subset).
  const BinnedColumn* column(int i) const {
    return i >= 0 && i < static_cast<int>(columns_.size())
               ? columns_[i].get()
               : nullptr;
  }

 private:
  BinnedTable() = default;

  std::vector<std::shared_ptr<const BinnedColumn>> columns_;
};

/// Rank index of one numeric column, for exact split finding.
///
/// Every non-missing cell holds its rank among the column's sorted
/// distinct values: equal values share a rank and a < b exactly when
/// rank(a) < rank(b), so a split "v <= t" with t the value of rank r
/// sends left exactly the rows of rank <= r. −0.0 and +0.0 are equal
/// and share a rank. Missing cells hold missing_rank() = num_ranks().
/// Ranks are stored in the narrowest of uint8, uint16 and uint32 that
/// holds missing_rank(). No table of distinct values is kept: a split
/// at rank r reads its threshold from any row of rank r.
class RankedColumn {
 public:
  /// Ranks a numeric column in linear time: an LSD radix sort of the
  /// non-missing values' (high key half, row id) pairs, then each run
  /// of equal high halves ordered by the low half, then one pass over
  /// the sorted rows.
  static std::unique_ptr<RankedColumn> Build(const Column& column);

  /// Distinct non-missing values (value ranks are [0, num_ranks)).
  uint32_t num_ranks() const { return num_ranks_; }
  uint32_t missing_rank() const { return num_ranks_; }
  /// Bytes per stored rank: 1, 2 or 4.
  int width() const { return width_; }

  /// Calls `f` with the typed rank array (const uint8_t*, const
  /// uint16_t* or const uint32_t*, by width()) and returns its result,
  /// so a kernel is instantiated once per width.
  template <typename F>
  decltype(auto) Visit(F&& f) const {
    if (width_ == 1) return f(ranks8_.data());
    if (width_ == 2) return f(ranks16_.data());
    return f(ranks32_.data());
  }

  uint32_t rank_at(size_t row) const {
    return Visit([row](const auto* ranks) -> uint32_t { return ranks[row]; });
  }

 private:
  RankedColumn() = default;

  uint32_t num_ranks_ = 0;
  int width_ = 1;
  std::vector<uint8_t> ranks8_;
  std::vector<uint16_t> ranks16_;
  std::vector<uint32_t> ranks32_;
};

/// Lazy per-table rank index: column i is ranked on the first
/// column(i) call, under a per-column once_flag (concurrent first
/// callers wait for one build; callers of other columns do not wait),
/// and shared read-only after. Nothing is built at construction. The
/// serial trainer keeps one per job, an engine worker one over the
/// columns it holds, and a subtree task one over its gathered D_x.
/// `table` must outlive the index.
class RankedTable {
 public:
  explicit RankedTable(const DataTable& table);

  /// Column i's ranks, or nullptr when column i is not a numeric
  /// feature column of the table (categorical, target, absent).
  const RankedColumn* column(int i) const;

  /// Columns ranked so far, ascending.
  std::vector<int32_t> ranked_columns() const;

 private:
  struct Slot {
    std::once_flag once;
    std::unique_ptr<const RankedColumn> ranks;
    std::atomic<bool> built{false};  // for ranked_columns()
  };

  const DataTable& table_;
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace treeserver

#endif  // TREESERVER_TABLE_BINNED_H_
