#ifndef TREESERVER_TREE_HIST_H_
#define TREESERVER_TREE_HIST_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "table/binned.h"
#include "tree/split.h"

namespace treeserver {

/// One regression histogram bin: row count plus target sum and sum of
/// squares. Namespace-scope (not nested) so the SIMD kernels in
/// tree/hist_kernels.h can fill arrays of them directly.
struct HistRegBin {
  int64_t n = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
};

/// Per-node histogram of one binned column: class counts per bin
/// (classification) or (count, sum, sum of squares) per bin
/// (regression), with the missing bin last. Built in one O(n) pass
/// over the bin codes and scanned in O(bins) by BestSplit.
///
/// For a numeric column the scan mirrors the exact kernel's semantics
/// exactly — candidate cuts after each non-empty bin with data to its
/// right, strict-< improvement keeps the earliest cut, score over
/// non-missing rows, threshold = the largest actual column value in
/// the cut bin — so when every distinct value has its own bin
/// (distinct <= max_bins) the outcome reproduces the exact split bit
/// for bit (classification always; regression when target sums carry
/// no rounding, e.g. integer-valued targets). A categorical column's
/// bins are its categories, and BestCategoricalSplit is the only
/// categorical scan: exact mode builds the same per-category histogram
/// from the raw codes (BuildCategorical) and calls it too.
///
/// Sibling subtraction (the LightGBM trick): `parent - child` equals
/// the direct build of the other child. For classification the counts
/// are integers, so the identity is bit-exact and a derived histogram
/// is interchangeable with a built one. Regression sums re-associate,
/// so TrainTree derives a regression histogram only when its target
/// sums are exact (integer targets, max|y|^2 * n < 2^53), where the
/// identity is bit-exact too.
///
/// Accumulation runs through the kernels of tree/hist_kernels.h:
/// classification always through the scalar twin, regression through
/// the runtime-dispatched fused kernel (scalar / AVX2 / NEON,
/// common/simd.h). The vectorized regression kernel keeps one
/// accumulator per bin fed in row order, so the built histograms are
/// bit-identical across levels.
class NodeHistogram {
 public:
  NodeHistogram() = default;

  /// One O(n) pass over `rows` (nullptr = all rows [0, n)).
  static NodeHistogram Build(const BinnedColumn& binned, const Column& target,
                             const SplitContext& ctx, const uint32_t* rows,
                             size_t n);

  /// Builds the histograms of several columns of the same node. For
  /// regression this is one fused pass: the target is read once per row
  /// and up to four same-width columns accumulate together, numeric and
  /// categorical alike, which is where the SIMD kernel earns its keep;
  /// classification columns take one scalar pass each. `cols[i]` may be
  /// nullptr (unbinned column): `out[i]` stays empty. `out` must hold
  /// `num_cols` default-constructed entries. Results are bit-identical
  /// to per-column Build() calls at every SIMD level.
  static void BuildMany(const BinnedColumn* const* cols, size_t num_cols,
                        const Column& target, const SplitContext& ctx,
                        const uint32_t* rows, size_t n, NodeHistogram* out);

  /// Per-category histogram of the raw categorical column `feature`
  /// over `rows`, for the exact kernel: slot c holds category c and the
  /// last slot (cardinality) the missing rows. The same sums, in the
  /// same row order, as Build over the column's identity codes.
  static NodeHistogram BuildCategorical(const Column& feature,
                                        const Column& target,
                                        const SplitContext& ctx,
                                        const uint32_t* rows, size_t n);

  /// Derives the sibling: element-wise parent - child.
  static NodeHistogram Subtract(const NodeHistogram& parent,
                                const NodeHistogram& child);

  /// Best split of this column in O(bins); outcome fields and
  /// tie-breaks match FindBestSplit on the binned values. Runs
  /// BestCategoricalSplit for a categorical column.
  SplitOutcome BestSplit(const BinnedColumn& binned, int column_index,
                         const SplitContext& ctx) const;

  /// Best split of a categorical column from its per-category
  /// histogram (Appendix B): one-vs-rest over the categories present
  /// for classification (Case 3), the best prefix of the present
  /// categories sorted by mean target (Breiman, Case 2) for
  /// regression. Missing rows go to the larger child.
  SplitOutcome BestCategoricalSplit(int column_index,
                                    const SplitContext& ctx) const;

  /// True when default-constructed (column not binned at this node).
  bool empty() const { return slots_ == 0; }
  /// num_bins + 1: the missing bin is the last slot.
  int slots() const { return slots_; }
  /// Same shape (slot count and task kind), so Subtract is defined.
  bool CompatibleWith(const NodeHistogram& other) const {
    return slots_ == other.slots_ && num_classes_ == other.num_classes_;
  }
  /// Payload bytes, for task memory accounting.
  size_t ByteSize() const;

  /// Raw payloads, for the scalar-vs-SIMD parity tests (bit-exact
  /// comparisons) and kernel plumbing. Classification: slots() *
  /// num_classes entries, bin-major. Regression: slots() entries.
  const int64_t* cls_data() const { return cls_.data(); }
  size_t cls_size() const { return cls_.size(); }
  const HistRegBin* reg_data() const { return reg_.data(); }
  size_t reg_size() const { return reg_.size(); }

 private:
  int slots_ = 0;        // num_bins + 1 (missing bin last)
  int num_classes_ = 0;  // 0 for regression
  std::vector<int64_t> cls_;    // slots_ * num_classes_, bin-major
  std::vector<HistRegBin> reg_;  // slots_
};

/// A node's histograms, parallel to its candidate-column list; entries
/// for unbinned columns (more than 65535 categories) stay empty and
/// fall back to the exact kernel.
using NodeHists = std::vector<NodeHistogram>;

}  // namespace treeserver

#endif  // TREESERVER_TREE_HIST_H_
