#ifndef TREESERVER_TREE_TRAINER_H_
#define TREESERVER_TREE_TRAINER_H_

#include <vector>

#include "common/rng.h"
#include "table/data_table.h"
#include "tree/model.h"

namespace treeserver {

class BinnedTable;
class RankedTable;

/// Hyperparameters of a single decision tree.
struct TreeConfig {
  /// d_max: maximum node depth measured from the (global) root.
  int max_depth = 10;
  /// τ_leaf: a node with |D_x| <= min_leaf stops splitting.
  uint32_t min_leaf = 1;
  Impurity impurity = Impurity::kGini;
  /// Completely-random tree mode (Appendix F): one column resampled
  /// per node and a random split point.
  bool extra_trees = false;
  /// Depth of the subtree root inside the enclosing tree; subtree-tasks
  /// pass the node depth here so d_max keeps its global meaning.
  int base_depth = 0;
  /// Numeric split kernel. kExact (default) preserves the paper's
  /// exact-training guarantee; kHistogram scans pre-binned columns
  /// with sibling subtraction (ignored in extra_trees mode, which has
  /// no sorted scan to replace).
  SplitMethod split_method = SplitMethod::kExact;
  /// Bin budget per numeric column for kHistogram (clamped to
  /// [2, 65535]; <= 255 bins keeps uint8 codes).
  int max_bins = 255;
};

/// Exact, single-threaded decision tree training over the rows `rows`
/// of `table`, considering only `candidate_columns` (the sampled set C;
/// extra-trees resample from it per node).
///
/// This is both the reference implementation that the distributed
/// engine is validated against, and the code a subtree-task runs on
/// its gathered D_x. Deterministic: identical inputs (and rng state,
/// for extra-trees) give an identical tree.
///
/// In histogram mode `binned` supplies the pre-binned view of the
/// table's feature columns (numeric and categorical); when nullptr it
/// is built internally from `table` with `config.max_bins`. Histogram
/// mode reads a binned column only through its codes: splits come from
/// histograms and rows partition by code. A subtree task therefore
/// passes the codes of its gathered rows and leaves those columns null
/// in `table`.
///
/// In exact mode `ranked` supplies the rank index of `table`'s numeric
/// columns (shared across the trees of a job); when nullptr a lazy one
/// over `table` is made for this call, so each candidate column is
/// ranked once per call, not once per node. A subtree task relies on
/// that to rank its gathered D_x columns once per task.
///
/// Only the root's statistics are summed from its rows; every other
/// node takes them from its parent's split outcome, as the engine's
/// master must. `root_stats`, when given, replaces the root's sum too:
/// a subtree task passes the statistics its parent's split outcome
/// reported for the subtree root. In histogram mode a child's
/// histograms are derived as parent - sibling only when that is
/// bit-identical to building them (classification, or regression whose
/// targets over `rows` are integers with max|y|^2 * n < 2^53), so
/// forests match the engine's for any targets.
TreeModel TrainTree(const DataTable& table, std::vector<uint32_t> rows,
                    const std::vector<int>& candidate_columns,
                    const TreeConfig& config, Rng* rng = nullptr,
                    const BinnedTable* binned = nullptr,
                    const RankedTable* ranked = nullptr,
                    const TargetStats* root_stats = nullptr);

/// Trains over every row of the table.
TreeModel TrainTreeOnTable(const DataTable& table,
                           const std::vector<int>& candidate_columns,
                           const TreeConfig& config, Rng* rng = nullptr,
                           const BinnedTable* binned = nullptr,
                           const RankedTable* ranked = nullptr);

/// Builds the node prediction fields (PMF/label or mean) from target
/// statistics. Shared by the serial trainer and the engine's master.
void FillNodePrediction(const TargetStats& stats, TreeModel::Node* node);

/// Picks the better of two split outcomes under the deterministic
/// tie-break rule (higher gain wins; equal gain -> lower column index).
/// Returns true if `candidate` beats `incumbent`.
bool SplitBeats(const SplitOutcome& candidate, const SplitOutcome& incumbent);

/// Minimum gain for a split to be accepted (guards against splits that
/// only shuffle rounding error).
inline constexpr double kMinSplitGain = 1e-12;

}  // namespace treeserver

#endif  // TREESERVER_TREE_TRAINER_H_
