#ifndef TREESERVER_TREE_SPLIT_H_
#define TREESERVER_TREE_SPLIT_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/serial.h"
#include "table/data_table.h"
#include "tree/impurity.h"

namespace treeserver {

class RankedColumn;

/// A node's split-condition (Section II): "A_i <= v" for ordinal
/// attributes, "A_i in S_l" for categorical attributes.
///
/// Besides the condition itself we record `seen_categories` (the
/// categories present in D_x during training) so prediction can detect
/// values unseen during training and stop early at this node, and
/// `missing_to_left` so training-time missing routing is replayed.
struct SplitCondition {
  int32_t column = -1;
  DataType type = DataType::kNumeric;
  double threshold = 0.0;
  std::vector<int32_t> left_categories;  // sorted
  std::vector<int32_t> seen_categories;  // sorted
  bool missing_to_left = false;

  bool valid() const { return column >= 0; }

  /// Where a value sends a row. kStop means the traversal should stop
  /// at this node and report its prediction (missing or unseen value,
  /// Appendix D).
  enum class Route : uint8_t { kLeft, kRight, kStop };

  Route RouteNumeric(double v) const;
  Route RouteCategory(int32_t code) const;

  /// Training-time routing used when partitioning D_x into children:
  /// missing values follow `missing_to_left` instead of stopping.
  bool TrainRoutesLeftNumeric(double v) const {
    return IsMissingNumeric(v) ? missing_to_left : v <= threshold;
  }
  bool TrainRoutesLeftCategory(int32_t code) const;

  void Serialize(BinaryWriter* w) const;
  static Status Deserialize(BinaryReader* r, SplitCondition* out);

  bool operator==(const SplitCondition& other) const;
};

/// Sufficient statistics of the target over a row set; covers both
/// learning tasks. These travel in column-task responses so the master
/// can decide child leaf-ness and predictions without seeing rows.
struct TargetStats {
  TaskKind kind = TaskKind::kClassification;
  ClassStats cls;
  RegStats reg;

  static TargetStats Classification(int num_classes) {
    TargetStats s;
    s.kind = TaskKind::kClassification;
    s.cls = ClassStats(num_classes);
    return s;
  }
  static TargetStats Regression() {
    TargetStats s;
    s.kind = TaskKind::kRegression;
    return s;
  }

  int64_t Count() const {
    return kind == TaskKind::kClassification ? cls.n : reg.n;
  }
  bool IsPure() const {
    return kind == TaskKind::kClassification ? cls.IsPure() : reg.IsPure();
  }
  double ImpurityValue(Impurity impurity) const {
    return kind == TaskKind::kClassification ? cls.ImpurityValue(impurity)
                                             : reg.Variance();
  }
  void Merge(const TargetStats& other) {
    if (kind == TaskKind::kClassification) {
      cls.Merge(other.cls);
    } else {
      reg.Merge(other.reg);
    }
  }

  void Serialize(BinaryWriter* w) const;
  static Status Deserialize(BinaryReader* r, TargetStats* out);
};

/// Everything a split finder reports for one attribute: the best
/// condition, its gain, and the resulting child statistics (with
/// missing rows already routed). n_left/n_right are what the engine
/// compares against τ_D / τ_dfs for the child tasks.
struct SplitOutcome {
  bool valid = false;
  SplitCondition condition;
  /// Impurity decrease: imp(parent) - weighted child impurity, over all
  /// rows of the node. Non-positive outcomes are rejected by trainers.
  double gain = 0.0;
  TargetStats left_stats;
  TargetStats right_stats;

  int64_t n_left() const { return left_stats.Count(); }
  int64_t n_right() const { return right_stats.Count(); }

  void Serialize(BinaryWriter* w) const;
  static Status Deserialize(BinaryReader* r, SplitOutcome* out);
};

/// Task-level configuration shared by every split computation.
struct SplitContext {
  TaskKind kind = TaskKind::kClassification;
  Impurity impurity = Impurity::kGini;
  int num_classes = 0;
};

/// How numeric splits are found. kExact scores every cut between
/// distinct values — the paper's exact-training guarantee and the
/// default everywhere: each numeric column is ranked once (RankedColumn,
/// table/binned.h) and a node radix-sorts its rows' integer ranks, not
/// their values. kHistogram scans pre-binned columns (table/binned.h,
/// tree/hist.h) in O(n + bins); with max_bins >= the number of distinct
/// values it degenerates to the exact algorithm.
enum class SplitMethod : uint8_t {
  kExact = 0,
  kHistogram = 1,
};

const char* SplitMethodName(SplitMethod method);

/// Fills the split condition's missing-routing bookkeeping and computes
/// the final gain once the children (over non-missing rows) are known:
/// missing rows are routed to the larger child, then gain is measured
/// over all rows. Shared by the exact, random, and histogram kernels so
/// every split method agrees on missing handling and gain.
void FinishSplitOutcome(const SplitContext& ctx, const TargetStats& missing,
                        SplitOutcome* out);

/// Target statistics over `rows` of the target column (`rows` may be
/// nullptr to mean all rows [0, n)).
TargetStats ComputeTargetStats(const Column& target, const SplitContext& ctx,
                               const uint32_t* rows, size_t n);

/// Finds the exact best split of one attribute over the given rows
/// (Appendix B): one sorted pass for ordinal attributes, Breiman's
/// sorted-group pass for categorical regression, and one-vs-rest
/// enumeration for categorical classification; both categorical cases
/// scan a per-category histogram (NodeHistogram::BuildCategorical and
/// BestCategoricalSplit, tree/hist.h). Rows with a missing
/// attribute value are excluded from scoring and routed to the larger
/// child afterwards. A numeric feature is ranked inside the call (O(N)
/// over the whole column); callers that split one column at many nodes
/// rank it once and call FindBestNumericSplit.
SplitOutcome FindBestSplit(const Column& feature, int column_index,
                           const Column& target, const SplitContext& ctx,
                           const uint32_t* rows, size_t n);

/// The exact best split of numeric `feature` over `rows`, given its rank
/// index (`ranks` = RankedColumn::Build(feature)). The node's (rank, y)
/// keys are radix-sorted over the rank's bytes and scanned once; the
/// cut after rank r has threshold = the value of rank r, read from the
/// column at a node row of that rank (+0.0 for a zero).
SplitOutcome FindBestNumericSplit(const Column& feature,
                                  const RankedColumn& ranks, int column_index,
                                  const Column& target,
                                  const SplitContext& ctx,
                                  const uint32_t* rows, size_t n);

/// Extra-trees variant: a uniformly random threshold in [min, max] for
/// ordinal attributes, or a random nonempty proper subset of the seen
/// categories (Appendix F).
SplitOutcome FindRandomSplit(const Column& feature, int column_index,
                             const Column& target, const SplitContext& ctx,
                             const uint32_t* rows, size_t n, Rng* rng);

}  // namespace treeserver

#endif  // TREESERVER_TREE_SPLIT_H_
