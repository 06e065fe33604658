#ifndef TREESERVER_SERVE_COMPILED_MODEL_H_
#define TREESERVER_SERVE_COMPILED_MODEL_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "deepforest/deep_forest.h"
#include "forest/forest.h"
#include "table/data_table.h"
#include "table/datasets.h"
#include "tree/model.h"

namespace treeserver {

/// Raw column pointers for one table, resolved once per row block so
/// the traversal inner loop never touches a shared_ptr or a Column
/// accessor. Only the columns a compiled model actually splits on are
/// filled; the rest stay null (gathered subset tables may hold null
/// columns outside the candidate set).
struct RowBlockContext {
  std::vector<const double*> numeric;    // indexed by column id
  std::vector<const int32_t*> category;  // indexed by column id
};

/// A TreeModel flattened into structure-of-arrays node tables for
/// cache-friendly batched traversal.
///
/// Per-node state lives in parallel vectors (split column, threshold,
/// child offsets, depth, prediction outputs); categorical split sets
/// are compiled into bitmask words in a shared pool, turning the
/// per-step binary search of SplitCondition::RouteCategory into a
/// single bit test; leaf/internal PMFs live in one contiguous float
/// pool. Traversal semantics are *exactly* those of
/// TreeModel::Traverse, including the paper's predict-at-any-depth
/// routes (Appendix D): depth cutoff, missing value, and
/// unseen-category all stop at the current node and report its
/// prediction.
class CompiledTree {
 public:
  /// Flattens a trained (non-empty) tree.
  static CompiledTree Compile(const TreeModel& tree);

  TaskKind kind() const { return kind_; }
  int num_classes() const { return num_classes_; }
  size_t num_nodes() const { return col_.size(); }

  /// Column ids this tree splits on (sorted, unique), and the type
  /// each is split as (parallel to used_columns()).
  const std::vector<int32_t>& used_columns() const { return used_columns_; }
  const std::vector<DataType>& used_column_types() const {
    return used_types_;
  }

  /// Batched traversal: resolves the stop node of each row in `rows`
  /// and writes its index to `out_nodes[i]`. `ctx` must have been
  /// built (BuildContext) against the table the rows refer to.
  void RouteRows(const RowBlockContext& ctx, const uint32_t* rows, size_t n,
                 int max_depth, int32_t* out_nodes) const;

  /// Prediction outputs of a stop node (classification PMF pointer is
  /// `num_classes()` floats).
  const float* node_pmf(int32_t node) const {
    return pmf_pool() + static_cast<size_t>(node) * num_classes_;
  }
  int32_t node_label(int32_t node) const { return label_[node]; }
  double node_value(int32_t node) const { return value_[node]; }

  /// Prediction pools indexed by the node ids RouteRows emits.
  const float* pmf_pool() const { return pmf_pool_.data(); }
  const double* values() const { return value_.data(); }

  /// Fills `ctx` with raw pointers for `columns` of `table`.
  static void BuildContext(const DataTable& table,
                           const std::vector<int32_t>& columns,
                           RowBlockContext* ctx);

  /// Single-row convenience (tests / spot checks); returns the stop
  /// node index, matching TreeModel::Traverse on the same row.
  int32_t RouteRow(const DataTable& table, uint32_t row,
                   int max_depth = -1) const;

 private:
  TaskKind kind_ = TaskKind::kClassification;
  int num_classes_ = 0;

  // One entry per node, same indices as the source TreeModel.
  std::vector<int32_t> col_;        // split column; -1 marks a leaf
  std::vector<uint8_t> is_cat_;     // 1 = categorical split
  std::vector<double> threshold_;   // numeric splits
  std::vector<int32_t> left_;
  std::vector<int32_t> right_;
  std::vector<uint16_t> depth_;
  std::vector<int32_t> label_;
  std::vector<double> value_;
  std::vector<float> pmf_pool_;     // num_nodes * num_classes

  // Categorical split sets as bitmasks: node i's left set occupies
  // cat_words_[i] uint64 words at cat_offset_[i], immediately followed
  // by its seen set of the same width. A code beyond the mask is, by
  // construction, unseen.
  std::vector<uint32_t> cat_offset_;
  std::vector<uint32_t> cat_words_;
  std::vector<uint64_t> cat_pool_;

  std::vector<int32_t> used_columns_;
  std::vector<DataType> used_types_;
};

/// A ForestModel compiled for batched serving. Predictions are exactly
/// equal (bit-for-bit, same float accumulation order) to the
/// row-at-a-time ForestModel::PredictPmf / PredictLabel / PredictValue.
class CompiledForest {
 public:
  CompiledForest() = default;

  static CompiledForest Compile(const ForestModel& forest);
  /// A single tree served with forest-of-one semantics.
  static CompiledForest Compile(const TreeModel& tree);

  TaskKind kind() const { return kind_; }
  bool is_classification() const { return kind_ == TaskKind::kClassification; }
  int num_classes() const { return num_classes_; }
  size_t num_trees() const { return trees_.size(); }
  const CompiledTree& tree(size_t i) const { return trees_[i]; }

  /// Batched predictions over the rows `rows[0..n)` of `table`.
  /// `out_pmf` is row-major n x num_classes. All three match the
  /// ForestModel results exactly, including depth-cutoff routes.
  void PredictPmf(const DataTable& table, const uint32_t* rows, size_t n,
                  int max_depth, float* out_pmf) const;
  void PredictLabel(const DataTable& table, const uint32_t* rows, size_t n,
                    int max_depth, int32_t* out_labels) const;
  void PredictValue(const DataTable& table, const uint32_t* rows, size_t n,
                    int max_depth, double* out_values) const;

  /// Whole-table conveniences (rows [0, num_rows)), processed in
  /// cache-sized blocks.
  std::vector<int32_t> PredictLabels(const DataTable& table,
                                     int max_depth = -1) const;
  std::vector<double> PredictValues(const DataTable& table,
                                    int max_depth = -1) const;

  /// Single-row conveniences.
  std::vector<float> PredictPmfRow(const DataTable& table, uint32_t row,
                                   int max_depth = -1) const;
  int32_t PredictLabelRow(const DataTable& table, uint32_t row,
                          int max_depth = -1) const;
  double PredictValueRow(const DataTable& table, uint32_t row,
                         int max_depth = -1) const;

  const std::vector<int32_t>& used_columns() const { return used_columns_; }

  /// InvalidArgument unless `table` holds every column the forest
  /// splits on, with the type it was trained on. Predict* require a
  /// table that passes; servers check tables from outside once per
  /// batch.
  Status CheckColumns(const DataTable& table) const;

 private:
  TaskKind kind_ = TaskKind::kClassification;
  int num_classes_ = 0;
  std::vector<CompiledTree> trees_;
  std::vector<int32_t> used_columns_;  // union over trees
  std::vector<DataType> used_types_;   // parallel to used_columns_
};

/// A DeepForestModel (MGS windows + cascade layers) compiled for
/// batched serving: every forest in the pipeline becomes a
/// CompiledForest and re-representation runs through the batched PMF
/// path. Predict() returns exactly the labels of
/// DeepForestModel::Predict on the same images.
class CompiledCascade {
 public:
  static CompiledCascade Compile(const DeepForestModel& model);

  int num_classes() const { return num_classes_; }
  int num_layers() const { return static_cast<int>(cascade_.size()); }

  std::vector<int32_t> Predict(const ImageDataset& images,
                               int num_threads = 1) const;

 private:
  std::vector<int> window_sizes_;
  int stride_ = 2;
  int forests_per_layer_ = 2;
  int num_classes_ = 10;
  std::vector<std::vector<CompiledForest>> mgs_;      // [window][forest]
  std::vector<std::vector<CompiledForest>> cascade_;  // [layer][forest]
};

}  // namespace treeserver

#endif  // TREESERVER_SERVE_COMPILED_MODEL_H_
