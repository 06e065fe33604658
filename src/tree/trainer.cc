#include "tree/trainer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/trace.h"
#include "table/binned.h"
#include "tree/hist.h"

namespace treeserver {

void FillNodePrediction(const TargetStats& stats, TreeModel::Node* node) {
  node->n_rows = static_cast<uint32_t>(stats.Count());
  if (stats.kind == TaskKind::kClassification) {
    node->pmf = stats.cls.Pmf();
    node->label = stats.cls.Majority();
  } else {
    node->value = stats.reg.Mean();
  }
}

bool SplitBeats(const SplitOutcome& candidate, const SplitOutcome& incumbent) {
  if (!candidate.valid) return false;
  if (!incumbent.valid) return true;
  if (candidate.gain != incumbent.gain) {
    return candidate.gain > incumbent.gain;
  }
  return candidate.condition.column < incumbent.condition.column;
}

namespace {

struct Frame {
  int32_t node_id;
  size_t begin;
  size_t end;
  int depth;  // local depth within this (sub)tree
  // Histogram mode: this node's per-candidate-column histograms,
  // derived from the parent by sibling subtraction. Null means "build
  // from rows when (and if) the node is split".
  std::shared_ptr<NodeHists> hists;
  // The node's target statistics as its parent's split outcome
  // reported them (missing rows routed).
  TargetStats stats;
};

// Whether every regression target sum over `rows` is exact in doubles:
// integer targets with max|y|^2 * n < 2^53 keep each partial sum (and
// sum of squares) an exactly represented integer, so a histogram
// derived as parent - sibling is bit-identical to a direct build.
// Classification counts are integers and always exact.
bool ExactTargetSums(const Column& target, const SplitContext& ctx,
                     const std::vector<uint32_t>& rows) {
  if (ctx.kind == TaskKind::kClassification) return true;
  const double* y = target.numeric_values().data();
  double max_abs = 0.0;
  for (uint32_t r : rows) {
    const double v = y[r];
    if (!(std::floor(v) == v)) return false;  // fraction, NaN or inf
    max_abs = std::max(max_abs, std::fabs(v));
  }
  return max_abs * max_abs * static_cast<double>(rows.size()) < 0x1p53;
}

// Moves the rows of [begin, end) whose code `goes_left` accepts to the
// front; see StablePartition.

// Builds the per-column histograms of one node in one fused pass over
// its rows; unbinned entries stay empty.
std::shared_ptr<NodeHists> BuildNodeHists(const BinnedTable& binned,
                                          const Column& target,
                                          const std::vector<int>& candidates,
                                          const SplitContext& ctx,
                                          const uint32_t* rows, size_t n) {
  auto hists = std::make_shared<NodeHists>(candidates.size());
  std::vector<const BinnedColumn*> cols(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    cols[i] = binned.column(candidates[i]);  // nullptr → entry stays empty
  }
  NodeHistogram::BuildMany(cols.data(), cols.size(), target, ctx, rows, n,
                           hists->data());
  return hists;
}

// Moves the rows of [begin, end) that `routes_left` accepts to the
// front, both halves in their original order; returns the split point.
template <typename RoutesLeft>
size_t StablePartition(std::vector<uint32_t>* rows, size_t begin, size_t end,
                       std::vector<uint32_t>* scratch, RoutesLeft routes_left) {
  std::vector<uint32_t>& r = *rows;
  scratch->clear();
  scratch->reserve(end - begin);
  size_t write = begin;
  for (size_t i = begin; i < end; ++i) {
    if (routes_left(r[i])) {
      r[write++] = r[i];
    } else {
      scratch->push_back(r[i]);
    }
  }
  std::copy(scratch->begin(), scratch->end(), r.begin() + write);
  return write;
}

SplitOutcome FindNodeSplit(const DataTable& table, const uint32_t* rows,
                           size_t n, const std::vector<int>& candidates,
                           const SplitContext& ctx, const TreeConfig& config,
                           Rng* rng, const BinnedTable* binned,
                           const RankedTable* ranked,
                           const NodeHists* hists) {
  const ColumnPtr& target = table.target();
  SplitOutcome best;
  if (config.extra_trees) {
    // Completely-random tree: resample one column (|C| = 1) per node;
    // if its random split is degenerate (constant column), try other
    // columns in random order before giving up.
    TS_CHECK(rng != nullptr) << "extra_trees requires an rng";
    std::vector<int> order = candidates;
    rng->Shuffle(&order);
    for (int col : order) {
      SplitOutcome outcome = FindRandomSplit(*table.column(col), col, *target,
                                             ctx, rows, n, rng);
      if (outcome.valid) return outcome;
    }
    return best;
  }
  for (size_t i = 0; i < candidates.size(); ++i) {
    const int col = candidates[i];
    const BinnedColumn* bc = binned ? binned->column(col) : nullptr;
    const RankedColumn* rc = ranked ? ranked->column(col) : nullptr;
    SplitOutcome outcome;
    if (bc != nullptr && hists != nullptr && !(*hists)[i].empty()) {
      outcome = (*hists)[i].BestSplit(*bc, col, ctx);
    } else if (rc != nullptr) {
      outcome = FindBestNumericSplit(*table.column(col), *rc, col, *target,
                                     ctx, rows, n);
    } else {
      outcome = FindBestSplit(*table.column(col), col, *target, ctx, rows, n);
    }
    if (SplitBeats(outcome, best)) best = std::move(outcome);
  }
  return best;
}

}  // namespace

TreeModel TrainTree(const DataTable& table, std::vector<uint32_t> rows,
                    const std::vector<int>& candidate_columns,
                    const TreeConfig& config, Rng* rng,
                    const BinnedTable* binned, const RankedTable* ranked,
                    const TargetStats* root_stats) {
  const Schema& schema = table.schema();
  SplitContext ctx{schema.task_kind(), config.impurity, schema.num_classes()};
  TreeModel model(ctx.kind, ctx.num_classes);
  // Histogram mode: bin the table once if the caller didn't supply a
  // pre-built view. Extra-trees has no sorted scan to replace, so it
  // always uses the random kernel.
  const bool hist_mode =
      config.split_method == SplitMethod::kHistogram && !config.extra_trees;
  std::shared_ptr<const BinnedTable> owned_binned;
  if (hist_mode && binned == nullptr) {
    owned_binned = BinnedTable::Build(table, config.max_bins);
    binned = owned_binned.get();
  }
  if (!hist_mode) binned = nullptr;
  // Exact mode: rank each candidate column on first use, once for the
  // whole tree, unless the caller shares an index. Extra-trees draws
  // thresholds from [min, max] and needs no ranks.
  const bool exact_mode = !hist_mode && !config.extra_trees;
  std::optional<RankedTable> owned_ranked;
  if (exact_mode && ranked == nullptr) {
    ranked = &owned_ranked.emplace(table);
  }
  if (!exact_mode) ranked = nullptr;
  if (rows.empty()) {
    // Degenerate but well-defined: a single empty leaf.
    TreeModel::Node leaf;
    if (ctx.kind == TaskKind::kClassification) {
      leaf.pmf.assign(ctx.num_classes, 0.0f);
    }
    model.AddNode(std::move(leaf));
    return model;
  }

  const ColumnPtr& target = table.target();
  // Regression histograms are derived by subtraction only when that is
  // bit-identical to building them, so the result never depends on
  // which nodes a caller builds and which it derives.
  const bool derive_hists =
      binned != nullptr && ExactTargetSums(*target, ctx, rows);
  std::vector<Frame> stack;
  {
    // Only the root sums its rows; every other node takes its
    // statistics from its parent's split outcome, as the engine's
    // master does (it never sees a node's rows).
    TreeModel::Node root;
    int32_t id = model.AddNode(std::move(root));
    stack.push_back(Frame{id, 0, rows.size(), 0, nullptr,
                          root_stats != nullptr
                              ? *root_stats
                              : ComputeTargetStats(*target, ctx, rows.data(),
                                                   rows.size())});
  }

  std::vector<uint32_t> scratch;
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    const size_t n = f.end - f.begin;
    const uint32_t* row_ptr = rows.data() + f.begin;

    const int global_depth = config.base_depth + f.depth;
    bool leaf = f.stats.IsPure() || n <= config.min_leaf ||
                global_depth >= config.max_depth;
    TreeModel::Node& node = model.mutable_node(f.node_id);
    node.depth = static_cast<uint16_t>(f.depth);
    FillNodePrediction(f.stats, &node);
    if (!leaf) {
      if (binned != nullptr && f.hists == nullptr) {
        // Root (or a node whose histograms were skipped as a predicted
        // leaf): build from its rows.
        f.hists = BuildNodeHists(*binned, *target, candidate_columns, ctx,
                                 row_ptr, n);
      }
      SplitOutcome best;
      if (TraceEnabled()) {
        // Split-eval timing is trace-gated: when tracing is off the
        // hot path pays one relaxed atomic load per node.
        static Histogram* const split_eval_us =
            MetricsRegistry::Global().GetHistogram("trainer.split_eval_us");
        TraceSpan span(TraceCat::kSplitEval, "split-eval");
        span.SetArg("rows", static_cast<int64_t>(n));
        auto start = std::chrono::steady_clock::now();
        best = FindNodeSplit(table, row_ptr, n, candidate_columns, ctx,
                             config, rng, binned, ranked, f.hists.get());
        split_eval_us->Add(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count()));
      } else {
        best = FindNodeSplit(table, row_ptr, n, candidate_columns, ctx,
                             config, rng, binned, ranked, f.hists.get());
      }
      if (!best.valid || best.gain <= kMinSplitGain) {
        leaf = true;
      } else {
        // Stable partition of rows[f.begin, f.end) by the condition,
        // preserving relative order so the distributed engine (which
        // splits I_x the same way at the delegate worker) produces an
        // identical tree. A binned column partitions by code, so D_x
        // never needs its values: a numeric histogram threshold is a
        // bin's upper bound, so `v <= threshold` is
        // `code <= CodeOf(threshold)`, and a categorical column looks
        // its identity code up in a (cardinality + 1)-entry table.
        const SplitCondition& cond = best.condition;
        const BinnedColumn* split_bins =
            binned != nullptr ? binned->column(cond.column) : nullptr;
        size_t mid;
        if (split_bins == nullptr) {
          const Column& col = *table.column(cond.column);
          mid = cond.type == DataType::kNumeric
                    ? StablePartition(&rows, f.begin, f.end, &scratch,
                                      [&](uint32_t r) {
                                        return cond.TrainRoutesLeftNumeric(
                                            col.numeric_at(r));
                                      })
                    : StablePartition(&rows, f.begin, f.end, &scratch,
                                      [&](uint32_t r) {
                                        return cond.TrainRoutesLeftCategory(
                                            col.category_at(r));
                                      });
        } else {
          const int missing = split_bins->missing_code();
          std::vector<uint8_t> goes_left;
          if (split_bins->categorical()) {
            goes_left.resize(static_cast<size_t>(missing) + 1);
            for (int b = 0; b < missing; ++b) {
              goes_left[b] = cond.TrainRoutesLeftCategory(b);
            }
            goes_left[missing] = cond.missing_to_left;
          }
          const uint16_t cut = split_bins->categorical()
                                   ? 0
                                   : split_bins->CodeOf(cond.threshold);
          TS_DCHECK(split_bins->categorical() ||
                    split_bins->upper(cut) == cond.threshold)
              << "histogram threshold is not a bin boundary";
          const bool missing_left = cond.missing_to_left;
          auto partition = [&](const auto* codes) {
            if (!goes_left.empty()) {
              return StablePartition(
                  &rows, f.begin, f.end, &scratch,
                  [&](uint32_t r) { return goes_left[codes[r]] != 0; });
            }
            return StablePartition(
                &rows, f.begin, f.end, &scratch, [&](uint32_t r) {
                  const int code = codes[r];
                  return code == missing ? missing_left : code <= cut;
                });
          };
          mid = split_bins->wide() ? partition(split_bins->codes16_data())
                                   : partition(split_bins->codes8_data());
        }
        TS_DCHECK(mid > f.begin && mid < f.end)
            << "split produced an empty child";

        TreeModel::Node left_child;
        TreeModel::Node right_child;
        int32_t left_id = model.AddNode(std::move(left_child));
        int32_t right_id = model.AddNode(std::move(right_child));
        TreeModel::Node& parent = model.mutable_node(f.node_id);
        parent.condition = best.condition;
        parent.split_gain = best.gain;
        parent.left = left_id;
        parent.right = right_id;

        // Histogram mode: build only the smaller child's histograms
        // and derive the larger sibling as parent - smaller when that
        // is exact (derive_hists), else build both. Children that the
        // depth/min_leaf rules already make leaves skip histogram work
        // entirely.
        std::shared_ptr<NodeHists> left_hists;
        std::shared_ptr<NodeHists> right_hists;
        if (binned != nullptr) {
          const size_t nl = mid - f.begin;
          const size_t nr = f.end - mid;
          const bool child_depth_ok =
              config.base_depth + f.depth + 1 < config.max_depth;
          const bool need_left = child_depth_ok && nl > config.min_leaf;
          const bool need_right = child_depth_ok && nr > config.min_leaf;
          auto build = [&](bool left) {
            return BuildNodeHists(*binned, *target, candidate_columns, ctx,
                                  left ? row_ptr : rows.data() + mid,
                                  left ? nl : nr);
          };
          if (!derive_hists) {
            if (need_left) left_hists = build(true);
            if (need_right) right_hists = build(false);
          } else if (need_left || need_right) {
            const bool left_smaller = nl <= nr;
            std::shared_ptr<NodeHists>& smaller =
                left_smaller ? left_hists : right_hists;
            std::shared_ptr<NodeHists>& larger =
                left_smaller ? right_hists : left_hists;
            smaller = build(left_smaller);
            if (left_smaller ? need_right : need_left) {
              larger = std::make_shared<NodeHists>(candidate_columns.size());
              for (size_t i = 0; i < candidate_columns.size(); ++i) {
                if (!(*f.hists)[i].empty()) {
                  (*larger)[i] =
                      NodeHistogram::Subtract((*f.hists)[i], (*smaller)[i]);
                }
              }
            }
            if (left_smaller ? !need_left : !need_right) smaller.reset();
          }
        }
        // Right pushed first so the left child is processed next
        // (depth-first, left-to-right), matching B_plan's head-insert
        // order in the engine.
        stack.push_back(Frame{right_id, mid, f.end, f.depth + 1,
                              std::move(right_hists),
                              std::move(best.right_stats)});
        stack.push_back(Frame{left_id, f.begin, mid, f.depth + 1,
                              std::move(left_hists),
                              std::move(best.left_stats)});
      }
    }
  }
  return model;
}

TreeModel TrainTreeOnTable(const DataTable& table,
                           const std::vector<int>& candidate_columns,
                           const TreeConfig& config, Rng* rng,
                           const BinnedTable* binned,
                           const RankedTable* ranked) {
  std::vector<uint32_t> rows(table.num_rows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<uint32_t>(i);
  return TrainTree(table, std::move(rows), candidate_columns, config, rng,
                   binned, ranked);
}

}  // namespace treeserver
