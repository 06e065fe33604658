#include "tree/hist.h"

#include <algorithm>
#include <limits>
#include <type_traits>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/simd.h"
#include "tree/hist_kernels.h"

namespace treeserver {

namespace {

Counter* BuildsCounter() {
  static Counter* const c =
      MetricsRegistry::Global().GetCounter("split.histogram_builds");
  return c;
}

Counter* SubtractionsCounter() {
  static Counter* const c =
      MetricsRegistry::Global().GetCounter("split.sibling_subtractions");
  return c;
}

template <typename Code>
void RunRegChunk(SimdLevel level, const Code* const* codes, size_t m,
                 const double* y, const uint32_t* rows, size_t n,
                 const int* slots, HistRegBin* const* bins, bool fuse_ok) {
  if (fuse_ok) {
#if TS_SIMD_ENABLED && (defined(__x86_64__) || defined(_M_X64))
    if (level == SimdLevel::kAvx2) {
      histk::RegFusedAvx2(codes, m, y, rows, n, slots, bins);
      return;
    }
#endif
#if TS_SIMD_ENABLED && defined(__aarch64__)
    if (level == SimdLevel::kNeon) {
      histk::RegFusedNeon(codes, m, y, rows, n, slots, bins);
      return;
    }
#endif
  }
  (void)level;
  for (size_t k = 0; k < m; ++k) {
    histk::RegScalar(codes[k], y, rows, n, bins[k]);
  }
}

}  // namespace

NodeHistogram NodeHistogram::Build(const BinnedColumn& binned,
                                   const Column& target,
                                   const SplitContext& ctx,
                                   const uint32_t* rows, size_t n) {
  NodeHistogram h;
  const BinnedColumn* col = &binned;
  BuildMany(&col, 1, target, ctx, rows, n, &h);
  return h;
}

void NodeHistogram::BuildMany(const BinnedColumn* const* cols, size_t num_cols,
                              const Column& target, const SplitContext& ctx,
                              const uint32_t* rows, size_t n,
                              NodeHistogram* out) {
  const SimdLevel level = ActiveSimdLevel();
  const bool cls = ctx.kind == TaskKind::kClassification;
  const int c = cls ? ctx.num_classes : 0;
  const int32_t* labels = cls ? target.categorical_codes().data() : nullptr;
  const double* y = cls ? nullptr : target.numeric_values().data();

  // Shape the outputs. Classification columns accumulate right here,
  // one scalar pass each; regression columns are grouped by code width,
  // since the fused kernels want homogeneous pointer types per pass.
  std::vector<size_t> narrow;
  std::vector<size_t> wide;
  narrow.reserve(num_cols);
  for (size_t i = 0; i < num_cols; ++i) {
    out[i] = NodeHistogram();
    const BinnedColumn* bc = cols[i];
    if (bc == nullptr) continue;
    BuildsCounter()->Inc();
    NodeHistogram& h = out[i];
    h.slots_ = bc->missing_code() + 1;
    if (cls) {
      h.num_classes_ = c;
      h.cls_.assign(static_cast<size_t>(h.slots_) * c, 0);
      if (bc->wide()) {
        histk::ClsScalar(bc->codes16_data(), labels, rows, n, c,
                         h.cls_.data());
      } else {
        histk::ClsScalar(bc->codes8_data(), labels, rows, n, c,
                         h.cls_.data());
      }
      continue;
    }
    h.reg_.assign(h.slots_, HistRegBin{});
    (bc->wide() ? wide : narrow).push_back(i);
  }

  // Tiny nodes can't amortize vector setup/scratch; take the scalar
  // twins (same bits either way).
  const bool vec = level != SimdLevel::kScalar && n >= histk::kFusedMinRows;

  auto run_group = [&](auto code_tag, const std::vector<size_t>& group) {
    using Code = decltype(code_tag);
    const size_t width = histk::kFuseWidth;
    for (size_t g = 0; g < group.size(); g += width) {
      const size_t m = std::min(width, group.size() - g);
      const Code* codes[histk::kFuseWidth];
      HistRegBin* bins[histk::kFuseWidth];
      int slots[histk::kFuseWidth];
      bool fuse_ok = vec;
      for (size_t k = 0; k < m; ++k) {
        const BinnedColumn& bc = *cols[group[g + k]];
        if constexpr (std::is_same_v<Code, uint8_t>) {
          codes[k] = bc.codes8_data();
        } else {
          codes[k] = bc.codes16_data();
        }
        NodeHistogram& h = out[group[g + k]];
        bins[k] = h.reg_.data();
        slots[k] = h.slots_;
        if (h.slots_ > histk::kFusedRegMaxSlots) fuse_ok = false;
      }
      RunRegChunk<Code>(level, codes, m, y, rows, n, slots, bins, fuse_ok);
    }
  };
  run_group(uint8_t{0}, narrow);
  run_group(uint16_t{0}, wide);
}

NodeHistogram NodeHistogram::BuildCategorical(const Column& feature,
                                              const Column& target,
                                              const SplitContext& ctx,
                                              const uint32_t* rows,
                                              size_t n) {
  const int32_t card = feature.cardinality();
  const int32_t* cats = feature.categorical_codes().data();
  auto slot_of = [&](size_t i) -> size_t {
    const int32_t c = cats[rows ? rows[i] : i];
    return static_cast<size_t>(c == kMissingCategory ? card : c);
  };
  NodeHistogram h;
  h.slots_ = card + 1;
  if (ctx.kind == TaskKind::kClassification) {
    const int c = ctx.num_classes;
    const int32_t* labels = target.categorical_codes().data();
    h.num_classes_ = c;
    h.cls_.assign(static_cast<size_t>(h.slots_) * c, 0);
    for (size_t i = 0; i < n; ++i) {
      h.cls_[slot_of(i) * c + labels[rows ? rows[i] : i]]++;
    }
    return h;
  }
  const double* y = target.numeric_values().data();
  h.reg_.assign(h.slots_, HistRegBin{});
  for (size_t i = 0; i < n; ++i) {
    HistRegBin& rb = h.reg_[slot_of(i)];
    const double v = y[rows ? rows[i] : i];
    ++rb.n;
    rb.sum += v;
    rb.sum_sq += v * v;
  }
  return h;
}

NodeHistogram NodeHistogram::Subtract(const NodeHistogram& parent,
                                      const NodeHistogram& child) {
  TS_CHECK(parent.CompatibleWith(child)) << "histogram shape mismatch";
  SubtractionsCounter()->Inc();
  NodeHistogram h;
  h.slots_ = parent.slots_;
  h.num_classes_ = parent.num_classes_;
  if (!parent.cls_.empty()) {
    h.cls_.resize(parent.cls_.size());
    for (size_t i = 0; i < parent.cls_.size(); ++i) {
      h.cls_[i] = parent.cls_[i] - child.cls_[i];
    }
  }
  if (!parent.reg_.empty()) {
    h.reg_.resize(parent.reg_.size());
    for (size_t i = 0; i < parent.reg_.size(); ++i) {
      h.reg_[i].n = parent.reg_[i].n - child.reg_[i].n;
      h.reg_[i].sum = parent.reg_[i].sum - child.reg_[i].sum;
      h.reg_[i].sum_sq = parent.reg_[i].sum_sq - child.reg_[i].sum_sq;
    }
  }
  return h;
}

size_t NodeHistogram::ByteSize() const {
  return cls_.size() * sizeof(int64_t) + reg_.size() * sizeof(HistRegBin);
}

SplitOutcome NodeHistogram::BestSplit(const BinnedColumn& binned,
                                      int column_index,
                                      const SplitContext& ctx) const {
  TS_DCHECK(slots_ == binned.missing_code() + 1);
  if (binned.categorical()) return BestCategoricalSplit(column_index, ctx);
  SplitOutcome out;
  const int num_value_bins = slots_ - 1;

  if (ctx.kind == TaskKind::kClassification) {
    const int c = num_classes_;
    TargetStats missing = TargetStats::Classification(c);
    for (int j = 0; j < c; ++j) {
      int64_t cnt = cls_[static_cast<size_t>(num_value_bins) * c + j];
      missing.cls.counts[j] = cnt;
      missing.cls.n += cnt;
    }
    ClassStats total(c);
    for (int b = 0; b < num_value_bins; ++b) {
      for (int j = 0; j < c; ++j) {
        int64_t cnt = cls_[static_cast<size_t>(b) * c + j];
        total.counts[j] += cnt;
        total.n += cnt;
      }
    }
    if (total.n < 2) return out;

    ClassStats left(c);
    ClassStats right = total;
    ClassStats best_left(c);
    double best_score = std::numeric_limits<double>::infinity();
    int best_bin = -1;
    const double kd = static_cast<double>(total.n);
    for (int b = 0; b < num_value_bins; ++b) {
      int64_t bn = 0;
      for (int j = 0; j < c; ++j) {
        int64_t cnt = cls_[static_cast<size_t>(b) * c + j];
        left.counts[j] += cnt;
        right.counts[j] -= cnt;
        bn += cnt;
      }
      if (bn == 0) continue;  // empty bin: not a distinct-value boundary
      left.n += bn;
      right.n -= bn;
      if (right.n == 0) break;  // no data to the right: not a cut
      double score = (static_cast<double>(left.n) *
                          left.ImpurityValue(ctx.impurity) +
                      static_cast<double>(right.n) *
                          right.ImpurityValue(ctx.impurity)) /
                     kd;
      if (score < best_score) {
        best_score = score;
        best_bin = b;
        best_left = left;
      }
    }
    if (best_bin < 0) return out;  // all rows in one bin

    out.left_stats = TargetStats::Classification(c);
    out.left_stats.cls = best_left;
    out.right_stats = TargetStats::Classification(c);
    out.right_stats.cls = total;
    for (int j = 0; j < c; ++j) {
      out.right_stats.cls.counts[j] -= best_left.counts[j];
    }
    out.right_stats.cls.n -= best_left.n;
    out.condition.column = column_index;
    out.condition.type = DataType::kNumeric;
    out.condition.threshold = binned.upper(best_bin);
    FinishSplitOutcome(ctx, missing, &out);
    return out;
  }

  TargetStats missing = TargetStats::Regression();
  missing.reg.n = reg_[num_value_bins].n;
  missing.reg.sum = reg_[num_value_bins].sum;
  missing.reg.sum_sq = reg_[num_value_bins].sum_sq;
  RegStats total;
  for (int b = 0; b < num_value_bins; ++b) {
    total.n += reg_[b].n;
    total.sum += reg_[b].sum;
    total.sum_sq += reg_[b].sum_sq;
  }
  if (total.n < 2) return out;

  RegStats left;
  RegStats right = total;
  RegStats best_left;
  double best_score = std::numeric_limits<double>::infinity();
  int best_bin = -1;
  const double kd = static_cast<double>(total.n);
  for (int b = 0; b < num_value_bins; ++b) {
    const HistRegBin& rb = reg_[b];
    if (rb.n == 0) continue;
    left.n += rb.n;
    left.sum += rb.sum;
    left.sum_sq += rb.sum_sq;
    right.n -= rb.n;
    right.sum -= rb.sum;
    right.sum_sq -= rb.sum_sq;
    if (right.n == 0) break;
    double score = (static_cast<double>(left.n) * left.Variance() +
                    static_cast<double>(right.n) * right.Variance()) /
                   kd;
    if (score < best_score) {
      best_score = score;
      best_bin = b;
      best_left = left;
    }
  }
  if (best_bin < 0) return out;

  out.left_stats = TargetStats::Regression();
  out.left_stats.reg = best_left;
  out.right_stats = TargetStats::Regression();
  out.right_stats.reg.n = total.n - best_left.n;
  out.right_stats.reg.sum = total.sum - best_left.sum;
  out.right_stats.reg.sum_sq = total.sum_sq - best_left.sum_sq;
  out.condition.column = column_index;
  out.condition.type = DataType::kNumeric;
  out.condition.threshold = binned.upper(best_bin);
  FinishSplitOutcome(ctx, missing, &out);
  return out;
}

namespace {

RegStats RegStatsOf(const HistRegBin& b) {
  RegStats s;
  s.n = b.n;
  s.sum = b.sum;
  s.sum_sq = b.sum_sq;
  return s;
}

}  // namespace

SplitOutcome NodeHistogram::BestCategoricalSplit(
    int column_index, const SplitContext& ctx) const {
  SplitOutcome out;
  const int card = slots_ - 1;
  std::vector<int32_t> seen;  // categories present at the node, ascending

  if (ctx.kind == TaskKind::kClassification) {
    // Case 3: restrict |S_l| = 1 and score the one-vs-rest splits.
    const int c = num_classes_;
    auto counts = [&](int b) { return &cls_[static_cast<size_t>(b) * c]; };
    TargetStats missing = TargetStats::Classification(c);
    ClassStats total(c);
    for (int j = 0; j < c; ++j) {
      missing.cls.counts[j] = counts(card)[j];
      missing.cls.n += counts(card)[j];
    }
    for (int b = 0; b < card; ++b) {
      int64_t bn = 0;
      for (int j = 0; j < c; ++j) {
        total.counts[j] += counts(b)[j];
        bn += counts(b)[j];
      }
      total.n += bn;
      if (bn > 0) seen.push_back(b);
    }
    if (total.n < 2 || seen.size() < 2) return out;

    ClassStats cat(c);
    ClassStats rest(c);
    double best_score = std::numeric_limits<double>::infinity();
    int32_t best_cat = -1;
    const double total_n = static_cast<double>(total.n);
    for (int32_t b : seen) {
      cat.n = 0;
      for (int j = 0; j < c; ++j) {
        cat.counts[j] = counts(b)[j];
        cat.n += cat.counts[j];
        rest.counts[j] = total.counts[j] - cat.counts[j];
      }
      rest.n = total.n - cat.n;
      double score = (static_cast<double>(cat.n) *
                          cat.ImpurityValue(ctx.impurity) +
                      static_cast<double>(rest.n) *
                          rest.ImpurityValue(ctx.impurity)) /
                     total_n;
      if (score < best_score) {
        best_score = score;
        best_cat = b;
      }
    }
    out.left_stats = TargetStats::Classification(c);
    out.right_stats = TargetStats::Classification(c);
    out.right_stats.cls = total;
    for (int j = 0; j < c; ++j) {
      const int64_t cnt = counts(best_cat)[j];
      out.left_stats.cls.counts[j] = cnt;
      out.left_stats.cls.n += cnt;
      out.right_stats.cls.counts[j] -= cnt;
    }
    out.right_stats.cls.n -= out.left_stats.cls.n;
    out.condition.left_categories = {best_cat};
    out.condition.column = column_index;
    out.condition.type = DataType::kCategorical;
    out.condition.seen_categories = std::move(seen);
    FinishSplitOutcome(ctx, missing, &out);
    return out;
  }

  // Case 2 (Breiman et al.): sort the present categories by mean
  // target; the optimal subset split is a prefix of that order.
  TargetStats missing = TargetStats::Regression();
  missing.reg = RegStatsOf(reg_[card]);
  for (int b = 0; b < card; ++b) {
    if (reg_[b].n > 0) seen.push_back(b);
  }
  if (seen.size() < 2) return out;
  std::vector<int32_t> order = seen;
  std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    return RegStatsOf(reg_[a]).Mean() < RegStatsOf(reg_[b]).Mean();
  });
  RegStats total;
  for (int32_t b : seen) total.Merge(RegStatsOf(reg_[b]));

  RegStats left;
  RegStats right = total;
  double best_score = std::numeric_limits<double>::infinity();
  size_t best_prefix = 0;  // 0 = no candidate
  const double total_n = static_cast<double>(total.n);
  for (size_t i = 0; i + 1 < order.size(); ++i) {
    const HistRegBin& rb = reg_[order[i]];
    left.Merge(RegStatsOf(rb));
    right.n -= rb.n;
    right.sum -= rb.sum;
    right.sum_sq -= rb.sum_sq;
    double score = (static_cast<double>(left.n) * left.Variance() +
                    static_cast<double>(right.n) * right.Variance()) /
                   total_n;
    if (score < best_score) {
      best_score = score;
      best_prefix = i + 1;
    }
  }
  if (best_prefix == 0) return out;

  out.left_stats = TargetStats::Regression();
  out.right_stats = TargetStats::Regression();
  for (size_t i = 0; i < order.size(); ++i) {
    TargetStats& side = i < best_prefix ? out.left_stats : out.right_stats;
    side.reg.Merge(RegStatsOf(reg_[order[i]]));
  }
  order.resize(best_prefix);
  std::sort(order.begin(), order.end());
  out.condition.left_categories = std::move(order);
  out.condition.column = column_index;
  out.condition.type = DataType::kCategorical;
  out.condition.seen_categories = std::move(seen);
  FinishSplitOutcome(ctx, missing, &out);
  return out;
}

}  // namespace treeserver
