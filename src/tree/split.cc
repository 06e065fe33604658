#include "tree/split.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "table/binned.h"
#include "table/radix_sort.h"
#include "tree/hist.h"

namespace treeserver {

namespace {

bool ContainsSorted(const std::vector<int32_t>& v, int32_t x) {
  return std::binary_search(v.begin(), v.end(), x);
}

}  // namespace

SplitCondition::Route SplitCondition::RouteNumeric(double v) const {
  if (IsMissingNumeric(v)) return Route::kStop;
  return v <= threshold ? Route::kLeft : Route::kRight;
}

SplitCondition::Route SplitCondition::RouteCategory(int32_t code) const {
  if (code == kMissingCategory) return Route::kStop;
  if (ContainsSorted(left_categories, code)) return Route::kLeft;
  if (ContainsSorted(seen_categories, code)) return Route::kRight;
  return Route::kStop;  // value unseen during training (Appendix D)
}

bool SplitCondition::TrainRoutesLeftCategory(int32_t code) const {
  if (code == kMissingCategory) return missing_to_left;
  return ContainsSorted(left_categories, code);
}

void SplitCondition::Serialize(BinaryWriter* w) const {
  w->Write(column);
  w->Write(static_cast<uint8_t>(type));
  w->Write(threshold);
  w->WriteVector(left_categories);
  w->WriteVector(seen_categories);
  w->Write(static_cast<uint8_t>(missing_to_left ? 1 : 0));
}

Status SplitCondition::Deserialize(BinaryReader* r, SplitCondition* out) {
  TS_RETURN_IF_ERROR(r->Read(&out->column));
  uint8_t type;
  TS_RETURN_IF_ERROR(r->Read(&type));
  out->type = static_cast<DataType>(type);
  TS_RETURN_IF_ERROR(r->Read(&out->threshold));
  TS_RETURN_IF_ERROR(r->ReadVector(&out->left_categories));
  TS_RETURN_IF_ERROR(r->ReadVector(&out->seen_categories));
  uint8_t missing;
  TS_RETURN_IF_ERROR(r->Read(&missing));
  out->missing_to_left = missing != 0;
  return Status::OK();
}

bool SplitCondition::operator==(const SplitCondition& other) const {
  return column == other.column && type == other.type &&
         threshold == other.threshold &&
         left_categories == other.left_categories &&
         seen_categories == other.seen_categories &&
         missing_to_left == other.missing_to_left;
}

void TargetStats::Serialize(BinaryWriter* w) const {
  w->Write(static_cast<uint8_t>(kind));
  if (kind == TaskKind::kClassification) {
    w->WriteVector(cls.counts);
    w->Write(cls.n);
  } else {
    w->Write(reg.n);
    w->Write(reg.sum);
    w->Write(reg.sum_sq);
  }
}

Status TargetStats::Deserialize(BinaryReader* r, TargetStats* out) {
  uint8_t kind;
  TS_RETURN_IF_ERROR(r->Read(&kind));
  out->kind = static_cast<TaskKind>(kind);
  if (out->kind == TaskKind::kClassification) {
    TS_RETURN_IF_ERROR(r->ReadVector(&out->cls.counts));
    TS_RETURN_IF_ERROR(r->Read(&out->cls.n));
  } else {
    TS_RETURN_IF_ERROR(r->Read(&out->reg.n));
    TS_RETURN_IF_ERROR(r->Read(&out->reg.sum));
    TS_RETURN_IF_ERROR(r->Read(&out->reg.sum_sq));
  }
  return Status::OK();
}

void SplitOutcome::Serialize(BinaryWriter* w) const {
  w->Write(static_cast<uint8_t>(valid ? 1 : 0));
  if (!valid) return;
  condition.Serialize(w);
  w->Write(gain);
  left_stats.Serialize(w);
  right_stats.Serialize(w);
}

Status SplitOutcome::Deserialize(BinaryReader* r, SplitOutcome* out) {
  uint8_t valid;
  TS_RETURN_IF_ERROR(r->Read(&valid));
  out->valid = valid != 0;
  if (!out->valid) return Status::OK();
  TS_RETURN_IF_ERROR(SplitCondition::Deserialize(r, &out->condition));
  TS_RETURN_IF_ERROR(r->Read(&out->gain));
  TS_RETURN_IF_ERROR(TargetStats::Deserialize(r, &out->left_stats));
  TS_RETURN_IF_ERROR(TargetStats::Deserialize(r, &out->right_stats));
  return Status::OK();
}

const char* SplitMethodName(SplitMethod method) {
  return method == SplitMethod::kHistogram ? "histogram" : "exact";
}

namespace {

TargetStats MakeStats(const SplitContext& ctx) {
  return ctx.kind == TaskKind::kClassification
             ? TargetStats::Classification(ctx.num_classes)
             : TargetStats::Regression();
}

void AddRow(TargetStats* stats, const Column& target, uint32_t row) {
  if (stats->kind == TaskKind::kClassification) {
    stats->cls.Add(target.category_at(row));
  } else {
    stats->reg.Add(target.numeric_at(row));
  }
}

}  // namespace

void FinishSplitOutcome(const SplitContext& ctx, const TargetStats& missing,
                        SplitOutcome* out) {
  out->condition.missing_to_left =
      out->left_stats.Count() >= out->right_stats.Count();
  if (missing.Count() > 0) {
    if (out->condition.missing_to_left) {
      out->left_stats.Merge(missing);
    } else {
      out->right_stats.Merge(missing);
    }
  }
  TargetStats parent = out->left_stats;
  parent.Merge(out->right_stats);
  const double n = static_cast<double>(parent.Count());
  const double nl = static_cast<double>(out->left_stats.Count());
  const double nr = static_cast<double>(out->right_stats.Count());
  double child =
      (nl * out->left_stats.ImpurityValue(ctx.impurity) +
       nr * out->right_stats.ImpurityValue(ctx.impurity)) /
      n;
  out->gain = parent.ImpurityValue(ctx.impurity) - child;
  out->valid = true;
}

namespace {

// ---------------------------------------------------------------------
// Case 1 (Appendix B): ordinal attribute, any target. Gather the node's
// non-missing rows as (rank, y) keys, sort them by rank and scan once,
// updating left/right sufficient statistics in O(1) per step. The
// candidate cuts are the boundaries between ranks, i.e. between
// distinct values.
// ---------------------------------------------------------------------

// Thread-local scratch arena for the exact numeric kernels: the key
// buffers and class-count tables are reused across calls, so
// steady-state split evaluation performs no heap allocation
// proportional to the node size. Each comper thread owns one arena;
// kernels never nest.
struct ExactScratch {
  std::vector<uint64_t> keys;
  std::vector<uint64_t> keys_scratch;
  std::vector<double> ys;
  ClassStats left;
  ClassStats right;
  ClassStats total;
  ClassStats best_left;
};

ExactScratch& Scratch() {
  static thread_local ExactScratch s;
  return s;
}

void ResetClassStats(ClassStats* s, int num_classes) {
  s->counts.assign(num_classes, 0);
  s->n = 0;
}

Counter* ExactSortsCounter() {
  static Counter* const c =
      MetricsRegistry::Global().GetCounter("split.exact_sorts");
  return c;
}

// Nodes up to this size sort their keys with std::sort, where the
// radix sort's counting tables cost more than the comparisons: about
// 48 keys for one 8-bit digit and 190 for two 9-bit digits (17-bit
// ranks) on a 4-vCPU AVX2 host.
size_t SmallSortLimit(int rank_bits) { return rank_bits <= 11 ? 64 : 192; }

// A node key: the row's rank above a 32-bit low word.
uint32_t RankOf(uint64_t key) { return static_cast<uint32_t>(key >> 32); }
uint32_t LowOf(uint64_t key) { return static_cast<uint32_t>(key); }

// Bits that hold every value rank below `missing_rank` (>= 1).
int RankBits(uint32_t missing_rank) {
  int bits = 1;
  while (bits < 32 && (missing_rank - 1) >> bits != 0) ++bits;
  return bits;
}

// Gathers the node's rows as (rank << 32 | low(row)) keys in node
// order, skipping missing ranks (whose targets go to `missing`), and
// sorts them by rank: an LSD radix sort over only the `rank_bits` that
// hold the column's ranks, which is stable, so equal ranks keep node
// order. A small node's std::sort over the whole key orders equal ranks
// by the low word instead; the kernels below are correct under either
// order. Returns the sorted keys; the count is `*k`.
template <typename Rank, typename Low>
const uint64_t* GatherSortedKeys(const Rank* ranks, uint32_t missing_rank,
                                 int rank_bits, const Column& target,
                                 const uint32_t* rows, size_t n, Low low,
                                 TargetStats* missing, size_t* k) {
  ExactScratch& s = Scratch();
  if (s.keys.size() < n) {
    s.keys.resize(n);
    s.keys_scratch.resize(n);
  }
  uint64_t* keys = s.keys.data();
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t row = rows ? rows[i] : static_cast<uint32_t>(i);
    const uint32_t rank = ranks[row];
    if (rank == missing_rank) {
      AddRow(missing, target, row);
    } else {
      keys[count++] = uint64_t{rank} << 32 | low(row);
    }
  }
  *k = count;
  if (count < 2) return keys;
  ExactSortsCounter()->Inc();
  if (count <= SmallSortLimit(rank_bits)) {
    std::sort(keys, keys + count);
    return keys;
  }
  return RadixSort(keys, s.keys_scratch.data(), count, 32, rank_bits);
}

// The split threshold at rank `rank`: the value of the first node row
// of that rank (all of them compare equal). A zero threshold is +0.0,
// as for histogram bin boundaries, whichever zero the row holds.
template <typename Rank>
double ThresholdOfRank(const Column& feature, const Rank* ranks,
                       const uint32_t* rows, size_t n, uint32_t rank) {
  for (size_t i = 0; i < n; ++i) {
    const uint32_t row = rows ? rows[i] : static_cast<uint32_t>(i);
    if (ranks[row] == rank) {
      const double v = feature.numeric_at(row);
      return v == 0.0 ? 0.0 : v;
    }
  }
  TS_CHECK(false) << "winning rank has no row";
  return 0.0;
}

template <typename Rank>
SplitOutcome NumericBestClassification(const Column& feature,
                                       const Rank* ranks,
                                       uint32_t missing_rank, int column_index,
                                       const Column& target,
                                       const SplitContext& ctx,
                                       const uint32_t* rows, size_t n) {
  SplitOutcome out;
  ExactScratch& s = Scratch();
  TargetStats missing = MakeStats(ctx);
  size_t k = 0;
  const uint64_t* keys = GatherSortedKeys(
      ranks, missing_rank, RankBits(missing_rank), target, rows, n,
      [&](uint32_t row) {
        return static_cast<uint32_t>(target.category_at(row));
      },
      &missing, &k);
  if (k < 2) return out;

  ResetClassStats(&s.left, ctx.num_classes);
  ResetClassStats(&s.total, ctx.num_classes);
  for (size_t i = 0; i < k; ++i) {
    s.total.Add(static_cast<int32_t>(LowOf(keys[i])));
  }
  s.right = s.total;
  ResetClassStats(&s.best_left, ctx.num_classes);

  double best_score = std::numeric_limits<double>::infinity();
  size_t best_idx = k;  // sentinel: no candidate
  const double kd = static_cast<double>(k);
  for (size_t i = 0; i + 1 < k; ++i) {
    const int32_t y = static_cast<int32_t>(LowOf(keys[i]));
    s.left.Add(y);
    s.right.Remove(y);
    if (RankOf(keys[i]) == RankOf(keys[i + 1])) continue;
    double score = (static_cast<double>(s.left.n) *
                        s.left.ImpurityValue(ctx.impurity) +
                    static_cast<double>(s.right.n) *
                        s.right.ImpurityValue(ctx.impurity)) /
                   kd;
    if (score < best_score) {
      best_score = score;
      best_idx = i;
      s.best_left = s.left;
    }
  }
  if (best_idx == k) return out;  // all values identical

  out.left_stats = MakeStats(ctx);
  out.left_stats.cls = s.best_left;
  out.right_stats = MakeStats(ctx);
  out.right_stats.cls = s.total;
  for (size_t j = 0; j < s.best_left.counts.size(); ++j) {
    out.right_stats.cls.counts[j] -= s.best_left.counts[j];
  }
  out.right_stats.cls.n -= s.best_left.n;
  out.condition.column = column_index;
  out.condition.type = DataType::kNumeric;
  out.condition.threshold =
      ThresholdOfRank(feature, ranks, rows, n, RankOf(keys[best_idx]));
  FinishSplitOutcome(ctx, missing, &out);
  return out;
}

template <typename Rank>
SplitOutcome NumericBestRegression(const Column& feature, const Rank* ranks,
                                   uint32_t missing_rank, int column_index,
                                   const Column& target,
                                   const SplitContext& ctx,
                                   const uint32_t* rows, size_t n) {
  SplitOutcome out;
  ExactScratch& s = Scratch();
  // The low word is the row's position among the node's non-missing
  // rows, so equal ranks sort in node order under both sorts, and
  // ys[position] is its target.
  std::vector<double>& ys = s.ys;
  ys.clear();
  TargetStats missing = MakeStats(ctx);
  size_t k = 0;
  const uint64_t* keys = GatherSortedKeys(
      ranks, missing_rank, RankBits(missing_rank), target, rows, n,
      [&](uint32_t row) {
        ys.push_back(target.numeric_at(row));
        return static_cast<uint32_t>(ys.size() - 1);
      },
      &missing, &k);
  if (k < 2) return out;

  RegStats total;
  for (size_t i = 0; i < k; ++i) total.Add(ys[LowOf(keys[i])]);
  RegStats left;
  RegStats right = total;
  RegStats best_left;

  double best_score = std::numeric_limits<double>::infinity();
  size_t best_idx = k;
  const double kd = static_cast<double>(k);
  for (size_t i = 0; i + 1 < k; ++i) {
    const double y = ys[LowOf(keys[i])];
    left.Add(y);
    right.Remove(y);
    if (RankOf(keys[i]) == RankOf(keys[i + 1])) continue;
    double score = (static_cast<double>(left.n) * left.Variance() +
                    static_cast<double>(right.n) * right.Variance()) /
                   kd;
    if (score < best_score) {
      best_score = score;
      best_idx = i;
      best_left = left;
    }
  }
  if (best_idx == k) return out;

  out.left_stats = MakeStats(ctx);
  out.left_stats.reg = best_left;
  out.right_stats = MakeStats(ctx);
  out.right_stats.reg.n = total.n - best_left.n;
  out.right_stats.reg.sum = total.sum - best_left.sum;
  out.right_stats.reg.sum_sq = total.sum_sq - best_left.sum_sq;
  out.condition.column = column_index;
  out.condition.type = DataType::kNumeric;
  out.condition.threshold =
      ThresholdOfRank(feature, ranks, rows, n, RankOf(keys[best_idx]));
  FinishSplitOutcome(ctx, missing, &out);
  return out;
}

}  // namespace

TargetStats ComputeTargetStats(const Column& target, const SplitContext& ctx,
                               const uint32_t* rows, size_t n) {
  TargetStats stats = MakeStats(ctx);
  for (size_t i = 0; i < n; ++i) {
    uint32_t row = rows ? rows[i] : static_cast<uint32_t>(i);
    AddRow(&stats, target, row);
  }
  return stats;
}

SplitOutcome FindBestNumericSplit(const Column& feature,
                                  const RankedColumn& ranks, int column_index,
                                  const Column& target,
                                  const SplitContext& ctx,
                                  const uint32_t* rows, size_t n) {
  const uint32_t missing = ranks.missing_rank();
  return ranks.Visit([&](const auto* r) {
    return ctx.kind == TaskKind::kClassification
               ? NumericBestClassification(feature, r, missing, column_index,
                                           target, ctx, rows, n)
               : NumericBestRegression(feature, r, missing, column_index,
                                       target, ctx, rows, n);
  });
}

SplitOutcome FindBestSplit(const Column& feature, int column_index,
                           const Column& target, const SplitContext& ctx,
                           const uint32_t* rows, size_t n) {
  if (feature.type() == DataType::kNumeric) {
    return FindBestNumericSplit(feature, *RankedColumn::Build(feature),
                                column_index, target, ctx, rows, n);
  }
  // Cases 2 and 3 (Appendix B) scan a per-category histogram; the
  // histogram split method runs the same scan over identity codes.
  return NodeHistogram::BuildCategorical(feature, target, ctx, rows, n)
      .BestCategoricalSplit(column_index, ctx);
}

SplitOutcome FindRandomSplit(const Column& feature, int column_index,
                             const Column& target, const SplitContext& ctx,
                             const uint32_t* rows, size_t n, Rng* rng) {
  SplitOutcome out;
  TargetStats missing = MakeStats(ctx);
  if (feature.type() == DataType::kNumeric) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i) {
      uint32_t row = rows ? rows[i] : static_cast<uint32_t>(i);
      double v = feature.numeric_at(row);
      if (IsMissingNumeric(v)) continue;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    if (!(lo < hi)) return out;  // constant or all-missing column
    double threshold = rng->UniformDouble(lo, hi);
    out.left_stats = MakeStats(ctx);
    out.right_stats = MakeStats(ctx);
    for (size_t i = 0; i < n; ++i) {
      uint32_t row = rows ? rows[i] : static_cast<uint32_t>(i);
      double v = feature.numeric_at(row);
      if (IsMissingNumeric(v)) {
        AddRow(&missing, target, row);
      } else if (v <= threshold) {
        AddRow(&out.left_stats, target, row);
      } else {
        AddRow(&out.right_stats, target, row);
      }
    }
    out.condition.column = column_index;
    out.condition.type = DataType::kNumeric;
    out.condition.threshold = threshold;
    FinishSplitOutcome(ctx, missing, &out);
    return out;
  }

  // Categorical: pick a random nonempty proper subset of the seen
  // categories as S_l.
  const int32_t card = feature.cardinality();
  std::vector<int64_t> cat_count(card, 0);
  for (size_t i = 0; i < n; ++i) {
    uint32_t row = rows ? rows[i] : static_cast<uint32_t>(i);
    int32_t c = feature.category_at(row);
    if (c != kMissingCategory) ++cat_count[c];
  }
  std::vector<int32_t> seen;
  for (int32_t c = 0; c < card; ++c) {
    if (cat_count[c] > 0) seen.push_back(c);
  }
  if (seen.size() < 2) return out;

  std::vector<int32_t> left_cats;
  for (int attempt = 0; attempt < 8 && (left_cats.empty() ||
                                        left_cats.size() == seen.size());
       ++attempt) {
    left_cats.clear();
    for (int32_t c : seen) {
      if (rng->Bernoulli(0.5)) left_cats.push_back(c);
    }
  }
  if (left_cats.empty() || left_cats.size() == seen.size()) {
    left_cats = {seen[rng->Uniform(seen.size())]};
    if (left_cats.size() == seen.size()) return out;
  }
  std::sort(left_cats.begin(), left_cats.end());

  out.left_stats = MakeStats(ctx);
  out.right_stats = MakeStats(ctx);
  for (size_t i = 0; i < n; ++i) {
    uint32_t row = rows ? rows[i] : static_cast<uint32_t>(i);
    int32_t c = feature.category_at(row);
    if (c == kMissingCategory) {
      AddRow(&missing, target, row);
    } else if (ContainsSorted(left_cats, c)) {
      AddRow(&out.left_stats, target, row);
    } else {
      AddRow(&out.right_stats, target, row);
    }
  }
  out.condition.column = column_index;
  out.condition.type = DataType::kCategorical;
  out.condition.left_categories = std::move(left_cats);
  out.condition.seen_categories = std::move(seen);
  FinishSplitOutcome(ctx, missing, &out);
  return out;
}

}  // namespace treeserver
