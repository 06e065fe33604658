#include "forest/forest.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <thread>

#include "common/logging.h"
#include "table/binned.h"

namespace treeserver {

int ForestJobSpec::ColumnsPerTree(int num_features) const {
  if (sqrt_columns) {
    return std::max(1, static_cast<int>(std::sqrt(
                           static_cast<double>(num_features))));
  }
  double ratio = std::clamp(column_ratio, 0.0, 1.0);
  return std::max(1, static_cast<int>(ratio * num_features + 0.5));
}

std::vector<int> ForestJobSpec::SampleColumns(const Schema& schema,
                                              int tree_index) const {
  std::vector<int> features = schema.FeatureIndices();
  int want = ColumnsPerTree(static_cast<int>(features.size()));
  if (want >= static_cast<int>(features.size())) return features;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(tree_index));
  std::vector<int> picked =
      rng.SampleWithoutReplacement(static_cast<int>(features.size()), want);
  std::vector<int> out;
  out.reserve(picked.size());
  for (int i : picked) out.push_back(features[i]);
  std::sort(out.begin(), out.end());
  return out;
}

Rng ForestJobSpec::TreeRng(int tree_index) const {
  return Rng(seed * 0xBF58476D1CE4E5B9ULL + 31 +
             static_cast<uint64_t>(tree_index) * 0x94D049BB133111EBULL);
}

void ForestJobSpec::Serialize(BinaryWriter* w) const {
  w->WriteString(name);
  w->Write(num_trees);
  w->Write(tree.max_depth);
  w->Write(tree.min_leaf);
  w->Write(static_cast<uint8_t>(tree.impurity));
  w->Write(static_cast<uint8_t>(tree.extra_trees ? 1 : 0));
  w->Write(static_cast<uint8_t>(tree.split_method));
  w->Write(tree.max_bins);
  w->Write(column_ratio);
  w->Write(static_cast<uint8_t>(sqrt_columns ? 1 : 0));
  w->Write(seed);
  w->WriteVector(depends_on);
}

Status ForestJobSpec::Deserialize(BinaryReader* r, ForestJobSpec* out) {
  TS_RETURN_IF_ERROR(r->ReadString(&out->name));
  TS_RETURN_IF_ERROR(r->Read(&out->num_trees));
  TS_RETURN_IF_ERROR(r->Read(&out->tree.max_depth));
  TS_RETURN_IF_ERROR(r->Read(&out->tree.min_leaf));
  uint8_t impurity, extra, sqrt_cols;
  TS_RETURN_IF_ERROR(r->Read(&impurity));
  out->tree.impurity = static_cast<Impurity>(impurity);
  TS_RETURN_IF_ERROR(r->Read(&extra));
  out->tree.extra_trees = extra != 0;
  uint8_t split_method;
  TS_RETURN_IF_ERROR(r->Read(&split_method));
  out->tree.split_method = static_cast<SplitMethod>(split_method);
  TS_RETURN_IF_ERROR(r->Read(&out->tree.max_bins));
  TS_RETURN_IF_ERROR(r->Read(&out->column_ratio));
  TS_RETURN_IF_ERROR(r->Read(&sqrt_cols));
  out->sqrt_columns = sqrt_cols != 0;
  TS_RETURN_IF_ERROR(r->Read(&out->seed));
  TS_RETURN_IF_ERROR(r->ReadVector(&out->depends_on));
  return Status::OK();
}

std::vector<float> ForestModel::PredictPmf(const DataTable& table, size_t row,
                                           int max_depth) const {
  std::vector<float> acc(num_classes_, 0.0f);
  if (trees_.empty()) return acc;
  for (const TreeModel& t : trees_) {
    const std::vector<float>& p = t.PredictPmf(table, row, max_depth);
    for (size_t i = 0; i < acc.size(); ++i) acc[i] += p[i];
  }
  float inv = 1.0f / static_cast<float>(trees_.size());
  for (float& v : acc) v *= inv;
  return acc;
}

int32_t ForestModel::PredictLabel(const DataTable& table, size_t row,
                                  int max_depth) const {
  std::vector<float> p = PredictPmf(table, row, max_depth);
  return static_cast<int32_t>(
      std::max_element(p.begin(), p.end()) - p.begin());
}

double ForestModel::PredictValue(const DataTable& table, size_t row,
                                 int max_depth) const {
  if (trees_.empty()) return 0.0;
  double acc = 0.0;
  for (const TreeModel& t : trees_) acc += t.PredictValue(table, row, max_depth);
  return acc / static_cast<double>(trees_.size());
}

void ForestModel::Serialize(BinaryWriter* w) const {
  w->Write(static_cast<uint8_t>(kind_));
  w->Write(static_cast<int32_t>(num_classes_));
  w->Write(static_cast<uint64_t>(trees_.size()));
  for (const TreeModel& t : trees_) t.Serialize(w);
}

Status ForestModel::Deserialize(BinaryReader* r, ForestModel* out) {
  uint8_t kind;
  TS_RETURN_IF_ERROR(r->Read(&kind));
  out->kind_ = static_cast<TaskKind>(kind);
  int32_t num_classes;
  TS_RETURN_IF_ERROR(r->Read(&num_classes));
  out->num_classes_ = num_classes;
  uint64_t count;
  TS_RETURN_IF_ERROR(r->Read(&count));
  if (count > r->remaining()) {
    return Status::Corruption("implausible tree count");
  }
  out->trees_.clear();
  out->trees_.resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    TS_RETURN_IF_ERROR(TreeModel::Deserialize(r, &out->trees_[i]));
  }
  return Status::OK();
}

double EvaluateAccuracy(const ForestModel& model, const DataTable& test) {
  TS_CHECK(test.schema().task_kind() == TaskKind::kClassification);
  if (test.num_rows() == 0) return 0.0;
  size_t correct = 0;
  for (size_t i = 0; i < test.num_rows(); ++i) {
    if (model.PredictLabel(test, i) == test.label_at(i)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(test.num_rows());
}

double EvaluateRmse(const ForestModel& model, const DataTable& test) {
  TS_CHECK(test.schema().task_kind() == TaskKind::kRegression);
  if (test.num_rows() == 0) return 0.0;
  double sq = 0.0;
  for (size_t i = 0; i < test.num_rows(); ++i) {
    double d = model.PredictValue(test, i) - test.target_value_at(i);
    sq += d * d;
  }
  return std::sqrt(sq / static_cast<double>(test.num_rows()));
}

double EvaluateMetric(const ForestModel& model, const DataTable& test) {
  return model.kind() == TaskKind::kClassification
             ? EvaluateAccuracy(model, test)
             : EvaluateRmse(model, test);
}

std::vector<double> FeatureImportance(const ForestModel& model,
                                      const Schema& schema) {
  std::vector<double> importance(schema.num_columns(), 0.0);
  for (const TreeModel& tree : model.trees()) {
    tree.AccumulateImportance(&importance);
  }
  double total = 0.0;
  for (double v : importance) total += v;
  if (total > 0) {
    for (double& v : importance) v /= total;
  }
  return importance;
}

ForestModel TrainForestSerial(const DataTable& table,
                              const ForestJobSpec& spec, int num_threads) {
  const Schema& schema = table.schema();
  ForestModel model(schema.task_kind(), schema.num_classes());
  std::vector<TreeModel> trees(spec.num_trees);

  // Histogram mode: bin the table once, shared read-only by all trees.
  // Exact mode: rank each column on the first tree that samples it,
  // shared the same way (the first-use build is thread-safe).
  std::shared_ptr<const BinnedTable> binned;
  std::optional<RankedTable> ranked;
  if (!spec.tree.extra_trees) {
    if (spec.tree.split_method == SplitMethod::kHistogram) {
      binned = BinnedTable::Build(table, spec.tree.max_bins);
    } else {
      ranked.emplace(table);
    }
  }

  auto train_one = [&](int t) {
    std::vector<int> candidates = spec.SampleColumns(schema, t);
    Rng rng = spec.TreeRng(t);
    trees[t] = TrainTreeOnTable(table, candidates, spec.tree, &rng,
                                binned.get(), ranked ? &*ranked : nullptr);
  };

  if (num_threads <= 1 || spec.num_trees <= 1) {
    for (int t = 0; t < spec.num_trees; ++t) train_one(t);
  } else {
    std::vector<std::thread> pool;
    std::atomic<int> next{0};
    int workers = std::min(num_threads, spec.num_trees);
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (int t = next.fetch_add(1); t < spec.num_trees;
             t = next.fetch_add(1)) {
          train_one(t);
        }
      });
    }
    for (std::thread& th : pool) th.join();
  }

  for (TreeModel& t : trees) model.AddTree(std::move(t));
  return model;
}

}  // namespace treeserver
