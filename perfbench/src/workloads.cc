#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/serial.h"

namespace perfbench {

namespace {

using treeserver::Column;
using treeserver::ColumnPtr;

/// `count` rates from `first`, each `step` times the one before.
std::vector<double> Ladder(double first, double step, int count) {
  std::vector<double> out;
  for (int i = 0; i < count; ++i) out.push_back(first * std::pow(step, i));
  return out;
}

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> out;

  Workload cls;
  cls.name = "cls_exact_rows";
  cls.profile.name = "covtype_like";
  cls.profile.rows = 100000;
  cls.profile.num_numeric = 54;
  cls.profile.num_categorical = 0;
  cls.profile.num_classes = 7;
  cls.profile.concept_depth = 8;
  cls.num_trees = 4;
  cls.max_depth = 10;
  cls.sqrt_columns = true;
  cls.split_method = SplitMethod::kExact;
  cls.fleet = false;
  cls.rows_per_request = 1;
  cls.lo_rate = 108000;
  cls.hi_rate = 180000;
  cls.ladder = Ladder(50000, 1.12, 24);
  cls.p99_limit_us = 5000;
  out.push_back(cls);

  Workload reg;
  reg.name = "reg_hist_tcp_fleet";
  reg.profile.name = "allstate_like";
  reg.profile.rows = 150000;
  reg.profile.num_numeric = 13;
  reg.profile.num_categorical = 14;
  reg.profile.num_classes = 0;
  reg.profile.missing_fraction = 0.05;
  reg.profile.concept_depth = 8;
  reg.round_target = true;
  reg.num_trees = 12;
  reg.max_depth = 10;
  reg.column_ratio = 0.5;
  reg.split_method = SplitMethod::kHistogram;
  reg.tcp = true;
  reg.fleet = true;
  reg.rows_per_request = 16;
  reg.lo_rate = 2400;
  reg.hi_rate = 3200;
  reg.ladder = Ladder(2000, 1.1, 24);
  reg.p99_limit_us = 10000;
  out.push_back(reg);

  return out;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = MakeWorkloads();
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

DataTable MakeTable(const Workload& w, uint64_t seed) {
  // The population's shape (planted concept, categorical cardinalities)
  // is fixed per workload; the seed draws which half of it the run
  // trains on. Every seed trains different trees, but the work varies
  // little from seed to seed.
  constexpr uint64_t kPopulationSeed = 20220516;
  DatasetProfile population = w.profile;
  population.rows *= 2;
  std::vector<uint32_t> rows(population.rows);
  std::iota(rows.begin(), rows.end(), 0u);
  treeserver::Rng rng(seed);
  rng.Shuffle(&rows);
  rows.resize(w.profile.rows);
  std::sort(rows.begin(), rows.end());
  DataTable table =
      treeserver::GenerateTable(population, kPopulationSeed).GatherRows(rows);
  if (!w.round_target) return table;
  const int target = table.schema().target_index();
  std::vector<double> y = table.target()->numeric_values();
  for (double& v : y) v = std::round(v);
  std::vector<ColumnPtr> columns;
  for (int c = 0; c < table.num_columns(); ++c) {
    columns.push_back(c == target
                          ? Column::Numeric(table.column(c)->name(), std::move(y))
                          : table.column(c));
  }
  return DataTable(table.schema(), std::move(columns));
}

ForestJobSpec MakeJob(const Workload& w, uint64_t seed) {
  ForestJobSpec spec;
  spec.name = w.name;
  spec.num_trees = w.num_trees;
  spec.tree.max_depth = w.max_depth;
  spec.tree.min_leaf = 2;
  spec.tree.impurity = w.profile.num_classes > 0 ? treeserver::Impurity::kGini
                                                 : treeserver::Impurity::kVariance;
  spec.tree.split_method = w.split_method;
  spec.sqrt_columns = w.sqrt_columns;
  spec.column_ratio = w.column_ratio;
  spec.seed = seed;
  return spec;
}

std::string ForestBytes(const ForestModel& forest) {
  treeserver::BinaryWriter w;
  forest.Serialize(&w);
  return w.buffer();
}

EngineConfig MakeEngineConfig() {
  EngineConfig cfg;
  cfg.num_workers = 4;
  cfg.compers_per_worker = 1;
  cfg.tau_d = 10000;
  cfg.tau_dfs = 80000;
  return cfg;
}

}  // namespace perfbench
