// Split-kernel microbenchmark: exact (per-node sorted scans) vs
// histogram (pre-binned columns + sibling subtraction) split finding,
// at 10k / 100k / 1M rows for both learning tasks.
//
// Each case trains one full tree over all-numeric candidate columns
// and reports the train wall time per method. The histogram timing
// excludes the one-off BinnedTable build (it happens once per job, or
// once per held column on an engine worker, and is shared by every
// tree) but the build cost is reported alongside so nothing hides.
// A categorical case on the allstate-like shape (14 categorical and 13
// numeric columns, regression, 5% missing cells) times the categorical
// split kernel at the root both ways — the exact kernel over the raw
// category values and the histogram path over identity codes — in ns
// per row-column, plus one serial histogram-mode tree over every
// column. Emits a one-line JSON summary (bench=split, with the host's
// core count, CPU model and SIMD level) after the tables; check in as
// BENCH_split.json.
//
// Flags: --quick (smaller sizes), --max-bins=N (default 255).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/simd.h"
#include "common/timer.h"
#include "table/binned.h"
#include "table/datasets.h"
#include "tree/hist.h"
#include "tree/trainer.h"

namespace treeserver {
namespace bench {
namespace {

struct CaseResult {
  std::string label;
  size_t rows = 0;
  double exact_ms = 0.0;
  double hist_ms = 0.0;
  double bin_build_ms = 0.0;
  double speedup = 0.0;
  bool identical = false;  // trees byte-identical across methods
};

std::string SerializeTree(const TreeModel& model) {
  BinaryWriter w;
  TreeModel copy = model;
  copy.Canonicalize();
  copy.Serialize(&w);
  return w.Release();
}

CaseResult RunCase(TaskKind kind, size_t rows, int max_bins) {
  DatasetProfile profile;
  profile.name = kind == TaskKind::kClassification ? "split-cls" : "split-reg";
  profile.rows = rows;
  profile.num_numeric = 8;
  profile.num_categorical = 0;
  profile.num_classes = kind == TaskKind::kClassification ? 3 : 0;
  profile.noise = 0.05;
  profile.concept_depth = 6;
  DataTable table = GenerateTable(profile, /*seed=*/1234 + rows);

  std::vector<int> candidates;
  for (int c = 0; c < profile.num_features(); ++c) candidates.push_back(c);

  TreeConfig exact_cfg;
  exact_cfg.max_depth = 8;
  exact_cfg.min_leaf = 4;

  CaseResult r;
  r.label = (kind == TaskKind::kClassification ? std::string("cls_")
                                               : std::string("reg_")) +
            std::to_string(rows);
  r.rows = rows;

  WallTimer t;
  TreeModel exact_tree = TrainTreeOnTable(table, candidates, exact_cfg);
  r.exact_ms = t.Millis();

  TreeConfig hist_cfg = exact_cfg;
  hist_cfg.split_method = SplitMethod::kHistogram;
  hist_cfg.max_bins = max_bins;

  t.Reset();
  std::shared_ptr<const BinnedTable> binned =
      BinnedTable::Build(table, hist_cfg.max_bins);
  r.bin_build_ms = t.Millis();

  t.Reset();
  TreeModel hist_tree =
      TrainTreeOnTable(table, candidates, hist_cfg, nullptr, binned.get());
  r.hist_ms = t.Millis();

  r.speedup = r.hist_ms > 0 ? r.exact_ms / r.hist_ms : 0.0;
  r.identical = SerializeTree(exact_tree) == SerializeTree(hist_tree);
  return r;
}

// Single-thread histogram-build kernel throughput: the trainer's
// per-node BuildMany pass, two ways.
//
//   scalar: the dispatch forced to SimdLevel::kScalar — the scalar
//           twins the parity tests compare against.
//   active: the dispatch at the active level. Only regression has a
//           vector kernel; classification runs the scalar twin at
//           every level, so its ratio reads ~1.
//
// Rows/sec counts full-node passes (all 8 columns per row).
struct KernelResult {
  std::string label;  // "cls" | "reg"
  size_t rows = 0;
  double scalar_rps = 0.0;  // scalar twins
  double active_rps = 0.0;  // dispatched at the active level
  double speedup = 0.0;     // active vs scalar
  bool identical = false;   // histogram payloads bit-identical
};

bool SameHists(const NodeHists& a, const NodeHists& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].cls_size() != b[i].cls_size() ||
        a[i].reg_size() != b[i].reg_size()) {
      return false;
    }
    if (std::memcmp(a[i].cls_data(), b[i].cls_data(),
                    a[i].cls_size() * sizeof(int64_t)) != 0) {
      return false;
    }
    if (std::memcmp(a[i].reg_data(), b[i].reg_data(),
                    a[i].reg_size() * sizeof(HistRegBin)) != 0) {
      return false;
    }
  }
  return true;
}

KernelResult RunKernelCase(TaskKind kind, size_t rows, int max_bins,
                           int iters) {
  DatasetProfile profile;
  profile.name = kind == TaskKind::kClassification ? "histk-cls" : "histk-reg";
  profile.rows = rows;
  profile.num_numeric = 8;
  profile.num_categorical = 0;
  profile.num_classes = kind == TaskKind::kClassification ? 3 : 0;
  profile.noise = 0.05;
  profile.concept_depth = 6;
  DataTable table = GenerateTable(profile, /*seed=*/4321 + rows);
  std::shared_ptr<const BinnedTable> binned =
      BinnedTable::Build(table, max_bins);

  std::vector<const BinnedColumn*> cols;
  for (int c = 0; c < profile.num_features(); ++c) {
    cols.push_back(binned->column(c));
  }
  SplitContext ctx;
  ctx.kind = kind;
  ctx.num_classes = table.schema().num_classes();
  const Column& target = *table.target();
  const size_t n = table.num_rows();

  // One BuildMany pass at `level`, timed.
  auto pass = [&](SimdLevel level, NodeHists* out) {
    SetSimdLevel(level);
    out->assign(cols.size(), NodeHistogram());
    WallTimer t;
    NodeHistogram::BuildMany(cols.data(), cols.size(), target, ctx,
                             /*rows=*/nullptr, n, out->data());
    return t.Seconds();
  };

  KernelResult r;
  r.label = kind == TaskKind::kClassification ? "cls" : "reg";
  r.rows = n;
  // Best-of-N timing, alternating the two levels pass by pass so that
  // drift on a shared box hits both alike. One warm-up pass each.
  const SimdLevel active = ActiveSimdLevel();
  NodeHists scalar_hists;
  NodeHists active_hists;
  pass(SimdLevel::kScalar, &scalar_hists);
  pass(active, &active_hists);
  double scalar_s = 0.0;
  double active_s = 0.0;
  for (int i = 0; i < iters; ++i) {
    const double s = pass(SimdLevel::kScalar, &scalar_hists);
    const double a = pass(active, &active_hists);
    if (i == 0 || s < scalar_s) scalar_s = s;
    if (i == 0 || a < active_s) active_s = a;
  }
  const double per_pass = static_cast<double>(n);
  r.scalar_rps = scalar_s > 0 ? per_pass / scalar_s : 0.0;
  r.active_rps = active_s > 0 ? per_pass / active_s : 0.0;
  r.speedup = r.scalar_rps > 0 ? r.active_rps / r.scalar_rps : 0.0;
  r.identical = SameHists(scalar_hists, active_hists);
  return r;
}

// Categorical split kernel on the allstate-like table (the shape of
// the reg_hist_tcp_fleet benchmark workload).
struct CategoricalResult {
  size_t rows = 0;
  int categorical_columns = 0;
  double exact_ns = 0.0;  // per row-column, exact kernel over values
  double hist_ns = 0.0;   // per row-column, fused build + scan over codes
  bool same_split = false;
  double tree_ms = 0.0;   // one serial histogram tree, all columns
};

CategoricalResult RunCategoricalCase(size_t rows, int iters) {
  DatasetProfile profile;
  profile.name = "allstate_like";
  profile.rows = rows;
  profile.num_numeric = 13;
  profile.num_categorical = 14;
  profile.num_classes = 0;
  profile.missing_fraction = 0.05;
  profile.concept_depth = 8;
  DataTable table = GenerateTable(profile, /*seed=*/7);
  std::shared_ptr<const BinnedTable> binned = BinnedTable::Build(table, 255);
  const SplitContext ctx{TaskKind::kRegression, Impurity::kVariance, 0};
  const Column& target = *table.target();

  std::vector<int> cat_cols;
  std::vector<const BinnedColumn*> codes;
  for (int c = profile.num_numeric; c < profile.num_features(); ++c) {
    cat_cols.push_back(c);
    codes.push_back(binned->column(c));
  }
  CategoricalResult r;
  r.rows = rows;
  r.categorical_columns = static_cast<int>(cat_cols.size());

  std::vector<SplitOutcome> exact(cat_cols.size());
  std::vector<SplitOutcome> hist(cat_cols.size());
  NodeHists hists;
  double exact_s = 0.0;
  double hist_s = 0.0;
  for (int i = 0; i < iters; ++i) {
    WallTimer t;
    for (size_t k = 0; k < cat_cols.size(); ++k) {
      exact[k] = FindBestSplit(*table.column(cat_cols[k]), cat_cols[k],
                               target, ctx, nullptr, rows);
    }
    const double e = t.Seconds();
    t.Reset();
    hists.assign(codes.size(), NodeHistogram());
    NodeHistogram::BuildMany(codes.data(), codes.size(), target, ctx, nullptr,
                             rows, hists.data());
    for (size_t k = 0; k < cat_cols.size(); ++k) {
      hist[k] = hists[k].BestSplit(*codes[k], cat_cols[k], ctx);
    }
    const double h = t.Seconds();
    if (i == 0 || e < exact_s) exact_s = e;
    if (i == 0 || h < hist_s) hist_s = h;
  }
  const double cells = static_cast<double>(rows * cat_cols.size());
  r.exact_ns = exact_s * 1e9 / cells;
  r.hist_ns = hist_s * 1e9 / cells;
  r.same_split = true;
  for (size_t k = 0; k < cat_cols.size(); ++k) {
    BinaryWriter a;
    BinaryWriter b;
    exact[k].Serialize(&a);
    hist[k].Serialize(&b);
    r.same_split = r.same_split && a.buffer() == b.buffer();
  }

  TreeConfig cfg;
  cfg.max_depth = 10;
  cfg.min_leaf = 2;
  cfg.impurity = Impurity::kVariance;
  cfg.split_method = SplitMethod::kHistogram;
  std::vector<int> all;
  for (int c = 0; c < profile.num_features(); ++c) all.push_back(c);
  WallTimer t;
  TrainTreeOnTable(table, all, cfg, nullptr, binned.get());
  r.tree_ms = t.Millis();
  return r;
}

// The first "model name" line of /proc/cpuinfo, or "unknown".
std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string model = line.substr(colon + 1);
    model.erase(0, model.find_first_not_of(' '));
    for (char& ch : model) {
      if (ch == '"' || ch == '\\') ch = ' ';
    }
    return model;
  }
  return "unknown";
}

}  // namespace

int Main(int argc, char** argv) {
  BenchOptions options = BenchOptions::Parse(argc, argv);
  std::vector<size_t> sizes =
      options.quick ? std::vector<size_t>{10000, 100000}
                    : std::vector<size_t>{10000, 100000, 1000000};

  std::printf("Split-kernel bench: exact vs histogram (max_bins=%d), "
              "one tree, depth 8, 8 numeric columns\n\n",
              options.max_bins);

  TablePrinter table({"case", "rows", "exact(ms)", "hist(ms)", "binning(ms)",
                      "speedup", "same tree"});
  std::vector<CaseResult> results;
  for (TaskKind kind : {TaskKind::kClassification, TaskKind::kRegression}) {
    for (size_t rows : sizes) {
      CaseResult r = RunCase(kind, rows, options.max_bins);
      table.AddRow({r.label, std::to_string(r.rows), Fmt(r.exact_ms),
                    Fmt(r.hist_ms), Fmt(r.bin_build_ms), Fmt(r.speedup) + "x",
                    r.identical ? "yes" : "no"});
      results.push_back(std::move(r));
    }
  }
  table.Print();
  std::printf("\n(same tree = serialized trees byte-identical after "
              "Canonicalize; expected only when the columns have more bins "
              "than distinct values)\n\n");

  // Single-thread kernel throughput: scalar twin vs the dispatched
  // level, on the trainer's fused per-node histogram pass.
  const size_t kernel_rows = options.quick ? 200000 : 1000000;
  const int kernel_iters = options.quick ? 5 : 10;
  std::printf("Histogram-build kernel (single thread, %zu rows x 8 columns, "
              "simd=%s, detected=%s):\n",
              kernel_rows, SimdLevelName(ActiveSimdLevel()),
              SimdLevelName(DetectedSimdLevel()));
  TablePrinter kernel_table({"task", "scalar-twin rows/s", "active rows/s",
                             "speedup", "bit-identical"});
  std::vector<KernelResult> kernels;
  for (TaskKind kind : {TaskKind::kClassification, TaskKind::kRegression}) {
    KernelResult k = RunKernelCase(kind, kernel_rows, options.max_bins,
                                   kernel_iters);
    kernel_table.AddRow({k.label, Fmt(k.scalar_rps, 0), Fmt(k.active_rps, 0),
                         Fmt(k.speedup, 2) + "x",
                         k.identical ? "yes" : "NO"});
    kernels.push_back(std::move(k));
  }
  kernel_table.Print();
  std::printf("\n");

  // Categorical kernel, both ways, on the allstate-like shape.
  const CategoricalResult cat = RunCategoricalCase(
      options.quick ? 50000 : 150000, options.quick ? 3 : 7);
  std::printf("Categorical split kernel (allstate-like, %zu rows, %d "
              "categorical columns, regression, root node):\n",
              cat.rows, cat.categorical_columns);
  TablePrinter cat_table({"exact ns/row-col", "hist ns/row-col", "speedup",
                          "same split", "serial hist tree (ms)"});
  cat_table.AddRow({Fmt(cat.exact_ns, 2), Fmt(cat.hist_ns, 2),
                    Fmt(cat.hist_ns > 0 ? cat.exact_ns / cat.hist_ns : 0.0,
                        2) + "x",
                    cat.same_split ? "yes" : "NO", Fmt(cat.tree_ms)});
  cat_table.Print();
  std::printf("\n");
  if (!cat.same_split) {
    std::printf("FATAL: categorical splits differ between the exact kernel "
                "and the histogram path\n");
    return 1;
  }

  std::string json = "{\"bench\":\"split\",\"cores\":" +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ",\"cpu\":\"" + CpuModel() + "\",\"max_bins\":" +
                     std::to_string(options.max_bins) + ",\"simd\":\"" +
                     SimdLevelName(ActiveSimdLevel()) + "\"";
  {
    char cbuf[200];
    std::snprintf(cbuf, sizeof(cbuf),
                  ",\"cat_rows\":%zu,\"cat_exact_ns_per_row_col\":%.2f,"
                  "\"cat_hist_ns_per_row_col\":%.2f,\"cat_tree_hist_ms\":%.1f",
                  cat.rows, cat.exact_ns, cat.hist_ns, cat.tree_ms);
    json += cbuf;
  }
  for (const KernelResult& k : kernels) {
    char kbuf[200];
    std::snprintf(kbuf, sizeof(kbuf),
                  ",\"hist_build_%s_scalar_rps\":%.0f,"
                  "\"hist_build_%s_active_rps\":%.0f,"
                  "\"hist_build_%s_speedup\":%.2f",
                  k.label.c_str(), k.scalar_rps, k.label.c_str(),
                  k.active_rps, k.label.c_str(), k.speedup);
    json += kbuf;
    if (!k.identical) {
      std::printf("FATAL: %s kernel histograms diverge between scalar and "
                  "the active level\n", k.label.c_str());
      return 1;
    }
  }
  char buf[160];
  for (const CaseResult& r : results) {
    std::snprintf(buf, sizeof(buf),
                  ",\"%s_exact_ms\":%.1f,\"%s_hist_ms\":%.1f,"
                  "\"%s_speedup\":%.2f",
                  r.label.c_str(), r.exact_ms, r.label.c_str(), r.hist_ms,
                  r.label.c_str(), r.speedup);
    json += buf;
  }
  json += "}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace bench
}  // namespace treeserver

int main(int argc, char** argv) { return treeserver::bench::Main(argc, argv); }
