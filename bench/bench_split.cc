// Split-kernel microbenchmark: exact (per-node sorted scans) vs
// histogram (pre-binned columns + sibling subtraction) split finding,
// at 10k / 100k / 1M rows for both learning tasks.
//
// Each case trains one full tree over all-numeric candidate columns
// and reports the train wall time per method. The histogram timing
// excludes the one-off BinnedTable build (it happens once per job, or
// once per held column on an engine worker, and is shared by every
// tree) but the build cost is reported alongside so nothing hides.
// Emits a one-line JSON summary (bench=split) after the table; check in
// as BENCH_split.json.
//
// Flags: --quick (smaller sizes), --max-bins=N (default 255).

#include <cstdio>
#include <cstring>
#include <string>
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

  std::string json = "{\"bench\":\"split\",\"max_bins\":" +
                     std::to_string(options.max_bins) + ",\"simd\":\"" +
                     SimdLevelName(ActiveSimdLevel()) + "\"";
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
