// Inference-serving benchmark: compiled batched prediction vs the
// row-at-a-time ForestModel reference, and thread scaling of the
// batched path. Every compiled label is checked against the reference.
//
// Expected shape: the compiled structure-of-arrays traversal beats
// row-at-a-time prediction by well over 5x on one thread (no per-row
// PMF vector allocations, one tree's nodes stay hot across a whole row
// block), and the batched path scales near-linearly with threads since
// rows are embarrassingly parallel. Request latency under load is
// perfbench's job (open-loop p50/p99 and slo_rows_per_s).
//
// Emits BENCH_serve.json into the working directory.

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/simd.h"
#include "common/timer.h"
#include "forest/forest.h"
#include "serve/compiled_model.h"

using namespace treeserver;         // NOLINT
using namespace treeserver::bench;  // NOLINT

namespace {

double RowsPerSec(size_t rows, double seconds) {
  return seconds > 0 ? static_cast<double>(rows) / seconds : 0.0;
}

/// Batched compiled prediction with rows partitioned over `threads`.
double TimeCompiledThreads(const CompiledForest& compiled,
                           const DataTable& table, int threads,
                           std::vector<int32_t>* out) {
  const size_t n = table.num_rows();
  std::vector<uint32_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = static_cast<uint32_t>(i);
  out->assign(n, 0);
  WallTimer timer;
  if (threads <= 1) {
    compiled.PredictLabel(table, rows.data(), n, -1, out->data());
    return timer.Seconds();
  }
  std::vector<std::thread> pool;
  const size_t chunk = (n + threads - 1) / threads;
  for (int t = 0; t < threads; ++t) {
    const size_t begin = std::min(n, t * chunk);
    const size_t end = std::min(n, begin + chunk);
    if (begin == end) break;
    pool.emplace_back([&, begin, end] {
      compiled.PredictLabel(table, rows.data() + begin, end - begin, -1,
                            out->data() + begin);
    });
  }
  for (auto& th : pool) th.join();
  return timer.Seconds();
}

void WriteJsonFile(const char* path, const std::string& json) {
  std::printf("%s", json.c_str());
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options = BenchOptions::Parse(argc, argv);
  const size_t rows = options.quick ? 20000 : 60000;
  const int trees = options.quick ? 20 : 40;

  DatasetProfile profile;
  profile.name = "serve_bench";
  profile.rows = rows;
  profile.num_numeric = 8;
  profile.num_categorical = 4;
  profile.num_classes = 5;
  profile.missing_fraction = 0.05;
  profile.concept_depth = 8;
  DataTable table = GenerateTable(profile, 7);

  ForestJobSpec spec;
  spec.num_trees = trees;
  spec.tree.max_depth = 12;
  spec.sqrt_columns = true;
  std::printf("== Serving bench: %zu rows, %d trees, %u hardware threads ==\n",
              rows, trees, std::thread::hardware_concurrency());
  WallTimer train_timer;
  ForestModel forest = TrainForestSerial(table, spec, options.compers * 2);
  std::printf("trained in %.2fs\n", train_timer.Seconds());

  // Row-at-a-time reference.
  WallTimer ref_timer;
  std::vector<int32_t> ref_labels(table.num_rows());
  for (size_t i = 0; i < table.num_rows(); ++i) {
    ref_labels[i] = forest.PredictLabel(table, i);
  }
  const double ref_s = ref_timer.Seconds();

  WallTimer compile_timer;
  CompiledForest compiled = CompiledForest::Compile(forest);
  const double compile_s = compile_timer.Seconds();

  TablePrinter table_out({"Predictor", "Threads", "Time (s)", "Rows/s",
                          "Speedup vs row-at-a-time"});
  table_out.AddRow({"ForestModel (row-at-a-time)", "1", Fmt(ref_s, 3),
                    Fmt(RowsPerSec(rows, ref_s), 0), "1.00"});
  std::vector<int32_t> got;
  double single_s = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    const double s = TimeCompiledThreads(compiled, table, threads, &got);
    if (threads == 1) single_s = s;
    if (got != ref_labels) {
      std::printf("FATAL: compiled labels diverge at %d threads\n", threads);
      return 1;
    }
    table_out.AddRow({"CompiledForest (batched)", std::to_string(threads),
                      Fmt(s, 3), Fmt(RowsPerSec(rows, s), 0),
                      Fmt(ref_s / s, 2)});
  }
  table_out.Print();
  std::printf("compile time: %.3fs; single-thread compiled speedup: %.2fx; "
              "8-thread scaling vs 1-thread: %.2fx "
              "(bounded by the %u hardware threads above)\n",
              compile_s, ref_s / single_s,
              single_s / TimeCompiledThreads(compiled, table, 8, &got),
              std::thread::hardware_concurrency());

  char serve_json[256];
  std::snprintf(serve_json, sizeof(serve_json),
                "{\"bench\":\"serve\",\"rows\":%zu,\"trees\":%d,"
                "\"simd\":\"%s\",\"compiled_speedup\":%.2f,"
                "\"compile_s\":%.3f}\n",
                rows, trees, SimdLevelName(ActiveSimdLevel()),
                ref_s / single_s, compile_s);
  WriteJsonFile("BENCH_serve.json", serve_json);
  return 0;
}
