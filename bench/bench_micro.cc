// Micro-benchmarks (google-benchmark) for the hot paths: exact split
// finders, target statistics, the plan deque, the concurrent hash map,
// and message serialization. These are throughput measurements, not
// paper-table reproductions.
//
// `--obs-overhead` runs the observability cost guard instead: the same
// training job with the tracer + a scraped /metrics endpoint on vs
// everything off, in interleaved pairs; the overhead is the median of
// the pairs' on/off ratios (21 pairs, or 63 when the first 21 read over
// budget). Writes BENCH_obs.json and exits non-zero when the overhead
// exceeds 3% — the observability plane must stay effectively free.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/http_server.h"
#include "common/prometheus.h"
#include "common/rng.h"
#include "common/serial.h"
#include "common/timer.h"
#include "common/trace.h"
#include "concurrent/concurrent_hash_map.h"
#include "concurrent/plan_deque.h"
#include "engine/cluster.h"
#include "table/datasets.h"
#include "tree/split.h"
#include "tree/trainer.h"

namespace treeserver {
namespace {

ColumnPtr MakeNumericColumn(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.UniformDouble();
  return Column::Numeric("x", std::move(v));
}

ColumnPtr MakeLabelColumn(size_t n, int classes, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> v(n);
  for (int32_t& x : v) x = static_cast<int32_t>(rng.Uniform(classes));
  return Column::Categorical("y", std::move(v), classes);
}

void BM_NumericSplitClassification(benchmark::State& state) {
  const size_t n = state.range(0);
  ColumnPtr x = MakeNumericColumn(n, 1);
  ColumnPtr y = MakeLabelColumn(n, 2, 2);
  SplitContext ctx{TaskKind::kClassification, Impurity::kGini, 2};
  for (auto _ : state) {
    SplitOutcome o = FindBestSplit(*x, 0, *y, ctx, nullptr, n);
    benchmark::DoNotOptimize(o);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NumericSplitClassification)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_NumericSplitRegression(benchmark::State& state) {
  const size_t n = state.range(0);
  ColumnPtr x = MakeNumericColumn(n, 3);
  ColumnPtr y = MakeNumericColumn(n, 4);
  SplitContext ctx{TaskKind::kRegression, Impurity::kVariance, 0};
  for (auto _ : state) {
    SplitOutcome o = FindBestSplit(*x, 0, *y, ctx, nullptr, n);
    benchmark::DoNotOptimize(o);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NumericSplitRegression)->Arg(1000)->Arg(100000);

void BM_CategoricalSplit(benchmark::State& state) {
  const size_t n = state.range(0);
  Rng rng(5);
  std::vector<int32_t> xv(n);
  for (int32_t& v : xv) v = static_cast<int32_t>(rng.Uniform(12));
  ColumnPtr x = Column::Categorical("x", std::move(xv), 12);
  ColumnPtr y = MakeLabelColumn(n, 5, 6);
  SplitContext ctx{TaskKind::kClassification, Impurity::kGini, 5};
  for (auto _ : state) {
    SplitOutcome o = FindBestSplit(*x, 0, *y, ctx, nullptr, n);
    benchmark::DoNotOptimize(o);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CategoricalSplit)->Arg(1000)->Arg(100000);

void BM_TrainTree(benchmark::State& state) {
  DatasetProfile p;
  p.rows = state.range(0);
  p.num_numeric = 8;
  p.num_categorical = 2;
  p.num_classes = 3;
  DataTable t = GenerateTable(p, 7);
  TreeConfig cfg;
  cfg.max_depth = 10;
  for (auto _ : state) {
    TreeModel m = TrainTreeOnTable(t, t.schema().FeatureIndices(), cfg);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations() * p.rows);
}
BENCHMARK(BM_TrainTree)->Arg(2000)->Arg(20000);

void BM_PlanDeque(benchmark::State& state) {
  PlanDeque<int> dq;
  for (auto _ : state) {
    dq.PushBack(1);
    dq.PushFront(2);
    benchmark::DoNotOptimize(dq.TryPopFront());
    benchmark::DoNotOptimize(dq.TryPopFront());
  }
}
BENCHMARK(BM_PlanDeque);

void BM_ConcurrentHashMap(benchmark::State& state) {
  ConcurrentHashMap<uint64_t, int> map(16);
  uint64_t i = 0;
  for (auto _ : state) {
    map.Insert(i, 1);
    map.Visit(i, [](int& v) { ++v; });
    map.Erase(i);
    ++i;
  }
}
BENCHMARK(BM_ConcurrentHashMap);

void BM_SerializeSplitOutcome(benchmark::State& state) {
  ColumnPtr x = MakeNumericColumn(10000, 8);
  ColumnPtr y = MakeLabelColumn(10000, 4, 9);
  SplitContext ctx{TaskKind::kClassification, Impurity::kGini, 4};
  SplitOutcome o = FindBestSplit(*x, 0, *y, ctx, nullptr, 10000);
  for (auto _ : state) {
    BinaryWriter w;
    o.Serialize(&w);
    BinaryReader r(w.buffer());
    SplitOutcome back;
    benchmark::DoNotOptimize(SplitOutcome::Deserialize(&r, &back));
  }
}
BENCHMARK(BM_SerializeSplitOutcome);

/// One training run; with `obs` on, the tracer records and a /metrics
/// endpoint is scraped every 50ms for the duration — the realistic
/// "monitored" configuration. Returns the job wall time in ms.
double ObsGuardRun(const DataTable& table, bool obs) {
  HttpServer http;
  std::thread scraper;
  std::atomic<bool> stop_scraper{false};
  if (obs) {
    Tracer::Global().Clear();
    Tracer::Global().Enable();
    http.Handle("/metrics", [](const std::string&) {
      HttpResponse resp;
      resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
      resp.body = PrometheusExport(MetricsRegistry::Global().Snapshot());
      return resp;
    });
    if (http.Start("127.0.0.1", 0).ok()) {
      scraper = std::thread([&stop_scraper, port = http.port()] {
        while (!stop_scraper.load(std::memory_order_relaxed)) {
          std::string body;
          HttpGet("127.0.0.1", port, "/metrics", &body);
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      });
    }
  }

  EngineConfig cfg;
  cfg.num_workers = 4;
  // One comper per worker: eight on a 4-vCPU host added scheduling
  // noise that swamped the tracer's cost.
  cfg.compers_per_worker = 1;
  cfg.tau_d = 2000;
  cfg.tau_dfs = 8000;
  ForestJobSpec spec;
  spec.num_trees = 4;
  spec.tree.max_depth = 10;

  WallTimer timer;
  TreeServerCluster cluster(table, cfg);
  ForestModel forest = cluster.TrainForest(spec);
  const double ms = timer.Millis();
  benchmark::DoNotOptimize(forest);

  if (obs) {
    stop_scraper.store(true, std::memory_order_relaxed);
    if (scraper.joinable()) scraper.join();
    http.Stop();
    Tracer::Global().Disable();
    std::printf("  (traced %zu events, dropped %llu)\n",
                Tracer::Global().event_count(),
                static_cast<unsigned long long>(
                    Tracer::Global().dropped_spans()));
    Tracer::Global().Clear();
  }
  return ms;
}

int RunObsOverheadGuard() {
  DatasetProfile profile;
  profile.name = "obs-guard";
  profile.rows = 30000;
  profile.num_numeric = 8;
  profile.num_categorical = 2;
  profile.num_classes = 3;
  profile.noise = 0.05;
  profile.concept_depth = 6;
  DataTable table = GenerateTable(profile, /*seed=*/17);

  // One uncounted warmup pair (page cache, allocator, thread pools),
  // then interleaved off/on pairs, alternating which side runs first so
  // machine drift favours neither. Each pair yields one on/off ratio
  // and the guard reads their median: one slow run on a shared box
  // moves one ratio, not the verdict (a min per side moved with every
  // lucky run and flapped around the budget). Pair ratios still spread
  // about ±6% on a shared 4-vCPU host, so a median of 21 sits within
  // about ±1.5% of the true cost; when it reads over budget the guard
  // doubles down with 42 more pairs and judges the median of all 63. A
  // real regression (per-row tracing, a hot-path lock) stays over
  // budget; a noisy first sample does not.
  ObsGuardRun(table, /*obs=*/false);
  ObsGuardRun(table, /*obs=*/true);
  std::vector<double> offs, ons, ratios;
  auto run_pairs = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const int pair = static_cast<int>(ratios.size());
      double off, on;
      if (pair % 2 == 0) {
        off = ObsGuardRun(table, /*obs=*/false);
        on = ObsGuardRun(table, /*obs=*/true);
      } else {
        on = ObsGuardRun(table, /*obs=*/true);
        off = ObsGuardRun(table, /*obs=*/false);
      }
      offs.push_back(off);
      ons.push_back(on);
      ratios.push_back(on / off);
      std::printf("obs-overhead pair %d: off=%.1fms on=%.1fms (%+.2f%%)\n",
                  pair + 1, off, on, (on / off - 1.0) * 100.0);
    }
  };
  auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  constexpr double kBudgetPct = 3.0;
  constexpr int kPairs = 21;
  run_pairs(kPairs);
  double overhead_pct = (median(ratios) - 1.0) * 100.0;
  if (overhead_pct > kBudgetPct) {
    std::printf("obs-overhead: %.2f%% over %d pairs exceeds the budget; "
                "re-measuring with %d more\n",
                overhead_pct, kPairs, 2 * kPairs);
    run_pairs(2 * kPairs);
    overhead_pct = (median(ratios) - 1.0) * 100.0;
  }
  const double off_ms = median(offs);
  const double on_ms = median(ons);
  char json[256];
  std::snprintf(json, sizeof(json),
                "{\"bench\":\"obs\",\"off_ms\":%.1f,\"on_ms\":%.1f,"
                "\"pairs\":%d,\"overhead_pct\":%.2f,\"budget_pct\":%.1f}\n",
                off_ms, on_ms, static_cast<int>(ratios.size()), overhead_pct,
                kBudgetPct);
  std::printf("%s", json);
  if (std::FILE* f = std::fopen("BENCH_obs.json", "w")) {
    std::fputs(json, f);
    std::fclose(f);
  }
  if (overhead_pct > kBudgetPct) {
    std::fprintf(stderr,
                 "FAIL: observability overhead %.2f%% exceeds %.1f%% budget\n",
                 overhead_pct, kBudgetPct);
    return 1;
  }
  std::printf("PASS: observability overhead %.2f%% within %.1f%% budget\n",
              overhead_pct, kBudgetPct);
  return 0;
}

}  // namespace
}  // namespace treeserver

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == std::string("--obs-overhead")) {
      return treeserver::RunObsOverheadGuard();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
