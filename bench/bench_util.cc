#include "bench_util.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/metrics_registry.h"
#include "common/trace.h"

namespace treeserver {
namespace bench {

namespace {

// atexit handlers cannot take arguments, so the flag values live here.
std::string* trace_out_path = nullptr;
bool metrics_dump_requested = false;

void DumpObservabilityAtExit() {
  if (trace_out_path != nullptr) {
    Status st = Tracer::Global().WriteChromeTrace(*trace_out_path);
    if (st.ok()) {
      std::fprintf(stderr, "[bench] wrote %zu trace events to %s\n",
                   Tracer::Global().event_count(), trace_out_path->c_str());
    } else {
      std::fprintf(stderr, "[bench] trace write failed: %s\n",
                   st.ToString().c_str());
    }
  }
  if (metrics_dump_requested) {
    std::fprintf(stderr, "%s", MetricsRegistry::Global().DumpText().c_str());
  }
}

}  // namespace

BenchOptions BenchOptions::Parse(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--scale=", 8) == 0) {
      options.scale = std::atof(arg + 8);
    } else if (std::strcmp(arg, "--quick") == 0) {
      options.quick = true;
      options.scale = std::min(options.scale, 0.0002);
      options.min_rows = 1500;
    } else if (std::strncmp(arg, "--workers=", 10) == 0) {
      options.workers = std::atoi(arg + 10);
    } else if (std::strncmp(arg, "--compers=", 10) == 0) {
      options.compers = std::atoi(arg + 10);
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      options.trace_out = arg + 12;
    } else if (std::strncmp(arg, "--stats-period=", 15) == 0) {
      options.stats_period_ms = std::atoi(arg + 15);
    } else if (std::strcmp(arg, "--stats") == 0) {
      options.dump_metrics = true;
    } else if (std::strcmp(arg, "--split-method=histogram") == 0) {
      options.split_method = SplitMethod::kHistogram;
    } else if (std::strcmp(arg, "--split-method=exact") == 0) {
      options.split_method = SplitMethod::kExact;
    } else if (std::strncmp(arg, "--max-bins=", 11) == 0) {
      options.max_bins = std::atoi(arg + 11);
    }
  }
  if (!options.trace_out.empty() || options.dump_metrics) {
    static bool registered = false;
    if (!options.trace_out.empty()) {
      Tracer::Global().Enable();
      trace_out_path = new std::string(options.trace_out);
    }
    metrics_dump_requested |= options.dump_metrics;
    if (!registered) {
      registered = true;
      std::atexit(DumpObservabilityAtExit);
    }
  }
  return options;
}

const PreparedData& Prepare(const std::string& name,
                            const BenchOptions& options) {
  static std::map<std::string, PreparedData>* cache =
      new std::map<std::string, PreparedData>();
  std::string key = name + "@" + std::to_string(options.scale) + "/" +
                    std::to_string(options.min_rows);
  auto it = cache->find(key);
  if (it != cache->end()) return it->second;

  DatasetProfile profile = PaperProfile(name, options.scale,
                                        options.min_rows);
  DataTable all = GenerateTable(profile, /*seed=*/20260705);
  Rng rng(7);
  auto [train, test] = all.TrainTestSplit(0.25, &rng);
  PreparedData data{std::move(profile), std::move(train), std::move(test)};
  return cache->emplace(key, std::move(data)).first->second;
}

uint64_t ScaledTauD(const BenchOptions& options) {
  return std::max<uint64_t>(
      200, static_cast<uint64_t>(10000.0 * options.scale * 1000.0));
}

uint64_t ScaledTauDfs(const BenchOptions& options) {
  return std::max<uint64_t>(
      ScaledTauD(options) * 8,
      static_cast<uint64_t>(80000.0 * options.scale * 1000.0));
}

EngineConfig DefaultEngine(const BenchOptions& options) {
  EngineConfig cfg;
  cfg.num_workers = options.workers;
  cfg.compers_per_worker = options.compers;
  cfg.replication = 2;
  cfg.tau_d = ScaledTauD(options);
  cfg.tau_dfs = ScaledTauDfs(options);
  cfg.npool = 200;
  cfg.stats_period_ms = options.stats_period_ms;
  return cfg;
}

std::string FormatMetric(TaskKind kind, double metric) {
  char buf[32];
  if (kind == TaskKind::kClassification) {
    std::snprintf(buf, sizeof(buf), "%.2f%%", metric * 100.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", metric);
  }
  return buf;
}

double ModeledWall(const EngineMetrics& metrics, const EngineConfig& config,
                   double max_endpoint_bytes) {
  double total_compers = static_cast<double>(config.num_workers) *
                         config.compers_per_worker;
  double cpu_term = metrics.comper_busy_seconds / total_compers;
  double net_term = 0.0;
  if (config.bandwidth_mbps > 0) {
    net_term = max_endpoint_bytes / (config.bandwidth_mbps * 1e6 / 8.0);
  }
  return std::max(cpu_term, net_term);
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    std::printf("|");
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : "";
      std::printf(" %-*s |", static_cast<int>(widths[c]), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::printf("|");
  for (size_t c = 0; c < widths.size(); ++c) {
    std::printf("%s|", std::string(widths[c] + 2, '-').c_str());
  }
  std::printf("\n");
  for (const auto& row : rows_) print_row(row);
  std::fflush(stdout);
}

std::string Fmt(double v, int decimals) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

}  // namespace bench
}  // namespace treeserver
