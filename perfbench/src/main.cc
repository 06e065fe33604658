// TreeServer benchmark harness: one workload per invocation.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Trains the workload's forest job on the engine (and serially, as the
// baseline and parity reference), then serves the trained forest under
// open-loop load. Prints one JSON line:
//   {"host": {...}, "correct": b, "attempted": n, "failed": n,
//    "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones. perfbench/run.py builds this binary and filters the
// line down to the metrics BENCHMARK.json names.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "ledger.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  std::string name;
  RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      name = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const Workload* w = FindWorkload(name);
  if (w == nullptr) return Usage(("unknown workload '" + name + "'").c_str());
  if (options.seconds <= 0) return Usage("--seconds must be positive");
  if (const std::string why = UntimeableBuildReason(); !why.empty()) {
    std::fprintf(stderr, "perfbench: refusing to time a %s\n", why.c_str());
    return 3;
  }

  const DataTable table = MakeTable(*w, options.seed);
  Ledger metrics;
  Tally tally;
  // Training and serving share the measured time evenly.
  RunOptions stage = options;
  stage.seconds = options.seconds / 2;
  TrainOutcome trained = RunTraining(*w, table, stage, &metrics, &tally);
  const double serve_setup_s =
      RunServing(*w, table, trained.forest, stage, &metrics, &tally);
  if (!options.trace) {
    metrics.Set("setup_s", trained.setup_s + serve_setup_s, "s");
    metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
  }

  std::printf(
      "{\"host\": %s, \"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      HostBuildJson().c_str(), tally.mismatched == 0 ? "true" : "false",
      static_cast<unsigned long long>(tally.attempted),
      static_cast<unsigned long long>(tally.failed), metrics.ToJson().c_str());
  return 0;
}
