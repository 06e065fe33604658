#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/master.h"
#include "forest/forest.h"
#include "ledger.h"
#include "table/data_table.h"
#include "table/datasets.h"

namespace perfbench {

using treeserver::DataTable;
using treeserver::DatasetProfile;
using treeserver::EngineConfig;
using treeserver::ForestJobSpec;
using treeserver::ForestModel;
using treeserver::SplitMethod;

/// One benchmark workload: a forest job trained on the engine, then the
/// trained forest served under open-loop load. README.md gives the
/// rationale of each and the layers it exercises.
struct Workload {
  std::string name;

  // -- Training ----------------------------------------------------------
  DatasetProfile profile;
  /// Round the regression target to integers, so histogram target sums
  /// carry no rounding and the engine stays byte-identical to the serial
  /// trainer (DESIGN.md §11).
  bool round_target = false;
  int num_trees = 0;
  int max_depth = 0;
  bool sqrt_columns = false;
  double column_ratio = 1.0;
  SplitMethod split_method = SplitMethod::kExact;
  /// Master plus 4 worker ranks, each on its own loopback TcpTransport;
  /// otherwise one InProcessTransport.
  bool tcp = false;

  // -- Serving -----------------------------------------------------------
  /// 16-row FleetRouter::PredictRows batches to 2 in-process replicas;
  /// otherwise single-row InferenceServer::Predict calls.
  bool fleet = false;
  int rows_per_request = 1;
  /// Fixed offered rates of the two latency phases, requests/s (about
  /// 30% and 40-50% of the saturation rate measured on a 4-vCPU x86-64;
  /// see README.md for why not 70%).
  double lo_rate = 0.0;
  double hi_rate = 0.0;
  /// Ascending fixed rates, requests/s; slo_rows_per_s is the highest
  /// one whose p99 stays within `p99_limit_us` without a growing
  /// backlog.
  std::vector<double> ladder;
  double p99_limit_us = 0.0;
};

const std::vector<Workload>& Workloads();
/// nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);

/// The workload's training table, generated from `seed` alone.
DataTable MakeTable(const Workload& w, uint64_t seed);
ForestJobSpec MakeJob(const Workload& w, uint64_t seed);
/// ForestModel::Serialize bytes: the parity currency of training and
/// the payload of a fleet push.
std::string ForestBytes(const ForestModel& forest);

/// 4 workers x 1 comper with the paper's unscaled thresholds
/// (τ_D = 10000, τ_dfs = 80000).
EngineConfig MakeEngineConfig();

/// Operations attempted and failed across a run. A mismatch is also a
/// failure, and additionally marks the run incorrect.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatched = 0;
};

struct RunOptions {
  uint64_t seed = 1;
  /// Measured time of this stage (training or serving).
  double seconds = 1.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
};

struct TrainOutcome {
  /// The engine's forest; byte-identical to TrainForestSerial.
  ForestModel forest;
  double setup_s = 0.0;
};

/// Trains the workload's job on the engine and serially, checking every
/// engine forest against the serial bytes. Untraced runs set train_s,
/// serial_s and net_mb; traced runs set the table, tree, engine, net,
/// rpc and trace.* per-layer metrics.
TrainOutcome RunTraining(const Workload& w, const DataTable& table,
                         const RunOptions& options, Ledger* out,
                         Tally* tally);

/// Serves `forest` under open-loop load and returns the median set-up
/// time (publish or push, plus server start). Untraced runs set the
/// p50/p99 and slo metrics; traced runs set serve.*, fleet.* and
/// bench.* per-layer metrics.
double RunServing(const Workload& w, const DataTable& table,
                  const ForestModel& forest, const RunOptions& options,
                  Ledger* out, Tally* tally);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
