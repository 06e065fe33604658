#ifndef TREESERVER_ENGINE_CLUSTER_H_
#define TREESERVER_ENGINE_CLUSTER_H_

#include <memory>
#include <vector>

#include "engine/master.h"
#include "engine/worker.h"
#include "rpc/in_process_transport.h"

namespace treeserver {

class StatsReporter;

/// Full engine observability snapshot: scheduler state from the
/// master, queue depths and busy time from every worker, per-endpoint
/// traffic and channel histograms from the network. The master's
/// predicted per-worker M_work load sits next to the actual bytes and
/// busy-time so scheduling imbalance is directly visible.
struct EngineStats {
  MasterStats master;
  std::vector<WorkerStats> workers;
  NetworkStats network;
  /// Current / peak worker task memory (I_x buffers + gathered D_x
  /// columns), summed over workers.
  int64_t task_memory_bytes = 0;
  int64_t task_memory_peak = 0;
};

/// Point-in-time engine statistics for the experiment harnesses.
struct EngineMetrics {
  /// Total bytes pushed through the simulated interconnect.
  uint64_t bytes_sent_total = 0;
  /// Aggregate comper busy time across all workers, in seconds.
  double comper_busy_seconds = 0.0;
  /// High-water mark of worker task memory (I_x buffers + gathered
  /// D_x columns), in bytes, summed over workers.
  int64_t peak_task_memory_bytes = 0;
  uint64_t tasks_scheduled = 0;
  uint64_t trees_completed = 0;
  uint64_t trees_restarted = 0;
};

/// The user-facing TreeServer system: one master plus N simulated
/// worker machines sharing an in-process network (Fig. 2).
///
/// Construction loads the table: feature columns are partitioned among
/// workers with `replication` copies each, Y goes everywhere. Jobs are
/// submitted to the master and return forests; any number of jobs can
/// be in flight (the master mixes their trees in one task pool).
class TreeServerCluster {
 public:
  TreeServerCluster(DataTable table, EngineConfig config);
  ~TreeServerCluster();

  TreeServerCluster(const TreeServerCluster&) = delete;
  TreeServerCluster& operator=(const TreeServerCluster&) = delete;

  /// Enqueues a job; returns a handle for Wait().
  uint32_t Submit(const ForestJobSpec& spec) { return master_->Submit(spec); }

  /// Blocks until the job completes. Dumps an engine stats report at
  /// completion when the stats reporter is enabled.
  ForestModel Wait(uint32_t job_id);

  /// Submit + Wait.
  ForestModel TrainForest(const ForestJobSpec& spec) {
    return Wait(Submit(spec));
  }

  /// Simulates a machine failure: the worker stops responding and the
  /// master re-plans / restarts the affected work.
  void CrashWorker(int worker);

  /// Simulates a master failure with a secondary master taking over
  /// (Appendix E): the old master's periodic checkpoint (job specs +
  /// completed trees) seeds a fresh master; workers drop all task
  /// state and unfinished trees are retrained. Must not run
  /// concurrently with Wait() on this cluster — re-issue Wait() after
  /// the failover (job ids remain valid).
  void FailoverMaster();

  EngineMetrics metrics() const;
  /// Clears traffic/busy counters (between benchmark phases).
  void ResetMetrics();

  /// Full observability snapshot across master, workers, and network.
  EngineStats GetEngineStats() const;

  const EngineConfig& config() const { return config_; }
  InProcessTransport& network() { return *network_; }
  const Master& master() const { return *master_; }

 private:
  // Declaration order doubles as reverse destruction order: workers
  // (whose task objects reference the gauges) must die before the
  // gauges, the master, and the network.
  EngineConfig config_;
  std::shared_ptr<const DataTable> table_;
  std::unique_ptr<InProcessTransport> network_;
  std::unique_ptr<PeakGauge> task_memory_;
  std::vector<std::unique_ptr<BusyClock>> busy_clocks_;
  std::unique_ptr<Master> master_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<StatsReporter> stats_reporter_;
};

}  // namespace treeserver

#endif  // TREESERVER_ENGINE_CLUSTER_H_
