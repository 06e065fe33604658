#ifndef TREESERVER_ENGINE_WORKER_H_
#define TREESERVER_ENGINE_WORKER_H_

#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "concurrent/blocking_queue.h"
#include "concurrent/concurrent_hash_map.h"
#include "engine/messages.h"
#include "engine/reliable.h"
#include "rpc/transport.h"
#include "table/binned.h"
#include "table/data_table.h"
#include "tree/hist.h"

namespace treeserver {

/// Point-in-time worker-side statistics (part of EngineStats).
struct WorkerStats {
  int worker = -1;
  /// Task objects parked in the worker's T_task (waiting for data,
  /// executing, or serving I_x as a delegate).
  size_t tasks_parked = 0;
  /// Ready tasks queued in B_task, waiting for a free comper.
  size_t btask_depth = 0;
  uint64_t tasks_computed = 0;
  /// Aggregate comper busy time so far, in seconds.
  double busy_seconds = 0.0;
  /// Feature columns this worker has binned (under any bin budget),
  /// numeric and categorical, ascending. Only a column's holders bin
  /// it.
  std::vector<int32_t> binned_columns;
  /// Feature columns this worker has ranked for exact column tasks,
  /// ascending. Only a column's holders rank it.
  std::vector<int32_t> ranked_columns;
};

/// A TreeServer worker machine (Fig. 7 / Fig. 14(b)).
///
/// Runs three kinds of threads:
///  - θ_main: drains the task channel (plans and verdicts from the
///    master), posting data requests for new tasks;
///  - θ_recv: drains the data channel (I_x and column-data traffic),
///    moving tasks whose data is complete into the task buffer B_task;
///  - compers: pop ready tasks from B_task, compute, and send results
///    to the master.
///
/// Tasks waiting for data park in the task table T_task without
/// occupying a comper — the T-thinker suspension that overlaps
/// communication with computation.
class Worker {
 public:
  /// `debug_slow_task_ms` > 0 makes every task computation sleep that
  /// long first — a deterministic straggler for watchdog tests.
  Worker(int id, std::shared_ptr<const DataTable> table, Transport* network,
         int num_compers, PeakGauge* task_memory, BusyClock* busy_clock,
         bool compress_transfers = false, int debug_slow_task_ms = 0,
         ReliableOptions reliable = ReliableOptions());
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  void Start();
  /// Joins all threads; queues must be closed first (by the cluster).
  void Join();

  int id() const { return id_; }
  /// Number of task objects currently parked (for tests/diagnostics).
  size_t num_pending_tasks() const { return tasks_.size(); }
  uint64_t tasks_computed() const { return computed_.value(); }

  /// Snapshot of queue depths and work counters. Thread-safe.
  WorkerStats GetStats() const;

 private:
  enum class TaskKindTag : uint8_t { kColumn, kSubtree, kServe };

  /// One entry of the worker's task table T_task. Guarded by `mu`
  /// (threads take a shared_ptr out of the map, then lock).
  struct TaskState {
    explicit TaskState(PeakGauge* gauge) : memory_gauge(gauge) {}
    ~TaskState() {
      if (memory_gauge != nullptr && mem_bytes > 0) {
        memory_gauge->Sub(mem_bytes);
      }
    }

    std::mutex mu;
    TaskKindTag kind = TaskKindTag::kColumn;
    uint32_t tree_id = 0;

    ColumnTaskPlan cplan;
    SubtreeTaskPlan splan;
    ColumnDataRequest serve;

    std::shared_ptr<std::vector<uint32_t>> ix;
    bool sent_to_compute = false;

    // Subtree gathering state: the remote columns received so far
    // (local ones are gathered by the comper).
    std::vector<int32_t> gathered_cols;
    std::vector<GatheredColumn> gathered_data;
    size_t awaiting_remote = 0;

    // Delegate duty (column-tasks that won the split).
    bool is_delegate = false;
    bool split_done = false;
    SplitCondition delegate_condition;
    std::shared_ptr<std::vector<uint32_t>> ix_left;
    std::shared_ptr<std::vector<uint32_t>> ix_right;
    std::vector<IxRequest> queued_requests;

    // Histogram-mode sibling-subtraction cache (classification only,
    // where integer counts make parent - sibling bit-identical to a
    // direct build, so cache hits cannot perturb determinism). A
    // column task parks its per-column histograms here; child column
    // tasks running on this worker derive theirs from the delegate's
    // parent histogram minus the sibling's, when both are present.
    std::map<int32_t, NodeHistogram> col_hists;
    std::map<int32_t, NodeHistogram> child_col_hists[2];  // by ChildSide

    // Task-memory accounting (Table III); released by the destructor.
    PeakGauge* memory_gauge = nullptr;
    int64_t mem_bytes = 0;
    void ChargeMemory(int64_t bytes) {
      mem_bytes += bytes;
      if (memory_gauge != nullptr) memory_gauge->Add(bytes);
    }
  };
  using TaskPtr = std::shared_ptr<TaskState>;

  struct ReadyTask {
    TaskKindTag kind;
    uint64_t task_id;
  };

  void TaskLoop();
  void DataLoop();
  void ComperLoop();

  // Task-channel handlers (θ_main).
  void HandleColumnTaskPlan(const std::string& payload);
  void HandleSubtreeTaskPlan(const std::string& payload);
  void HandleBestSplitNotify(const std::string& payload);
  void HandleTaskDelete(const std::string& payload);
  void HandleParentRelease(const std::string& payload);
  void HandleTreeRevoke(const std::string& payload);
  /// Snapshots the process-global tracer and ships it to the master on
  /// the low-priority trace channel (answer to kTraceRequest).
  void HandleTraceRequest();

  // Data-channel handlers (θ_recv).
  void HandleIxRequest(const std::string& payload);
  void HandleIxResponse(const std::string& payload);
  void HandleColumnDataRequest(const std::string& payload);
  void HandleColumnDataResponse(const std::string& payload);

  // Comper computations.
  void ComputeColumnTask(const TaskPtr& task);
  void ComputeSubtreeTask(const TaskPtr& task);

  void ServeIx(const TaskPtr& task, const IxRequest& req);
  void ServeColumns(const TaskPtr& task);
  /// Moves a subtree task to B_task once I_x and every remote column
  /// are here. Caller holds task->mu.
  void CheckSubtreeReady(const TaskPtr& task, uint64_t task_id);
  /// D_x rows `ix` of local column `col`: its codes (bin codes or
  /// category codes) when `use_codes` and the column is binnable, else
  /// its values.
  GatheredColumn GatherLocal(int32_t col, const std::vector<uint32_t>& ix,
                             bool use_codes, int max_bins);

  TaskPtr Find(uint64_t task_id);
  std::shared_ptr<std::vector<uint32_t>> IotaRows(uint64_t n) const;
  void RequestIx(uint64_t parent_task, int parent_worker, uint8_t side,
                 uint64_t requester_task);

  /// Bin index of feature column `col` under `max_bins` (identity codes
  /// for a categorical column), built on first use and shared by every
  /// later task; nullptr for the target and for a categorical column of
  /// more than BinnedColumn::kMaxBins categories. Only column tasks and
  /// gathers of local columns ask, so a worker bins exactly the columns
  /// it holds.
  std::shared_ptr<const BinnedColumn> BinnedColumnOf(int32_t col,
                                                     int max_bins);
  /// Histogram split of one column for a column task: derives the
  /// histogram from the parent delegate's cache when possible
  /// (classification), else builds it, then registers it for siblings
  /// and children. Returns the column's best split.
  SplitOutcome HistogramColumnSplit(const TaskPtr& task,
                                    const ColumnTaskPlan& plan, int32_t col,
                                    const BinnedColumn& bc,
                                    const SplitContext& ctx,
                                    const std::vector<uint32_t>& ix);

  const int id_;
  const std::shared_ptr<const DataTable> table_;
  Transport* const network_;
  /// Ack/retransmit + dedup/fencing layer over network_ for the
  /// engine protocol messages; all reliable-type sends and both
  /// receive loops route through it.
  ReliableLink link_;
  const int num_compers_;
  PeakGauge* const task_memory_;
  BusyClock* const busy_clock_;
  const bool compress_transfers_;
  const int debug_slow_task_ms_;

  ConcurrentHashMap<uint64_t, TaskPtr> tasks_;
  BlockingQueue<ReadyTask> btask_;
  Counter computed_;
  Counter* const computed_counter_;  // "engine.tasks_computed"
  Counter* const dup_tasks_;        // "engine.duplicate_tasks"

  // Pulled D_x column payload bytes served, by wire form:
  // "engine.pulled_column_bytes.{numeric,categorical,codes}".
  Counter* const pulled_numeric_bytes_;
  Counter* const pulled_categorical_bytes_;
  Counter* const pulled_code_bytes_;

  // Per-column bin indexes, keyed by (max_bins, column). The map lock
  // only finds the slot; the build runs under the slot's once_flag, so
  // compers binning different columns do not wait for each other.
  struct BinSlot {
    std::once_flag once;
    std::shared_ptr<const BinnedColumn> column;
  };
  mutable std::mutex bins_mu_;
  std::map<std::pair<int, int32_t>, std::shared_ptr<BinSlot>> bins_;
  /// Per-column rank indexes for exact column tasks, each built by the
  /// first comper that needs it (same lifecycle as the bins above).
  RankedTable ranks_;

  std::thread task_thread_;
  std::thread data_thread_;
  std::vector<std::thread> compers_;
};

}  // namespace treeserver

#endif  // TREESERVER_ENGINE_WORKER_H_
