#ifndef TREESERVER_ENGINE_MESSAGES_H_
#define TREESERVER_ENGINE_MESSAGES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/serial.h"
#include "common/status.h"
#include "common/trace.h"
#include "table/binned.h"
#include "table/column.h"
#include "tree/split.h"

namespace treeserver {

/// Engine wire-protocol message types.
enum class MsgType : uint32_t {
  // Task channel, master -> worker.
  kColumnTaskPlan = 1,
  kSubtreeTaskPlan = 2,
  kBestSplitNotify = 3,   // winner learns it is the delegate
  kTaskDelete = 4,        // drop the task object
  kParentRelease = 5,     // both children done: delegate may free I_x
  kTreeRevoke = 6,        // fault tolerance: drop all tasks of a tree
  kShutdown = 7,
  kRevokeAll = 8,       // master failover: drop every task object
  kAck = 9,             // reliable-delivery ack: [u32 gen][u64 seq]
  // Task channel, worker -> master.
  kColumnTaskResponse = 10,
  kSubtreeResult = 11,
  // Data channel, worker -> worker.
  kIxRequest = 20,
  kIxResponse = 21,
  kColumnDataRequest = 22,
  kColumnDataResponse = 23,
  // Master-internal control (enqueued on the master's own queue).
  kWorkerCrashed = 30,
  // Trace channel (observability; low priority on TCP).
  kTraceRequest = 40,   // master -> worker: snapshot your tracer
  kTraceSnapshot = 41,  // worker -> master: TraceSnapshotMsg
};

/// Which half of the parent's split a task's rows are.
enum class ChildSide : uint8_t {
  kLeft = 0,
  kRight = 1,
};

/// Per-task hyperparameter bundle shipped with plans (workers are
/// stateless with respect to jobs; everything a task needs rides in
/// its plan message).
struct TaskContext {
  uint8_t impurity = 0;       // Impurity enum
  int32_t max_depth = 10;     // d_max (global)
  uint32_t min_leaf = 1;      // τ_leaf
  uint8_t extra_trees = 0;    // completely-random mode
  uint64_t rng_seed = 0;      // per-task randomness (extra-trees)
  uint8_t split_method = 0;   // SplitMethod enum (0 = exact)
  uint16_t max_bins = 255;    // histogram-mode bin budget

  void Serialize(BinaryWriter* w) const;
  static Status Deserialize(BinaryReader* r, TaskContext* out);
};

/// Plan for a column-task (Fig. 3(a)): evaluate `columns` over I_x and
/// report the best split-condition. I_x is NOT included — the worker
/// pulls it from `parent_worker` (Section V).
struct ColumnTaskPlan {
  uint64_t task_id = 0;
  uint32_t tree_id = 0;
  int32_t node_id = 0;
  int32_t depth = 0;
  uint64_t n_rows = 0;
  int32_t parent_worker = -1;  // -1: root task, I_x = all rows
  uint64_t parent_task = 0;
  uint8_t side = 0;  // ChildSide
  std::vector<int32_t> columns;
  TaskContext ctx;

  std::string Encode() const;
  static Status Decode(const std::string& payload, ColumnTaskPlan* out);
};

/// Plan for a subtree-task (Fig. 3(b)): the key worker gathers D_x and
/// builds Δ_x locally. `column_servers[i]` is the worker that serves
/// `columns[i]`, as chosen by the master's load model (Section VI).
/// `node_stats` are the subtree root's statistics as its parent's split
/// outcome reported them; absent when the subtree is a whole tree.
struct SubtreeTaskPlan {
  uint64_t task_id = 0;
  uint32_t tree_id = 0;
  int32_t node_id = 0;
  int32_t depth = 0;
  uint64_t n_rows = 0;
  int32_t parent_worker = -1;
  uint64_t parent_task = 0;
  uint8_t side = 0;
  std::vector<int32_t> columns;
  std::vector<int32_t> column_servers;
  TaskContext ctx;
  std::optional<TargetStats> node_stats;

  std::string Encode() const;
  static Status Decode(const std::string& payload, SubtreeTaskPlan* out);
};

/// A worker's answer to a column-task plan: the best split over the
/// worker's assigned columns (possibly invalid), plus, for a tree root
/// only, the root's statistics summed over its rows. The master takes
/// every other node's statistics from its parent's split outcome.
struct ColumnTaskResponse {
  uint64_t task_id = 0;
  int32_t worker = -1;
  std::optional<TargetStats> node_stats;
  SplitOutcome outcome;

  std::string Encode() const;
  static Status Decode(const std::string& payload, ColumnTaskResponse* out);
};

/// The master's verdict on a column-task, sent to every assigned
/// worker. The delegate (is_delegate) keeps the task object, splits
/// I_x with `condition`, and serves child requests; the others delete
/// their task objects. Sent with an invalid condition when the node
/// became a leaf (everyone deletes).
struct BestSplitNotify {
  uint64_t task_id = 0;
  uint8_t is_delegate = 0;
  SplitCondition condition;

  std::string Encode() const;
  static Status Decode(const std::string& payload, BestSplitNotify* out);
};

/// Completed subtree shipped back to the master.
struct SubtreeResult {
  uint64_t task_id = 0;
  int32_t worker = -1;
  std::string tree_bytes;  // serialized TreeModel

  std::string Encode() const;
  static Status Decode(const std::string& payload, SubtreeResult* out);
};

/// Data-channel request for the row ids of one side of a parent task's
/// split (Fig. 9). `requester_task` keys the response back to the
/// requesting worker's task object.
struct IxRequest {
  uint64_t parent_task = 0;
  uint8_t side = 0;
  uint64_t requester_task = 0;
  int32_t requester_worker = -1;

  std::string Encode() const;
  static Status Decode(const std::string& payload, IxRequest* out);
};

struct IxResponse {
  uint64_t requester_task = 0;
  std::vector<uint32_t> rows;
  /// When true, Encode() delta+varint-compresses the (ascending) row
  /// ids — the compression extension the paper leaves as future work.
  /// Decode() auto-detects from the wire format.
  bool compress = false;

  std::string Encode() const;
  static Status Decode(const std::string& payload, IxResponse* out);
};

/// Key worker -> serving worker: please send me the D_x values of
/// these columns. The serving worker fetches I_x itself from the
/// parent worker (arrow 3 in Fig. 9(a)). In histogram mode
/// (`split_method` kHistogram) feature columns come back as the
/// holder's codes: bin codes under `max_bins` for numeric columns,
/// identity codes for categorical ones; extra-trees subtrees ask for
/// kExact, since their random splits need the values.
struct ColumnDataRequest {
  uint64_t task_id = 0;
  uint32_t tree_id = 0;
  std::vector<int32_t> columns;
  int32_t key_worker = -1;
  int32_t parent_worker = -1;
  uint64_t parent_task = 0;
  uint8_t side = 0;
  uint64_t n_rows = 0;  // used when parent_worker == -1 (root)
  uint8_t split_method = 0;  // SplitMethod enum
  uint16_t max_bins = 255;

  std::string Encode() const;
  static Status Decode(const std::string& payload, ColumnDataRequest* out);
};

/// One column of a subtree task's D_x: the gathered values, or (in
/// histogram mode) the holder's codes of the same rows — a numeric
/// column's bin codes with its boundaries, a categorical column's
/// identity codes with its cardinality. Exactly one member is set.
struct GatheredColumn {
  ColumnPtr values;
  std::shared_ptr<const BinnedColumn> codes;

  size_t num_rows() const {
    return values != nullptr ? values->size() : codes->num_rows();
  }
  /// Payload bytes, for task-memory accounting.
  size_t ByteSize() const {
    return values != nullptr ? values->ByteSize() : codes->ByteSize();
  }
};

/// Serving worker -> key worker: the gathered columns. Decode rejects
/// a batch whose columns disagree on the row count.
struct ColumnDataResponse {
  uint64_t task_id = 0;
  std::vector<int32_t> columns;
  std::vector<GatheredColumn> data;  // same order as `columns`
  /// Encode-side only: bit-pack categorical payloads.
  bool compress = false;

  std::string Encode() const;
  static Status Decode(const std::string& payload, ColumnDataResponse* out);
};

/// A worker's tracer snapshot, shipped to the master on the trace
/// channel in answer to kTraceRequest (or unsolicited at job end).
struct TraceSnapshotMsg {
  int32_t worker = -1;
  uint64_t dropped = 0;  // spans lost to the per-thread buffer cap
  std::vector<TraceEventCopy> events;

  std::string Encode() const;
  static Status Decode(const std::string& payload, TraceSnapshotMsg* out);
};

/// Simple one-field bodies.
struct TaskIdOnly {
  uint64_t task_id = 0;
  std::string Encode() const;
  static Status Decode(const std::string& payload, TaskIdOnly* out);
};

struct TreeIdOnly {
  uint32_t tree_id = 0;
  std::string Encode() const;
  static Status Decode(const std::string& payload, TreeIdOnly* out);
};

/// Serializes a gathered column (subset of rows) for data transfer.
/// With `compress`, categorical codes are bit-packed to
/// ceil(log2(cardinality+1)) bits (one extra value for "missing");
/// numeric payloads stay raw. Deserialize auto-detects.
void SerializeColumn(const Column& column, BinaryWriter* w,
                     bool compress = false);
Status DeserializeColumn(BinaryReader* r, ColumnPtr* out);


/// Delta+varint encoding of ascending row ids.
void WriteRowIds(BinaryWriter* w, const std::vector<uint32_t>& rows,
                 bool compress);
Status ReadRowIds(BinaryReader* r, std::vector<uint32_t>* rows);

}  // namespace treeserver

#endif  // TREESERVER_ENGINE_MESSAGES_H_
