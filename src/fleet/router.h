#ifndef TREESERVER_FLEET_ROUTER_H_
#define TREESERVER_FLEET_ROUTER_H_

#include <condition_variable>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/http_server.h"
#include "common/metrics_registry.h"
#include "common/trace_merge.h"
#include "fleet/wire.h"
#include "rpc/transport.h"
#include "table/data_table.h"

namespace treeserver {

struct FleetRouterConfig {
  /// Admission bound: Predict sheds (fleet.shed) once this many
  /// accepted requests are outstanding.
  size_t max_inflight = 1024;
  /// Deadline applied to requests that don't carry their own; an
  /// accepted request still unanswered past it resolves Unavailable
  /// and counts as shed (deadline-aware rejection, never a silent drop).
  int default_deadline_ms = 5000;
  /// Unanswered predicts are re-dispatched (rotating replicas) at this
  /// period; with CRC-sealed payloads this is what makes the fleet ride
  /// out chaos drops/corruption.
  int retry_period_ms = 250;
  /// Router-level health pings. A replica missing `health_miss_limit`
  /// consecutive rounds leaves rotation; any pong puts it back.
  int health_period_ms = 100;
  int health_miss_limit = 5;
  /// Fraction of a canaried model's traffic routed to the canary
  /// replica (deterministic on request id).
  double canary_fraction = 0.10;
  /// Destination for fleet.* metrics; nullptr uses Global().
  MetricsRegistry* metrics = nullptr;
  /// Router introspection HTTP port (-1 disables, 0 ephemeral).
  int http_port = -1;
  std::string http_host = "127.0.0.1";
  /// Per-replica trace clock offset (remote - local, ns) for merged
  /// traces; wire to TcpTransport::PeerClockOffset on real clusters.
  /// nullptr = all zero (in-process).
  std::function<int64_t(int)> clock_offset_ns;
};

/// Result of one routed predict batch.
struct FleetBatchResult {
  int32_t replica = -1;
  uint32_t version = 0;
  std::vector<int32_t> labels;  // classification, one per row
  std::vector<double> values;   // regression, one per row
};

/// One canary arm's observed stats (operators compare the arms before
/// calling Promote or Rollback).
struct CanaryArmView {
  uint64_t count = 0;
  uint64_t errors = 0;
  uint64_t p99_us = 0;
};

struct FleetReplicaStatus {
  int rank = 0;
  bool alive = true;
  bool in_rotation = true;
  int misses = 0;
  uint64_t outstanding = 0;
  uint64_t queue_depth = 0;
  uint64_t requests = 0;
  uint64_t batches = 0;
  uint64_t rejected = 0;
  std::vector<FleetHealthPongMsg::ModelVersion> models;
};

struct FleetCanaryStatus {
  std::string model;
  int replica = -1;
  uint32_t version = 0;
  CanaryArmView canary;
  CanaryArmView baseline;
};

struct FleetStatus {
  uint64_t accepted = 0;
  uint64_t shed = 0;
  uint64_t retransmits = 0;
  uint64_t failovers = 0;
  std::vector<FleetReplicaStatus> replicas;
  std::vector<FleetCanaryStatus> canaries;
};

/// The fleet front door: admission control, least-loaded dispatch over
/// the Transport's replicas, health-based rotation, retransmit-based
/// reliability, and operator-driven canary rollout.
///
/// The router is the transport's master rank. Two internal threads
/// run: a reply thread draining master_queue() and a timer thread
/// (health pings, deadline shedding, retransmits, admin retries). All
/// Sends happen outside the state mutex so TCP backpressure can never
/// wedge the state machine.
class FleetRouter {
 public:
  FleetRouter(Transport* transport, FleetRouterConfig config);
  ~FleetRouter();

  FleetRouter(const FleetRouter&) = delete;
  FleetRouter& operator=(const FleetRouter&) = delete;

  void Start();
  /// Stops the threads and fails every still-pending request/op.
  /// Idempotent. Does not touch the replicas (see ShutdownReplicas).
  void Stop();

  /// Routes `rows` of `table` as one batch against `model`.
  /// Resolves with the replica's predictions, or Unavailable when shed
  /// (admission bound, no replica in rotation, or deadline exceeded).
  /// `deadline_ms` <= 0 uses the config default.
  std::future<Result<FleetBatchResult>> PredictRows(
      const std::string& model, const DataTable& table, const uint32_t* rows,
      size_t n, int deadline_ms = 0);
  std::future<Result<FleetBatchResult>> Predict(const std::string& model,
                                                const DataTable& table,
                                                uint32_t row,
                                                int deadline_ms = 0);

  /// Pushes serialized forest bytes as the next version of `model` on
  /// every live replica (idempotent per-replica via op ids; retried
  /// under chaos for up to 10 s).
  Status Push(const std::string& model, const std::string& model_bytes);
  /// Pushes to a single replica (-1 = router's choice) and starts a
  /// canary: `canary_fraction` of the model's traffic routes there,
  /// the rest explicitly avoids it. Returns the canary replica.
  Result<int> PushCanary(const std::string& model,
                         const std::string& model_bytes, int replica = -1);
  /// Pushes the canaried bytes to every other live replica and ends
  /// the canary.
  Status Promote(const std::string& model);
  /// With an active canary: rolls back the canary replica only (ending
  /// the canary). Otherwise rolls back every live replica one version.
  Status Rollback(const std::string& model);

  /// Permanently removes a replica (process death): out of rotation,
  /// its in-flight work re-dispatched, an active canary on it ended.
  /// Wire to TcpTransport::SetPeerDeadCallback.
  void MarkReplicaDead(int replica);

  /// Sends kShutdown to every live replica.
  void ShutdownReplicas();

  FleetStatus GetStatus();
  std::string StatusJson();

  /// Requests every live replica's tracer snapshot and merges them
  /// (plus the router's own lane) into one Chrome trace JSON document.
  /// Lanes of dead replicas are simply absent.
  Result<std::string> CollectMergedTrace(int timeout_ms = 5000);

  /// Router introspection port, 0 when HTTP is disabled. Endpoints:
  /// /metrics /healthz /statusz /fleet/push /fleet/promote
  /// /fleet/rollback.
  uint16_t http_port() const;

 private:
  struct ReplicaState {
    bool alive = true;
    bool in_rotation = true;
    int misses = 0;
    uint64_t last_pong_ns = 0;
    uint64_t outstanding = 0;
    FleetHealthPongMsg last_pong;
  };

  /// Dispatch arm of an in-flight request (canary accounting).
  enum class Arm : uint8_t { kNone = 0, kBaseline = 1, kCanary = 2 };

  struct Inflight {
    std::string model;
    std::string payload;  // encoded FleetPredictMsg, kept for resends
    std::promise<Result<FleetBatchResult>> promise;
    uint64_t enqueue_ns = 0;
    uint64_t deadline_ns = 0;
    uint64_t last_send_ns = 0;
    int replica = -1;
    Arm arm = Arm::kNone;
    uint32_t num_rows = 0;
    bool classification = true;
  };

  struct AdminOp {
    uint32_t send_type = 0;
    std::string payload;  // resent to unanswered replicas
    std::set<int> remaining;
    std::map<int, FleetAdminReplyMsg> replies;
    std::promise<std::map<int, FleetAdminReplyMsg>> promise;
    uint64_t deadline_ns = 0;
    uint64_t last_send_ns = 0;
  };

  struct ArmStats {
    uint64_t count = 0;
    uint64_t errors = 0;
    Histogram latency_us;
    CanaryArmView View() const {
      return {count, errors, latency_us.snapshot().Percentile(0.99)};
    }
    void Reset() {
      count = 0;
      errors = 0;
      latency_us.Reset();
    }
  };

  struct CanaryState {
    bool active = false;
    int replica = -1;
    uint32_t version = 0;
    std::string model_bytes;  // promoted to the rest on Promote()
    ArmStats canary;
    ArmStats baseline;
  };

  struct Send {
    ChannelKind channel = ChannelKind::kTask;
    int dst = 0;
    uint32_t type = 0;
    std::string payload;
  };

  void ReplyLoop();
  void TimerLoop();
  void TimerTick(std::vector<Send>* sends,
                 std::vector<std::pair<std::promise<Result<FleetBatchResult>>,
                                       Status>>* failed);

  void HandlePredictReply(const Message& msg, std::vector<Send>* sends);
  void HandleAdminReply(const Message& msg);
  void HandleHealthPong(const Message& msg);
  void HandleTraceReply(const Message& msg);

  /// Picks a replica for `model`: canary arm by deterministic hash
  /// when active, else the least-loaded replica. `exclude` skips a
  /// replica (retry rotation); returns -1 when nothing is in rotation.
  /// Caller holds mu_.
  int ChooseReplicaLocked(const std::string& model, uint64_t request_id,
                          int exclude, Arm* arm);
  int LeastLoadedLocked(int exclude_a, int exclude_b) const;
  bool EligibleLocked(int replica, int exclude_a, int exclude_b) const;
  void DecOutstandingLocked(int replica);
  void RecordArmLocked(const std::string& model, Arm arm, bool error,
                       uint64_t latency_us);

  /// Runs one admin fan-out to `targets` and waits for the replies.
  /// `op_id` must be the id sealed inside `payload` (replies correlate
  /// by it).
  Result<std::map<int, FleetAdminReplyMsg>> RunAdminOp(
      uint64_t op_id, uint32_t send_type, std::string payload,
      const std::set<int>& targets);
  static Status AggregateAdmin(const std::map<int, FleetAdminReplyMsg>& replies,
                               const std::set<int>& targets);

  void DoSends(std::vector<Send> sends);
  void StartHttp();

  Transport* const transport_;
  const FleetRouterConfig config_;
  MetricsRegistry& metrics_;

  Counter* const accepted_;      // fleet.accepted
  Counter* const shed_;          // fleet.shed
  Counter* const retransmits_;   // fleet.retransmits
  Counter* const failovers_;     // fleet.failovers
  Counter* const corrupt_;       // fleet.router.corrupt
  Counter* const promotions_;    // fleet.canary.promotions
  Counter* const rollbacks_;     // fleet.canary.rollbacks
  Histogram* const latency_us_;  // fleet.latency_us

  mutable std::mutex mu_;
  std::vector<ReplicaState> replicas_;
  std::map<uint64_t, Inflight> inflight_;
  std::map<uint64_t, std::shared_ptr<AdminOp>> admin_;
  std::map<std::string, CanaryState> canaries_;
  uint64_t next_id_ = 1;
  uint64_t last_health_sent_ns_ = 0;
  bool started_ = false;
  bool stopping_ = false;

  /// Trace collection state (one outstanding collection at a time).
  std::condition_variable trace_cv_;
  std::set<int> trace_expect_;
  std::vector<RankTrace> trace_snaps_;
  bool trace_active_ = false;

  std::condition_variable timer_cv_;
  std::thread reply_thread_;
  std::thread timer_thread_;
  std::unique_ptr<HttpServer> http_;
};

}  // namespace treeserver

#endif  // TREESERVER_FLEET_ROUTER_H_
