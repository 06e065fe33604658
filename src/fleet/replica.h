#ifndef TREESERVER_FLEET_REPLICA_H_
#define TREESERVER_FLEET_REPLICA_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics_registry.h"
#include "fleet/wire.h"
#include "rpc/transport.h"
#include "serve/registry.h"
#include "serve/server.h"

namespace treeserver {

struct FleetReplicaConfig {
  /// This replica's rank on the fleet transport (0..N-1; the router is
  /// the master).
  int rank = 0;
  /// Inner micro-batching server (its http_port opens the replica's
  /// own /metrics + /statusz when >= 0).
  InferenceServerConfig serve;
  /// Destination for fleet.replica.* counters; nullptr uses
  /// MetricsRegistry::Global().
  MetricsRegistry* metrics = nullptr;
};

/// One fleet serving process: a ModelRegistry + InferenceServer behind
/// the fleet wire protocol. Handler threads drain the replica's task
/// mailbox and answer predicts, model pushes/rollbacks, health pings
/// and trace requests; a CRC-failed payload (chaos corruption) is
/// counted and dropped — the router's retransmit timer covers it.
///
/// Admin ops are idempotent: the reply to each applied op_id is
/// recorded and replayed verbatim on retransmit, so a duplicated push
/// can never bump the version twice.
class FleetReplica {
 public:
  FleetReplica(Transport* transport, FleetReplicaConfig config);
  ~FleetReplica();

  FleetReplica(const FleetReplica&) = delete;
  FleetReplica& operator=(const FleetReplica&) = delete;

  /// Starts the inference server and the handler threads.
  void Start();
  /// Stops handlers (closing this rank's task mailbox) and the inner
  /// server. Idempotent; also run by the destructor.
  void Stop();
  /// Blocks until the handler threads exit (kShutdown from the router
  /// or a closed mailbox).
  void Wait();

  ModelRegistry* registry() { return &registry_; }
  InferenceServer* server() { return server_.get(); }

 private:
  void HandlerLoop();
  /// Returns false on kShutdown.
  bool Handle(const Message& msg);
  void HandlePredict(const Message& msg);
  void HandlePush(const Message& msg);
  void HandleRollback(const Message& msg);
  void HandleHealthPing(const Message& msg);
  void HandleTraceRequest();

  void SendToRouter(ChannelKind channel, uint32_t type, std::string payload);

  Transport* const transport_;
  const FleetReplicaConfig config_;
  MetricsRegistry& metrics_;

  Counter* const predicts_;       // fleet.replica.predicts
  Counter* const corrupt_;        // fleet.replica.corrupt
  Counter* const dup_admin_;      // fleet.replica.dup_admin

  ModelRegistry registry_;
  std::unique_ptr<InferenceServer> server_;

  /// op_id -> recorded admin reply payload (replayed on retransmit).
  std::mutex admin_mu_;
  std::map<uint64_t, std::pair<uint32_t, std::string>> admin_replies_;

  std::mutex lifecycle_mu_;
  bool started_ = false;
  bool stopped_ = false;
  std::vector<std::thread> handlers_;
};

}  // namespace treeserver

#endif  // TREESERVER_FLEET_REPLICA_H_
