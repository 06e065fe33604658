#ifndef TREESERVER_RPC_IN_PROCESS_TRANSPORT_H_
#define TREESERVER_RPC_IN_PROCESS_TRANSPORT_H_

#include <memory>
#include <mutex>
#include <vector>

#include "rpc/transport.h"

namespace treeserver {

/// In-process stand-in for the cluster interconnect (the reference
/// Transport implementation; see rpc/transport.h for the interface and
/// rpc/tcp_transport.h for the real-socket sibling).
///
/// Every worker owns two mailboxes (task / data); the master owns one.
/// Send() counts the serialized bytes per endpoint and, when a
/// bandwidth is configured, *blocks the sending thread* for
/// bytes/bandwidth to model a saturated NIC — this is what reproduces
/// the network-bound flattening of Table VI. Local (src == dst)
/// deliveries are free, mirroring TreeServer's "skip communication
/// when the requested data is local".
class InProcessTransport : public Transport {
 public:
  /// bandwidth_mbps: per-endpoint outbound link speed in megabits/s;
  /// 0 disables throttling.
  InProcessTransport(int num_workers, double bandwidth_mbps);

  /// Routes a message. Returns false if it was dropped (destination
  /// crashed or queue closed). Messages from a crashed source are also
  /// dropped, modeling a dead host.
  bool Send(ChannelKind channel, Message msg) override;

  BlockingQueue<Message>& task_queue(int worker) override {
    return *task_queues_[worker];
  }
  BlockingQueue<Message>& data_queue(int worker) override {
    return *data_queues_[worker];
  }
  BlockingQueue<Message>& master_queue() override { return *master_queue_; }

  /// Marks a worker as crashed: all of its traffic is dropped from now
  /// on, and its queues are closed so its threads terminate.
  void SetCrashed(int worker) override;

  /// Closes every queue (engine shutdown).
  void CloseAll() override;

 private:
  void Throttle(int src, uint64_t bytes);

  const double bytes_per_second_;  // 0 = unthrottled

  std::vector<std::unique_ptr<BlockingQueue<Message>>> task_queues_;
  std::vector<std::unique_ptr<BlockingQueue<Message>>> data_queues_;
  std::unique_ptr<BlockingQueue<Message>> master_queue_;

  // Per-endpoint token bucket: next instant the link is free.
  struct LinkState {
    std::mutex mu;
    double next_free = 0.0;  // seconds on the steady clock
  };
  std::vector<std::unique_ptr<LinkState>> links_;
};

}  // namespace treeserver

#endif  // TREESERVER_RPC_IN_PROCESS_TRANSPORT_H_
