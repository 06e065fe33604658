#ifndef TREESERVER_RPC_TRANSPORT_H_
#define TREESERVER_RPC_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/metrics_registry.h"
#include "concurrent/blocking_queue.h"

namespace treeserver {

/// Endpoint id of the master (workers are 0..num_workers-1).
inline constexpr int kMasterRank = -1;

/// One engine message. `type` is interpreted by the engine (see
/// engine/messages.h); the transport treats the payload as opaque
/// bytes and only accounts/throttles them.
struct Message {
  int src = kMasterRank;
  int dst = kMasterRank;
  uint32_t type = 0;
  std::string payload;
  /// Correlation id for tracing (the task id the message belongs to,
  /// when the sender knows it); 0 = uncorrelated. Serialized in the
  /// TCP wire frame so master and worker process spans correlate by
  /// task id, but exempt from the byte counters on every transport.
  uint64_t trace_id = 0;
};

/// The two channel classes of Fig. 6 — Task Comm (master <-> workers)
/// and Data Comm (worker <-> worker) — plus the low-priority trace
/// channel that ships Tracer snapshots to the master for merged
/// cluster traces. Trace traffic never competes with engine traffic:
/// the TCP transport drains it only when the task/data queue is empty.
enum class ChannelKind : uint8_t {
  kTask = 0,
  kData = 1,
  kTrace = 2,
};

inline constexpr int kNumChannelKinds = 3;

/// Point-in-time transport statistics (part of the EngineStats
/// snapshot). Kept under its historical name: the engine grew up on
/// the in-process simulated network.
struct NetworkStats {
  struct Endpoint {
    uint64_t bytes_sent = 0;
    uint64_t bytes_recv = 0;
    uint64_t msgs_sent = 0;
    /// Messages dropped because this endpoint was crashed (as source
    /// or destination) or its queue was closed.
    uint64_t msgs_dropped = 0;
    /// TCP transport only (zero in-process): times the outbound
    /// connection to this peer was re-established after a break.
    uint64_t reconnects = 0;
    /// TCP transport only: heartbeat periods that elapsed without any
    /// frame arriving from this peer.
    uint64_t heartbeat_misses = 0;
    /// TCP transport only: high-water mark of the bounded per-peer
    /// send buffer, in bytes.
    uint64_t send_buffer_hwm = 0;
  };
  /// Indexed by worker id; the last entry is the master.
  std::vector<Endpoint> endpoints;
  /// Per-channel payload-size (bytes) and send-latency (µs, including
  /// simulated link throttling or TCP backpressure waits)
  /// distributions.
  Histogram::Snapshot task_payload_bytes;
  Histogram::Snapshot data_payload_bytes;
  Histogram::Snapshot task_send_micros;
  Histogram::Snapshot data_send_micros;
};

/// Abstract cluster interconnect.
///
/// The engine (master, workers) is written against this interface and
/// never assumes shared memory: everything that crosses a Transport is
/// serialized bytes. Two implementations exist:
///  - InProcessTransport (rpc/in_process_transport.h): the simulated
///    network the engine grew up on — all ranks live in one process,
///    delivery is a queue push, optional bandwidth throttling models a
///    saturated NIC;
///  - TcpTransport (rpc/tcp_transport.h): real sockets between
///    separate OS processes, with framing, heartbeats, dead-peer
///    detection and reconnect.
///
/// Receive side: each rank drains its own mailboxes. Workers own a
/// task queue and a data queue; the master owns one queue.
/// Implementations that host only one rank (TCP) expose only that
/// rank's queues.
///
/// Byte accounting is shared across implementations: every non-local
/// send charges payload + kHeaderBytes to the source (sent) and the
/// destination (recv) counters the implementation can see, so
/// in-process and TCP runs of the same job report comparable Fig. 6 /
/// Table VI numbers. Message::trace_id is never charged.
class Transport {
 public:
  /// Fixed per-message overhead charged on top of the payload. This is
  /// the *modeled* header of the paper's experiments, not the physical
  /// TCP frame size (see rpc/frame.h), so both transports account
  /// identically.
  static constexpr uint64_t kHeaderBytes = 24;

  explicit Transport(int num_workers);
  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  int num_workers() const { return num_workers_; }

  /// Routes a message. Returns false if it was dropped (endpoint
  /// crashed, destination unreachable, or queue closed).
  virtual bool Send(ChannelKind channel, Message msg) = 0;

  /// Local mailboxes. Implementations hosting a single rank abort when
  /// asked for another rank's queue.
  virtual BlockingQueue<Message>& task_queue(int worker) = 0;
  virtual BlockingQueue<Message>& data_queue(int worker) = 0;
  virtual BlockingQueue<Message>& master_queue() = 0;

  /// Marks a worker as crashed: all of its traffic is dropped from now
  /// on. In-process also closes its queues so its threads terminate;
  /// TCP additionally tears down the connection state.
  virtual void SetCrashed(int worker) = 0;
  bool IsCrashed(int worker) const {
    return crashed_[Index(worker)].load(std::memory_order_relaxed);
  }

  /// Closes every local queue (engine shutdown).
  virtual void CloseAll() = 0;

  /// Per-endpoint traffic counters (payload + fixed header bytes).
  uint64_t bytes_sent(int endpoint) const {
    return sent_[Index(endpoint)].value();
  }
  uint64_t bytes_received(int endpoint) const {
    return recv_[Index(endpoint)].value();
  }
  uint64_t total_bytes() const;
  /// Messages dropped with `endpoint` as the crashed/closed party.
  uint64_t msgs_dropped(int endpoint) const {
    return dropped_[Index(endpoint)].value();
  }
  uint64_t total_msgs_dropped() const;
  virtual void ResetCounters();

  /// Snapshot of per-endpoint traffic and per-channel distributions.
  /// Implementations extend the base snapshot with their own fields
  /// (TCP adds reconnects / heartbeat misses / send-buffer HWM).
  virtual NetworkStats GetStats() const;

 protected:
  /// Endpoint slot: workers 0..n-1, master last.
  size_t Index(int endpoint) const {
    return endpoint == kMasterRank ? static_cast<size_t>(num_workers_)
                                   : static_cast<size_t>(endpoint);
  }

  void MarkCrashed(int endpoint) {
    crashed_[Index(endpoint)].store(true, std::memory_order_relaxed);
  }
  void CountDrop(int charged_endpoint) {
    dropped_[Index(charged_endpoint)].Inc();
  }
  /// Charges a non-local send to the per-endpoint counters and the
  /// per-channel payload histogram.
  void AccountSend(ChannelKind channel, int src, int dst,
                   uint64_t payload_bytes);
  /// Sender-side half of AccountSend (sent/msgs/histogram, no recv):
  /// the TCP transport charges this locally and lets the remote
  /// process charge its own receive counter.
  void AccountSendLocal(ChannelKind channel, int src, uint64_t payload_bytes);
  /// Receiver-side half: charges recv only (TCP inbound deliveries).
  void AccountRecvLocal(int dst, uint64_t payload_bytes);
  /// Records time spent inside Send() (throttle or backpressure).
  void AccountSendMicros(ChannelKind channel, uint64_t micros);

  const int num_workers_;

 private:
  // One counter slot per worker plus one for the master.
  std::vector<Counter> sent_;
  std::vector<Counter> recv_;
  std::vector<Counter> msgs_;
  /// Drops charged to the endpoint that caused them (the crashed
  /// source/destination, or the closed queue's owner).
  std::vector<Counter> dropped_;
  std::vector<std::atomic<bool>> crashed_;

  // Per-channel distributions (index = ChannelKind).
  Histogram payload_bytes_[kNumChannelKinds];
  Histogram send_micros_[kNumChannelKinds];
};

}  // namespace treeserver

#endif  // TREESERVER_RPC_TRANSPORT_H_
