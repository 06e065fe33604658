#include "rpc/in_process_transport.h"

#include <chrono>
#include <thread>

#include "common/logging.h"
#include "common/trace.h"

namespace treeserver {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

InProcessTransport::InProcessTransport(int num_workers, double bandwidth_mbps)
    : Transport(num_workers),
      bytes_per_second_(bandwidth_mbps * 1e6 / 8.0) {
  for (int i = 0; i < num_workers; ++i) {
    task_queues_.push_back(std::make_unique<BlockingQueue<Message>>());
    data_queues_.push_back(std::make_unique<BlockingQueue<Message>>());
  }
  master_queue_ = std::make_unique<BlockingQueue<Message>>();
  for (int i = 0; i <= num_workers; ++i) {
    links_.push_back(std::make_unique<LinkState>());
  }
}

bool InProcessTransport::Send(ChannelKind channel, Message msg) {
  const int src = msg.src;
  const int dst = msg.dst;
  if (src != kMasterRank && IsCrashed(src)) {
    CountDrop(src);
    return false;
  }
  if (dst != kMasterRank && IsCrashed(dst)) {
    CountDrop(dst);
    return false;
  }

  const bool local = src == dst;
  if (!local) {
    uint64_t bytes = msg.payload.size() + kHeaderBytes;
    TraceSpan span(TraceCat::kNetSend, "send", msg.trace_id);
    span.SetArg("bytes", static_cast<int64_t>(bytes));
    AccountSend(channel, src, dst, msg.payload.size());
    uint64_t start_ns = NowNanos();
    if (bytes_per_second_ > 0) Throttle(src, bytes);
    AccountSendMicros(channel, (NowNanos() - start_ns) / 1000);
  }

  // Trace-channel messages ride the task queue: they are rare control
  // traffic the worker's θ_main dispatches by MsgType.
  BlockingQueue<Message>& q =
      dst == kMasterRank ? *master_queue_
                         : (channel == ChannelKind::kData ? *data_queues_[dst]
                                                          : *task_queues_[dst]);
  if (!q.Push(std::move(msg))) {
    CountDrop(dst);  // closed mailbox: receiver is gone
    return false;
  }
  return true;
}

void InProcessTransport::Throttle(int src, uint64_t bytes) {
  const double duration = static_cast<double>(bytes) / bytes_per_second_;
  double wait = 0.0;
  {
    LinkState& link = *links_[Index(src)];
    std::lock_guard<std::mutex> lock(link.mu);
    double now = NowSeconds();
    double start = link.next_free > now ? link.next_free : now;
    link.next_free = start + duration;
    wait = link.next_free - now;
  }
  if (wait > 1e-6) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

void InProcessTransport::SetCrashed(int worker) {
  TS_CHECK(worker >= 0 && worker < num_workers_);
  MarkCrashed(worker);
  task_queues_[worker]->Close();
  data_queues_[worker]->Close();
}

void InProcessTransport::CloseAll() {
  for (auto& q : task_queues_) q->Close();
  for (auto& q : data_queues_) q->Close();
  master_queue_->Close();
}

}  // namespace treeserver
