#include "fleet/router.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/logging.h"
#include "common/prometheus.h"
#include "common/trace.h"
#include "engine/messages.h"
#include "serve/model_io.h"

namespace treeserver {

namespace {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Push/rollback fan-outs give up after this long (partial results
/// reported per replica).
constexpr uint64_t kAdminTimeoutNs = 10000ull * 1000000;

uint64_t Mix64(uint64_t x) {
  // splitmix64 finalizer: cheap, well distributed.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Value of `key` in an HTTP query string ("a=b&c=d"), empty if absent.
std::string QueryParam(const std::string& query, const std::string& key) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp &&
        query.compare(pos, eq - pos, key) == 0) {
      return query.substr(eq + 1, amp - eq - 1);
    }
    pos = amp + 1;
  }
  return "";
}

/// Loads a tree/forest model file into serialized-forest bytes (the
/// fleet push payload). Trees ride as a forest of one.
Result<std::string> ForestBytesFromFile(const std::string& path) {
  TS_ASSIGN_OR_RETURN(ModelKind kind, ReadModelFileKind(path));
  ForestModel forest;
  if (kind == ModelKind::kTree) {
    TreeModel tree;
    TS_RETURN_IF_ERROR(LoadFromFile(path, &tree));
    forest = ForestModel(tree.kind(), tree.num_classes());
    if (!tree.empty()) forest.AddTree(std::move(tree));
  } else if (kind == ModelKind::kForest) {
    TS_RETURN_IF_ERROR(LoadFromFile(path, &forest));
  } else {
    return Status::InvalidArgument(path + ": not a fleet-servable model");
  }
  BinaryWriter w;
  forest.Serialize(&w);
  return w.Release();
}

}  // namespace

FleetRouter::FleetRouter(Transport* transport, FleetRouterConfig config)
    : transport_(transport),
      config_(config),
      metrics_(config.metrics != nullptr ? *config.metrics
                                         : MetricsRegistry::Global()),
      accepted_(metrics_.GetCounter("fleet.accepted")),
      shed_(metrics_.GetCounter("fleet.shed")),
      retransmits_(metrics_.GetCounter("fleet.retransmits")),
      failovers_(metrics_.GetCounter("fleet.failovers")),
      corrupt_(metrics_.GetCounter("fleet.router.corrupt")),
      promotions_(metrics_.GetCounter("fleet.canary.promotions")),
      rollbacks_(metrics_.GetCounter("fleet.canary.rollbacks")),
      latency_us_(metrics_.GetHistogram("fleet.latency_us")) {
  replicas_.resize(transport_->num_workers());
}

FleetRouter::~FleetRouter() { Stop(); }

void FleetRouter::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_ || stopping_) return;
    started_ = true;
  }
  reply_thread_ = std::thread(&FleetRouter::ReplyLoop, this);
  timer_thread_ = std::thread(&FleetRouter::TimerLoop, this);
  if (config_.http_port >= 0) StartHttp();
}

void FleetRouter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  if (http_ != nullptr) http_->Stop();
  timer_cv_.notify_all();
  // Self-sentinel so the reply thread exits even on a shared in-process
  // transport whose master queue must stay open for other users.
  Message stop;
  stop.src = kMasterRank;
  stop.dst = kMasterRank;
  stop.type = static_cast<uint32_t>(FleetMsg::kShutdown);
  transport_->Send(ChannelKind::kTask, std::move(stop));
  if (timer_thread_.joinable()) timer_thread_.join();
  if (reply_thread_.joinable()) reply_thread_.join();

  // Fail everything still pending: callers blocked on an admin future
  // or a predict can no longer be answered (the timer is gone).
  std::vector<Inflight> orphaned;
  std::vector<std::shared_ptr<AdminOp>> admin_orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, inf] : inflight_) orphaned.push_back(std::move(inf));
    inflight_.clear();
    for (auto& [id, op] : admin_) admin_orphaned.push_back(std::move(op));
    admin_.clear();
    trace_active_ = false;
    trace_cv_.notify_all();
  }
  for (auto& inf : orphaned) {
    inf.promise.set_value(Status::Unavailable("fleet router stopped"));
  }
  for (auto& op : admin_orphaned) {
    op->promise.set_value(std::move(op->replies));
  }
}

uint16_t FleetRouter::http_port() const {
  return http_ != nullptr ? http_->port() : 0;
}

// ---------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------

bool FleetRouter::EligibleLocked(int replica, int exclude_a,
                                 int exclude_b) const {
  if (replica == exclude_a || replica == exclude_b) return false;
  const ReplicaState& r = replicas_[replica];
  return r.alive && r.in_rotation;
}

void FleetRouter::DecOutstandingLocked(int replica) {
  if (replica < 0 || replica >= static_cast<int>(replicas_.size())) return;
  if (replicas_[replica].outstanding > 0) replicas_[replica].outstanding--;
}

int FleetRouter::LeastLoadedLocked(int exclude_a, int exclude_b) const {
  int best = -1;
  for (int r = 0; r < static_cast<int>(replicas_.size()); ++r) {
    if (!EligibleLocked(r, exclude_a, exclude_b)) continue;
    if (best == -1 || replicas_[r].outstanding < replicas_[best].outstanding) {
      best = r;
    }
  }
  return best;
}

int FleetRouter::ChooseReplicaLocked(const std::string& model,
                                     uint64_t request_id, int exclude,
                                     Arm* arm) {
  *arm = Arm::kNone;
  int canary_replica = -1;
  auto it = canaries_.find(model);
  if (it != canaries_.end() && it->second.active) {
    canary_replica = it->second.replica;
    // Deterministic per-request canary assignment.
    const uint64_t slot = Mix64(request_id) % 10000;
    const uint64_t cut =
        static_cast<uint64_t>(config_.canary_fraction * 10000.0);
    if (slot < cut && canary_replica != exclude &&
        EligibleLocked(canary_replica, -2, -2)) {
      *arm = Arm::kCanary;
      return canary_replica;
    }
    *arm = Arm::kBaseline;
    // Baseline traffic must avoid the canary replica: it serves the
    // new version for this model.
  }

  // Replicas hold the whole forest and keep no per-request state, so
  // any of them serves any batch equally well.
  const int least = LeastLoadedLocked(exclude, canary_replica);
  if (least != -1) return least;
  // Nothing else eligible; a canaried model may still fall back to its
  // canary replica rather than shed (version skew beats a 429 when the
  // canary is the last replica standing).
  if (canary_replica != -1 && canary_replica != exclude &&
      EligibleLocked(canary_replica, -2, -2)) {
    return canary_replica;
  }
  return -1;
}

std::future<Result<FleetBatchResult>> FleetRouter::PredictRows(
    const std::string& model, const DataTable& table, const uint32_t* rows,
    size_t n, int deadline_ms) {
  std::promise<Result<FleetBatchResult>> promise;
  std::future<Result<FleetBatchResult>> future = promise.get_future();
  if (n == 0 || table.num_columns() == 0) {
    promise.set_value(Status::InvalidArgument("empty predict batch"));
    return future;
  }
  const uint64_t now = NowNanos();
  const int effective_deadline =
      deadline_ms > 0 ? deadline_ms : config_.default_deadline_ms;
  TraceSpan span(TraceCat::kServe, "fleet-dispatch");

  Send send;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      promise.set_value(Status::Unavailable("fleet router stopped"));
      return future;
    }
    if (inflight_.size() >= config_.max_inflight) {
      shed_->Inc();
      promise.set_value(Status::Unavailable(
          "fleet overloaded (" + std::to_string(config_.max_inflight) +
          " in flight); shed"));
      return future;
    }
    const uint64_t id = next_id_++;
    Arm arm = Arm::kNone;
    const int replica = ChooseReplicaLocked(model, id, /*exclude=*/-2, &arm);
    if (replica == -1) {
      shed_->Inc();
      promise.set_value(
          Status::Unavailable("no fleet replica in rotation; shed"));
      return future;
    }
    accepted_->Inc();

    FleetPredictMsg msg = FleetPredictMsg::FromRows(id, model, table, rows, n);
    Inflight inf;
    inf.model = model;
    inf.payload = msg.Encode();
    inf.promise = std::move(promise);
    inf.enqueue_ns = now;
    inf.deadline_ns = now + static_cast<uint64_t>(effective_deadline) * 1000000;
    inf.last_send_ns = now;
    inf.replica = replica;
    inf.arm = arm;
    inf.num_rows = static_cast<uint32_t>(n);
    inf.classification =
        table.schema().task_kind() == TaskKind::kClassification;
    replicas_[replica].outstanding++;

    send.channel = ChannelKind::kTask;
    send.dst = replica;
    send.type = static_cast<uint32_t>(FleetMsg::kPredict);
    send.payload = inf.payload;
    inflight_.emplace(id, std::move(inf));
  }
  DoSends({std::move(send)});
  return future;
}

std::future<Result<FleetBatchResult>> FleetRouter::Predict(
    const std::string& model, const DataTable& table, uint32_t row,
    int deadline_ms) {
  return PredictRows(model, table, &row, 1, deadline_ms);
}

void FleetRouter::DoSends(std::vector<Send> sends) {
  for (Send& s : sends) {
    Message msg;
    msg.src = kMasterRank;
    msg.dst = s.dst;
    msg.type = s.type;
    msg.payload = std::move(s.payload);
    transport_->Send(s.channel, std::move(msg));
  }
}

// ---------------------------------------------------------------------
// Reply thread.
// ---------------------------------------------------------------------

void FleetRouter::ReplyLoop() {
  BlockingQueue<Message>& queue = transport_->master_queue();
  while (true) {
    std::optional<Message> msg = queue.Pop();
    if (!msg.has_value()) return;
    std::vector<Send> sends;
    switch (static_cast<FleetMsg>(msg->type)) {
      case FleetMsg::kPredictReply:
        HandlePredictReply(*msg, &sends);
        break;
      case FleetMsg::kPushReply:
      case FleetMsg::kRollbackReply:
        HandleAdminReply(*msg);
        break;
      case FleetMsg::kHealthPong:
        HandleHealthPong(*msg);
        break;
      case FleetMsg::kTraceReply:
        HandleTraceReply(*msg);
        break;
      case FleetMsg::kShutdown:
        return;
      default:
        TS_LOG(kWarn) << "fleet router: unknown message type "
                         << msg->type;
        break;
    }
    DoSends(std::move(sends));
  }
}

void FleetRouter::HandlePredictReply(const Message& msg,
                                     std::vector<Send>* sends) {
  FleetPredictReplyMsg reply;
  if (Status st = FleetPredictReplyMsg::Decode(msg.payload, &reply);
      !st.ok()) {
    corrupt_->Inc();
    return;  // the retransmit timer covers it
  }

  std::promise<Result<FleetBatchResult>> promise;
  Result<FleetBatchResult> outcome = Status::OK();
  bool resolve = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(reply.request_id);
    if (it == inflight_.end()) return;  // late duplicate
    Inflight& inf = it->second;

    const uint64_t latency_us = (NowNanos() - inf.enqueue_ns) / 1000;
    const StatusCode code = static_cast<StatusCode>(reply.status_code);

    if (code == StatusCode::kOk) {
      const size_t got =
          inf.classification ? reply.labels.size() : reply.values.size();
      if (got != inf.num_rows) {
        // Malformed but CRC-clean reply (should not happen): retry.
        corrupt_->Inc();
        return;
      }
      FleetBatchResult result;
      result.replica = reply.replica;
      result.version = reply.version;
      result.labels = std::move(reply.labels);
      result.values = std::move(reply.values);
      latency_us_->Add(latency_us);
      RecordArmLocked(inf.model, inf.arm, /*error=*/false, latency_us);
      outcome = std::move(result);
      promise = std::move(inf.promise);
      resolve = true;
      DecOutstandingLocked(inf.replica);
      inflight_.erase(it);
    } else if (code == StatusCode::kUnavailable) {
      // Replica-side backpressure: immediately try another replica;
      // the deadline is the overall bound.
      Arm arm = inf.arm;
      const int next = ChooseReplicaLocked(inf.model, reply.request_id,
                                           /*exclude=*/inf.replica, &arm);
      if (next != -1) {
        DecOutstandingLocked(inf.replica);
        replicas_[next].outstanding++;
        inf.replica = next;
        inf.arm = arm;
        inf.last_send_ns = NowNanos();
        retransmits_->Inc();
        sends->push_back({ChannelKind::kTask, next,
                          static_cast<uint32_t>(FleetMsg::kPredict),
                          inf.payload});
      }
      // else: leave in flight; the timer retries or deadline-sheds.
    } else {
      // Hard error (unknown model, bad batch): not retryable.
      RecordArmLocked(inf.model, inf.arm, /*error=*/true, latency_us);
      outcome = Status(code, reply.error);
      promise = std::move(inf.promise);
      resolve = true;
      DecOutstandingLocked(inf.replica);
      inflight_.erase(it);
    }
  }
  if (resolve) promise.set_value(std::move(outcome));
}

void FleetRouter::RecordArmLocked(const std::string& model, Arm arm,
                                  bool error, uint64_t latency_us) {
  if (arm == Arm::kNone) return;
  auto it = canaries_.find(model);
  if (it == canaries_.end() || !it->second.active) return;
  ArmStats& stats =
      arm == Arm::kCanary ? it->second.canary : it->second.baseline;
  stats.count++;
  if (error) stats.errors++;
  stats.latency_us.Add(latency_us);
}

void FleetRouter::HandleAdminReply(const Message& msg) {
  FleetAdminReplyMsg reply;
  if (Status st = FleetAdminReplyMsg::Decode(msg.payload, &reply); !st.ok()) {
    corrupt_->Inc();
    return;
  }
  std::shared_ptr<AdminOp> done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = admin_.find(reply.op_id);
    if (it == admin_.end()) return;  // late duplicate
    AdminOp& op = *it->second;
    if (op.replies.emplace(reply.replica, reply).second) {
      op.remaining.erase(reply.replica);
    }
    if (op.remaining.empty()) {
      done = it->second;
      admin_.erase(it);
    }
  }
  if (done != nullptr) done->promise.set_value(std::move(done->replies));
}

void FleetRouter::HandleHealthPong(const Message& msg) {
  FleetHealthPongMsg pong;
  if (Status st = FleetHealthPongMsg::Decode(msg.payload, &pong); !st.ok()) {
    corrupt_->Inc();
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (pong.replica < 0 ||
      pong.replica >= static_cast<int>(replicas_.size())) {
    return;
  }
  ReplicaState& r = replicas_[pong.replica];
  if (!r.alive) return;  // declared dead stays dead
  r.misses = 0;
  r.last_pong_ns = NowNanos();
  if (!r.in_rotation) {
    TS_LOG(kInfo) << "fleet: replica " << pong.replica
                  << " back in rotation";
    r.in_rotation = true;
  }
  r.last_pong = std::move(pong);
}

void FleetRouter::HandleTraceReply(const Message& msg) {
  TraceSnapshotMsg snap;
  if (Status st = TraceSnapshotMsg::Decode(msg.payload, &snap); !st.ok()) {
    corrupt_->Inc();
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!trace_active_ || trace_expect_.count(snap.worker) == 0) return;
  trace_expect_.erase(snap.worker);
  RankTrace rank;
  rank.rank = snap.worker;
  rank.label = "replica " + std::to_string(snap.worker);
  rank.clock_offset_ns =
      config_.clock_offset_ns ? config_.clock_offset_ns(snap.worker) : 0;
  rank.dropped_spans = snap.dropped;
  rank.events = std::move(snap.events);
  trace_snaps_.push_back(std::move(rank));
  if (trace_expect_.empty()) trace_cv_.notify_all();
}

// ---------------------------------------------------------------------
// Timer thread: health, deadlines, retransmits, admin retries.
// ---------------------------------------------------------------------

void FleetRouter::TimerLoop() {
  const int tick_ms =
      std::max(5, std::min(config_.health_period_ms, config_.retry_period_ms) / 4);
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    timer_cv_.wait_for(lock, std::chrono::milliseconds(tick_ms),
                       [&] { return stopping_; });
    if (stopping_) break;
    std::vector<Send> sends;
    std::vector<std::pair<std::promise<Result<FleetBatchResult>>, Status>>
        failed;
    lock.unlock();
    TimerTick(&sends, &failed);
    DoSends(std::move(sends));
    for (auto& [promise, status] : failed) promise.set_value(status);
    lock.lock();
  }
}

void FleetRouter::TimerTick(
    std::vector<Send>* sends,
    std::vector<std::pair<std::promise<Result<FleetBatchResult>>, Status>>*
        failed) {
  const uint64_t now = NowNanos();
  const uint64_t health_period_ns =
      static_cast<uint64_t>(std::max(1, config_.health_period_ms)) * 1000000;
  const uint64_t retry_ns =
      static_cast<uint64_t>(std::max(1, config_.retry_period_ms)) * 1000000;

  std::vector<std::shared_ptr<AdminOp>> admin_done;
  {
    std::lock_guard<std::mutex> lock(mu_);

    // Health round.
    if (now - last_health_sent_ns_ >= health_period_ns) {
      for (int r = 0; r < static_cast<int>(replicas_.size()); ++r) {
        ReplicaState& state = replicas_[r];
        if (!state.alive) continue;
        if (last_health_sent_ns_ != 0 &&
            state.last_pong_ns < last_health_sent_ns_) {
          state.misses++;
          if (state.in_rotation && state.misses >= config_.health_miss_limit) {
            TS_LOG(kWarn) << "fleet: replica " << r << " missed "
                             << state.misses
                             << " health rounds, out of rotation";
            state.in_rotation = false;
          }
        }
        FleetHealthPingMsg ping;
        ping.nonce = now;
        sends->push_back({ChannelKind::kTask, r,
                          static_cast<uint32_t>(FleetMsg::kHealthPing),
                          ping.Encode()});
      }
      last_health_sent_ns_ = now;
    }

    // Deadline shedding + retransmits.
    for (auto it = inflight_.begin(); it != inflight_.end();) {
      Inflight& inf = it->second;
      if (now >= inf.deadline_ns) {
        shed_->Inc();
        DecOutstandingLocked(inf.replica);
        failed->emplace_back(
            std::move(inf.promise),
            Status::Unavailable("fleet deadline exceeded; shed"));
        it = inflight_.erase(it);
        continue;
      }
      if (now - inf.last_send_ns >= retry_ns) {
        Arm arm = inf.arm;
        // Rotate away from the unresponsive replica when possible.
        int next = ChooseReplicaLocked(inf.model, it->first,
                                       /*exclude=*/inf.replica, &arm);
        if (next == -1 && EligibleLocked(inf.replica, -2, -2)) {
          next = inf.replica;  // only choice: same replica again
          arm = inf.arm;
        }
        if (next != -1) {
          DecOutstandingLocked(inf.replica);
          replicas_[next].outstanding++;
          inf.replica = next;
          inf.arm = arm;
          inf.last_send_ns = now;
          retransmits_->Inc();
          sends->push_back({ChannelKind::kTask, next,
                            static_cast<uint32_t>(FleetMsg::kPredict),
                            inf.payload});
        }
      }
      ++it;
    }

    // Admin op retries + timeouts.
    for (auto it = admin_.begin(); it != admin_.end();) {
      AdminOp& op = *it->second;
      if (now >= op.deadline_ns) {
        admin_done.push_back(it->second);
        it = admin_.erase(it);
        continue;
      }
      if (now - op.last_send_ns >= retry_ns) {
        op.last_send_ns = now;
        for (int r : op.remaining) {
          if (!replicas_[r].alive) continue;
          sends->push_back({ChannelKind::kTask, r, op.send_type, op.payload});
        }
      }
      ++it;
    }
  }

  for (auto& op : admin_done) op->promise.set_value(std::move(op->replies));
}

// ---------------------------------------------------------------------
// Admin: push / canary / promote / rollback.
// ---------------------------------------------------------------------

Result<std::map<int, FleetAdminReplyMsg>> FleetRouter::RunAdminOp(
    uint64_t op_id, uint32_t send_type, std::string payload,
    const std::set<int>& targets) {
  if (targets.empty()) {
    return Status::Unavailable("no live fleet replica to address");
  }
  TraceSpan span(TraceCat::kServe, "fleet-admin", op_id);
  auto op = std::make_shared<AdminOp>();
  std::future<std::map<int, FleetAdminReplyMsg>> future =
      op->promise.get_future();
  const uint64_t now = NowNanos();
  op->send_type = send_type;
  op->payload = std::move(payload);
  op->remaining = targets;
  op->deadline_ns = now + kAdminTimeoutNs;
  op->last_send_ns = now;

  std::vector<Send> sends;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return Status::Unavailable("fleet router stopped");
    // Keyed by the id sealed inside the payload: replies correlate the
    // op by it.
    admin_[op_id] = op;
    for (int r : targets) {
      sends.push_back({ChannelKind::kTask, r, send_type, op->payload});
    }
  }
  DoSends(std::move(sends));
  return future.get();
}

Status FleetRouter::AggregateAdmin(
    const std::map<int, FleetAdminReplyMsg>& replies,
    const std::set<int>& targets) {
  for (int r : targets) {
    auto it = replies.find(r);
    if (it == replies.end()) {
      return Status::Unavailable("replica " + std::to_string(r) +
                                 " did not answer the admin op");
    }
    const StatusCode code = static_cast<StatusCode>(it->second.status_code);
    if (code != StatusCode::kOk) {
      return Status(code,
                    "replica " + std::to_string(r) + ": " + it->second.error);
    }
  }
  return Status::OK();
}

Status FleetRouter::Push(const std::string& model,
                         const std::string& model_bytes) {
  std::set<int> targets;
  uint64_t op_id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    op_id = next_id_++;
    for (int r = 0; r < static_cast<int>(replicas_.size()); ++r) {
      if (replicas_[r].alive) targets.insert(r);
    }
  }
  FleetPushMsg msg;
  msg.op_id = op_id;
  msg.model = model;
  msg.model_bytes = model_bytes;
  TS_ASSIGN_OR_RETURN(auto replies,
                      RunAdminOp(op_id, static_cast<uint32_t>(FleetMsg::kPush),
                                 msg.Encode(), targets));
  return AggregateAdmin(replies, targets);
}

Result<int> FleetRouter::PushCanary(const std::string& model,
                                    const std::string& model_bytes,
                                    int replica) {
  uint64_t op_id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = canaries_.find(model);
    if (it != canaries_.end() && it->second.active) {
      return Status::AlreadyExists(model +
                                   " already has an active canary; promote "
                                   "or roll it back first");
    }
    if (replica < 0) {
      replica = LeastLoadedLocked(-2, -2);
    } else if (replica >= static_cast<int>(replicas_.size()) ||
               !replicas_[replica].alive) {
      return Status::InvalidArgument("bad canary replica " +
                                     std::to_string(replica));
    }
    if (replica < 0) {
      return Status::Unavailable("no replica in rotation for a canary");
    }
    op_id = next_id_++;
  }

  FleetPushMsg msg;
  msg.op_id = op_id;
  msg.model = model;
  msg.model_bytes = model_bytes;
  const std::set<int> targets = {replica};
  TS_ASSIGN_OR_RETURN(auto replies,
                      RunAdminOp(op_id, static_cast<uint32_t>(FleetMsg::kPush),
                                 msg.Encode(), targets));
  TS_RETURN_IF_ERROR(AggregateAdmin(replies, targets));

  std::lock_guard<std::mutex> lock(mu_);
  CanaryState& canary = canaries_[model];
  canary.canary.Reset();
  canary.baseline.Reset();
  canary.active = true;
  canary.replica = replica;
  canary.version = replies.at(replica).version;
  canary.model_bytes = model_bytes;
  TS_LOG(kInfo) << "fleet: canary of " << model << " v" << canary.version
                << " live on replica " << replica;
  return replica;
}

Status FleetRouter::Promote(const std::string& model) {
  std::string bytes;
  int canary_replica = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = canaries_.find(model);
    if (it == canaries_.end() || !it->second.active) {
      return Status::FailedPrecondition(model + " has no active canary");
    }
    bytes = it->second.model_bytes;
    canary_replica = it->second.replica;
  }
  std::set<int> targets;
  uint64_t op_id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    op_id = next_id_++;
    for (int r = 0; r < static_cast<int>(replicas_.size()); ++r) {
      if (replicas_[r].alive && r != canary_replica) targets.insert(r);
    }
  }
  if (!targets.empty()) {
    FleetPushMsg msg;
    msg.op_id = op_id;
    msg.model = model;
    msg.model_bytes = std::move(bytes);
    TS_ASSIGN_OR_RETURN(
        auto replies, RunAdminOp(op_id, static_cast<uint32_t>(FleetMsg::kPush),
                                 msg.Encode(), targets));
    TS_RETURN_IF_ERROR(AggregateAdmin(replies, targets));
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = canaries_.find(model);
  if (it != canaries_.end()) canaries_.erase(it);
  promotions_->Inc();
  TS_LOG(kInfo) << "fleet: canary of " << model << " promoted fleet-wide";
  return Status::OK();
}

Status FleetRouter::Rollback(const std::string& model) {
  std::set<int> targets;
  uint64_t op_id = 0;
  bool was_canary = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    op_id = next_id_++;
    auto it = canaries_.find(model);
    if (it != canaries_.end() && it->second.active) {
      was_canary = true;
      if (replicas_[it->second.replica].alive) {
        targets.insert(it->second.replica);
      }
      canaries_.erase(it);
    } else {
      for (int r = 0; r < static_cast<int>(replicas_.size()); ++r) {
        if (replicas_[r].alive) targets.insert(r);
      }
    }
  }
  rollbacks_->Inc();
  if (targets.empty()) {
    // Canary replica already dead: its versions died with it.
    return Status::OK();
  }
  FleetRollbackMsg msg;
  msg.op_id = op_id;
  msg.model = model;
  TS_ASSIGN_OR_RETURN(
      auto replies, RunAdminOp(op_id,
                               static_cast<uint32_t>(FleetMsg::kRollback),
                               msg.Encode(), targets));
  TS_RETURN_IF_ERROR(AggregateAdmin(replies, targets));
  TS_LOG(kInfo) << "fleet: " << model << " rolled back on "
                << (was_canary ? "the canary replica" : "every replica");
  return Status::OK();
}

// ---------------------------------------------------------------------
// Failure + lifecycle plumbing.
// ---------------------------------------------------------------------

void FleetRouter::MarkReplicaDead(int replica) {
  std::vector<Send> sends;
  std::vector<std::shared_ptr<AdminOp>> admin_done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (replica < 0 || replica >= static_cast<int>(replicas_.size())) return;
    ReplicaState& state = replicas_[replica];
    if (!state.alive) return;
    TS_LOG(kWarn) << "fleet: replica " << replica << " declared dead";
    state.alive = false;
    state.in_rotation = false;

    // A dead canary host ends its canary: the pushed version died with
    // the process.
    for (auto it = canaries_.begin(); it != canaries_.end();) {
      if (it->second.active && it->second.replica == replica) {
        TS_LOG(kWarn) << "fleet: canary of " << it->first
                         << " lost its replica, rolled back";
        rollbacks_->Inc();
        it = canaries_.erase(it);
      } else {
        ++it;
      }
    }

    // Re-dispatch the dead replica's in-flight work right away.
    const uint64_t now = NowNanos();
    for (auto& [id, inf] : inflight_) {
      if (inf.replica != replica) continue;
      Arm arm = inf.arm;
      const int next = ChooseReplicaLocked(inf.model, id,
                                           /*exclude=*/replica, &arm);
      DecOutstandingLocked(replica);
      if (next == -1) {
        inf.replica = -1;
        continue;  // timer retries once something returns
      }
      replicas_[next].outstanding++;
      inf.replica = next;
      inf.arm = arm;
      inf.last_send_ns = now;
      failovers_->Inc();
      sends.push_back({ChannelKind::kTask, next,
                       static_cast<uint32_t>(FleetMsg::kPredict),
                       inf.payload});
    }

    // Admin ops stop waiting on it.
    for (auto it = admin_.begin(); it != admin_.end();) {
      AdminOp& op = *it->second;
      if (op.remaining.erase(replica) > 0) {
        FleetAdminReplyMsg dead;
        dead.replica = replica;
        dead.status_code = static_cast<uint8_t>(StatusCode::kUnavailable);
        dead.error = "replica dead";
        op.replies.emplace(replica, std::move(dead));
      }
      if (op.remaining.empty()) {
        admin_done.push_back(it->second);
        it = admin_.erase(it);
      } else {
        ++it;
      }
    }

    // A pending trace collection stops expecting its lane.
    if (trace_active_ && trace_expect_.erase(replica) > 0 &&
        trace_expect_.empty()) {
      trace_cv_.notify_all();
    }
  }
  for (auto& op : admin_done) op->promise.set_value(std::move(op->replies));
  DoSends(std::move(sends));
}

void FleetRouter::ShutdownReplicas() {
  std::vector<Send> sends;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int r = 0; r < static_cast<int>(replicas_.size()); ++r) {
      if (!replicas_[r].alive) continue;
      sends.push_back({ChannelKind::kTask, r,
                       static_cast<uint32_t>(FleetMsg::kShutdown), ""});
    }
  }
  DoSends(std::move(sends));
}

Result<std::string> FleetRouter::CollectMergedTrace(int timeout_ms) {
  std::vector<Send> sends;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (trace_active_) {
      return Status::FailedPrecondition("trace collection already running");
    }
    trace_active_ = true;
    trace_expect_.clear();
    trace_snaps_.clear();
    for (int r = 0; r < static_cast<int>(replicas_.size()); ++r) {
      if (!replicas_[r].alive) continue;
      trace_expect_.insert(r);
      // kTrace channel: low priority on TCP, and exempt from fault
      // injection, so a chaos profile cannot corrupt trace collection.
      sends.push_back({ChannelKind::kTrace, r,
                       static_cast<uint32_t>(FleetMsg::kTraceRequest), ""});
    }
  }
  DoSends(std::move(sends));

  std::vector<RankTrace> ranks;
  {
    std::unique_lock<std::mutex> lock(mu_);
    trace_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                       [&] { return trace_expect_.empty() || stopping_; });
    if (!trace_expect_.empty()) {
      TS_LOG(kWarn) << "fleet: trace collection missing "
                       << trace_expect_.size() << " replica lane(s)";
    }
    ranks = std::move(trace_snaps_);
    trace_snaps_.clear();
    trace_expect_.clear();
    trace_active_ = false;
  }

  RankTrace router_lane;
  router_lane.rank = kMasterRank;
  router_lane.label = "router";
  router_lane.clock_offset_ns = 0;
  router_lane.dropped_spans = Tracer::Global().dropped_spans();
  router_lane.events = Tracer::Global().SnapshotEvents();
  ranks.insert(ranks.begin(), std::move(router_lane));
  std::sort(ranks.begin(), ranks.end(),
            [](const RankTrace& a, const RankTrace& b) {
              return a.rank < b.rank;
            });
  return MergedChromeTraceJson(ranks);
}

// ---------------------------------------------------------------------
// Status + HTTP.
// ---------------------------------------------------------------------

FleetStatus FleetRouter::GetStatus() {
  FleetStatus status;
  status.accepted = accepted_->value();
  status.shed = shed_->value();
  status.retransmits = retransmits_->value();
  status.failovers = failovers_->value();
  std::lock_guard<std::mutex> lock(mu_);
  status.replicas.reserve(replicas_.size());
  for (int r = 0; r < static_cast<int>(replicas_.size()); ++r) {
    const ReplicaState& state = replicas_[r];
    FleetReplicaStatus rs;
    rs.rank = r;
    rs.alive = state.alive;
    rs.in_rotation = state.in_rotation;
    rs.misses = state.misses;
    rs.outstanding = state.outstanding;
    rs.queue_depth = state.last_pong.queue_depth;
    rs.requests = state.last_pong.requests;
    rs.batches = state.last_pong.batches;
    rs.rejected = state.last_pong.rejected;
    rs.models = state.last_pong.models;
    status.replicas.push_back(std::move(rs));
  }
  for (const auto& [model, canary] : canaries_) {
    if (!canary.active) continue;
    FleetCanaryStatus cs;
    cs.model = model;
    cs.replica = canary.replica;
    cs.version = canary.version;
    cs.canary = canary.canary.View();
    cs.baseline = canary.baseline.View();
    status.canaries.push_back(std::move(cs));
  }
  return status;
}

std::string FleetRouter::StatusJson() {
  const FleetStatus status = GetStatus();
  const Histogram::Snapshot latency = latency_us_->snapshot();
  std::ostringstream out;
  out << "{\"role\":\"router\",\"accepted\":" << status.accepted
      << ",\"shed\":" << status.shed
      << ",\"retransmits\":" << status.retransmits
      << ",\"failovers\":" << status.failovers
      << ",\"latency_us\":{\"count\":" << latency.count
      << ",\"p50\":" << latency.Percentile(0.50)
      << ",\"p99\":" << latency.Percentile(0.99) << "}"
      << ",\"rss_bytes\":" << CurrentRssBytes() << ",\"replicas\":[";
  for (size_t i = 0; i < status.replicas.size(); ++i) {
    const FleetReplicaStatus& r = status.replicas[i];
    if (i > 0) out << ",";
    out << "{\"rank\":" << r.rank
        << ",\"alive\":" << (r.alive ? "true" : "false")
        << ",\"in_rotation\":" << (r.in_rotation ? "true" : "false")
        << ",\"misses\":" << r.misses << ",\"outstanding\":" << r.outstanding
        << ",\"queue_depth\":" << r.queue_depth
        << ",\"requests\":" << r.requests << ",\"batches\":" << r.batches
        << ",\"rejected\":" << r.rejected << ",\"models\":[";
    for (size_t m = 0; m < r.models.size(); ++m) {
      if (m > 0) out << ",";
      out << "{\"name\":\"" << r.models[m].name
          << "\",\"version\":" << r.models[m].version
          << ",\"num_versions\":" << r.models[m].num_versions << "}";
    }
    out << "]}";
  }
  out << "],\"canaries\":[";
  for (size_t i = 0; i < status.canaries.size(); ++i) {
    const FleetCanaryStatus& c = status.canaries[i];
    if (i > 0) out << ",";
    out << "{\"model\":\"" << c.model << "\",\"replica\":" << c.replica
        << ",\"version\":" << c.version
        << ",\"canary\":{\"count\":" << c.canary.count
        << ",\"errors\":" << c.canary.errors
        << ",\"p99_us\":" << c.canary.p99_us
        << "},\"baseline\":{\"count\":" << c.baseline.count
        << ",\"errors\":" << c.baseline.errors
        << ",\"p99_us\":" << c.baseline.p99_us << "}}";
  }
  out << "]}\n";
  return out.str();
}

void FleetRouter::StartHttp() {
  http_ = std::make_unique<HttpServer>();
  http_->Handle("/metrics", [this](const std::string&) {
    HttpResponse resp;
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = PrometheusExport(metrics_.Snapshot());
    return resp;
  });
  http_->Handle("/healthz", [](const std::string&) {
    HttpResponse resp;
    resp.body = "ok\n";
    return resp;
  });
  http_->Handle("/statusz", [this](const std::string&) {
    HttpResponse resp;
    resp.content_type = "application/json";
    resp.body = StatusJson();
    return resp;
  });
  http_->Handle("/fleet/push", [this](const std::string& query) {
    HttpResponse resp;
    const std::string model = QueryParam(query, "model");
    const std::string path = QueryParam(query, "path");
    const std::string canary = QueryParam(query, "canary");
    if (model.empty() || path.empty()) {
      resp.status = 400;
      resp.body = "usage: /fleet/push?model=NAME&path=FILE[&canary=1]\n";
      return resp;
    }
    Result<std::string> bytes = ForestBytesFromFile(path);
    if (!bytes.ok()) {
      resp.status = 400;
      resp.body = bytes.status().ToString() + "\n";
      return resp;
    }
    if (canary == "1" || canary == "true") {
      Result<int> replica = PushCanary(model, *bytes);
      if (!replica.ok()) {
        resp.status = 500;
        resp.body = replica.status().ToString() + "\n";
      } else {
        resp.body =
            "canary live on replica " + std::to_string(*replica) + "\n";
      }
    } else {
      Status st = Push(model, *bytes);
      resp.status = st.ok() ? 200 : 500;
      resp.body = st.ok() ? "pushed\n" : st.ToString() + "\n";
    }
    return resp;
  });
  http_->Handle("/fleet/promote", [this](const std::string& query) {
    HttpResponse resp;
    const std::string model = QueryParam(query, "model");
    if (model.empty()) {
      resp.status = 400;
      resp.body = "usage: /fleet/promote?model=NAME\n";
      return resp;
    }
    Status st = Promote(model);
    resp.status = st.ok() ? 200 : 500;
    resp.body = st.ok() ? "promoted\n" : st.ToString() + "\n";
    return resp;
  });
  http_->Handle("/fleet/rollback", [this](const std::string& query) {
    HttpResponse resp;
    const std::string model = QueryParam(query, "model");
    if (model.empty()) {
      resp.status = 400;
      resp.body = "usage: /fleet/rollback?model=NAME\n";
      return resp;
    }
    Status st = Rollback(model);
    resp.status = st.ok() ? 200 : 500;
    resp.body = st.ok() ? "rolled back\n" : st.ToString() + "\n";
    return resp;
  });
  Status st = http_->Start(config_.http_host,
                           static_cast<uint16_t>(config_.http_port));
  if (!st.ok()) {
    TS_LOG(kError) << "fleet router http: " << st.ToString();
    http_.reset();
  }
}

}  // namespace treeserver
