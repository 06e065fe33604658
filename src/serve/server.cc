#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "common/prometheus.h"
#include "common/simd.h"
#include "common/trace.h"

namespace treeserver {

namespace {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

InferenceServer::InferenceServer(const ModelRegistry* registry,
                                 InferenceServerConfig config)
    : registry_(registry),
      config_(config),
      metrics_(config.metrics != nullptr ? *config.metrics
                                         : MetricsRegistry::Global()),
      requests_total_(metrics_.GetCounter("serve.requests")),
      requests_rejected_(metrics_.GetCounter("serve.rejected")),
      batches_flushed_(metrics_.GetCounter("serve.batches")),
      batch_rows_(metrics_.GetHistogram("serve.batch_rows")) {}

InferenceServer::~InferenceServer() { Stop(); }

void InferenceServer::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_ || stopping_) return;
    started_ = true;
    scheduler_ = std::thread(&InferenceServer::SchedulerLoop, this);
    const int workers = std::max(1, config_.num_workers);
    workers_.reserve(workers);
    for (int i = 0; i < workers; ++i) {
      workers_.emplace_back(&InferenceServer::WorkerLoop, this);
    }
  }
  if (config_.http_port >= 0) {
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
      const Stats stats = GetStats();
      std::string body = "{\"role\":\"inference\"," + SimdStatusJson() +
                         ",\"queue_depth\":" +
                         std::to_string(stats.queue_depth) +
                         ",\"requests\":" + std::to_string(stats.requests) +
                         ",\"batches\":" + std::to_string(stats.batches) +
                         ",\"rejected\":" + std::to_string(stats.rejected) +
                         ",\"rss_bytes\":" + std::to_string(CurrentRssBytes()) +
                         ",\"models\":[";
      if (registry_ != nullptr) {
        bool first = true;
        for (const auto& m : registry_->StatusSnapshot()) {
          if (!first) body += ",";
          first = false;
          body += "{\"name\":\"" + m.name +
                  "\",\"version\":" + std::to_string(m.version) +
                  ",\"num_versions\":" + std::to_string(m.num_versions) +
                  ",\"kind\":\"" + ModelKindName(m.kind) + "\"}";
        }
      }
      body += "]}\n";
      resp.body = std::move(body);
      return resp;
    });
    Status st = http_->Start(config_.http_host,
                             static_cast<uint16_t>(config_.http_port));
    if (!st.ok()) {
      TS_LOG(kError) << "inference http: " << st.ToString();
      http_.reset();
    }
  }
}

void InferenceServer::Stop() {
  if (http_ != nullptr) http_->Stop();
  std::vector<PendingRequest> orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    if (!started_) {
      // Never ran: fail whatever was admitted pre-Start.
      orphaned.reserve(queue_.size());
      while (!queue_.empty()) {
        orphaned.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
  }
  cv_.notify_all();
  for (auto& p : orphaned) {
    p.promise.set_value(
        Status::FailedPrecondition("inference server stopped before start"));
  }
  if (scheduler_.joinable()) scheduler_.join();
  batches_.Close();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

std::future<Result<Prediction>> InferenceServer::Predict(
    PredictRequest request) {
  PendingRequest pending;
  pending.request = std::move(request);
  pending.enqueue_ns = NowNanos();
  std::future<Result<Prediction>> future = pending.promise.get_future();
  requests_total_->Inc();

  if (pending.request.table == nullptr ||
      pending.request.row >= pending.request.table->num_rows()) {
    pending.promise.set_value(Status::InvalidArgument(
        "predict request has no table or an out-of-range row"));
    return future;
  }

  bool rejected = false;
  bool stopped = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      stopped = true;
    } else if (queue_.size() >= config_.max_queue) {
      rejected = true;
    } else {
      queue_.push_back(std::move(pending));
    }
  }
  if (stopped) {
    pending.promise.set_value(
        Status::FailedPrecondition("inference server is stopped"));
    return future;
  }
  if (rejected) {
    requests_rejected_->Inc();
    pending.promise.set_value(Status::Unavailable(
        "inference queue full (" + std::to_string(config_.max_queue) +
        " pending); retry later"));
    return future;
  }
  cv_.notify_one();
  return future;
}

size_t InferenceServer::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

InferenceServer::Stats InferenceServer::GetStats() const {
  Stats stats;
  stats.queue_depth = queue_depth();
  stats.requests = requests_total_->value();
  stats.batches = batches_flushed_->value();
  stats.rejected = requests_rejected_->value();
  return stats;
}

uint16_t InferenceServer::http_port() const {
  return http_ != nullptr ? http_->port() : 0;
}

void InferenceServer::SchedulerLoop() {
  const auto deadline =
      std::chrono::microseconds(std::max(0, config_.batch_deadline_us));
  const size_t max_batch = static_cast<size_t>(std::max(1, config_.max_batch));

  // Per-model groups being accumulated, with the enqueue time of each
  // group's oldest request for the deadline check.
  std::map<std::string, std::vector<PendingRequest>> pending;
  std::map<std::string, uint64_t> oldest_ns;

  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (!pending.empty()) {
      cv_.wait_for(lock, deadline,
                   [&] { return !queue_.empty() || stopping_; });
    } else {
      cv_.wait(lock, [&] { return !queue_.empty() || stopping_; });
    }

    // Drain the intake queue into per-model groups, flushing any group
    // that reaches the batch size.
    while (!queue_.empty()) {
      PendingRequest req = std::move(queue_.front());
      queue_.pop_front();
      // Copied, not referenced: `req` is moved into the group below.
      const std::string name = req.request.model;
      std::vector<PendingRequest>& group = pending[name];
      if (group.empty()) oldest_ns[name] = req.enqueue_ns;
      group.push_back(std::move(req));
      if (group.size() >= max_batch) {
        std::vector<PendingRequest> batch = std::move(group);
        pending.erase(name);
        oldest_ns.erase(name);
        lock.unlock();
        FlushModel(name, std::move(batch));
        lock.lock();
      }
    }

    const bool draining = stopping_;
    // Flush groups whose oldest request aged past the deadline (all of
    // them when draining for shutdown).
    const uint64_t now = NowNanos();
    const uint64_t deadline_ns = static_cast<uint64_t>(deadline.count()) * 1000;
    for (auto it = pending.begin(); it != pending.end();) {
      if (!draining && now - oldest_ns[it->first] < deadline_ns) {
        ++it;
        continue;
      }
      std::string name = it->first;
      std::vector<PendingRequest> batch = std::move(it->second);
      it = pending.erase(it);
      oldest_ns.erase(name);
      lock.unlock();
      FlushModel(name, std::move(batch));
      lock.lock();
    }

    if (draining && queue_.empty() && pending.empty()) break;
  }
}

void InferenceServer::FlushModel(const std::string& name,
                                 std::vector<PendingRequest> items) {
  // Resolve the model version once per batch: a hot-swap takes effect
  // between batches, never within one.
  std::shared_ptr<const ServedModel> model =
      registry_ == nullptr ? nullptr : registry_->Current(name);
  if (model == nullptr) {
    for (auto& item : items) {
      item.promise.set_value(
          Status::NotFound("no published model named " + name));
    }
    return;
  }
  batches_flushed_->Inc();
  batch_rows_->Add(items.size());
  Batch batch;
  batch.model = std::move(model);
  batch.items = std::move(items);
  // Stop() joins the scheduler before closing the batch queue, so this
  // Push cannot race Close.
  batches_.Push(std::move(batch));
}

void InferenceServer::WorkerLoop() {
  while (true) {
    std::optional<Batch> batch = batches_.Pop();
    if (!batch.has_value()) return;
    ExecuteBatch(std::move(*batch));
  }
}

void InferenceServer::ExecuteBatch(Batch batch) {
  TraceSpan span(TraceCat::kServe, "serve-batch");
  const CompiledForest& compiled = batch.model->compiled;
  Histogram* latency =
      metrics_.GetHistogram("serve.latency_us." + batch.model->name);

  // Sub-group items sharing a table and depth cutoff: each sub-group is
  // one batched traversal over the compiled forest.
  struct GroupKey {
    const DataTable* table;
    int max_depth;
    bool operator<(const GroupKey& o) const {
      return table != o.table ? table < o.table : max_depth < o.max_depth;
    }
  };
  std::map<GroupKey, std::vector<size_t>> groups;
  for (size_t i = 0; i < batch.items.size(); ++i) {
    const PredictRequest& req = batch.items[i].request;
    groups[{req.table.get(), req.max_depth}].push_back(i);
  }

  const int num_classes = compiled.num_classes();
  std::vector<uint32_t> rows;
  std::vector<float> pmf;
  std::vector<int32_t> labels;
  std::vector<double> values;
  for (const auto& [key, indices] : groups) {
    const DataTable& table = *batch.items[indices.front()].request.table;
    // Tables arrive from outside (fleet batches carry their own
    // schema): one that lacks a split column or flips its type is
    // answered here and never reaches the traversal.
    if (Status st = compiled.CheckColumns(table); !st.ok()) {
      for (size_t i : indices) batch.items[i].promise.set_value(st);
      continue;
    }
    rows.clear();
    rows.reserve(indices.size());
    for (size_t i : indices) rows.push_back(batch.items[i].request.row);

    const bool classification = compiled.is_classification();
    if (classification) {
      pmf.assign(indices.size() * static_cast<size_t>(num_classes), 0.0f);
      compiled.PredictPmf(table, rows.data(), rows.size(), key.max_depth,
                          pmf.data());
    } else {
      values.assign(indices.size(), 0.0);
      compiled.PredictValue(table, rows.data(), rows.size(), key.max_depth,
                            values.data());
    }
    labels.assign(indices.size(), 0);
    if (classification) {
      compiled.PredictLabel(table, rows.data(), rows.size(), key.max_depth,
                            labels.data());
    }

    const uint64_t done_ns = NowNanos();
    for (size_t j = 0; j < indices.size(); ++j) {
      PendingRequest& item = batch.items[indices[j]];
      Prediction out;
      out.model_version = batch.model->version;
      if (classification) {
        out.label = labels[j];
        if (item.request.want_pmf) {
          const float* p = pmf.data() + j * static_cast<size_t>(num_classes);
          out.pmf.assign(p, p + num_classes);
        }
      } else {
        out.value = values[j];
      }
      latency->Add((done_ns - item.enqueue_ns) / 1000);
      item.promise.set_value(std::move(out));
    }
  }
}

}  // namespace treeserver
