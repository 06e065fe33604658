#include "engine/cluster.h"

#include "common/logging.h"
#include "engine/stats_reporter.h"

namespace treeserver {

TreeServerCluster::TreeServerCluster(DataTable table, EngineConfig config)
    : config_(config) {
  TS_CHECK(config_.num_workers > 0);
  TS_CHECK(config_.compers_per_worker > 0);
  TS_CHECK(config_.tau_d <= config_.tau_dfs)
      << "τ_D must not exceed τ_dfs (Fig. 4)";
  table_ = std::make_shared<const DataTable>(std::move(table));
  network_ = std::make_unique<InProcessTransport>(config_.num_workers,
                                                  config_.bandwidth_mbps);
  task_memory_ = std::make_unique<PeakGauge>();
  master_ = std::make_unique<Master>(table_, network_.get(), config_);
  for (int i = 0; i < config_.num_workers; ++i) {
    busy_clocks_.push_back(std::make_unique<BusyClock>());
    workers_.push_back(std::make_unique<Worker>(
        i, table_, network_.get(), config_.compers_per_worker,
        task_memory_.get(), busy_clocks_.back().get(),
        config_.compress_transfers,
        i == config_.debug_slow_worker ? config_.debug_slow_task_ms : 0,
        config_.ReliableConfig()));
  }
  master_->Start();
  for (auto& w : workers_) w->Start();
  if (config_.stats_period_ms > 0) {
    stats_reporter_ = std::make_unique<StatsReporter>(
        [this] { return GetEngineStats(); }, config_.stats_period_ms);
    stats_reporter_->Start();
  }
}

TreeServerCluster::~TreeServerCluster() {
  // The reporter reads master/worker/network state, so it must die
  // first. Then stop the master loops (no new plans) and unblock every
  // worker thread by closing the queues.
  stats_reporter_.reset();
  master_->Stop();
  network_->CloseAll();
  for (auto& w : workers_) w->Join();
}

ForestModel TreeServerCluster::Wait(uint32_t job_id) {
  ForestModel model = master_->Wait(job_id);
  if (stats_reporter_ != nullptr) stats_reporter_->ReportNow("job-complete");
  return model;
}

void TreeServerCluster::CrashWorker(int worker) {
  TS_CHECK(worker >= 0 && worker < config_.num_workers);
  network_->SetCrashed(worker);
  workers_[worker]->Join();  // the dead machine's threads exit
  master_->OnWorkerCrash(worker);
}

void TreeServerCluster::FailoverMaster() {
  TS_LOG(kDebug) << "failover: checkpointing";
  std::string snapshot = master_->Checkpoint();
  TS_LOG(kDebug) << "failover: stopping old master";
  master_->Stop();  // joins both threads and closes the master mailbox
  network_->master_queue().Reopen();
  // The new master knows nothing of in-flight tasks: wipe worker-side
  // task state so no stale delegate objects linger.
  for (int w = 0; w < config_.num_workers; ++w) {
    if (!network_->IsCrashed(w)) {
      network_->Send(ChannelKind::kTask,
                     Message{kMasterRank, w,
                             static_cast<uint32_t>(MsgType::kRevokeAll), ""});
    }
  }
  TS_LOG(kDebug) << "failover: old master stopped, restoring";
  auto fresh = std::make_unique<Master>(table_, network_.get(), config_);
  Status st = fresh->Restore(snapshot);
  TS_CHECK(st.ok()) << st.ToString();
  master_ = std::move(fresh);
  master_->Start();
  TS_LOG(kDebug) << "failover: new master started";
}

EngineMetrics TreeServerCluster::metrics() const {
  EngineMetrics m;
  m.bytes_sent_total = network_->total_bytes();
  for (const auto& clock : busy_clocks_) {
    m.comper_busy_seconds += clock->Seconds();
  }
  m.peak_task_memory_bytes = task_memory_->peak();
  m.tasks_scheduled = master_->tasks_scheduled();
  m.trees_completed = master_->trees_completed();
  m.trees_restarted = master_->trees_restarted();
  return m;
}

void TreeServerCluster::ResetMetrics() {
  network_->ResetCounters();
  for (auto& clock : busy_clocks_) clock->Reset();
  task_memory_->Reset();
}

EngineStats TreeServerCluster::GetEngineStats() const {
  EngineStats stats;
  stats.master = master_->GetStats();
  stats.workers.reserve(workers_.size());
  for (const auto& w : workers_) stats.workers.push_back(w->GetStats());
  stats.network = network_->GetStats();
  stats.task_memory_bytes = task_memory_->value();
  stats.task_memory_peak = task_memory_->peak();
  return stats;
}

}  // namespace treeserver
