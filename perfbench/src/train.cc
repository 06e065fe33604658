// Training stage of a workload: the forest job on the engine (in-process
// or loopback TCP) against TrainForestSerial, plus the traced breakdown.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/simd.h"
#include "common/timer.h"
#include "common/trace.h"
#include "engine/cluster.h"  // TreeServerCluster and InProcessTransport
#include "engine/messages.h"
#include "rpc/tcp_transport.h"
#include "table/binned.h"
#include "tree/hist.h"
#include "tree/split.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace treeserver;  // NOLINT

/// Engine state read at one instant, summed over the cluster's ranks.
struct EngineSample {
  MasterStats master;
  std::vector<WorkerStats> workers;
  /// Endpoint counters summed over every transport of the cluster (a TCP
  /// rank only counts its own sends); histograms merged.
  NetworkStats net;
  int64_t task_mem_peak = 0;
  /// Smallest heartbeat RTT from the master to any worker (TCP only).
  double min_rtt_us = 0.0;
};

void AddNetworkStats(const NetworkStats& in, NetworkStats* acc) {
  if (acc->endpoints.size() < in.endpoints.size()) {
    acc->endpoints.resize(in.endpoints.size());
  }
  for (size_t i = 0; i < in.endpoints.size(); ++i) {
    NetworkStats::Endpoint& a = acc->endpoints[i];
    const NetworkStats::Endpoint& e = in.endpoints[i];
    a.bytes_sent += e.bytes_sent;
    a.msgs_sent += e.msgs_sent;
    a.reconnects += e.reconnects;
    a.heartbeat_misses += e.heartbeat_misses;
    a.send_buffer_hwm = std::max(a.send_buffer_hwm, e.send_buffer_hwm);
  }
  acc->task_payload_bytes.Merge(in.task_payload_bytes);
  acc->data_payload_bytes.Merge(in.data_payload_bytes);
  acc->task_send_micros.Merge(in.task_send_micros);
  acc->data_send_micros.Merge(in.data_send_micros);
}

/// A running engine the harness submits jobs to.
class Engine {
 public:
  virtual ~Engine() = default;
  virtual uint32_t Submit(const ForestJobSpec& spec) = 0;
  virtual ForestModel Wait(uint32_t job) = 0;
  virtual EngineSample Sample() const = 0;
};

class InProcessEngine : public Engine {
 public:
  InProcessEngine(const DataTable& table, const EngineConfig& config)
      : cluster_(table, config) {}

  uint32_t Submit(const ForestJobSpec& spec) override {
    return cluster_.Submit(spec);
  }
  ForestModel Wait(uint32_t job) override { return cluster_.Wait(job); }
  EngineSample Sample() const override {
    EngineStats stats = cluster_.GetEngineStats();
    EngineSample s;
    s.master = std::move(stats.master);
    s.workers = std::move(stats.workers);
    AddNetworkStats(stats.network, &s.net);
    s.task_mem_peak = stats.task_memory_peak;
    return s;
  }

 private:
  TreeServerCluster cluster_;
};

/// Master plus one worker rank per configured worker, each on its own
/// loopback TcpTransport, all in this process (wired like the TCP
/// cluster of tests/rpc_test.cc). Construction is the set-up being
/// timed: bind, connect, handshake, start.
class TcpEngine : public Engine {
 public:
  TcpEngine(const DataTable& table, const EngineConfig& config)
      : table_(std::make_shared<const DataTable>(table)), config_(config) {
    auto options = [&](int rank) {
      TcpTransportOptions o;
      o.num_workers = config_.num_workers;
      o.local_rank = rank;
      return o;
    };
    master_tx_ = std::make_unique<TcpTransport>(options(kMasterRank));
    for (int w = 0; w < config_.num_workers; ++w) {
      auto node = std::make_unique<Node>();
      node->transport = std::make_unique<TcpTransport>(options(w));
      nodes_.push_back(std::move(node));
    }
    std::vector<std::string> peers;
    for (const auto& node : nodes_) {
      peers.push_back("127.0.0.1:" +
                      std::to_string(node->transport->local_port()));
    }
    peers.push_back("127.0.0.1:" + std::to_string(master_tx_->local_port()));

    master_ = std::make_unique<Master>(table_, master_tx_.get(), config_);
    master_tx_->SetPeerDeadCallback([this](int rank) {
      if (rank != kMasterRank) master_->OnWorkerCrash(rank);
    });
    TS_CHECK(master_tx_->ConnectPeers(peers).ok());
    for (auto& node : nodes_) TS_CHECK(node->transport->ConnectPeers(peers).ok());
    TS_CHECK(master_tx_->WaitForPeers(20000)) << "workers did not connect";
    for (auto& node : nodes_) {
      TS_CHECK(node->transport->WaitForPeers(20000)) << "peers did not connect";
    }
    for (int w = 0; w < config_.num_workers; ++w) {
      Node& node = *nodes_[w];
      node.worker = std::make_unique<Worker>(
          w, table_, node.transport.get(), config_.compers_per_worker,
          &node.task_memory, &node.busy, config_.compress_transfers);
    }
    master_->Start();
    for (auto& node : nodes_) node->worker->Start();
  }

  ~TcpEngine() override {
    for (int w = 0; w < config_.num_workers; ++w) {
      master_tx_->Send(ChannelKind::kTask,
                       Message{kMasterRank, w,
                               static_cast<uint32_t>(MsgType::kShutdown), ""});
    }
    // Workers leave their task loop on kShutdown; let the frames land,
    // then reap every rank.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    for (auto& node : nodes_) {
      node->transport->CloseAll();
      node->worker->Join();
      node->transport->Shutdown();
    }
    master_->Stop();
    master_tx_->Shutdown();
  }

  uint32_t Submit(const ForestJobSpec& spec) override {
    return master_->Submit(spec);
  }
  ForestModel Wait(uint32_t job) override { return master_->Wait(job); }
  EngineSample Sample() const override {
    EngineSample s;
    s.master = master_->GetStats();
    AddNetworkStats(master_tx_->GetStats(), &s.net);
    double min_rtt_ns = 0.0;
    for (int w = 0; w < config_.num_workers; ++w) {
      const Node& node = *nodes_[w];
      s.workers.push_back(node.worker->GetStats());
      AddNetworkStats(node.transport->GetStats(), &s.net);
      s.task_mem_peak += node.task_memory.peak();
      int64_t offset_ns = 0;
      int64_t rtt_ns = 0;
      if (master_tx_->PeerClockOffset(w, &offset_ns, &rtt_ns) &&
          (min_rtt_ns == 0.0 || rtt_ns < min_rtt_ns)) {
        min_rtt_ns = static_cast<double>(rtt_ns);
      }
    }
    s.min_rtt_us = min_rtt_ns / 1e3;
    return s;
  }

 private:
  struct Node {
    std::unique_ptr<TcpTransport> transport;
    PeakGauge task_memory;
    BusyClock busy;
    std::unique_ptr<Worker> worker;
  };

  std::shared_ptr<const DataTable> table_;
  EngineConfig config_;
  std::unique_ptr<TcpTransport> master_tx_;
  std::unique_ptr<Master> master_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

std::unique_ptr<Engine> StartEngine(const Workload& w, const DataTable& table,
                                    double* setup_s) {
  WallTimer timer;
  std::unique_ptr<Engine> engine;
  if (w.tcp) {
    engine = std::make_unique<TcpEngine>(table, MakeEngineConfig());
  } else {
    engine = std::make_unique<InProcessEngine>(table, MakeEngineConfig());
  }
  *setup_s = timer.Seconds();
  return engine;
}

uint64_t TotalBytesSent(const NetworkStats& net) {
  uint64_t total = 0;
  for (const auto& e : net.endpoints) total += e.bytes_sent;
  return total;
}

uint64_t TotalMsgsSent(const NetworkStats& net) {
  uint64_t total = 0;
  for (const auto& e : net.endpoints) total += e.msgs_sent;
  return total;
}

/// Per-layer accumulators over the traced engine jobs.
struct TracedTotals {
  int jobs = 0;
  double train_s = 0.0;
  RegistryDelta registry;
  // Network deltas.
  uint64_t msgs = 0;
  Histogram::Snapshot task_bytes, data_bytes, task_send_us, data_send_us;
  uint64_t reconnects = 0, heartbeat_misses = 0, send_buffer_hwm = 0;
  double min_rtt_us = 0.0;
  // Busy seconds per worker.
  std::vector<double> busy;
  int64_t task_mem_peak = 0;
  uint64_t trees_restarted = 0;
  // Fixed-period samples.
  std::vector<double> bplan, btask, parked;
  std::vector<double> predicted_share_sum;
  int predicted_samples = 0;
  // Trace.
  std::map<TraceCat, double> self_ns;
  uint64_t plan_inserts = 0;
};

/// Self time of every complete span, per category: its duration minus
/// the durations of the spans nested directly inside it on its thread.
void AddSelfTimes(const std::vector<TraceEventCopy>& events,
                  TracedTotals* totals) {
  std::map<int32_t, std::vector<const TraceEventCopy*>> by_thread;
  for (const TraceEventCopy& e : events) {
    if (e.phase == 'X') by_thread[e.tid].push_back(&e);
    if (e.phase == 'i' && e.cat == TraceCat::kPlanInsert) {
      ++totals->plan_inserts;
    }
  }
  for (auto& [tid, spans] : by_thread) {
    std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      return a->ts_ns != b->ts_ns ? a->ts_ns < b->ts_ns : a->dur_ns > b->dur_ns;
    });
    std::vector<const TraceEventCopy*> open;
    for (const TraceEventCopy* s : spans) {
      while (!open.empty() &&
             open.back()->ts_ns + open.back()->dur_ns <= s->ts_ns) {
        open.pop_back();
      }
      totals->self_ns[s->cat] += static_cast<double>(s->dur_ns);
      if (!open.empty()) {
        totals->self_ns[open.back()->cat] -= static_cast<double>(s->dur_ns);
      }
      open.push_back(s);
    }
  }
}

void AddSample(const EngineSample& s, TracedTotals* t) {
  t->bplan.push_back(static_cast<double>(s.master.bplan_depth));
  double btask = 0, parked = 0;
  for (const WorkerStats& ws : s.workers) {
    btask += static_cast<double>(ws.btask_depth);
    parked += static_cast<double>(ws.tasks_parked);
  }
  t->btask.push_back(btask);
  t->parked.push_back(parked);
  double comp = 0;
  for (const auto& load : s.master.predicted_load) comp += load.comp;
  if (comp <= 0) return;
  t->predicted_share_sum.resize(s.master.predicted_load.size(), 0.0);
  for (size_t w = 0; w < s.master.predicted_load.size(); ++w) {
    t->predicted_share_sum[w] += s.master.predicted_load[w].comp / comp;
  }
  ++t->predicted_samples;
}

/// Runs one traced job: tracer on, registry and engine snapshots around
/// it, engine stats sampled every 2 ms while it runs.
ForestModel TracedJob(Engine* engine, const ForestJobSpec& spec,
                      TracedTotals* t) {
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  const RegistrySnapshot reg_before =
      RegistrySnapshot::Take(MetricsRegistry::Global());
  const EngineSample before = engine->Sample();
  tracer.Enable();
  WallTimer timer;
  const uint32_t job = engine->Submit(spec);
  while (true) {
    const EngineSample s = engine->Sample();
    AddSample(s, t);
    if (s.master.jobs_completed > before.master.jobs_completed) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ForestModel forest = engine->Wait(job);
  t->train_s += timer.Seconds();
  tracer.Disable();
  const EngineSample after = engine->Sample();
  t->registry.Add(reg_before, RegistrySnapshot::Take(MetricsRegistry::Global()));
  AddSelfTimes(tracer.SnapshotEvents(), t);
  tracer.Clear();

  ++t->jobs;
  t->msgs += TotalMsgsSent(after.net) - TotalMsgsSent(before.net);
  t->task_bytes.Merge(HistMinus(after.net.task_payload_bytes,
                                before.net.task_payload_bytes));
  t->data_bytes.Merge(HistMinus(after.net.data_payload_bytes,
                                before.net.data_payload_bytes));
  t->task_send_us.Merge(
      HistMinus(after.net.task_send_micros, before.net.task_send_micros));
  t->data_send_us.Merge(
      HistMinus(after.net.data_send_micros, before.net.data_send_micros));
  for (size_t i = 0; i < after.net.endpoints.size(); ++i) {
    const auto& a = after.net.endpoints[i];
    const auto& b = before.net.endpoints[i];
    t->reconnects += a.reconnects - b.reconnects;
    t->heartbeat_misses += a.heartbeat_misses - b.heartbeat_misses;
    t->send_buffer_hwm = std::max(t->send_buffer_hwm, a.send_buffer_hwm);
  }
  t->min_rtt_us = after.min_rtt_us;
  t->busy.resize(after.workers.size(), 0.0);
  for (size_t w = 0; w < after.workers.size(); ++w) {
    t->busy[w] += after.workers[w].busy_seconds - before.workers[w].busy_seconds;
  }
  t->task_mem_peak = std::max(t->task_mem_peak, after.task_mem_peak);
  t->trees_restarted +=
      after.master.trees_restarted - before.master.trees_restarted;
  return forest;
}

std::string Join(const std::vector<double>& values) {
  std::string out;
  for (double v : values) out += (out.empty() ? "" : " ") + std::to_string(v);
  return out;
}

/// Times `fn` until at least `min_seconds` have passed; seconds per call.
template <typename Fn>
double SecondsPerCall(Fn fn, double min_seconds) {
  WallTimer timer;
  int calls = 0;
  do {
    fn();
    ++calls;
  } while (timer.Seconds() < min_seconds);
  return timer.Seconds() / calls;
}

/// Kernel timings over the workload's table, called from outside the
/// engine: bin index build, exact split search and histogram builds at
/// the active SIMD level and at scalar.
void KernelMetrics(const DataTable& table, Ledger* out) {
  const Schema& schema = table.schema();
  const SplitContext ctx{schema.task_kind(),
                         schema.task_kind() == TaskKind::kClassification
                             ? Impurity::kGini
                             : Impurity::kVariance,
                         schema.num_classes()};
  const size_t n = table.num_rows();

  std::shared_ptr<const BinnedTable> binned;
  const double build_s = SecondsPerCall(
      [&] { binned = BinnedTable::Build(table, 255); }, 0.0);
  out->Set("table.bin_build_ms", build_s * 1e3, "ms");

  std::vector<int> numeric;
  for (int c : schema.FeatureIndices()) {
    if (schema.column(c).type == DataType::kNumeric) numeric.push_back(c);
  }
  const std::vector<int> exact_cols(
      numeric.begin(), numeric.begin() + std::min<size_t>(4, numeric.size()));
  const double exact_s = SecondsPerCall(
      [&] {
        for (int c : exact_cols) {
          FindBestSplit(*table.column(c), c, *table.target(), ctx, nullptr, n);
        }
      },
      0.2);
  out->Set("tree.exact_rows_per_s",
           static_cast<double>(n * exact_cols.size()) / exact_s, "1/s");

  std::vector<const BinnedColumn*> cols;
  for (int c : numeric) cols.push_back(binned->column(c));
  auto hist_rate = [&] {
    std::vector<NodeHistogram> hists(cols.size());
    const double s = SecondsPerCall(
        [&] {
          std::fill(hists.begin(), hists.end(), NodeHistogram());
          NodeHistogram::BuildMany(cols.data(), cols.size(), *table.target(),
                                   ctx, nullptr, n, hists.data());
        },
        0.2);
    return static_cast<double>(n * cols.size()) / s;
  };
  const SimdLevel level = ActiveSimdLevel();
  out->Set("tree.hist_rows_per_s", hist_rate(), "1/s");
  SetSimdLevel(SimdLevel::kScalar);
  out->Set("tree.hist_rows_per_s.scalar", hist_rate(), "1/s");
  SetSimdLevel(level);
}

void TracedMetrics(const TracedTotals& t, double untraced_train_s,
                   Ledger* out) {
  const double jobs = std::max(1, t.jobs);
  const RegistryDelta& r = t.registry;
  const double builds = static_cast<double>(r.Counter("split.histogram_builds"));
  const double subs = static_cast<double>(r.Counter("split.sibling_subtractions"));
  out->Set("tree.exact_sorts", r.Counter("split.exact_sorts") / jobs, "count");
  out->Set("tree.hist_builds", builds / jobs, "count");
  out->Set("tree.sibling_subtractions", subs / jobs, "count");
  out->Set("tree.subtraction_ratio",
           builds + subs > 0 ? subs / (builds + subs) : 0.0, "ratio");
  const Histogram::Snapshot split_eval = r.Hist("trainer.split_eval_us");
  out->Set("tree.split_eval_us.p50", split_eval.Percentile(0.50), "us");
  out->Set("tree.split_eval_us.p99", split_eval.Percentile(0.99), "us");

  const Histogram::Snapshot col = r.Hist("master.column_task_latency_us");
  const Histogram::Snapshot sub = r.Hist("master.subtree_task_latency_us");
  out->Set("engine.column_task_us.p50", col.Percentile(0.50), "us");
  out->Set("engine.column_task_us.p99", col.Percentile(0.99), "us");
  out->Set("engine.subtree_task_us.p50", sub.Percentile(0.50), "us");
  out->Set("engine.subtree_task_us.p99", sub.Percentile(0.99), "us");
  out->Set("engine.bplan_depth.mean", Mean(t.bplan), "count");
  out->Set("engine.btask_depth.mean", Mean(t.btask), "count");
  out->Set("engine.tasks_parked.mean", Mean(t.parked), "count");

  double busy_total = 0.0, busy_max = 0.0;
  for (double b : t.busy) {
    busy_total += b;
    busy_max = std::max(busy_max, b);
  }
  const double compers = static_cast<double>(t.busy.size());  // 1 per worker
  out->Set("engine.comper_busy_frac",
           t.train_s > 0 ? busy_total / (t.train_s * compers) : 0.0, "ratio");
  out->Set("engine.busy_imbalance",
           busy_total > 0 ? busy_max / (busy_total / compers) : 0.0, "ratio");
  double err = 0.0;
  if (t.predicted_samples > 0 && busy_total > 0) {
    for (size_t w = 0; w < t.busy.size(); ++w) {
      const double predicted =
          w < t.predicted_share_sum.size()
              ? t.predicted_share_sum[w] / t.predicted_samples
              : 0.0;
      err += std::abs(predicted - t.busy[w] / busy_total);
    }
    err /= static_cast<double>(t.busy.size());
  }
  out->Set("engine.cost_model_err", err, "ratio");
  out->Set("engine.peak_task_mem_mb", t.task_mem_peak / 1e6, "MB");
  out->Set("engine.trees_restarted", t.trees_restarted / jobs, "count");
  out->Set("engine.retransmits", r.Counter("engine.retransmits") / jobs,
           "count");
  out->Set("engine.duplicate_msgs",
           (r.Counter("engine.duplicate_msgs") +
            r.Counter("engine.duplicate_tasks")) / jobs,
           "count");

  auto self_ms = [&](TraceCat cat) {
    auto it = t.self_ns.find(cat);
    return it == t.self_ns.end() ? 0.0 : it->second / 1e6 / jobs;
  };
  out->Set("trace.self_ms.worker_assign", self_ms(TraceCat::kWorkerAssign), "ms");
  out->Set("trace.self_ms.column_task", self_ms(TraceCat::kColumnTask), "ms");
  out->Set("trace.self_ms.subtree_task", self_ms(TraceCat::kSubtreeTask), "ms");
  out->Set("trace.self_ms.index_serve", self_ms(TraceCat::kIndexServe), "ms");
  out->Set("trace.self_ms.net_send", self_ms(TraceCat::kNetSend), "ms");
  out->Set("trace.plan_inserts", t.plan_inserts / jobs, "count");
  out->Set("trace.overhead_frac",
           untraced_train_s > 0 ? (t.train_s / jobs) / untraced_train_s - 1.0
                                : 0.0,
           "ratio");

  out->Set("net.msgs", t.msgs / jobs, "count");
  out->Set("net.task_mb", t.task_bytes.sum / 1e6 / jobs, "MB");
  out->Set("net.data_mb", t.data_bytes.sum / 1e6 / jobs, "MB");
  out->Set("net.task_send_us.p99", t.task_send_us.Percentile(0.99), "us");
  out->Set("net.data_send_us.p99", t.data_send_us.Percentile(0.99), "us");
  out->Set("rpc.min_rtt_us", t.min_rtt_us, "us");
  out->Set("rpc.send_buffer_hwm_kb", t.send_buffer_hwm / 1024.0, "KiB");
  out->Set("rpc.reconnects", static_cast<double>(t.reconnects), "count");
  out->Set("rpc.heartbeat_misses", static_cast<double>(t.heartbeat_misses),
           "count");
}

}  // namespace

TrainOutcome RunTraining(const Workload& w, const DataTable& table,
                         const RunOptions& options, Ledger* out,
                         Tally* tally) {
  const ForestJobSpec spec = MakeJob(w, options.seed);
  WallTimer clock;
  TrainOutcome outcome;

  // Single-worker baseline, and the parity reference for every engine
  // forest. The traced run trains it once.
  std::vector<double> serial_s;
  std::string reference;
  do {
    WallTimer timer;
    const std::string bytes = ForestBytes(TrainForestSerial(table, spec, 1));
    serial_s.push_back(timer.Seconds());
    ++tally->attempted;
    if (reference.empty()) {
      reference = bytes;
    } else if (bytes != reference) {
      ++tally->failed;
      ++tally->mismatched;
    }
  } while (!options.trace && clock.Seconds() < 0.4 * options.seconds);

  auto check = [&](const ForestModel& forest) {
    ++tally->attempted;
    if (ForestBytes(forest) != reference) {
      ++tally->failed;
      ++tally->mismatched;
    }
  };

  if (options.trace) {
    KernelMetrics(table, out);
    std::vector<double> untraced;
    TracedTotals totals;
    // Alternate untraced and traced jobs, each on a fresh cluster like
    // the untraced run's, so both see the same machine.
    const double until = clock.Seconds() + options.seconds;
    while (untraced.size() < 2 || clock.Seconds() < until) {
      {
        std::unique_ptr<Engine> engine =
            StartEngine(w, table, &outcome.setup_s);
        WallTimer timer;
        outcome.forest = engine->Wait(engine->Submit(spec));
        untraced.push_back(timer.Seconds());
      }
      check(outcome.forest);
      std::unique_ptr<Engine> engine = StartEngine(w, table, &outcome.setup_s);
      check(TracedJob(engine.get(), spec, &totals));
    }
    TracedMetrics(totals, Median(untraced), out);
    return outcome;
  }

  // Every job runs on a fresh cluster, as a user's first job on a newly
  // loaded table does: lazy per-worker state (the histogram bin index)
  // is built inside the timed job, and set-up is sampled once per job.
  // Teardown is not timed.
  std::vector<double> setup_s, train_s, net_mb;
  while (train_s.size() < 3 || clock.Seconds() < options.seconds) {
    double s = 0.0;
    std::unique_ptr<Engine> engine = StartEngine(w, table, &s);
    setup_s.push_back(s);
    WallTimer timer;
    outcome.forest = engine->Wait(engine->Submit(spec));
    train_s.push_back(timer.Seconds());
    net_mb.push_back(static_cast<double>(TotalBytesSent(engine->Sample().net)) /
                     1e6);
    check(outcome.forest);
  }
  outcome.setup_s = Median(setup_s);
  std::fprintf(stderr, "perfbench: serial_s %s\nperfbench: train_s %s\n",
               Join(serial_s).c_str(), Join(train_s).c_str());
  out->Set("train_s", Median(train_s), "s");
  // One thread takes a slice of host steal on its vCPU in full, so the
  // serial baseline reports its least disturbed (fastest) sample.
  out->Set("serial_s", *std::min_element(serial_s.begin(), serial_s.end()),
           "s");
  out->Set("net_mb", Median(net_mb), "MB");
  return outcome;
}

}  // namespace perfbench
