// Serving stage of a workload: the trained forest behind the single-row
// InferenceServer or behind a FleetRouter with two replicas, driven by
// an open-loop Poisson generator.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/timer.h"
#include "engine/cluster.h"  // InProcessTransport
#include "fleet/replica.h"
#include "fleet/router.h"
#include "fleet/wire.h"
#include "openloop.h"
#include "serve/compiled_model.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace treeserver;  // NOLINT

constexpr char kModel[] = "forest";

/// Rows requests are drawn from, with the row-at-a-time ForestModel
/// answer for each: the reference every served answer must equal.
struct RequestPool {
  std::shared_ptr<const DataTable> table;
  std::vector<uint32_t> rows;
  std::vector<int32_t> labels;  // classification
  std::vector<double> values;   // regression
  bool classification = true;

  bool Matches(size_t first, const std::vector<int32_t>& got_labels,
               const std::vector<double>& got_values) const {
    const size_t n = classification ? got_labels.size() : got_values.size();
    for (size_t j = 0; j < n; ++j) {
      if (classification ? got_labels[j] != labels[first + j]
                         : got_values[j] != values[first + j]) {
        return false;
      }
    }
    return true;
  }
};

RequestPool MakePool(const DataTable& table, const ForestModel& forest,
                     uint64_t seed) {
  constexpr size_t kPoolRows = 4096;
  RequestPool pool;
  pool.table = std::make_shared<const DataTable>(table);
  pool.classification = forest.kind() == TaskKind::kClassification;
  Rng rng(seed ^ 0x5EB5EB5EB5EB5EB5ULL);
  for (size_t i = 0; i < kPoolRows; ++i) {
    const uint32_t row = static_cast<uint32_t>(rng.Uniform(table.num_rows()));
    pool.rows.push_back(row);
    if (pool.classification) {
      pool.labels.push_back(forest.PredictLabel(table, row));
    } else {
      pool.values.push_back(forest.PredictValue(table, row));
    }
  }
  return pool;
}

/// Single-row callers of one InferenceServer. Construction is the timed
/// set-up: publish (compile) and server start.
class RowFront {
 public:
  using Pending = std::future<Result<Prediction>>;

  explicit RowFront(const ForestModel& forest) {
    TS_CHECK(registry_.Publish(kModel, forest).ok());
    InferenceServerConfig cfg;
    cfg.metrics = &metrics_;
    // Admission is left open so an overloaded ladder rung queues (and is
    // judged by its latency) instead of refusing requests.
    cfg.max_queue = size_t{1} << 20;
    server_ = std::make_unique<InferenceServer>(&registry_, cfg);
    server_->Start();
  }
  ~RowFront() { server_->Stop(); }

  Pending Issue(const RequestPool& pool, size_t first, size_t /*n*/) {
    PredictRequest request;
    request.model = kModel;
    request.table = pool.table;
    request.row = pool.rows[first];
    return server_->Predict(std::move(request));
  }

  Outcome Collect(const RequestPool& pool, size_t first, Pending& pending) {
    Result<Prediction> p = pending.get();
    if (!p.ok()) return Outcome::kFailed;
    return pool.Matches(first, {p->label}, {p->value}) ? Outcome::kOk
                                                       : Outcome::kMismatch;
  }

  size_t QueueDepth() const { return server_->queue_depth(); }
  std::vector<const MetricsRegistry*> ServeRegistries() const {
    return {&metrics_};
  }
  const MetricsRegistry* RouterRegistry() const { return nullptr; }

 private:
  ModelRegistry registry_;
  MetricsRegistry metrics_;
  std::unique_ptr<InferenceServer> server_;
};

/// A FleetRouter over two in-process FleetReplicas. Construction is the
/// timed set-up: replicas and router start, then the model push.
class FleetFront {
 public:
  using Pending = std::future<Result<FleetBatchResult>>;
  static constexpr int kReplicas = 2;

  explicit FleetFront(const std::string& model_bytes) : net_(kReplicas, 0.0) {
    for (int r = 0; r < kReplicas; ++r) {
      FleetReplicaConfig rc;
      rc.rank = r;
      rc.serve.max_batch = 256;
      rc.serve.max_queue = size_t{1} << 20;
      rc.metrics = &replica_metrics_[r];
      replicas_.push_back(std::make_unique<FleetReplica>(&net_, rc));
      replicas_.back()->Start();
    }
    FleetRouterConfig cfg;
    cfg.metrics = &router_metrics_;
    cfg.max_inflight = size_t{1} << 16;
    cfg.default_deadline_ms = 60000;
    // An overloaded ladder probe delays health pongs; the benchmark
    // measures latency, not failover, so replicas stay in rotation.
    cfg.health_miss_limit = 1 << 20;
    // Retransmits recover lost messages, and the in-process fleet loses
    // none; under an overloaded probe they would only duplicate queued
    // work that outlives the probe.
    cfg.retry_period_ms = 10000;
    router_ = std::make_unique<FleetRouter>(&net_, cfg);
    router_->Start();
    TS_CHECK(router_->Push(kModel, model_bytes).ok());
  }
  ~FleetFront() {
    router_->ShutdownReplicas();
    router_->Stop();
    for (auto& r : replicas_) r->Stop();
  }

  Pending Issue(const RequestPool& pool, size_t first, size_t n) {
    return router_->PredictRows(kModel, *pool.table, pool.rows.data() + first,
                                n);
  }

  Outcome Collect(const RequestPool& pool, size_t first, Pending& pending) {
    Result<FleetBatchResult> r = pending.get();
    if (!r.ok()) return Outcome::kFailed;
    return pool.Matches(first, r->labels, r->values) ? Outcome::kOk
                                                     : Outcome::kMismatch;
  }

  size_t QueueDepth() const {
    size_t depth = 0;
    for (const auto& r : replicas_) depth += r->server()->queue_depth();
    return depth;
  }
  std::vector<const MetricsRegistry*> ServeRegistries() const {
    return {&replica_metrics_[0], &replica_metrics_[1]};
  }
  const MetricsRegistry* RouterRegistry() const { return &router_metrics_; }

 private:
  MetricsRegistry router_metrics_;
  MetricsRegistry replica_metrics_[kReplicas];
  InProcessTransport net_;
  std::vector<std::unique_ptr<FleetReplica>> replicas_;
  std::unique_ptr<FleetRouter> router_;
};

uint64_t PhaseSeed(uint64_t seed, uint64_t phase) {
  return Rng(seed * 0x9E3779B97F4A7C15ULL + phase).Next();
}

/// One open-loop phase at `rate` requests/s for `seconds`. When `depth`
/// is set, the generator samples the queue depth every 64th request.
template <typename Front>
PhaseResult Phase(Front* front, const RequestPool& pool, const Workload& w,
                  uint64_t seed, double rate, double seconds,
                  std::vector<double>* depth) {
  const std::vector<uint64_t> schedule = PoissonSchedule(seed, rate, seconds);
  const size_t n = static_cast<size_t>(w.rows_per_request);
  std::vector<size_t> first(schedule.size());
  Rng rng(seed ^ 0xF1F1F1F1ULL);
  for (size_t& f : first) f = rng.Uniform(pool.rows.size() - n + 1);
  using Pending = typename Front::Pending;
  return RunOpenLoop<Pending>(
      schedule, rate,
      [&](size_t i) {
        if (depth != nullptr && i % 64 == 0) {
          depth->push_back(static_cast<double>(front->QueueDepth()));
        }
        return front->Issue(pool, first[i], n);
      },
      [&](size_t i, Pending& pending) {
        return front->Collect(pool, first[i], pending);
      });
}

/// The p99 figure of a phase: the median of the p99s of 40 equal
/// consecutive slices of its requests (0.1 s each in a 4 s phase).
double TailUs(const PhaseResult& p) {
  return WindowedQuantile(p.latency_us, 0.99, 40);
}

void Count(const PhaseResult& p, Tally* tally) {
  tally->attempted += p.attempted;
  tally->failed += p.failed + p.mismatched;
  tally->mismatched += p.mismatched;
}

std::vector<double> Concat(const std::vector<double>& a,
                           const std::vector<double>& b) {
  std::vector<double> out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

std::vector<RegistrySnapshot> TakeAll(
    const std::vector<const MetricsRegistry*>& registries) {
  std::vector<RegistrySnapshot> out;
  for (const MetricsRegistry* r : registries) {
    out.push_back(RegistrySnapshot::Take(*r));
  }
  return out;
}

/// Time per row of the CompiledForest calls InferenceServer::ExecuteBatch
/// makes for one batch of `batch` rows.
double TraversalNsPerRow(const ForestModel& forest, const RequestPool& pool,
                         size_t batch) {
  const CompiledForest compiled = CompiledForest::Compile(forest);
  batch = std::clamp<size_t>(batch, 1, pool.rows.size());
  std::vector<float> pmf(batch * std::max(1, compiled.num_classes()));
  std::vector<int32_t> labels(batch);
  std::vector<double> values(batch);
  WallTimer timer;
  size_t rows = 0;
  do {
    for (size_t first = 0; first + batch <= pool.rows.size(); first += batch) {
      const uint32_t* r = pool.rows.data() + first;
      if (compiled.is_classification()) {
        compiled.PredictPmf(*pool.table, r, batch, -1, pmf.data());
        compiled.PredictLabel(*pool.table, r, batch, -1, labels.data());
      } else {
        compiled.PredictValue(*pool.table, r, batch, -1, values.data());
      }
      rows += batch;
    }
  } while (timer.Seconds() < 0.2);
  return timer.Seconds() * 1e9 / static_cast<double>(rows);
}

/// Router-side encode plus replica-side decode of one 16-row batch.
double FleetEncodeUs(const RequestPool& pool) {
  constexpr size_t kRows = 16;
  WallTimer timer;
  int calls = 0;
  do {
    const std::string bytes =
        FleetPredictMsg::FromRows(calls + 1, kModel, *pool.table,
                                  pool.rows.data(), kRows)
            .Encode();
    FleetPredictMsg decoded;
    TS_CHECK(FleetPredictMsg::Decode(bytes, &decoded).ok());
    TS_CHECK(decoded.ToTable().ok());
    ++calls;
  } while (timer.Seconds() < 0.1);
  return timer.Seconds() * 1e6 / calls;
}

template <typename Front, typename Make>
double ServeWith(const Workload& w, const ForestModel& forest,
                 const RequestPool& pool, const RunOptions& options,
                 Make make, Ledger* out, Tally* tally) {
  // Set-up is sampled several times; the last front end serves.
  constexpr int kSetups = 9;
  std::vector<double> setup_s;
  std::unique_ptr<Front> front;
  for (int i = 0; i < kSetups; ++i) {
    front.reset();
    WallTimer timer;
    front = make();
    setup_s.push_back(timer.Seconds());
  }

  // Warm-up at the low rate: lazy allocations and thread wake-up paths
  // settle before anything is timed.
  Count(Phase(front.get(), pool, w, PhaseSeed(options.seed, 0), w.lo_rate,
              0.5, nullptr),
        tally);

  const double rows = static_cast<double>(w.rows_per_request);
  const double share = options.trace ? 0.5 : 0.2;
  std::vector<double> depth;
  std::vector<double>* sampling = options.trace ? &depth : nullptr;
  const std::vector<RegistrySnapshot> serve_before =
      TakeAll(front->ServeRegistries());
  const RegistrySnapshot router_before =
      front->RouterRegistry() ? RegistrySnapshot::Take(*front->RouterRegistry())
                              : RegistrySnapshot();
  const PhaseResult lo =
      Phase(front.get(), pool, w, PhaseSeed(options.seed, 1), w.lo_rate,
            share * options.seconds, sampling);
  const PhaseResult hi =
      Phase(front.get(), pool, w, PhaseSeed(options.seed, 2), w.hi_rate,
            share * options.seconds, sampling);
  Count(lo, tally);
  Count(hi, tally);
  for (const PhaseResult* p : {&lo, &hi}) {
    std::fprintf(stderr,
                 "perfbench: %.0f/s n=%zu latency us p50 %.0f p90 %.0f "
                 "p99 %.0f (windowed %.0f) p99.9 %.0f max %.0f\n",
                 p->target_rate, p->latency_us.size(),
                 Quantile(p->latency_us, 0.5), Quantile(p->latency_us, 0.9),
                 Quantile(p->latency_us, 0.99), TailUs(*p),
                 Quantile(p->latency_us, 0.999), Quantile(p->latency_us, 1.0));
  }

  if (options.trace) {
    RegistryDelta serve;
    const std::vector<RegistrySnapshot> serve_after =
        TakeAll(front->ServeRegistries());
    for (size_t i = 0; i < serve_after.size(); ++i) {
      serve.Add(serve_before[i], serve_after[i]);
    }
    const Histogram::Snapshot batch = serve.Hist("serve.batch_rows");
    const Histogram::Snapshot server_lat =
        serve.Hist(std::string("serve.latency_us.") + kModel);
    out->Set("serve.batch_rows.mean", batch.Mean(), "count");
    out->Set("serve.server_latency_us.p50", server_lat.Percentile(0.50), "us");
    out->Set("serve.server_latency_us.p99", server_lat.Percentile(0.99), "us");
    out->Set("serve.queue_depth.mean", Mean(depth), "count");
    out->Set("serve.rejected", static_cast<double>(serve.Counter("serve.rejected")),
             "count");
    std::vector<double> compile_s;
    for (int i = 0; i < 3; ++i) {
      WallTimer t;
      CompiledForest::Compile(forest);
      compile_s.push_back(t.Seconds());
    }
    out->Set("serve.compile_ms", 1e3 * Median(compile_s), "ms");
    out->Set("serve.traversal_ns_per_row",
             TraversalNsPerRow(forest, pool,
                               static_cast<size_t>(std::lround(batch.Mean()))),
             "ns");
    if (front->RouterRegistry() != nullptr) {
      RegistryDelta router;
      router.Add(router_before, RegistrySnapshot::Take(*front->RouterRegistry()));
      const Histogram::Snapshot lat = router.Hist("fleet.latency_us");
      out->Set("fleet.router_latency_us.p50", lat.Percentile(0.50), "us");
      out->Set("fleet.router_latency_us.p99", lat.Percentile(0.99), "us");
      out->Set("fleet.shed", static_cast<double>(router.Counter("fleet.shed")),
               "count");
      out->Set("fleet.retransmits",
               static_cast<double>(router.Counter("fleet.retransmits")), "count");
      out->Set("fleet.replica_batch_rows.mean", batch.Mean(), "count");
      out->Set("fleet.replica_queue_depth.mean", Mean(depth), "count");
      out->Set("fleet.encode_us", FleetEncodeUs(pool), "us");
    } else {
      // The fleet layer does not run in this workload.
      out->Set("fleet.router_latency_us.p50", 0.0, "us");
      out->Set("fleet.router_latency_us.p99", 0.0, "us");
      out->Set("fleet.encode_us", 0.0, "us");
      out->Set("fleet.shed", 0.0, "count");
      out->Set("fleet.retransmits", 0.0, "count");
      out->Set("fleet.replica_batch_rows.mean", 0.0, "count");
      out->Set("fleet.replica_queue_depth.mean", 0.0, "count");
    }
    out->Set("bench.gen_late_us.p99", Quantile(Concat(lo.late_us, hi.late_us), 0.99),
             "us");
    out->Set("bench.offered_rate_err",
             std::max(std::abs(lo.achieved_rate / lo.target_rate - 1.0),
                      std::abs(hi.achieved_rate / hi.target_rate - 1.0)),
             "ratio");
    return Median(setup_s);
  }

  // Fixed ladder, searched by bisection: a rung passes when its p99
  // meets the limit, the generator kept the offered rate, and the
  // backlog did not grow.
  const int probes = static_cast<int>(
      std::ceil(std::log2(static_cast<double>(w.ladder.size()) + 1.0)));
  const double probe_s = 0.6 * options.seconds / probes;
  int pass = -1;
  int fail = static_cast<int>(w.ladder.size());
  while (fail - pass > 1) {
    const int mid = (pass + fail) / 2;
    const PhaseResult p =
        Phase(front.get(), pool, w, PhaseSeed(options.seed, 10 + mid),
              w.ladder[mid], probe_s, nullptr);
    Count(p, tally);
    const double p99 = TailUs(p);
    // A backlog that exceeds what the rate delivers within the latency
    // limit is growth, not a transient stall.
    const bool growing =
        p.BacklogGrowing(p.target_rate * w.p99_limit_us * 1e-6);
    const bool ok = p99 <= w.p99_limit_us && !growing &&
                    p.achieved_rate >= 0.95 * p.target_rate;
    std::fprintf(stderr,
                 "perfbench: ladder %.0f/s achieved %.0f/s p99 %.0f us "
                 "backlog %s -> %s\n",
                 p.target_rate, p.achieved_rate, p99,
                 growing ? "growing" : "flat", ok ? "pass" : "fail");
    (ok ? pass : fail) = mid;
  }

  if (tally->mismatched == 0) {
    out->Set("p50_us.lo", Quantile(lo.latency_us, 0.50), "us");
    out->Set("p99_us.lo", TailUs(lo), "us");
    out->Set("p50_us.hi", Quantile(hi.latency_us, 0.50), "us");
    out->Set("p99_us.hi", TailUs(hi), "us");
  }
  out->Set("slo_rows_per_s", pass >= 0 ? w.ladder[pass] * rows : 0.0,
           "rows/s");
  return Median(setup_s);
}

}  // namespace

double RunServing(const Workload& w, const DataTable& table,
                  const ForestModel& forest, const RunOptions& options,
                  Ledger* out, Tally* tally) {
  const RequestPool pool = MakePool(table, forest, options.seed);
  if (w.fleet) {
    const std::string bytes = ForestBytes(forest);
    return ServeWith<FleetFront>(
        w, forest, pool, options,
        [&] { return std::make_unique<FleetFront>(bytes); }, out,
        tally);
  }
  return ServeWith<RowFront>(
      w, forest, pool, options,
      [&] { return std::make_unique<RowFront>(forest); }, out, tally);
}

}  // namespace perfbench
