#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/clock_sync.h"
#include "common/http_server.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/metrics_registry.h"
#include "common/prometheus.h"
#include "common/trace.h"
#include "common/trace_merge.h"
#include "engine/cluster.h"
#include "engine/messages.h"
#include "engine/stats_reporter.h"
#include "table/datasets.h"

namespace treeserver {
namespace {

TEST(HistogramTest, BucketBoundaries) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11);
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}), 64);

  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  for (int i = 1; i < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketLowerBound(i)), i)
        << "bucket " << i;
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketUpperBound(i)), i)
        << "bucket " << i;
  }
  EXPECT_EQ(Histogram::BucketUpperBound(64), ~uint64_t{0});
}

TEST(HistogramTest, AddAndAccessors) {
  Histogram h;
  h.Add(0);
  h.Add(1);
  h.Add(5);
  h.Add(5);
  h.Add(100);
  EXPECT_EQ(h.Count(), 5u);
  EXPECT_EQ(h.Sum(), 111u);
  EXPECT_EQ(h.Max(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 111.0 / 5.0);
  EXPECT_EQ(h.bucket_count(0), 1u);  // 0
  EXPECT_EQ(h.bucket_count(1), 1u);  // 1
  EXPECT_EQ(h.bucket_count(3), 2u);  // 4..7
  EXPECT_EQ(h.bucket_count(7), 1u);  // 64..127
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Max(), 0u);
  EXPECT_EQ(h.bucket_count(3), 0u);
}

TEST(HistogramTest, ConcurrentAddLosesNothing) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Add(static_cast<uint64_t>(t * kPerThread + i));
      }
    });
  }
  for (auto& th : threads) th.join();

  constexpr uint64_t kTotal = uint64_t{kThreads} * kPerThread;
  EXPECT_EQ(h.Count(), kTotal);
  EXPECT_EQ(h.Sum(), kTotal * (kTotal - 1) / 2);
  EXPECT_EQ(h.Max(), kTotal - 1);
  uint64_t bucket_total = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    bucket_total += h.bucket_count(i);
  }
  EXPECT_EQ(bucket_total, kTotal);
}

TEST(HistogramTest, SnapshotAndMerge) {
  Histogram a;
  Histogram b;
  a.Add(1);
  a.Add(10);
  b.Add(100);
  b.Add(1000);

  Histogram::Snapshot sa = a.snapshot();
  Histogram::Snapshot sb = b.snapshot();
  EXPECT_EQ(sa.count, 2u);
  EXPECT_EQ(sa.sum, 11u);
  EXPECT_EQ(sa.max, 10u);

  sa.Merge(sb);
  EXPECT_EQ(sa.count, 4u);
  EXPECT_EQ(sa.sum, 1111u);
  EXPECT_EQ(sa.max, 1000u);
  uint64_t bucket_total = 0;
  for (uint64_t c : sa.buckets) bucket_total += c;
  EXPECT_EQ(bucket_total, 4u);
}

TEST(HistogramTest, PercentileEstimates) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.Add(10);   // bucket [8, 15]
  for (int i = 0; i < 10; ++i) h.Add(900);  // bucket [512, 1023]
  Histogram::Snapshot s = h.snapshot();
  // Interpolated within the bucket, not snapped to its upper bound.
  EXPECT_EQ(s.Percentile(0.5), 11u);
  EXPECT_EQ(s.Percentile(0.99), 861u);
  EXPECT_EQ(s.Percentile(1.0), 900u);  // p100 is the observed max
  Histogram::Snapshot empty;
  EXPECT_EQ(empty.Percentile(0.5), 0u);
}

TEST(HistogramTest, TailPercentilesStayBelowMaxOnHeavyTail) {
  // The log-bucketed histogram's tail buckets double in width; without
  // sub-bucket interpolation every percentile above the body collapses
  // onto the observed max (p99 == max in the serve benchmark output).
  Histogram h;
  for (int i = 0; i < 985; ++i) h.Add(100);
  for (int i = 0; i < 15; ++i) h.Add(25000 + 100 * i);  // bucket [16384, 32767]
  Histogram::Snapshot s = h.snapshot();
  const uint64_t p99 = s.Percentile(0.99);
  EXPECT_GE(p99, 16384u);  // in the tail bucket
  EXPECT_LT(p99, s.max);   // but not pinned to its end
  EXPECT_EQ(s.Percentile(1.0), s.max);
}

TEST(PeakGaugeTest, TracksPeakUnderConcurrentAddSub) {
  PeakGauge g;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kIters; ++i) {
        g.Add(3);
        g.Sub(3);
      }
    });
  }
  for (auto& th : threads) th.join();
  // All adds are balanced by subs, so the gauge must settle at 0, and
  // the peak can never exceed every thread holding its +3 at once.
  EXPECT_EQ(g.value(), 0);
  EXPECT_GE(g.peak(), 3);
  EXPECT_LE(g.peak(), 3 * kThreads);
}

TEST(MetricsRegistryTest, StablePointersAndSnapshot) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("test.counter");
  EXPECT_EQ(reg.GetCounter("test.counter"), c);
  c->Add(7);
  reg.GetGauge("test.gauge")->Add(5);
  reg.GetHistogram("test.hist")->Add(42);

  std::vector<MetricSnapshot> snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  bool saw_counter = false;
  for (const MetricSnapshot& m : snap) {
    if (m.name == "test.counter") {
      saw_counter = true;
      EXPECT_EQ(m.kind, MetricSnapshot::Kind::kCounter);
      EXPECT_EQ(m.count, 7u);
    }
  }
  EXPECT_TRUE(saw_counter);

  std::string text = reg.DumpText();
  EXPECT_NE(text.find("test.counter"), std::string::npos);
  std::string json = reg.DumpJson();
  EXPECT_NE(json.find("\"test.hist\""), std::string::npos);

  reg.ResetAll();
  EXPECT_EQ(reg.GetCounter("test.counter")->value(), 0u);
}

class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().Clear();
    Tracer::Global().Enable();
  }
  void TearDown() override {
    Tracer::Global().Disable();
    Tracer::Global().Clear();
  }
};

TEST_F(TracerTest, SpanAndAsyncEventsExportAsChromeJson) {
  {
    TraceSpan span(TraceCat::kColumnTask, "compute-column", 42);
    span.SetArg("n_rows", 1234);
  }
  TraceAsyncBegin(TraceCat::kSubtreeTask, "task", 42);
  TraceAsyncEnd(TraceCat::kSubtreeTask, "task", 42);
  TraceInstant(TraceCat::kTreeComplete, "tree-complete", 7);
  EXPECT_EQ(Tracer::Global().event_count(), 4u);

  std::string json = Tracer::Global().ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"column-task\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"subtree-task\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"0x2a\""), std::string::npos);
  EXPECT_NE(json.find("\"n_rows\":1234"), std::string::npos);
}

TEST_F(TracerTest, DisabledTracerRecordsNothing) {
  Tracer::Global().Disable();
  {
    TraceSpan span(TraceCat::kNetSend, "send", 1);
  }
  TraceInstant(TraceCat::kPlanInsert, "plan-head", 1);
  EXPECT_EQ(Tracer::Global().event_count(), 0u);
}

TEST_F(TracerTest, ThreadsGetDistinctTidsInExport) {
  TraceInstant(TraceCat::kPlanInsert, "main-thread");
  std::thread other([] { TraceInstant(TraceCat::kPlanInsert, "other-thread"); });
  other.join();
  EXPECT_EQ(Tracer::Global().event_count(), 2u);
  int tid_here = CurrentThreadId();
  std::string json = Tracer::Global().ToChromeJson();
  EXPECT_NE(json.find("\"tid\":" + std::to_string(tid_here)),
            std::string::npos);
}

TEST_F(TracerTest, WriteChromeTraceProducesLoadableFile) {
  TraceInstant(TraceCat::kWorkerAssign, "schedule", 3);
  std::string path = ::testing::TempDir() + "trace_test.json";
  Status st = Tracer::Global().WriteChromeTrace(path);
  ASSERT_TRUE(st.ok()) << st.ToString();
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[16] = {};
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  ASSERT_GT(n, 0u);
  EXPECT_EQ(buf[0], '{');
}

DataTable MakeData(size_t rows) {
  DatasetProfile p;
  p.rows = rows;
  p.num_numeric = 6;
  p.num_categorical = 2;
  p.num_classes = 3;
  p.noise = 0.08;
  p.concept_depth = 6;
  return GenerateTable(p, 11);
}

EngineConfig SmallConfig() {
  EngineConfig cfg;
  cfg.num_workers = 3;
  cfg.compers_per_worker = 2;
  cfg.replication = 2;
  // Small thresholds so both task kinds exercise on small data.
  cfg.tau_d = 600;
  cfg.tau_dfs = 1500;
  return cfg;
}

TEST(EngineStatsTest, SnapshotCoversMasterWorkersAndNetwork) {
  DataTable t = MakeData(3000);
  TreeServerCluster cluster(t, SmallConfig());
  ForestJobSpec spec;
  spec.num_trees = 4;
  spec.tree.max_depth = 8;
  cluster.TrainForest(spec);

  EngineStats stats = cluster.GetEngineStats();
  EXPECT_EQ(stats.master.jobs_total, 1u);
  EXPECT_EQ(stats.master.jobs_completed, 1u);
  EXPECT_EQ(stats.master.trees_completed, 4u);
  EXPECT_GT(stats.master.tasks_scheduled, 0u);
  EXPECT_EQ(stats.master.tasks_in_flight, 0u);
  EXPECT_EQ(stats.master.npool, cluster.config().npool);
  ASSERT_EQ(stats.master.predicted_load.size(), 3u);
  ASSERT_EQ(stats.workers.size(), 3u);
  uint64_t computed = 0;
  for (const WorkerStats& w : stats.workers) computed += w.tasks_computed;
  EXPECT_GT(computed, 0u);
  // endpoints = workers + master; everyone talked to someone.
  ASSERT_EQ(stats.network.endpoints.size(), 4u);
  EXPECT_GT(stats.network.endpoints.back().bytes_sent, 0u);
  EXPECT_GT(stats.network.task_payload_bytes.count, 0u);
  EXPECT_GE(stats.task_memory_peak, stats.task_memory_bytes);

  std::string report = FormatEngineStats(stats);
  EXPECT_NE(report.find("bplan="), std::string::npos);
  EXPECT_NE(report.find("task payload bytes"), std::string::npos);
}

TEST(EngineStatsTest, TraceCapturesTaskLifecyclesAcrossEngine) {
  Tracer::Global().Clear();
  Tracer::Global().Enable();
  {
    DataTable t = MakeData(3000);
    TreeServerCluster cluster(t, SmallConfig());
    ForestJobSpec spec;
    spec.num_trees = 2;
    spec.tree.max_depth = 8;
    cluster.TrainForest(spec);
  }
  Tracer::Global().Disable();

  std::string json = Tracer::Global().ToChromeJson();
  Tracer::Global().Clear();
  EXPECT_NE(json.find("\"cat\":\"column-task\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"subtree-task\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"net-send\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"plan-insert\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"worker-assign\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"tree-complete\""), std::string::npos);
  // Async lifecycle pairs are keyed by task id.
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
}

TEST_F(TracerTest, DropsBeyondPerThreadCapAndCounts) {
  Tracer& tracer = Tracer::Global();
  Counter* dropped_counter =
      MetricsRegistry::Global().GetCounter("trace.dropped_spans");
  const uint64_t counter_before = dropped_counter->value();
  const size_t old_cap = tracer.max_events_per_thread();
  tracer.set_max_events_per_thread(4);
  for (int i = 0; i < 10; ++i) {
    TraceInstant(TraceCat::kPlanInsert, "overflow", static_cast<uint64_t>(i));
  }
  EXPECT_EQ(tracer.event_count(), 4u);
  EXPECT_EQ(tracer.dropped_spans(), 6u);
  EXPECT_EQ(dropped_counter->value(), counter_before + 6);
  // The drop count rides worker snapshots into the merged-trace warning.
  tracer.Clear();
  EXPECT_EQ(tracer.dropped_spans(), 0u);
  tracer.set_max_events_per_thread(old_cap);
}

TEST(StatsReporterTest, StopEmitsFinalReportWhenNoneWereProduced) {
  std::vector<std::string> reasons;
  std::vector<std::string> bodies;
  StatsReporter reporter([] { return EngineStats{}; },
                         /*period_ms=*/60000);
  reporter.SetSink([&](const char* reason, const std::string& body) {
    reasons.emplace_back(reason);
    bodies.push_back(body);
  });
  reporter.Start();
  reporter.Stop();  // job "finished" well inside the first period
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_EQ(reasons[0], "final");
  EXPECT_NE(bodies[0].find("bplan="), std::string::npos);
  EXPECT_EQ(reporter.reports_emitted(), 1u);
}

TEST(StatsReporterTest, NoFinalReportAfterExplicitReport) {
  std::vector<std::string> reasons;
  StatsReporter reporter([] { return EngineStats{}; },
                         /*period_ms=*/60000);
  reporter.SetSink([&](const char* reason, const std::string&) {
    reasons.emplace_back(reason);
  });
  reporter.Start();
  reporter.ReportNow("job-complete");
  reporter.Stop();
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_EQ(reasons[0], "job-complete");
}

TEST(ClockSyncTest, RecoversOffsetFromSymmetricExchange) {
  // The remote trace clock runs 5ms ahead of ours. We sent a heartbeat
  // at local t=1ms; it took 200us each way; the remote held it for
  // 700us before its own heartbeat went out.
  const int64_t kOffset = 5'000'000;
  const uint64_t local_send = 1'000'000;
  const uint64_t one_way = 200'000;
  const uint64_t remote_hold = 700'000;
  const uint64_t remote_send =
      local_send + static_cast<uint64_t>(kOffset) + one_way + remote_hold;
  const uint64_t local_now = local_send + one_way + remote_hold + one_way;
  ClockSample s;
  ASSERT_TRUE(ComputeClockSample(remote_send, /*echo_ns=*/local_send,
                                 /*echo_elapsed_ns=*/remote_hold, local_now,
                                 &s));
  EXPECT_EQ(s.rtt_ns, static_cast<int64_t>(2 * one_way));
  EXPECT_EQ(s.offset_ns, kOffset);  // symmetric path recovers it exactly
}

TEST(ClockSyncTest, RejectsDegenerateExchanges) {
  ClockSample s;
  // First heartbeat: nothing of ours echoed yet.
  EXPECT_FALSE(ComputeClockSample(100, /*echo_ns=*/0, 0, 200, &s));
  // Echo from our future: clock glitch.
  EXPECT_FALSE(ComputeClockSample(100, /*echo_ns=*/500, 0, 200, &s));
  // Hold time longer than the whole turnaround: non-causal.
  EXPECT_FALSE(ComputeClockSample(100, /*echo_ns=*/100,
                                  /*echo_elapsed_ns=*/900, 200, &s));
}

TEST(ClockSyncTest, EstimatorKeepsMinimumRttSample) {
  ClockOffsetEstimator est;
  EXPECT_FALSE(est.has_offset());
  est.AddSample({/*rtt_ns=*/100, /*offset_ns=*/5});
  est.AddSample({/*rtt_ns=*/40, /*offset_ns=*/7});
  est.AddSample({/*rtt_ns=*/80, /*offset_ns=*/9});
  EXPECT_TRUE(est.has_offset());
  // The tightest (lowest-RTT) sample wins regardless of arrival order.
  EXPECT_EQ(est.min_rtt_ns(), 40);
  EXPECT_EQ(est.offset_ns(), 7);
  EXPECT_EQ(est.samples(), 3u);
}

TEST(PrometheusTest, SanitizesNamesAndEscapesLabels) {
  EXPECT_EQ(PrometheusMetricName("engine.slow_tasks"), "engine_slow_tasks");
  EXPECT_EQ(PrometheusMetricName("net.bytes-sent"), "net_bytes_sent");
  EXPECT_EQ(PrometheusMetricName("9lives"), "_lives");
  EXPECT_EQ(PrometheusEscapeLabel("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(PrometheusTest, ExportsCountersGaugesAndCumulativeBuckets) {
  MetricsRegistry reg;
  reg.GetCounter("test.requests")->Add(7);
  reg.GetGauge("test.depth")->Add(3);
  Histogram* h = reg.GetHistogram("test.latency_us");
  h->Add(1);
  h->Add(10);
  h->Add(1000);
  std::string text = PrometheusExport(reg.Snapshot(), {{"rank", "2"}});

  EXPECT_NE(text.find("# TYPE test_requests counter"), std::string::npos);
  EXPECT_NE(text.find("test_requests{rank=\"2\"} 7"), std::string::npos);
  EXPECT_NE(text.find("test_depth{rank=\"2\"} 3"), std::string::npos);
  EXPECT_NE(text.find("test_depth_peak{rank=\"2\"} 3"), std::string::npos);
  EXPECT_NE(text.find("test_latency_us_sum{rank=\"2\"} 1011"),
            std::string::npos);
  EXPECT_NE(text.find("test_latency_us_count{rank=\"2\"} 3"),
            std::string::npos)
      << "count line missing or wrong:\n"
      << text;

  // Bucket series must be cumulative and end at +Inf == count.
  uint64_t last = 0;
  bool saw_inf = false;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("test_latency_us_bucket", 0) != 0) continue;
    uint64_t v = std::stoull(line.substr(line.rfind(' ') + 1));
    EXPECT_GE(v, last) << "non-cumulative bucket line: " << line;
    last = v;
    if (line.find("le=\"+Inf\"") != std::string::npos) {
      saw_inf = true;
      EXPECT_EQ(v, 3u);
    }
  }
  EXPECT_TRUE(saw_inf);
}

TEST(HttpServerTest, ServesHandlersQueriesAnd404) {
  HttpServer server;
  server.Handle("/echo", [](const std::string& query) {
    HttpResponse resp;
    resp.body = "q=" + query;
    return resp;
  });
  ASSERT_TRUE(server.Start("127.0.0.1", 0).ok());
  ASSERT_GT(server.port(), 0);

  std::string body;
  int code = 0;
  ASSERT_TRUE(HttpGet("127.0.0.1", server.port(), "/echo?a=1&b=2", &body,
                      &code)
                  .ok());
  EXPECT_EQ(code, 200);
  EXPECT_EQ(body, "q=a=1&b=2");

  ASSERT_TRUE(HttpGet("127.0.0.1", server.port(), "/nope", &body, &code).ok());
  EXPECT_EQ(code, 404);

  server.Stop();
  server.Stop();  // idempotent
  EXPECT_FALSE(HttpGet("127.0.0.1", server.port(), "/echo", &body).ok());
}

TEST(JsonTest, ParsesDocumentsThisSystemEmits) {
  JsonValue v;
  ASSERT_TRUE(JsonValue::Parse(
                  "{\"rank\":-1,\"role\":\"master\",\"rss_bytes\":1.5e6,"
                  "\"lanes\":[1,2,3],\"meta\":{\"ok\":true,\"gap\":null},"
                  "\"esc\":\"a\\\"b\\\\c\"}",
                  &v)
                  .ok());
  EXPECT_EQ(v.NumberOr("rank", 0), -1);
  EXPECT_EQ(v.StringOr("role", ""), "master");
  EXPECT_DOUBLE_EQ(v.NumberOr("rss_bytes", 0), 1.5e6);
  ASSERT_NE(v.Find("lanes"), nullptr);
  ASSERT_EQ(v.Find("lanes")->as_array().size(), 3u);
  EXPECT_EQ(v.Find("lanes")->as_array()[2].as_number(), 3);
  ASSERT_NE(v.Find("meta"), nullptr);
  EXPECT_TRUE(v.Find("meta")->Find("ok")->as_bool());
  EXPECT_TRUE(v.Find("meta")->Find("gap")->is_null());
  EXPECT_EQ(v.StringOr("esc", ""), "a\"b\\c");
}

TEST(JsonTest, RejectsMalformedInput) {
  JsonValue v;
  EXPECT_FALSE(JsonValue::Parse("{", &v).ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]", &v).ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":}", &v).ok());
  EXPECT_FALSE(JsonValue::Parse("{} trailing", &v).ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated", &v).ok());
}

TEST(TraceSnapshotMsgTest, EncodeDecodeRoundTrip) {
  TraceSnapshotMsg msg;
  msg.worker = 2;
  msg.dropped = 17;
  TraceEventCopy e;
  e.name = "compute-column";
  e.cat = TraceCat::kColumnTask;
  e.phase = 'X';
  e.tid = 5;
  e.ts_ns = 123456789;
  e.dur_ns = 4242;
  e.id = 99;
  e.arg_name = "n_rows";
  e.arg = 4096;
  msg.events.push_back(e);
  e.name = "slow-task";
  e.cat = TraceCat::kWatchdog;
  e.phase = 'i';
  e.arg_name.clear();
  msg.events.push_back(e);

  TraceSnapshotMsg got;
  ASSERT_TRUE(TraceSnapshotMsg::Decode(msg.Encode(), &got).ok());
  EXPECT_EQ(got.worker, 2);
  EXPECT_EQ(got.dropped, 17u);
  ASSERT_EQ(got.events.size(), 2u);
  EXPECT_EQ(got.events[0].name, "compute-column");
  EXPECT_EQ(got.events[0].cat, TraceCat::kColumnTask);
  EXPECT_EQ(got.events[0].phase, 'X');
  EXPECT_EQ(got.events[0].tid, 5);
  EXPECT_EQ(got.events[0].ts_ns, 123456789u);
  EXPECT_EQ(got.events[0].dur_ns, 4242u);
  EXPECT_EQ(got.events[0].id, 99u);
  EXPECT_EQ(got.events[0].arg_name, "n_rows");
  EXPECT_EQ(got.events[0].arg, 4096);
  EXPECT_EQ(got.events[1].cat, TraceCat::kWatchdog);
  EXPECT_TRUE(got.events[1].arg_name.empty());

  TraceSnapshotMsg bad;
  EXPECT_FALSE(TraceSnapshotMsg::Decode("truncated", &bad).ok());
}

TEST(TraceMergeTest, MergedJsonHasRankLanesAndRebasedTimestamps) {
  std::vector<RankTrace> ranks(2);
  ranks[0].rank = kMasterRank;
  ranks[0].label = "master";
  TraceEventCopy sched;
  sched.name = "schedule";
  sched.phase = 'i';
  sched.ts_ns = 1'000'000;  // 1000us on the master clock
  ranks[0].events.push_back(sched);

  // Worker 1's clock runs 5ms AHEAD of the master's; it computed the
  // task 500us after the master scheduled it, so its raw timestamp is
  // 1000us + 5000us + 500us.
  ranks[1].rank = 1;
  ranks[1].label = "worker 1";
  ranks[1].clock_offset_ns = 5'000'000;
  TraceEventCopy comp;
  comp.name = "compute-column";
  comp.phase = 'X';
  comp.ts_ns = 6'500'000;
  comp.dur_ns = 100'000;
  ranks[1].events.push_back(comp);

  JsonValue doc;
  ASSERT_TRUE(JsonValue::Parse(MergedChromeTraceJson(ranks), &doc).ok());
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  double sched_ts = -1, comp_ts = -1;
  int sched_pid = -1, comp_pid = -1;
  int process_names = 0;
  for (const JsonValue& ev : events->as_array()) {
    const std::string name = ev.StringOr("name", "");
    if (name == "process_name") {
      ++process_names;
      continue;
    }
    if (name == "schedule") {
      sched_ts = ev.NumberOr("ts", -1);
      sched_pid = static_cast<int>(ev.NumberOr("pid", -1));
    } else if (name == "compute-column") {
      comp_ts = ev.NumberOr("ts", -1);
      comp_pid = static_cast<int>(ev.NumberOr("pid", -1));
    }
  }
  EXPECT_EQ(process_names, 2);  // one lane label per rank
  EXPECT_EQ(sched_pid, TracePidForRank(kMasterRank));
  EXPECT_EQ(comp_pid, TracePidForRank(1));
  EXPECT_DOUBLE_EQ(sched_ts, 1000.0);
  // Rebasing subtracted the 5ms skew: causality restored.
  EXPECT_DOUBLE_EQ(comp_ts, 1500.0);
  EXPECT_GT(comp_ts, sched_ts);
}

TEST(WatchdogTest, FlagsInjectedStragglerTasks) {
  Counter* slow = MetricsRegistry::Global().GetCounter("engine.slow_tasks");
  const uint64_t before = slow->value();

  DataTable t = MakeData(1500);
  EngineConfig cfg = SmallConfig();
  cfg.tau_d = 400;
  // Worker 0 sleeps 200ms before every task; the watchdog scans every
  // 10ms with a 20ms floor, so its in-flight tasks must get flagged.
  // The multiplier term is zeroed because the per-kind latency
  // histograms are process-global: earlier training suites in this
  // test binary (slowed 10-20x under TSan) can push the rolling p99
  // high enough that multiplier x p99 exceeds the injected 200ms
  // straggler, and the floor alone makes the test deterministic.
  cfg.debug_slow_worker = 0;
  cfg.debug_slow_task_ms = 200;
  cfg.watchdog_period_ms = 10;
  cfg.watchdog_min_us = 20000;
  cfg.watchdog_multiplier = 0.0;
  TreeServerCluster cluster(t, cfg);
  ForestJobSpec spec;
  spec.num_trees = 1;
  spec.tree.max_depth = 4;
  ForestModel forest = cluster.TrainForest(spec);
  EXPECT_EQ(forest.num_trees(), 1u);

  EXPECT_GT(slow->value(), before) << "watchdog never flagged the straggler";
  EXPECT_GT(cluster.GetEngineStats().master.slow_tasks, 0u);
}

TEST(WatchdogTest, QuietOnHealthyRunWithDefaults) {
  Counter* slow = MetricsRegistry::Global().GetCounter("engine.slow_tasks");
  const uint64_t before = slow->value();

  DataTable t = MakeData(2000);
  EngineConfig cfg = SmallConfig();  // default watchdog: 500ms floor
  TreeServerCluster cluster(t, cfg);
  ForestJobSpec spec;
  spec.num_trees = 2;
  spec.tree.max_depth = 6;
  cluster.TrainForest(spec);

  EXPECT_EQ(slow->value(), before)
      << "watchdog flagged tasks on an unperturbed in-process run";
}

TEST(WatchdogTest, QuietOnHealthyRunWithFastScans) {
  Counter* slow = MetricsRegistry::Global().GetCounter("engine.slow_tasks");
  const uint64_t before = slow->value();

  // Scanning every millisecond through a job of a few thousand tasks
  // makes it likely that some task is scheduled between a scan's clock
  // read and its visit of T_task; such a task must read as young, not
  // as a wrapped-around huge age.
  DataTable t = MakeData(12000);
  EngineConfig cfg = SmallConfig();  // default 2 s floor
  cfg.watchdog_period_ms = 1;
  TreeServerCluster cluster(t, cfg);
  ForestJobSpec spec;
  spec.num_trees = 4;
  spec.tree.max_depth = 10;
  cluster.TrainForest(spec);

  EXPECT_EQ(slow->value() - before, 0u)
      << "watchdog flagged tasks on an unperturbed in-process run";
}

TEST(EngineStatsTest, StatsReporterEmitsAtCompletion) {
  DataTable t = MakeData(3000);
  EngineConfig cfg = SmallConfig();
  cfg.stats_period_ms = 50;
  TreeServerCluster cluster(t, cfg);
  ForestJobSpec spec;
  spec.num_trees = 2;
  spec.tree.max_depth = 7;
  ForestModel forest = cluster.TrainForest(spec);
  EXPECT_EQ(forest.num_trees(), 2u);
  // The reporter thread is exercised for liveness (output goes to
  // stderr); stats must still be coherent while it runs.
  EngineStats stats = cluster.GetEngineStats();
  EXPECT_EQ(stats.master.trees_completed, 2u);
}

}  // namespace
}  // namespace treeserver
