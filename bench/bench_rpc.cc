// Transport benchmark: loopback-TCP framing cost vs the in-process
// simulated network, and bulk I_x (row-id block) throughput with and
// without wire compression.
//
// Expected shape: in-process RTT is a queue push (single-digit µs);
// loopback TCP adds syscalls, framing and CRC but stays well under
// 100 µs p50 on an idle box — negligible next to the multi-millisecond
// column scans it carries. Compressed I_x blocks trade CPU for bytes:
// ascending row ids delta+varint-pack to a fraction of the raw 4 B/row,
// so effective row throughput rises whenever the wire (not the CPU) is
// the bottleneck.
//
// Emits a one-line JSON summary (bench=rpc) after the tables for
// scripted consumption.
//
// `--chaos-overhead` runs the fault-injector cost guard instead: it
// measures the per-send cost a FaultInjectingTransport with an empty
// schedule adds (interleaved bare/wrapped in-process floods, median
// batch per side) and fails when that exceeds 1% of the measured
// loopback-TCP round trip — the transport the injector actually
// fronts on chaos-capable deployments, where it is always in the path.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "engine/messages.h"
#include "rpc/fault_injection.h"
#include "rpc/in_process_transport.h"
#include "rpc/tcp_transport.h"
#include "rpc/transport.h"

using namespace treeserver;         // NOLINT
using namespace treeserver::bench;  // NOLINT

namespace {

uint64_t PercentileUs(std::vector<uint64_t>* samples, double p) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  const size_t idx = std::min(
      samples->size() - 1, static_cast<size_t>(p * (samples->size() - 1)));
  return (*samples)[idx];
}

struct RttStats {
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  uint64_t max = 0;
};

/// Ping-pong between the master rank and worker 0: the echo thread
/// drains the worker's task queue and bounces every message back, so
/// one sample is a full request+response round trip including framing,
/// CRC and (for TCP) two loopback socket hops.
///
/// `master` and `worker` are the two rank-local transports; for the
/// in-process network they are the same object.
RttStats MeasureRtt(Transport* master, Transport* worker, int iterations,
                    size_t payload_bytes) {
  std::thread echo([worker] {
    while (true) {
      auto msg = worker->task_queue(0).Pop();
      if (!msg.has_value()) return;
      Message reply;
      reply.src = 0;
      reply.dst = kMasterRank;
      reply.type = msg->type;
      reply.payload = std::move(msg->payload);
      if (!worker->Send(ChannelKind::kTask, reply)) return;
    }
  });

  const std::string payload(payload_bytes, 'x');
  std::vector<uint64_t> samples;
  samples.reserve(iterations);
  for (int i = 0; i < iterations; ++i) {
    WallTimer timer;
    Message msg;
    msg.src = kMasterRank;
    msg.dst = 0;
    msg.type = 1;
    msg.payload = payload;
    if (!master->Send(ChannelKind::kTask, msg)) break;
    auto reply = master->master_queue().Pop();
    if (!reply.has_value()) break;
    const uint64_t us = static_cast<uint64_t>(timer.Seconds() * 1e6);
    // The first round trips pay connection and cache warmup; keep them
    // out of the percentiles.
    if (i >= iterations / 10) samples.push_back(us);
  }

  worker->task_queue(0).Close();
  echo.join();

  RttStats stats;
  stats.max = samples.empty() ? 0 : *std::max_element(samples.begin(), samples.end());
  stats.p50 = PercentileUs(&samples, 0.50);
  stats.p90 = PercentileUs(&samples, 0.90);
  stats.p99 = PercentileUs(&samples, 0.99);
  return stats;
}

struct BulkStats {
  double wire_mb = 0;        // payload actually framed, in MB
  double rows_per_sec = 0;   // row ids delivered per second
  double mb_per_sec = 0;
};

/// Streams `blocks` IxResponse row-id blocks (the dominant bulk
/// transfer of the data channel) from worker 0 to the master and
/// reports wire volume and delivered-row throughput.
BulkStats MeasureBulk(Transport* master, Transport* worker, int blocks,
                      size_t rows_per_block, bool compress) {
  IxResponse block;
  block.requester_task = 1;
  block.compress = compress;
  block.rows.resize(rows_per_block);
  // Ascending with small gaps — the shape real I_x splits have, and
  // what the delta+varint coder is built for.
  uint32_t row = 0;
  for (size_t i = 0; i < rows_per_block; ++i) {
    row += 1 + static_cast<uint32_t>(i % 3);
    block.rows[i] = row;
  }
  const std::string payload = block.Encode();

  std::atomic<uint64_t> decoded_rows{0};
  std::thread sink([master, &decoded_rows] {
    while (true) {
      auto msg = master->master_queue().Pop();
      if (!msg.has_value()) return;
      IxResponse out;
      if (IxResponse::Decode(msg->payload, &out).ok()) {
        decoded_rows.fetch_add(out.rows.size(), std::memory_order_relaxed);
      }
    }
  });

  WallTimer timer;
  for (int i = 0; i < blocks; ++i) {
    Message msg;
    msg.src = 0;
    msg.dst = kMasterRank;
    msg.type = 21;  // kIxResponse
    msg.payload = payload;
    if (!worker->Send(ChannelKind::kData, msg)) break;
  }
  // Wait for the sink to decode everything that was sent.
  const uint64_t expect = static_cast<uint64_t>(blocks) * rows_per_block;
  while (decoded_rows.load(std::memory_order_relaxed) < expect) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const double secs = timer.Seconds();
  master->master_queue().Close();
  sink.join();

  BulkStats stats;
  stats.wire_mb = static_cast<double>(payload.size()) * blocks / 1e6;
  stats.rows_per_sec = secs > 0 ? static_cast<double>(expect) / secs : 0;
  stats.mb_per_sec = secs > 0 ? stats.wire_mb / secs : 0;
  return stats;
}

/// One chaos-guard batch: push `msgs` 64 B task messages through
/// `via` into worker 0's queue on `net` and return the wall
/// milliseconds for the sends alone. Single-threaded on purpose — a
/// concurrent drain thread adds producer/consumer scheduling variance
/// that dwarfs the one predicted branch under test; the queue is
/// drained untimed afterwards.
double ChaosGuardBatch(Transport* via, InProcessTransport* net, int msgs) {
  const std::string payload(64, 'x');
  WallTimer timer;
  for (int i = 0; i < msgs; ++i) {
    Message msg;
    msg.src = kMasterRank;
    msg.dst = 0;
    msg.type = 1;
    msg.payload = payload;
    if (!via->Send(ChannelKind::kTask, msg)) break;
  }
  const double ms = timer.Seconds() * 1e3;
  while (net->task_queue(0).TryPop().has_value()) {
  }
  return ms;
}

struct TcpPair {
  std::unique_ptr<TcpTransport> master;
  std::unique_ptr<TcpTransport> worker;

  TcpPair() {
    TcpTransportOptions o;
    o.num_workers = 1;
    o.local_rank = kMasterRank;
    master = std::make_unique<TcpTransport>(o);
    o.local_rank = 0;
    worker = std::make_unique<TcpTransport>(o);
    const std::vector<std::string> peers = {
        "127.0.0.1:" + std::to_string(worker->local_port()),
        "127.0.0.1:" + std::to_string(master->local_port())};
    if (!master->ConnectPeers(peers).ok() ||
        !worker->ConnectPeers(peers).ok() || !master->WaitForPeers(10000) ||
        !worker->WaitForPeers(10000)) {
      std::fprintf(stderr, "bench_rpc: TCP pair failed to connect\n");
      std::exit(1);
    }
  }

  ~TcpPair() {
    worker->Shutdown();
    master->Shutdown();
  }
};

/// `--chaos-overhead` entry point. Two measurements:
///
/// 1. The injector's absolute per-send cost: interleaved bare vs
///    empty-schedule-wrapped in-process floods, median batch per side.
///    Short alternating batches cancel machine drift (a 100 ms
///    monolithic run drifts several percent on a shared box) and the
///    median sheds interrupt outliers. The healthy cost is one
///    predicted branch plus a Message move and a second virtual
///    dispatch — low tens of ns.
/// 2. The cost of what the injector fronts in deployment: the bare
///    loopback-TCP round trip (chaos wraps TcpTransport in
///    treeserver_node).
///
/// The gate is (1) as a fraction of (2): the injector must stay under
/// 1% of the message's real transport cost. Gating against the
/// in-process queue push instead would demand < ~2 ns — below even an
/// extra virtual call — while letting the regressions this guard
/// exists for (a lock, an RNG roll, an allocation on the inactive
/// path) cost hundreds of ns is what actually moves this ratio.
int RunChaosOverheadGuard() {
  constexpr int kBatchMsgs = 20000;
  constexpr int kBatches = 80;
  double bare_ms = 0.0;
  double wrapped_ms = 0.0;
  {
    InProcessTransport bare_net(1, /*bandwidth_mbps=*/0.0);
    InProcessTransport wrapped_net(1, /*bandwidth_mbps=*/0.0);
    FaultInjectingTransport chaos(&wrapped_net, FaultSchedule{});

    // Warmup: allocator arenas, page faults, branch predictors.
    ChaosGuardBatch(&bare_net, &bare_net, kBatchMsgs);
    ChaosGuardBatch(&chaos, &wrapped_net, kBatchMsgs);

    std::vector<double> bare_runs, wrapped_runs;
    bare_runs.reserve(kBatches);
    wrapped_runs.reserve(kBatches);
    for (int i = 0; i < kBatches; ++i) {
      bare_runs.push_back(ChaosGuardBatch(&bare_net, &bare_net, kBatchMsgs));
      wrapped_runs.push_back(
          ChaosGuardBatch(&chaos, &wrapped_net, kBatchMsgs));
    }
    chaos.Stop();

    auto median = [](std::vector<double>* v) {
      std::sort(v->begin(), v->end());
      return (*v)[v->size() / 2];
    };
    bare_ms = median(&bare_runs);
    wrapped_ms = median(&wrapped_runs);
  }
  const double bare_ns = bare_ms * 1e6 / kBatchMsgs;
  const double wrapped_ns = wrapped_ms * 1e6 / kBatchMsgs;
  const double added_ns = std::max(0.0, wrapped_ns - bare_ns);
  std::printf("chaos-overhead: %d batches x %d msgs, per-send "
              "bare=%.0fns wrapped=%.0fns added=%.0fns\n",
              kBatches, kBatchMsgs, bare_ns, wrapped_ns, added_ns);

  RttStats tcp_rtt;
  {
    TcpPair pair;
    tcp_rtt = MeasureRtt(pair.master.get(), pair.worker.get(),
                         /*iterations=*/2000, /*payload_bytes=*/64);
  }
  std::printf("chaos-overhead: bare loopback-tcp rtt p50=%lluus\n",
              static_cast<unsigned long long>(tcp_rtt.p50));

  const double rtt_ns = static_cast<double>(tcp_rtt.p50) * 1e3;
  const double overhead_pct = rtt_ns > 0 ? added_ns / rtt_ns * 100.0 : 100.0;
  constexpr double kBudgetPct = 1.0;
  char json[256];
  std::snprintf(json, sizeof(json),
                "{\"bench\":\"rpc-chaos\",\"send_bare_ns\":%.0f,"
                "\"send_wrapped_ns\":%.0f,\"added_ns\":%.0f,"
                "\"tcp_rtt_p50_us\":%llu,\"overhead_pct\":%.3f,"
                "\"budget_pct\":%.1f}\n",
                bare_ns, wrapped_ns, added_ns,
                static_cast<unsigned long long>(tcp_rtt.p50), overhead_pct,
                kBudgetPct);
  std::printf("%s", json);
  if (std::FILE* f = std::fopen("BENCH_rpc_chaos.json", "w")) {
    std::fputs(json, f);
    std::fclose(f);
  }
  if (overhead_pct > kBudgetPct) {
    std::fprintf(stderr,
                 "FAIL: empty-schedule injector adds %.0fns per send "
                 "(%.3f%% of the TCP round trip), budget %.1f%%\n",
                 added_ns, overhead_pct, kBudgetPct);
    return 1;
  }
  std::printf("PASS: empty-schedule injector adds %.0fns per send — "
              "%.3f%% of the TCP round trip (budget %.1f%%)\n",
              added_ns, overhead_pct, kBudgetPct);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == std::string("--chaos-overhead")) {
      return RunChaosOverheadGuard();
    }
  }
  const BenchOptions options = BenchOptions::Parse(argc, argv);
  const int rtt_iters = options.quick ? 2000 : 10000;
  const size_t rtt_payload = 64;
  const int bulk_blocks = options.quick ? 10 : 40;
  const size_t bulk_rows = options.quick ? 100000 : 500000;

  std::printf("RPC transport bench: %d RTT iterations (%zu B payload), "
              "%d x %zu-row I_x blocks\n\n",
              rtt_iters, rtt_payload, bulk_blocks, bulk_rows);

  RttStats inproc_rtt;
  {
    InProcessTransport net(1, /*bandwidth_mbps=*/0.0);
    inproc_rtt = MeasureRtt(&net, &net, rtt_iters, rtt_payload);
  }
  RttStats tcp_rtt;
  {
    TcpPair pair;
    tcp_rtt = MeasureRtt(pair.master.get(), pair.worker.get(), rtt_iters,
                         rtt_payload);
  }

  TablePrinter rtt_table({"transport", "p50(us)", "p90(us)", "p99(us)",
                          "max(us)"});
  for (const auto& [name, s] :
       {std::pair<const char*, RttStats>{"in-process", inproc_rtt},
        std::pair<const char*, RttStats>{"loopback-tcp", tcp_rtt}}) {
    rtt_table.AddRow({name, std::to_string(s.p50), std::to_string(s.p90),
                      std::to_string(s.p99), std::to_string(s.max)});
  }
  rtt_table.Print();
  std::printf("\n");

  BulkStats raw;
  BulkStats packed;
  {
    TcpPair pair;
    raw = MeasureBulk(pair.master.get(), pair.worker.get(), bulk_blocks,
                      bulk_rows, /*compress=*/false);
  }
  {
    TcpPair pair;
    packed = MeasureBulk(pair.master.get(), pair.worker.get(), bulk_blocks,
                         bulk_rows, /*compress=*/true);
  }

  TablePrinter bulk_table({"I_x blocks", "wire MB", "MB/s", "Mrows/s"});
  bulk_table.AddRow({"raw", Fmt(raw.wire_mb), Fmt(raw.mb_per_sec),
                     Fmt(raw.rows_per_sec / 1e6)});
  bulk_table.AddRow({"compressed", Fmt(packed.wire_mb), Fmt(packed.mb_per_sec),
                     Fmt(packed.rows_per_sec / 1e6)});
  bulk_table.Print();
  std::printf("  compression ratio: %.2fx\n\n",
              packed.wire_mb > 0 ? raw.wire_mb / packed.wire_mb : 0.0);

  std::printf(
      "{\"bench\":\"rpc\",\"rtt_inproc_p50_us\":%llu,"
      "\"rtt_inproc_p99_us\":%llu,\"rtt_tcp_p50_us\":%llu,"
      "\"rtt_tcp_p99_us\":%llu,\"bulk_raw_mb_per_s\":%.2f,"
      "\"bulk_compressed_mb_per_s\":%.2f,\"bulk_raw_mrows_per_s\":%.2f,"
      "\"bulk_compressed_mrows_per_s\":%.2f,\"compression_ratio\":%.2f}\n",
      static_cast<unsigned long long>(inproc_rtt.p50),
      static_cast<unsigned long long>(inproc_rtt.p99),
      static_cast<unsigned long long>(tcp_rtt.p50),
      static_cast<unsigned long long>(tcp_rtt.p99), raw.mb_per_sec,
      packed.mb_per_sec, raw.rows_per_sec / 1e6, packed.rows_per_sec / 1e6,
      packed.wire_mb > 0 ? raw.wire_mb / packed.wire_mb : 0.0);
  return 0;
}
