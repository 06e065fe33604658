#ifndef TREESERVER_TESTS_TCP_CLUSTER_H_
#define TREESERVER_TESTS_TCP_CLUSTER_H_

// A master and N workers in one process, each on its own loopback
// TcpTransport: the real wire path (framing, CRCs, heartbeats) without
// separate processes.

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "engine/cluster.h"
#include "engine/master.h"
#include "engine/messages.h"
#include "engine/worker.h"
#include "forest/forest.h"
#include "rpc/tcp_transport.h"

namespace treeserver {

// One rank of the in-one-process TCP cluster.
struct TcpNode {
  std::unique_ptr<TcpTransport> transport;
  PeakGauge task_memory;
  BusyClock busy;
  std::unique_ptr<Worker> worker;
};

struct TcpCluster {
  std::shared_ptr<const DataTable> table;
  EngineConfig cfg;
  std::unique_ptr<TcpTransport> master_tx;
  std::unique_ptr<Master> master;
  std::vector<std::unique_ptr<TcpNode>> nodes;

  TcpCluster(DataTable data, const EngineConfig& config, int64_t heartbeat_ms,
             int miss_limit)
      : table(std::make_shared<const DataTable>(std::move(data))),
        cfg(config) {
    auto make_options = [&](int rank) {
      TcpTransportOptions o;
      o.num_workers = cfg.num_workers;
      o.local_rank = rank;
      o.heartbeat_period_ms = heartbeat_ms;
      o.heartbeat_miss_limit = miss_limit;
      return o;
    };
    master_tx = std::make_unique<TcpTransport>(make_options(kMasterRank));
    for (int w = 0; w < cfg.num_workers; ++w) {
      auto node = std::make_unique<TcpNode>();
      node->transport = std::make_unique<TcpTransport>(make_options(w));
      nodes.push_back(std::move(node));
    }

    std::vector<std::string> peers;
    for (int w = 0; w < cfg.num_workers; ++w) {
      peers.push_back("127.0.0.1:" +
                      std::to_string(nodes[w]->transport->local_port()));
    }
    peers.push_back("127.0.0.1:" + std::to_string(master_tx->local_port()));

    master = std::make_unique<Master>(table, master_tx.get(), cfg);
    master_tx->SetPeerDeadCallback([this](int rank) {
      if (rank != kMasterRank) master->OnWorkerCrash(rank);
    });

    TS_CHECK(master_tx->ConnectPeers(peers).ok());
    for (auto& node : nodes) {
      TS_CHECK(node->transport->ConnectPeers(peers).ok());
    }
    TS_CHECK(master_tx->WaitForPeers(20000)) << "workers did not connect";
    for (auto& node : nodes) {
      TS_CHECK(node->transport->WaitForPeers(20000)) << "peers did not connect";
    }

    for (int w = 0; w < cfg.num_workers; ++w) {
      TcpNode& node = *nodes[w];
      node.worker = std::make_unique<Worker>(
          w, table, node.transport.get(), cfg.compers_per_worker,
          &node.task_memory, &node.busy, cfg.compress_transfers);
    }
    master->Start();
    for (auto& node : nodes) node->worker->Start();
  }

  // Simulates a SIGKILL of worker `w`: its transport goes silent
  // mid-job with no goodbye; its threads are reaped like an exiting
  // process.
  void KillWorker(int w) {
    nodes[w]->transport->Shutdown();
    nodes[w]->worker->Join();
  }

  ForestModel Train(const ForestJobSpec& spec) {
    uint32_t job = master->Submit(spec);
    return master->Wait(job);
  }

  ~TcpCluster() {
    for (int w = 0; w < cfg.num_workers; ++w) {
      if (!master_tx->IsCrashed(w)) {
        master_tx->Send(ChannelKind::kTask,
                        Message{kMasterRank, w,
                                static_cast<uint32_t>(MsgType::kShutdown), ""});
      }
    }
    // Workers exit their task loop on kShutdown (closing their local
    // queues); give the frames time to arrive, then reap everything.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    for (auto& node : nodes) {
      node->transport->CloseAll();
      if (node->worker) node->worker->Join();
      node->transport->Shutdown();
    }
    master->Stop();
    master_tx->Shutdown();
  }
};

}  // namespace treeserver

#endif  // TREESERVER_TESTS_TCP_CLUSTER_H_
