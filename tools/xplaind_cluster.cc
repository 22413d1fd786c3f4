// xplaind_cluster: the scatter-gather coordinator daemon (DESIGN.md §13).
// Dials a fleet of xplaind shards, bootstraps the rows-free catalog from
// their schema, and serves the same NDJSON protocol on 127.0.0.1 —
// EXPLAIN/TOPK fan out to every shard and merge bit-identically to a
// single node over the union database; DELTA routes or broadcasts under a
// version barrier.
//
//   xplaind_cluster --shards 127.0.0.1:7411,127.0.0.1:7412
//                   --partition Publication.pubid --port 7410
//
// Prints "xplaind_cluster listening on 127.0.0.1:<port>" once ready
// (scripts parse this line to discover an ephemeral port). Runs until a
// DRAIN request (or SIGINT/SIGTERM) and exits 0 after in-flight fan-outs
// finish. Shards are left running — drain them separately.

#include <atomic>
#include <chrono>
#include <csignal>
#include <iostream>
#include <string>
#include <thread>

#include "cluster/coordinator.h"
#include "cluster/shard_map.h"
#include "server/tcp_server.h"
#include "util/result.h"
#include "util/string_util.h"

namespace {

std::atomic<bool> g_interrupted{false};

void HandleSignal(int) { g_interrupted.store(true); }

int Usage(std::ostream& os) {
  os << "usage: xplaind_cluster --shards H:P[,H:P...] --partition A[,A...]\n"
     << "                       [--port P] [--workers N] [--queue N]\n"
     << "                       [--reactors N] [--fanout-attempts N]\n"
     << "                       [--connect-retries N] [--recv-timeout-ms N]\n"
     << "                       [--flight N] [--slow_query_us N]\n"
     << "  --shards L           comma-separated shard endpoints, in shard\n"
     << "                       order (index = shard id)\n"
     << "  --partition A        partition attributes the shards were split\n"
     << "                       by (xplain_shard --partition)\n"
     << "  --port P             TCP port on 127.0.0.1; 0 = ephemeral\n"
     << "  --workers N          fan-out worker threads (default: hardware)\n"
     << "  --queue N            admission queue depth beyond workers\n"
     << "  --reactors N         epoll event-loop threads\n"
     << "  --fanout-attempts N  attempts per request on shard failure or\n"
     << "                       version fence trip (default 3)\n"
     << "  --connect-retries N  bounded dial attempts per shard (default 3)\n"
     << "  --recv-timeout-ms N  per-read shard timeout; a killed shard\n"
     << "                       surfaces as ok:false, never a hang\n"
     << "                       (default 30000; 0 = block)\n"
     << "  --flight N           flight-recorder ring capacity (default 256)\n"
     << "  --slow_query_us N    log and pin requests whose queue+execute+flush\n"
     << "                       time reaches N microseconds (default: off)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string shard_list;
  std::string partition_csv;
  xplain::server::TcpServerOptions tcp;
  xplain::cluster::CoordinatorOptions options;
  options.client.recv_timeout_ms = 30000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--shards" && i + 1 < argc) {
      shard_list = argv[++i];
    } else if (arg == "--partition" && i + 1 < argc) {
      partition_csv = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      tcp.port = std::stoi(argv[++i]);
    } else if (arg == "--workers" && i + 1 < argc) {
      options.num_workers = std::stoi(argv[++i]);
    } else if (arg == "--queue" && i + 1 < argc) {
      options.max_queue_depth = static_cast<size_t>(std::stoul(argv[++i]));
    } else if (arg == "--reactors" && i + 1 < argc) {
      tcp.num_reactors = std::stoi(argv[++i]);
    } else if (arg == "--fanout-attempts" && i + 1 < argc) {
      options.fanout_attempts = std::stoi(argv[++i]);
    } else if (arg == "--connect-retries" && i + 1 < argc) {
      options.connect_retry.max_attempts = std::stoi(argv[++i]);
    } else if (arg == "--recv-timeout-ms" && i + 1 < argc) {
      options.client.recv_timeout_ms = std::stoi(argv[++i]);
    } else if (arg == "--flight" && i + 1 < argc) {
      options.flight_capacity = static_cast<size_t>(std::stoul(argv[++i]));
    } else if (arg == "--slow_query_us" && i + 1 < argc) {
      options.slow_query_us = std::stoll(argv[++i]);
    } else if (arg == "--help" || arg == "-h") {
      Usage(std::cout);
      return 0;
    } else {
      std::cerr << "xplaind_cluster: unknown argument '" << arg << "'\n";
      return Usage(std::cerr);
    }
  }
  if (shard_list.empty() || partition_csv.empty()) {
    std::cerr << "xplaind_cluster: --shards and --partition are required\n";
    return Usage(std::cerr);
  }

  xplain::Result<std::vector<xplain::cluster::ShardEndpoint>> shards =
      xplain::cluster::ParseShardList(shard_list);
  if (!shards.ok()) {
    std::cerr << "xplaind_cluster: " << shards.status().ToString() << "\n";
    return 1;
  }
  options.shards = *std::move(shards);
  options.partition_attrs = xplain::Split(partition_csv, ',');

  auto coordinator = xplain::cluster::Coordinator::Create(options);
  if (!coordinator.ok()) {
    std::cerr << "xplaind_cluster: " << coordinator.status().ToString()
              << "\n";
    return 1;
  }
  auto server =
      xplain::server::TcpServer::Start(coordinator->get(), tcp);
  if (!server.ok()) {
    std::cerr << "xplaind_cluster: " << server.status().ToString() << "\n";
    return 1;
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::cout << "xplaind_cluster listening on 127.0.0.1:" << (*server)->port()
            << std::endl;

  while (!(*coordinator)->draining() && !g_interrupted.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  (*server)->Stop();
  (*coordinator)->Drain();
  std::cout << "xplaind_cluster drained, exiting" << std::endl;
  return 0;
}
