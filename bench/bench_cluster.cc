// Cluster scaling: requests/sec through the scatter-gather coordinator
// (DESIGN.md §13) at K = 1, 2, 4 shards, all in-process: the DBLP
// instance is hash-partitioned K ways, each shard served by a real
// xplaind (TcpServer + XplaindService) on an ephemeral port, and the
// coordinator fans the mixed EXPLAIN/TOPK workload out over real TCP.
// Client-observed per-request latency goes into a log2 histogram; each
// record carries p50/p99 microseconds and the speedup over K=1.
//
// Shard caches are left on (the realistic configuration), so the numbers
// are fan-out + merge throughput over warm shards after the unmeasured
// fill pass. Emits BENCH_cluster.json:
//   {"bench": "cluster", "records": [
//     {"workload": "k1", "shards": 1, "requests_per_sec": ...,
//      "p50_us": ..., "p99_us": ..., "speedup_vs_k1": 1.0},
//     {"workload": "k2", ...}, {"workload": "k4", ...}]}

#include <deque>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/coordinator.h"
#include "cluster/partition.h"
#include "cluster/shard_map.h"
#include "datagen/dblp.h"
#include "server/service.h"
#include "server/tcp_client.h"
#include "server/tcp_server.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace {

/// Mixed EXPLAIN/TOPK lines over the DBLP instance, COUNT(*) subqueries so
/// every K is inside the sum-merge envelope regardless of partition key.
std::vector<std::string> MakeRequestLines(int count) {
  std::vector<std::string> lines;
  lines.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int year = 1990 + (i % 16);
    const bool topk = i % 2 == 1;
    const int top_k = 3 + i % 5;
    std::string line = "{\"id\":" + std::to_string(i + 1) + ",\"op\":\"";
    line += topk ? "TOPK" : "EXPLAIN";
    line +=
        "\",\"question\":{\"subqueries\":["
        "{\"name\":\"q1\",\"agg\":\"count(*)\","
        "\"where\":\"venue = 'SIGMOD' AND year >= " +
        std::to_string(year) +
        "\"},"
        "{\"name\":\"q2\",\"agg\":\"count(*)\","
        "\"where\":\"venue = 'PODS' AND year >= " +
        std::to_string(year) +
        "\"}],\"expr\":\"q1 / (q2 + 1)\",\"direction\":\"high\"},"
        "\"attrs\":[\"Author.name\",\"Author.inst\"],"
        "\"options\":{\"top_k\":" +
        std::to_string(top_k) + "}}";
    lines.push_back(std::move(line));
  }
  return lines;
}

void ExitOnErrorResponse(const std::string& response) {
  if (response.find("\"ok\":true") == std::string::npos) {
    std::cerr << "bench error: " << response << std::endl;
    std::exit(1);
  }
}

/// One pipelined client loop against the coordinator's TCP port.
void RunClient(int port, const std::vector<std::string>& lines,
               size_t pipeline, xplain::Histogram* latency_us) {
  using xplain::server::TcpClient;
  TcpClient client = xplain::bench::Unwrap(
      TcpClient::Connect("127.0.0.1", port), "connect");
  std::deque<int64_t> sent_us;
  size_t next = 0;
  size_t done = 0;
  while (done < lines.size()) {
    while (next < lines.size() && next - done < pipeline) {
      sent_us.push_back(xplain::Trace::NowMicros());
      const xplain::Status sent = client.Send(lines[next]);
      if (!sent.ok()) {
        std::cerr << "bench error: " << sent.ToString() << std::endl;
        std::exit(1);
      }
      ++next;
    }
    const std::string response =
        xplain::bench::Unwrap(client.ReadResponse(), "read");
    ExitOnErrorResponse(response);
    latency_us->Record(
        static_cast<double>(xplain::Trace::NowMicros() - sent_us.front()));
    sent_us.pop_front();
    ++done;
  }
}

double RunTcpPass(int port, const std::vector<std::vector<std::string>>& slices,
                  size_t pipeline, xplain::Histogram* latency_us) {
  xplain::Stopwatch watch;
  std::vector<std::thread> threads;
  threads.reserve(slices.size());
  for (const std::vector<std::string>& slice : slices) {
    threads.emplace_back([&slice, port, pipeline, latency_us] {
      RunClient(port, slice, pipeline, latency_us);
    });
  }
  for (std::thread& thread : threads) thread.join();
  return watch.ElapsedMillis();
}

/// One fully in-process K-shard cluster: partitioned databases, K xplaind
/// servers on ephemeral ports, one coordinator in front.
struct Cluster {
  std::vector<std::unique_ptr<xplain::server::XplaindService>> services;
  std::vector<std::unique_ptr<xplain::server::TcpServer>> servers;
  std::unique_ptr<xplain::cluster::Coordinator> coordinator;
  std::unique_ptr<xplain::server::TcpServer> front;

  void Stop() {
    front->Stop();
    coordinator->Drain();
    for (auto& server : servers) server->Stop();
    for (auto& service : services) service->Drain();
  }
};

Cluster StartCluster(const xplain::Database& db, size_t k,
                     const std::string& partition_attr) {
  using xplain::bench::Unwrap;
  Cluster cluster;
  auto map = Unwrap(
      xplain::cluster::ShardMap::Create(db, {partition_attr}, k), "map");
  auto shards =
      Unwrap(xplain::cluster::PartitionDatabase(db, map), "partition");

  xplain::cluster::CoordinatorOptions options;
  options.partition_attrs = {partition_attr};
  for (size_t s = 0; s < k; ++s) {
    auto service = Unwrap(xplain::server::XplaindService::Create(
                              std::move(shards[s]),
                              xplain::server::ServiceOptions{}),
                          "service");
    auto server = Unwrap(
        xplain::server::TcpServer::Start(service.get(),
                                         xplain::server::TcpServerOptions{}),
        "server");
    options.shards.push_back({"127.0.0.1", server->port()});
    cluster.services.push_back(std::move(service));
    cluster.servers.push_back(std::move(server));
  }
  cluster.coordinator =
      Unwrap(xplain::cluster::Coordinator::Create(options), "coordinator");
  cluster.front = Unwrap(
      xplain::server::TcpServer::Start(cluster.coordinator.get(),
                                       xplain::server::TcpServerOptions{}),
      "front");
  return cluster;
}

}  // namespace

int main(int argc, char** argv) {
  using xplain::bench::Fmt;
  using xplain::bench::HistogramPercentile;
  using xplain::bench::JsonReporter;
  using xplain::bench::PrintHeader;
  using xplain::bench::PrintRow;
  using xplain::bench::Unwrap;

  int requests = 48;
  double scale = 0.25;
  int clients = 2;
  int pipeline = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--requests" && i + 1 < argc) {
      requests = std::stoi(argv[++i]);
    } else if (arg == "--scale" && i + 1 < argc) {
      scale = std::stod(argv[++i]);
    } else if (arg == "--clients" && i + 1 < argc) {
      clients = std::max(1, std::stoi(argv[++i]));
    } else if (arg == "--pipeline" && i + 1 < argc) {
      pipeline = std::max(1, std::stoi(argv[++i]));
    }
  }

  xplain::datagen::DblpOptions dblp;
  dblp.scale = scale;
  const xplain::Database db =
      Unwrap(xplain::datagen::GenerateDblp(dblp), "dblp");

  const int total = clients * requests;
  const std::vector<std::string> all = MakeRequestLines(total);
  std::vector<std::vector<std::string>> slices;
  slices.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    slices.emplace_back(all.begin() + c * requests,
                        all.begin() + (c + 1) * requests);
  }

  JsonReporter json("cluster");
  PrintHeader("cluster scatter-gather throughput (" +
              std::to_string(clients) + " clients x " +
              std::to_string(requests) + " requests, pipeline depth " +
              std::to_string(pipeline) + ")");
  PrintRow({"pass", "shards", "wall_ms", "requests_per_sec", "p50_us",
            "p99_us", "speedup_vs_k1"});

  double k1_rps = 0.0;
  for (size_t k : {size_t{1}, size_t{2}, size_t{4}}) {
    Cluster cluster = StartCluster(db, k, "Publication.pubid");
    // Unmeasured fill pass (warms the shard caches), then the measured one.
    xplain::Histogram fill_hist;
    RunTcpPass(cluster.front->port(), slices,
               static_cast<size_t>(pipeline), &fill_hist);
    xplain::Histogram hist;
    const double wall_ms = RunTcpPass(cluster.front->port(), slices,
                                      static_cast<size_t>(pipeline), &hist);
    const double rps = 1000.0 * total / wall_ms;
    if (k == 1) k1_rps = rps;
    const double p50 = HistogramPercentile(hist, 50.0);
    const double p99 = HistogramPercentile(hist, 99.0);
    const double speedup = rps / k1_rps;
    std::string name = "k";
    name += std::to_string(k);
    PrintRow({name, std::to_string(k), Fmt(wall_ms), Fmt(rps, 1),
              Fmt(p50, 0), Fmt(p99, 0), Fmt(speedup, 2)});
    json.AddStats(name, static_cast<int>(k), wall_ms,
                  {{"shards", static_cast<double>(k)},
                   {"clients", static_cast<double>(clients)},
                   {"pipeline", static_cast<double>(pipeline)},
                   {"requests", static_cast<double>(total)},
                   {"requests_per_sec", rps},
                   {"p50_us", p50},
                   {"p99_us", p99},
                   {"speedup_vs_k1", speedup}});
    cluster.Stop();
  }
  return 0;
}
