// Coordinator end-to-end tests (DESIGN.md §13): real xplaind shards on
// ephemeral TCP ports behind a real Coordinator, asserting byte-identity
// with a single node over the union database, structured per-shard
// failure reports (a killed shard is never a hang), version-fence retries
// via the fanout hook, and DELTA routing under the version barrier.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/coordinator.h"
#include "cluster/partition.h"
#include "cluster/shard_map.h"
#include "server/service.h"
#include "server/tcp_server.h"
#include "tests/test_util.h"

namespace xplain {
namespace cluster {
namespace {

using ::xplain::testing::BuildRunningExample;
using ::xplain::testing::UnwrapOrDie;

constexpr char kPartitionAttr[] = "Publication.pubid";

// Mixed ops, attrs spanning two relations. count(*) is not
// intervention-additive on the running example (the back-and-forth key
// drags co-author rows into the delta), so these lines also exercise the
// coordinator's exact-rescore fan-out round.
std::string ExplainLine(uint64_t id, const char* op) {
  return "{\"id\":" + std::to_string(id) + ",\"op\":\"" + op +
         "\",\"question\":{\"subqueries\":["
         "{\"name\":\"q1\",\"agg\":\"count(*)\",\"where\":\"venue = "
         "'SIGMOD'\"},"
         "{\"name\":\"q2\",\"agg\":\"count(*)\",\"where\":\"venue = "
         "'VLDB'\"}],\"expr\":\"q1 - q2\",\"direction\":\"high\"},"
         "\"attrs\":[\"Author.name\",\"Publication.year\"],"
         "\"options\":{\"top_k\":4}}";
}

// count(*) is non-additive here (see above), so this line exact-rescores
// on a single node; Publication-only attrs and WHEREs keep each cell's
// delta and its closure confined to the owning shard, so the rescore
// sum-merges exactly.
std::string RescoredLine(uint64_t id) {
  return "{\"id\":" + std::to_string(id) +
         ",\"op\":\"EXPLAIN\",\"question\":{\"subqueries\":["
         "{\"name\":\"q1\",\"agg\":\"count(*)\","
         "\"where\":\"venue = 'SIGMOD'\"},"
         "{\"name\":\"q2\",\"agg\":\"count(*)\","
         "\"where\":\"venue = 'VLDB'\"}],"
         "\"expr\":\"q1 / (q2 + 1)\",\"direction\":\"high\"},"
         "\"attrs\":[\"Publication.venue\",\"Publication.year\"],"
         "\"options\":{\"top_k\":3}}";
}

/// A fully in-process K-shard cluster over the running example.
struct Cluster {
  std::vector<std::unique_ptr<server::XplaindService>> services;
  std::vector<std::unique_ptr<server::TcpServer>> servers;
  std::unique_ptr<Coordinator> coordinator;

  Cluster() = default;
  Cluster(Cluster&&) = default;
  Cluster& operator=(Cluster&&) = default;
  ~Cluster() {
    coordinator.reset();  // drain fan-outs before the shards go away
    for (auto& server : servers) server->Stop();
    for (auto& service : services) service->Drain();
  }
};

Cluster StartCluster(size_t k, CoordinatorOptions options = {}) {
  Cluster cluster;
  Database db = BuildRunningExample();
  const ShardMap map =
      UnwrapOrDie(ShardMap::Create(db, {kPartitionAttr}, k));
  std::vector<Database> shards = UnwrapOrDie(PartitionDatabase(db, map));
  for (size_t s = 0; s < k; ++s) {
    auto service =
        UnwrapOrDie(server::XplaindService::Create(std::move(shards[s])));
    auto server = UnwrapOrDie(server::TcpServer::Start(
        service.get(), server::TcpServerOptions{}));
    options.shards.push_back({"127.0.0.1", server->port()});
    cluster.services.push_back(std::move(service));
    cluster.servers.push_back(std::move(server));
  }
  options.partition_attrs = {kPartitionAttr};
  cluster.coordinator = UnwrapOrDie(Coordinator::Create(options));
  return cluster;
}

TEST(ClusterCoordinatorTest, ByteIdenticalToSingleNodeAcrossK) {
  auto single =
      UnwrapOrDie(server::XplaindService::Create(BuildRunningExample()));
  for (size_t k : {size_t{1}, size_t{2}, size_t{3}, size_t{4}}) {
    Cluster cluster = StartCluster(k);
    for (uint64_t id : {uint64_t{1}, uint64_t{2}}) {
      for (const char* op : {"EXPLAIN", "TOPK"}) {
        const std::string line = ExplainLine(id, op);
        const std::string expected = single->HandleLine(line);
        ASSERT_NE(expected.find("\"ok\":true"), std::string::npos)
            << expected;
        EXPECT_EQ(cluster.coordinator->HandleLine(line), expected)
            << "K=" << k << " op=" << op;
      }
    }
  }
}

TEST(ClusterCoordinatorTest, ExactRescoreIsByteIdenticalToSingleNode) {
  auto single =
      UnwrapOrDie(server::XplaindService::Create(BuildRunningExample()));
  const std::string line = RescoredLine(11);
  const std::string expected = single->HandleLine(line);
  ASSERT_NE(expected.find("\"ok\":true"), std::string::npos) << expected;
  ASSERT_NE(expected.find("\"exact_rescored\":true"), std::string::npos)
      << expected;
  for (size_t k : {size_t{1}, size_t{2}, size_t{3}, size_t{4}}) {
    Cluster cluster = StartCluster(k);
    EXPECT_EQ(cluster.coordinator->HandleLine(line), expected) << "K=" << k;
  }
}

TEST(ClusterCoordinatorTest, EnvelopeViolationIsAStructuredError) {
  Cluster cluster = StartCluster(2);
  // count(distinct Author.id) partitioned by pubid would double-count.
  const std::string line =
      "{\"id\":5,\"op\":\"EXPLAIN\",\"question\":{\"subqueries\":["
      "{\"name\":\"q1\",\"agg\":\"count(distinct Author.id)\","
      "\"where\":\"\"}],\"expr\":\"q1\",\"direction\":\"high\"},"
      "\"attrs\":[\"Author.name\"]}";
  const std::string response = cluster.coordinator->HandleLine(line);
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
  EXPECT_NE(response.find("double-count"), std::string::npos) << response;
}

TEST(ClusterCoordinatorTest, KilledShardYieldsStructuredErrorNotAHang) {
  CoordinatorOptions options;
  options.fanout_attempts = 2;
  options.retry_backoff_ms = 1;
  options.connect_retry.max_attempts = 1;
  options.client.recv_timeout_ms = 5000;
  Cluster cluster = StartCluster(2, options);

  // Kill shard 1's transport and drain it so its connections drop.
  cluster.servers[1]->Stop();
  cluster.services[1]->Drain();

  const std::string response =
      cluster.coordinator->HandleLine(ExplainLine(21, "EXPLAIN"));
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
  EXPECT_NE(response.find("shard 1"), std::string::npos) << response;
  EXPECT_NE(response.find("fan-out attempts"), std::string::npos) << response;
}

TEST(ClusterCoordinatorTest, VersionFenceTripRetriesAndSucceeds) {
  // The hook fires at the start of every fan-out attempt; on the first one
  // it applies a delta *directly* to shard 0 (bypassing the coordinator),
  // so the fanned-out expect_version is stale, the shard answers
  // kFailedPrecondition, and the coordinator must re-probe and retry.
  CoordinatorOptions options;
  options.retry_backoff_ms = 1;
  Cluster* cluster_ptr = nullptr;
  bool injected = false;
  options.fanout_hook = [&]() {
    if (injected) return;
    injected = true;
    const std::string delta =
        "{\"id\":90,\"op\":\"DELTA\",\"relation\":\"Publication\","
        "\"where\":\"year = 2011\"}";
    for (auto& service : cluster_ptr->services) {
      const std::string response = service->HandleLine(delta);
      ASSERT_NE(response.find("\"ok\":true"), std::string::npos) << response;
    }
  };
  Cluster cluster = StartCluster(2, options);
  cluster_ptr = &cluster;

  const std::string response =
      cluster.coordinator->HandleLine(ExplainLine(22, "EXPLAIN"));
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  EXPECT_TRUE(injected);
  const Coordinator::Stats stats = cluster.coordinator->GetStats();
  EXPECT_GE(stats.fanout_retries, 1);

  // The post-retry answer reflects the delta: identical to a single node
  // that applied the same delta.
  auto single =
      UnwrapOrDie(server::XplaindService::Create(BuildRunningExample()));
  single->HandleLine(
      "{\"id\":91,\"op\":\"DELTA\",\"relation\":\"Publication\","
      "\"where\":\"year = 2011\"}");
  EXPECT_EQ(response, single->HandleLine(ExplainLine(22, "EXPLAIN")));
}

// Extracts the integer "removed" member of a DELTA response.
int64_t RemovedCount(const std::string& response) {
  const size_t at = response.find("\"removed\":");
  if (at == std::string::npos) return -1;
  return std::stoll(response.substr(at + 10));
}

TEST(ClusterCoordinatorTest, DeltaRoutesToOwningShardOnPartitionKeyEq) {
  Cluster cluster = StartCluster(2);
  const std::string delta =
      "{\"id\":31,\"op\":\"DELTA\",\"relation\":\"Publication\","
      "\"where\":\"Publication.pubid = 'P2'\"}";
  const std::string routed = cluster.coordinator->HandleLine(delta);
  EXPECT_NE(routed.find("\"ok\":true"), std::string::npos) << routed;
  EXPECT_NE(routed.find("\"routed\":true"), std::string::npos) << routed;

  // The routed delta removes at least what a single node removes; a shard
  // may additionally drop its replicated copies of dimension rows whose
  // last local reference went away (they survive on other shards). The
  // authoritative check is the follow-up query staying byte-identical.
  auto single =
      UnwrapOrDie(server::XplaindService::Create(BuildRunningExample()));
  const std::string single_delta = single->HandleLine(delta);
  ASSERT_NE(single_delta.find("\"ok\":true"), std::string::npos);
  EXPECT_GE(RemovedCount(routed), RemovedCount(single_delta)) << routed;
  const std::string line = ExplainLine(33, "EXPLAIN");
  EXPECT_EQ(cluster.coordinator->HandleLine(line), single->HandleLine(line));

  // Row-position deltas cannot cross the cluster boundary.
  const std::string rows = cluster.coordinator->HandleLine(
      "{\"id\":32,\"op\":\"DELTA\",\"relation\":\"Publication\","
      "\"rows\":[0]}");
  EXPECT_NE(rows.find("\"ok\":false"), std::string::npos) << rows;
  EXPECT_NE(rows.find("shard-local"), std::string::npos) << rows;
}

TEST(ClusterCoordinatorTest, BroadcastDeltaMatchesSingleNode) {
  Cluster cluster = StartCluster(2);
  const std::string delta =
      "{\"id\":41,\"op\":\"DELTA\",\"relation\":\"Publication\","
      "\"where\":\"year = 2001\"}";
  const std::string response = cluster.coordinator->HandleLine(delta);
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  EXPECT_NE(response.find("\"routed\":false"), std::string::npos) << response;

  auto single =
      UnwrapOrDie(server::XplaindService::Create(BuildRunningExample()));
  const std::string single_delta = single->HandleLine(delta);
  ASSERT_NE(single_delta.find("\"ok\":true"), std::string::npos);
  // Shard-local closure may also drop replicated dimension-row copies, so
  // the cluster count can exceed the single node's; byte-identical queries
  // afterwards are the real invariant.
  EXPECT_GE(RemovedCount(response), RemovedCount(single_delta)) << response;
  const std::string line = ExplainLine(42, "EXPLAIN");
  EXPECT_EQ(cluster.coordinator->HandleLine(line), single->HandleLine(line));
}

TEST(ClusterCoordinatorTest, StatsAndDrain) {
  Cluster cluster = StartCluster(2);
  const std::string stats =
      cluster.coordinator->HandleLine("{\"id\":51,\"op\":\"STATS\"}");
  EXPECT_NE(stats.find("\"cluster\":true"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"shards\":2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"draining\":false"), std::string::npos) << stats;

  const std::string drained =
      cluster.coordinator->HandleLine("{\"id\":52,\"op\":\"DRAIN\"}");
  EXPECT_NE(drained.find("\"draining\":true"), std::string::npos) << drained;
  const std::string refused =
      cluster.coordinator->HandleLine(ExplainLine(53, "EXPLAIN"));
  EXPECT_NE(refused.find("\"ok\":false"), std::string::npos) << refused;
  EXPECT_NE(refused.find("draining"), std::string::npos) << refused;
}

TEST(ClusterCoordinatorTest, BootstrapFailsWhenAShardIsDown) {
  CoordinatorOptions options;
  options.connect_retry.max_attempts = 1;
  options.shards = {{"127.0.0.1", 1}};  // nothing listens on port 1
  options.partition_attrs = {kPartitionAttr};
  const auto coordinator = Coordinator::Create(options);
  ASSERT_FALSE(coordinator.ok());
  EXPECT_NE(coordinator.status().message().find("shard 0"),
            std::string::npos);
}

}  // namespace
}  // namespace cluster
}  // namespace xplain
