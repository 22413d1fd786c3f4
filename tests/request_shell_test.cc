// Request-shell contract tests (DESIGN.md §8): every NDJSON front end —
// the single-node XplaindService and a K=2 in-process cluster Coordinator —
// parses, refuses, admits, completes and records requests through the one
// shared LineService, so the same assertions must hold for both roles.

#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/coordinator.h"
#include "cluster/partition.h"
#include "cluster/shard_map.h"
#include "server/flight_recorder.h"
#include "server/json.h"
#include "server/service.h"
#include "server/tcp_server.h"
#include "tests/test_util.h"

namespace xplain {
namespace {

using ::xplain::testing::BuildRunningExample;
using ::xplain::testing::UnwrapOrDie;
using server::FlightRecorder;
using server::JsonValue;
using server::LineService;

/// An EXPLAIN both roles answer (count(*) also takes the coordinator's
/// exact-rescore round), optionally carrying a wire trace member.
std::string ExplainLine(uint64_t id, const std::string& trace_member = "") {
  std::string line =
      "{\"id\":" + std::to_string(id) +
      ",\"op\":\"EXPLAIN\",\"question\":{\"subqueries\":["
      "{\"name\":\"q1\",\"agg\":\"count(*)\",\"where\":\"venue = "
      "'SIGMOD'\"},"
      "{\"name\":\"q2\",\"agg\":\"count(*)\",\"where\":\"venue = "
      "'VLDB'\"}],\"expr\":\"q1 - q2\",\"direction\":\"high\"},"
      "\"attrs\":[\"Author.name\",\"Publication.year\"],"
      "\"options\":{\"top_k\":4}}";
  if (!trace_member.empty()) {
    line.pop_back();
    line += ",\"trace\":" + trace_member + "}";
  }
  return line;
}

/// A where-form DELTA that matches no row: counted, but changes nothing.
std::string NoopDeltaLine(uint64_t id) {
  return "{\"id\":" + std::to_string(id) +
         ",\"op\":\"DELTA\",\"relation\":\"Publication\","
         "\"where\":\"year = 1800\"}";
}

enum class Role { kXplaind, kCoordinator };

/// Admission sizing plus the hook that holds a worker inside its execute
/// step (execute_hook for xplaind, fanout_hook for the coordinator).
struct ShellParams {
  int num_workers = 2;
  size_t max_queue_depth = 64;
  int64_t slow_query_us = -1;
  std::function<void()> hold;
};

/// One role behind the shell interface. The coordinator fronts two
/// xplaind shards on ephemeral TCP ports, all in this process.
class RoleUnderTest {
 public:
  RoleUnderTest(Role role, const ShellParams& params) {
    if (role == Role::kXplaind) {
      server::ServiceOptions options;
      options.num_workers = params.num_workers;
      options.max_queue_depth = params.max_queue_depth;
      options.enable_cache = false;  // every EXPLAIN takes a worker slot
      options.slow_query_us = params.slow_query_us;
      options.execute_hook = params.hold;
      service_ = UnwrapOrDie(
          server::XplaindService::Create(BuildRunningExample(), options));
      return;
    }
    constexpr char kPartitionAttr[] = "Publication.pubid";
    Database db = BuildRunningExample();
    const cluster::ShardMap map =
        UnwrapOrDie(cluster::ShardMap::Create(db, {kPartitionAttr}, 2));
    std::vector<Database> shards =
        UnwrapOrDie(cluster::PartitionDatabase(db, map));
    cluster::CoordinatorOptions options;
    options.num_workers = params.num_workers;
    options.max_queue_depth = params.max_queue_depth;
    options.slow_query_us = params.slow_query_us;
    options.fanout_hook = params.hold;
    options.partition_attrs = {kPartitionAttr};
    for (Database& shard_db : shards) {
      auto shard =
          UnwrapOrDie(server::XplaindService::Create(std::move(shard_db)));
      auto tcp = UnwrapOrDie(
          server::TcpServer::Start(shard.get(), server::TcpServerOptions{}));
      options.shards.push_back({"127.0.0.1", tcp->port()});
      shards_.push_back(std::move(shard));
      servers_.push_back(std::move(tcp));
    }
    coordinator_ = UnwrapOrDie(cluster::Coordinator::Create(options));
  }

  ~RoleUnderTest() {
    coordinator_.reset();  // drain fan-outs before the shards go away
    for (auto& tcp : servers_) tcp->Stop();
  }

  LineService* shell() {
    if (service_ != nullptr) return service_.get();
    return coordinator_.get();
  }

  const char* role_name() const {
    return service_ != nullptr ? "xplaind" : "coordinator";
  }

  /// The shell counters, read through each role's public Stats.
  struct Counts {
    int64_t received = 0;
    int64_t served = 0;
    int64_t rejected = 0;
    int64_t errors = 0;
  };
  Counts counts() const {
    if (service_ != nullptr) {
      const auto stats = service_->GetStats();
      return {stats.received, stats.served, stats.rejected, stats.errors};
    }
    const auto stats = coordinator_->GetStats();
    return {stats.received, stats.served, stats.rejected, stats.errors};
  }

 private:
  std::unique_ptr<server::XplaindService> service_;
  std::vector<std::unique_ptr<server::XplaindService>> shards_;
  std::vector<std::unique_ptr<server::TcpServer>> servers_;
  std::unique_ptr<cluster::Coordinator> coordinator_;
};

class RequestShellTest : public ::testing::TestWithParam<Role> {
 protected:
  std::unique_ptr<RoleUnderTest> Start(const ShellParams& params = {}) {
    return std::make_unique<RoleUnderTest>(GetParam(), params);
  }
};

TEST_P(RequestShellTest, MalformedLineGetsErrorWithEchoedId) {
  auto role = Start();
  const std::string bad_op = role->shell()->HandleLine(
      "{\"id\":41,\"op\":\"NOPE\"}");
  EXPECT_NE(bad_op.find("\"ok\":false"), std::string::npos) << bad_op;
  EXPECT_NE(bad_op.find("\"id\":41"), std::string::npos) << bad_op;
  const std::string bad_json = role->shell()->HandleLine("not json");
  EXPECT_NE(bad_json.find("\"ok\":false"), std::string::npos) << bad_json;
  EXPECT_NE(bad_json.find("\"id\":0"), std::string::npos) << bad_json;
  EXPECT_EQ(role->counts().errors, 2);
  EXPECT_EQ(role->counts().received, 2);
  // Parse errors are not counted ops: nothing reaches the flight ring.
  EXPECT_EQ(role->shell()->flight_recorder().Snapshot().total_recorded, 0u);
}

TEST_P(RequestShellTest, NonNumericMinMaxIsAnErrorAndTheServerLivesOn) {
  auto role = Start();
  const std::string refused = role->shell()->HandleLine(
      "{\"id\":51,\"op\":\"EXPLAIN\",\"question\":{\"subqueries\":["
      "{\"name\":\"q1\",\"agg\":\"max(Author.name)\"}],"
      "\"expr\":\"q1\"},\"attrs\":[\"Author.inst\"]}");
  EXPECT_NE(refused.find("\"ok\":false"), std::string::npos) << refused;
  EXPECT_NE(refused.find("\"id\":51"), std::string::npos) << refused;
  EXPECT_NE(refused.find("\"code\":\"InvalidArgument\""),
            std::string::npos)
      << refused;
  const std::string answered = role->shell()->HandleLine(ExplainLine(52));
  EXPECT_NE(answered.find("\"ok\":true"), std::string::npos) << answered;
}

TEST_P(RequestShellTest, DrainThenExplainIsUnavailableAndRecorded) {
  auto role = Start();
  const std::string drained =
      role->shell()->HandleLine("{\"id\":1,\"op\":\"DRAIN\"}");
  EXPECT_NE(drained.find("\"draining\":true"), std::string::npos) << drained;
  EXPECT_TRUE(role->shell()->draining());

  const std::string refused = role->shell()->HandleLine(ExplainLine(2));
  EXPECT_NE(refused.find("\"ok\":false"), std::string::npos) << refused;
  EXPECT_NE(refused.find("Unavailable"), std::string::npos) << refused;
  EXPECT_NE(refused.find("\"id\":2"), std::string::npos) << refused;

  const FlightRecorder::Dump dump =
      role->shell()->flight_recorder().Snapshot();
  ASSERT_EQ(dump.records.size(), 1u);
  EXPECT_EQ(dump.records[0].request_id, 2u);
  EXPECT_EQ(dump.records[0].code, StatusCode::kUnavailable);
  EXPECT_EQ(role->counts().errors, 1);
}

TEST_P(RequestShellTest, AdmissionRejectsExactlyBeyondCapacity) {
  // One worker + queue depth 2 = capacity 3. The hold hook parks the
  // worker inside its execute step, so admission is deterministic.
  std::promise<void> gate;
  std::shared_future<void> gate_future = gate.get_future().share();
  ShellParams params;
  params.num_workers = 1;
  params.max_queue_depth = 2;
  params.hold = [gate_future] { gate_future.wait(); };
  auto role = Start(params);

  constexpr int kBurst = 10;
  std::vector<std::future<std::string>> futures;
  futures.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    futures.push_back(role->shell()->SubmitLine(ExplainLine(100 + i)));
  }
  // Rejections resolve at once, while the admitted three are held.
  int ready = 0;
  for (std::future<std::string>& f : futures) {
    if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      const std::string response = f.get();
      EXPECT_NE(response.find("ResourceExhausted"), std::string::npos)
          << response;
      ++ready;
    }
  }
  EXPECT_EQ(ready, kBurst - 3);
  EXPECT_EQ(role->counts().rejected, kBurst - 3);

  gate.set_value();
  role->shell()->Drain();
  const RoleUnderTest::Counts counts = role->counts();
  EXPECT_EQ(counts.served, 3);
  EXPECT_EQ(counts.rejected, kBurst - 3);
  EXPECT_EQ(counts.errors, 0);
  // Every counted op — admitted or refused — left one flight record.
  EXPECT_EQ(role->shell()->flight_recorder().Snapshot().total_recorded,
            static_cast<uint64_t>(kBurst));
}

TEST_P(RequestShellTest, FlightHoldsOneRecordPerCountedOp) {
  auto role = Start();
  LineService* shell = role->shell();
  for (uint64_t id : {1, 2, 3}) {
    const std::string response = shell->HandleLine(ExplainLine(id));
    EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  }
  // A worker resolves its response before it records the flight entry, so
  // the synchronous DELTA could otherwise record ahead of the last EXPLAIN.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (shell->flight_recorder().Snapshot().total_recorded < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(shell->flight_recorder().Snapshot().total_recorded, 3u);
  const std::string delta = shell->HandleLine(NoopDeltaLine(4));
  EXPECT_NE(delta.find("\"ok\":true"), std::string::npos) << delta;
  // Meta ops and parse errors are not counted ops.
  shell->HandleLine("{\"id\":5,\"op\":\"STATS\"}");
  shell->HandleLine("{\"id\":6,\"op\":\"METRICS\"}");
  shell->HandleLine("{\"id\":7,\"op\":\"FLIGHT\"}");
  shell->HandleLine("{\"id\":8");
  shell->Drain();  // every admitted request's record has landed

  const std::string response =
      shell->HandleLine("{\"id\":9,\"op\":\"FLIGHT\"}");
  auto root = JsonValue::Parse(response);
  ASSERT_TRUE(root.ok()) << root.status().ToString() << "\n" << response;
  EXPECT_TRUE(root->GetBool("ok", false)) << response;
  EXPECT_EQ(root->GetNumber("total_recorded", -1), 4.0) << response;
  const JsonValue* records = root->Find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->array_items().size(), 4u);
  std::vector<std::string> ops;
  for (const JsonValue& record : records->array_items()) {
    EXPECT_EQ(record.GetString("code", ""), "OK") << response;
    EXPECT_GT(record.GetNumber("bytes", 0), 0.0) << response;
    ops.push_back(record.GetString("op", ""));
  }
  EXPECT_EQ(ops, (std::vector<std::string>{"EXPLAIN", "EXPLAIN", "EXPLAIN",
                                           "DELTA"}));
  const RoleUnderTest::Counts counts = role->counts();
  EXPECT_EQ(counts.received, 9);
  EXPECT_EQ(counts.served, 3);  // DELTA is counted, but not "served"
  EXPECT_EQ(counts.errors, 1);  // the truncated line
}

TEST_P(RequestShellTest, MetricsCarriesPrometheusContentType) {
  auto role = Start();
  const std::string metrics =
      role->shell()->HandleLine("{\"id\":3,\"op\":\"METRICS\"}");
  EXPECT_NE(metrics.find("\"ok\":true"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("\"content_type\":\"text/plain; version=0.0.4\""),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("\"exposition\":"), std::string::npos);
}

TEST_P(RequestShellTest, WireTraceIdLandsInFlightRecord) {
  auto role = Start();
  const std::string response = role->shell()->HandleLine(
      ExplainLine(12, "{\"id\":\"a1f\",\"sampled\":true}"));
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  role->shell()->Drain();
  const FlightRecorder::Dump dump =
      role->shell()->flight_recorder().Snapshot();
  ASSERT_EQ(dump.records.size(), 1u);
  EXPECT_EQ(dump.records[0].request_id, 12u);
  EXPECT_EQ(dump.records[0].trace_id, 0xa1fu);
}

TEST_P(RequestShellTest, SlowQueryLineIsTheSameForBothRoles) {
  ShellParams params;
  params.slow_query_us = 0;  // everything is slow: deterministic pinning
  auto role = Start(params);
  ::testing::internal::CaptureStderr();
  const std::string response = role->shell()->HandleLine(
      ExplainLine(21, "{\"id\":\"b2\",\"sampled\":true}"));
  role->shell()->Drain();  // the worker logged before Drain returned
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  const std::string expected_prefix = std::string("slow query: role=") +
                                      role->role_name() +
                                      " op=EXPLAIN id=21 trace=b2 code=OK";
  EXPECT_NE(log.find(expected_prefix), std::string::npos) << log;
  for (const char* field :
       {" cache=", " queue_us=", " execute_us=", " flush_us=", " bytes="}) {
    EXPECT_NE(log.find(field), std::string::npos) << field << "\n" << log;
  }
  EXPECT_EQ(role->shell()->flight_recorder().Snapshot().slow, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    BothRoles, RequestShellTest,
    ::testing::Values(Role::kXplaind, Role::kCoordinator),
    [](const ::testing::TestParamInfo<Role>& info) {
      return info.param == Role::kXplaind ? std::string("Xplaind")
                                          : std::string("Coordinator");
    });

}  // namespace
}  // namespace xplain
