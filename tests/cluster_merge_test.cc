// Cluster layer unit tests (DESIGN.md §13): shard-map hashing and the
// exactness envelope, hash partitioning of a database, the partial-payload
// wire round trip, and the coordinator-side merge — asserted byte-identical
// to a single node over the union database.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/merge.h"
#include "cluster/partition.h"
#include "cluster/shard_map.h"
#include "relational/universal.h"
#include "server/protocol.h"
#include "server/service.h"
#include "tests/test_util.h"

namespace xplain {
namespace cluster {
namespace {

using ::xplain::testing::BuildRunningExample;
using ::xplain::testing::UnwrapOrDie;

TEST(ShardListTest, ParsesHostPortPairs) {
  const auto shards =
      UnwrapOrDie(ParseShardList("127.0.0.1:7411,localhost:80"));
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(shards[0].host, "127.0.0.1");
  EXPECT_EQ(shards[0].port, 7411);
  EXPECT_EQ(shards[1].host, "localhost");
  EXPECT_EQ(shards[1].port, 80);
  EXPECT_EQ(shards[0].ToString(), "127.0.0.1:7411");
}

TEST(ShardListTest, RejectsMalformedEndpoints) {
  EXPECT_FALSE(ParseShardList("").ok());
  EXPECT_FALSE(ParseShardList("127.0.0.1").ok());
  EXPECT_FALSE(ParseShardList("h:0").ok());
  EXPECT_FALSE(ParseShardList("h:99999").ok());
  EXPECT_FALSE(ParseShardList("h:12x").ok());
  EXPECT_FALSE(ParseShardList("h:1,,h:2").ok());
}

TEST(ShardMapTest, HashingIsDeterministicAndTyped) {
  Tuple a(1), b(1);
  a[0] = Value::Str("P1");
  b[0] = Value::Str("P1");
  EXPECT_EQ(HashPartitionKey(a), HashPartitionKey(b));
  b[0] = Value::Str("P2");
  EXPECT_NE(HashPartitionKey(a), HashPartitionKey(b));
  // The type tag keeps 1 (int) and "1" (string) from colliding.
  Tuple i(1), s(1);
  i[0] = Value::Int(1);
  s[0] = Value::Str("1");
  EXPECT_NE(HashPartitionKey(i), HashPartitionKey(s));
}

class ShardMapEnvelopeTest : public ::testing::Test {
 protected:
  void SetUp() override { db_ = BuildRunningExample(); }

  NumericalQuery MakeQuery(const std::string& agg) {
    server::SubquerySpec spec;
    spec.name = "q1";
    spec.agg = agg;
    spec.where = "";
    server::Request request;
    request.op = server::RequestOp::kExplain;
    request.subqueries = {spec};
    request.expr = "q1";
    request.attrs = {"Author.name"};
    return UnwrapOrDie(server::BuildQuestion(db_, request)).query;
  }

  Database db_;
};

TEST_F(ShardMapEnvelopeTest, CountStarAndSumPassAnyPartition) {
  const ShardMap map =
      UnwrapOrDie(ShardMap::Create(db_, {"Author.name"}, 2));
  EXPECT_TRUE(map.CheckQueryEnvelope(MakeQuery("count(*)")).ok());
  EXPECT_TRUE(
      map.CheckQueryEnvelope(MakeQuery("sum(Publication.year)")).ok());
}

TEST_F(ShardMapEnvelopeTest, CountDistinctRequiresThePartitionKey) {
  const ShardMap by_pub =
      UnwrapOrDie(ShardMap::Create(db_, {"Publication.pubid"}, 2));
  EXPECT_TRUE(
      by_pub.CheckQueryEnvelope(MakeQuery("count(distinct Publication.pubid)"))
          .ok());
  const auto rejected =
      by_pub.CheckQueryEnvelope(MakeQuery("count(distinct Author.id)"));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.message().find("double-count"), std::string::npos);
}

TEST_F(ShardMapEnvelopeTest, MinMaxAvgAreOutsideTheEnvelope) {
  const ShardMap map =
      UnwrapOrDie(ShardMap::Create(db_, {"Publication.pubid"}, 2));
  for (const char* agg : {"min(Publication.year)", "max(Publication.year)",
                          "avg(Publication.year)"}) {
    const auto rejected = map.CheckQueryEnvelope(MakeQuery(agg));
    ASSERT_FALSE(rejected.ok()) << agg;
    EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument) << agg;
    EXPECT_NE(rejected.message().find("sum-merge envelope"),
              std::string::npos)
        << agg;
  }
}

TEST(ShardMapTest, RejectsUnknownPartitionAttribute) {
  Database db = BuildRunningExample();
  EXPECT_FALSE(ShardMap::Create(db, {"Nope.attr"}, 2).ok());
  EXPECT_FALSE(ShardMap::Create(db, {}, 2).ok());
  EXPECT_FALSE(ShardMap::Create(db, {"Author.name"}, 0).ok());
}

TEST(PartitionTest, UniversalRowsAreDisjointAndExhaustive) {
  Database db = BuildRunningExample();
  const ShardMap map =
      UnwrapOrDie(ShardMap::Create(db, {"Publication.pubid"}, 2));
  const std::vector<Database> shards =
      UnwrapOrDie(PartitionDatabase(db, map));
  ASSERT_EQ(shards.size(), 2u);

  // Every shard database is referentially intact (UniversalRelation::Build
  // enforces the FK graph) and the universal rows partition the original's.
  const UniversalRelation whole = UnwrapOrDie(UniversalRelation::Build(db));
  size_t total = 0;
  for (const Database& shard : shards) {
    const UniversalRelation part =
        UnwrapOrDie(UniversalRelation::Build(shard));
    total += part.NumRows();
  }
  EXPECT_EQ(total, whole.NumRows());

  // The partition key confines each pubid to exactly one shard.
  const int pub = UnwrapOrDie(db.RelationIndex("Publication"));
  size_t pub_rows = 0;
  for (const Database& shard : shards) pub_rows += shard.relation(pub).NumRows();
  EXPECT_EQ(pub_rows, db.relation(pub).NumRows());
}

// End-to-end over in-process services: partition the running example two
// ways, serve each shard with a real XplaindService, fan an EXPLAIN out as
// partial requests, merge, and compare the final payload byte-for-byte
// with the single-node answer to the same line. count(distinct
// Publication.pubid) is intervention-additive on the running example
// (count(*) is not — the back-and-forth key drags co-author rows into the
// delta), so this exercises the pure merge path with no rescore round.
TEST(MergeTest, MergedExplainIsByteIdenticalToSingleNode) {
  const std::string line =
      "{\"id\":7,\"op\":\"EXPLAIN\",\"question\":{\"subqueries\":["
      "{\"name\":\"q1\",\"agg\":\"count(distinct Publication.pubid)\","
      "\"where\":\"venue = 'SIGMOD'\"},"
      "{\"name\":\"q2\",\"agg\":\"count(distinct Publication.pubid)\","
      "\"where\":\"venue = 'VLDB'\"}],"
      "\"expr\":\"q1 - q2\",\"direction\":\"high\"},"
      "\"attrs\":[\"Author.name\",\"Publication.year\"],"
      "\"options\":{\"top_k\":4}}";

  Database db = BuildRunningExample();
  const std::string single =
      UnwrapOrDie(server::XplaindService::Create(BuildRunningExample()))
          ->HandleLine(line);
  ASSERT_NE(single.find("\"ok\":true"), std::string::npos) << single;

  const server::Request request =
      UnwrapOrDie(server::ParseRequest(line));
  const UserQuestion question =
      UnwrapOrDie(server::BuildQuestion(db, request));
  std::vector<ColumnRef> attributes;
  for (const std::string& name : request.attrs) {
    attributes.push_back(UnwrapOrDie(db.ResolveColumn(name)));
  }

  for (size_t k : {size_t{2}, size_t{3}}) {
    const ShardMap map =
        UnwrapOrDie(ShardMap::Create(db, {"Publication.pubid"}, k));
    std::vector<Database> shard_dbs =
        UnwrapOrDie(PartitionDatabase(db, map));

    server::Request partial_request = request;
    partial_request.partial = true;
    const std::string partial_line =
        server::SerializeRequest(partial_request);

    std::vector<ShardPartial> partials;
    for (size_t s = 0; s < k; ++s) {
      auto service = UnwrapOrDie(
          server::XplaindService::Create(std::move(shard_dbs[s])));
      const std::string response = service->HandleLine(partial_line);
      ASSERT_NE(response.find("\"ok\":true"), std::string::npos) << response;
      ASSERT_NE(response.find("\"partial\":true"), std::string::npos);
      partials.push_back(UnwrapOrDie(ParsePartialPayload(response)));
    }

    const MergedExplain merged = UnwrapOrDie(
        MergePartials(question, attributes, request.options, partials));
    ASSERT_FALSE(merged.need_rescore);
    const std::string clustered = server::MakeResponse(
        request.id, server::ReportPayload(db, merged.report, request.op));
    EXPECT_EQ(clustered, single) << "K=" << k;
  }
}

// min_support must be applied at the coordinator after the global sum — a
// cell below threshold on every shard can clear it globally.
TEST(MergeTest, MinSupportIsAppliedAfterTheGlobalMerge) {
  const std::string line =
      "{\"id\":9,\"op\":\"EXPLAIN\",\"question\":{\"subqueries\":["
      "{\"name\":\"q1\",\"agg\":\"count(distinct Publication.pubid)\","
      "\"where\":\"venue = 'SIGMOD'\"},"
      "{\"name\":\"q2\",\"agg\":\"count(distinct Publication.pubid)\","
      "\"where\":\"venue = 'VLDB'\"}],"
      "\"expr\":\"q1 - q2\",\"direction\":\"high\"},"
      "\"attrs\":[\"Author.name\"],"
      "\"options\":{\"top_k\":4,\"min_support\":2}}";

  Database db = BuildRunningExample();
  const std::string single =
      UnwrapOrDie(server::XplaindService::Create(BuildRunningExample()))
          ->HandleLine(line);
  ASSERT_NE(single.find("\"ok\":true"), std::string::npos) << single;

  const server::Request request = UnwrapOrDie(server::ParseRequest(line));
  const UserQuestion question =
      UnwrapOrDie(server::BuildQuestion(db, request));
  std::vector<ColumnRef> attributes = {
      UnwrapOrDie(db.ResolveColumn("Author.name"))};

  const ShardMap map =
      UnwrapOrDie(ShardMap::Create(db, {"Publication.pubid"}, 2));
  std::vector<Database> shard_dbs = UnwrapOrDie(PartitionDatabase(db, map));

  server::Request partial_request = request;
  partial_request.partial = true;
  const std::string partial_line = server::SerializeRequest(partial_request);

  std::vector<ShardPartial> partials;
  for (size_t s = 0; s < 2; ++s) {
    auto service = UnwrapOrDie(
        server::XplaindService::Create(std::move(shard_dbs[s])));
    partials.push_back(
        UnwrapOrDie(ParsePartialPayload(service->HandleLine(partial_line))));
  }
  const MergedExplain merged = UnwrapOrDie(
      MergePartials(question, attributes, request.options, partials));
  ASSERT_FALSE(merged.need_rescore);
  EXPECT_EQ(server::MakeResponse(
                request.id,
                server::ReportPayload(db, merged.report, request.op)),
            single);
}

TEST(MergeTest, ParsePartialPayloadRejectsNonPartialLines) {
  EXPECT_FALSE(ParsePartialPayload("not json").ok());
  EXPECT_FALSE(ParsePartialPayload("{\"id\":1,\"ok\":true}").ok());
  EXPECT_FALSE(
      ParsePartialPayload("{\"id\":1,\"ok\":false,\"error\":\"x\"}").ok());
}

// A shard's ok:false reply surfaces as the shard's own status, so the
// coordinator's retry logic sees the shard's code.
TEST(MergeTest, ParsersReturnTheShardsOwnStatus) {
  const std::string refused =
      "{\"id\":1,\"ok\":false,\"code\":\"FailedPrecondition\","
      "\"error\":\"db_version moved\"}";
  for (const Status& status : {ParsePartialPayload(refused).status(),
                               ParseRescorePayload(refused).status()}) {
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(status.message(), "db_version moved");
  }
}

TEST(MergeTest, ParseRescorePayloadRoundTripsAndRejectsMalformedReplies) {
  const std::vector<std::vector<double>> values = {{1.0, 2.5}, {0.0, -3.0}};
  EXPECT_EQ(UnwrapOrDie(ParseRescorePayload(server::MakeResponse(
                4, server::RescorePayload(values, 7)))),
            values);
  const char* const malformed[] = {
      "not json",
      "[1]",
      R"x({"id":1,"ok":true,"op":"EXPLAIN","db_version":7})x",
      R"x({"id":1,"ok":true,"rescored":{"a":1}})x",
      R"x({"id":1,"ok":true,"rescored":[[1,2],3]})x",
      R"x({"id":1,"ok":true,"rescored":[[1,"2"]]})x",
      R"x({"id":1,"ok":true,"rescored":[[1,null]]})x",
  };
  for (const char* line : malformed) {
    const Result<std::vector<std::vector<double>>> parsed =
        ParseRescorePayload(line);
    EXPECT_FALSE(parsed.ok()) << line;
  }
  EXPECT_EQ(ParseRescorePayload(malformed[2]).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRescorePayload(malformed[4]).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRescorePayload(malformed[5]).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MergeTest, MergeRejectsMismatchedArity) {
  Database db = BuildRunningExample();
  server::SubquerySpec spec;
  spec.name = "q1";
  spec.agg = "count(*)";
  server::Request request;
  request.op = server::RequestOp::kExplain;
  request.subqueries = {spec};
  request.expr = "q1";
  request.attrs = {"Author.name"};
  const UserQuestion question =
      UnwrapOrDie(server::BuildQuestion(db, request));
  std::vector<ColumnRef> attributes = {
      UnwrapOrDie(db.ResolveColumn("Author.name"))};

  EXPECT_FALSE(
      MergePartials(question, attributes, request.options, {}).ok());
  ShardPartial bad;
  bad.additive = true;
  bad.cell_additive = true;
  bad.u = {1.0, 2.0};  // two subquery originals for a 1-subquery question
  EXPECT_FALSE(
      MergePartials(question, attributes, request.options, {bad}).ok());
}

}  // namespace
}  // namespace cluster
}  // namespace xplain
