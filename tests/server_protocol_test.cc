#include "server/protocol.h"

#include <string>

#include <gtest/gtest.h>

#include "cluster/merge.h"
#include "server/json.h"
#include "tests/test_util.h"

namespace xplain {
namespace server {
namespace {

using ::xplain::testing::BuildRunningExample;
using ::xplain::testing::UnwrapOrDie;

constexpr char kExplainLine[] =
    R"x({"id":7,"op":"EXPLAIN","question":{"subqueries":[)x"
    R"x({"name":"q1","agg":"count(distinct Publication.pubid)","where":"venue = 'SIGMOD'"},)x"
    R"x({"name":"q2","agg":"count(distinct Publication.pubid)","where":"venue = 'PODS'"}],)x"
    R"x("expr":"q1 / q2","direction":"low"},)x"
    R"x("attrs":["Author.name","Author.inst"],)x"
    R"x("options":{"top_k":5,"degree":"aggr","use_cube":true}})x";

TEST(JsonTest, ParsesScalarsStringsAndNesting) {
  JsonValue v = UnwrapOrDie(JsonValue::Parse(
      R"x({"a":1.5,"b":"x\nA","c":[true,false,null],"d":{"e":-2}})x"));
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.GetNumber("a", 0), 1.5);
  EXPECT_EQ(v.GetString("b", ""), "x\nA");
  const JsonValue* c = v.Find("c");
  ASSERT_NE(c, nullptr);
  ASSERT_TRUE(c->is_array());
  ASSERT_EQ(c->array_items().size(), 3u);
  EXPECT_TRUE(c->array_items()[0].bool_value());
  EXPECT_TRUE(c->array_items()[2].is_null());
  EXPECT_EQ(v.Find("d")->GetNumber("e", 0), -2.0);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":}").ok());
  EXPECT_FALSE(JsonValue::Parse("{} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
}

TEST(JsonTest, StringEscaping) {
  std::string out;
  AppendJsonString("a\"b\\c\nd\te\x01", &out);
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
}

TEST(JsonTest, NumbersRoundTripShortest) {
  std::string out;
  AppendJsonNumber(2.5, &out);
  EXPECT_EQ(out, "2.5");
  out.clear();
  AppendJsonNumber(3.0, &out);
  EXPECT_EQ(out, "3");
  out.clear();
  AppendJsonNumber(1.0 / 3.0, &out);
  // Must parse back to the exact same double.
  EXPECT_EQ(std::stod(out), 1.0 / 3.0);
}

TEST(ProtocolTest, ParsesFullExplainRequest) {
  Request request = UnwrapOrDie(ParseRequest(kExplainLine));
  EXPECT_EQ(request.id, 7u);
  EXPECT_EQ(request.op, RequestOp::kExplain);
  ASSERT_EQ(request.subqueries.size(), 2u);
  EXPECT_EQ(request.subqueries[0].name, "q1");
  EXPECT_EQ(request.subqueries[1].where, "venue = 'PODS'");
  EXPECT_EQ(request.expr, "q1 / q2");
  EXPECT_EQ(request.direction, "low");
  ASSERT_EQ(request.attrs.size(), 2u);
  EXPECT_EQ(request.attrs[0], "Author.name");
  EXPECT_EQ(request.options.top_k, 5u);
  EXPECT_EQ(request.options.degree, DegreeKind::kAggravation);
  EXPECT_TRUE(request.options.use_cube);
  // The serving default: one engine thread per request.
  EXPECT_EQ(request.options.num_threads, 1);
}

// A client cannot size the engine's thread pool: a wire thread count is
// ignored, and the coordinator's re-serialized shard lines carry none.
// (Parsing only; nothing here starts a thread.)
TEST(ProtocolTest, WireThreadCountIsIgnoredAndNeverSerialized) {
  const std::string line =
      R"x({"id":3,"op":"EXPLAIN","question":{"subqueries":[)x"
      R"x({"name":"q1","agg":"count(*)","where":"venue = 'SIGMOD'"}],)x"
      R"x("expr":"q1","direction":"high"},"attrs":["Author.name"],)x"
      R"x("options":{"top_k":5,"num_threads":100000}})x";
  Request request = UnwrapOrDie(ParseRequest(line));
  EXPECT_EQ(request.options.top_k, 5u);
  EXPECT_EQ(request.options.num_threads, 1);
  const std::string serialized = SerializeRequest(request);
  EXPECT_EQ(serialized.find("num_threads"), std::string::npos) << serialized;
  EXPECT_EQ(UnwrapOrDie(ParseRequest(serialized)).options.num_threads, 1);
}

// The No-Cube evaluator scans U(D) once per candidate cell, so the wire
// cannot select it: use_cube:false is INVALID_ARGUMENT before any work
// starts, and serialized lines never carry the member. (Parsing only.)
TEST(ProtocolTest, WireCannotSelectTheNoCubeEvaluator) {
  std::string line = kExplainLine;
  const std::string on = "\"use_cube\":true";
  line.replace(line.find(on), on.size(), "\"use_cube\":false");
  const Result<Request> rejected = ParseRequest(line);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("use_cube"), std::string::npos);
  const std::string serialized =
      SerializeRequest(UnwrapOrDie(ParseRequest(kExplainLine)));
  EXPECT_EQ(serialized.find("use_cube"), std::string::npos) << serialized;
}

TEST(ProtocolTest, OpIsCaseInsensitiveAndStatsNeedsNoQuestion) {
  Request stats = UnwrapOrDie(ParseRequest(R"x({"id":1,"op":"stats"})x"));
  EXPECT_EQ(stats.op, RequestOp::kStats);
  Request drain = UnwrapOrDie(ParseRequest(R"x({"op":"Drain"})x"));
  EXPECT_EQ(drain.op, RequestOp::kDrain);
  EXPECT_EQ(drain.id, 0u);
}

TEST(ProtocolTest, RejectsStructurallyInvalidRequests) {
  // Every rejection is a Status, never a crash.
  EXPECT_FALSE(ParseRequest("not json").ok());
  EXPECT_FALSE(ParseRequest("[1,2]").ok());
  EXPECT_FALSE(ParseRequest(R"x({"id":1})x").ok());            // no op
  EXPECT_FALSE(ParseRequest(R"x({"op":"FROB"})x").ok());       // unknown op
  EXPECT_FALSE(ParseRequest(R"x({"op":"EXPLAIN"})x").ok());    // no question
  EXPECT_FALSE(
      ParseRequest(R"x({"op":"EXPLAIN","question":{"subqueries":[]}})x").ok());
  EXPECT_FALSE(
      ParseRequest(
          R"x({"op":"EXPLAIN","question":{"subqueries":[{"name":"q1",)x"
          R"x("agg":"count(*)","where":""}],"expr":"q1"}})x")
          .ok());  // missing attrs
  EXPECT_FALSE(
      ParseRequest(
          R"x({"op":"EXPLAIN","question":{"subqueries":[{"name":"q1",)x"
          R"x("agg":"count(*)","where":""}],"expr":"q1","direction":"up"},)x"
          R"x("attrs":["Author.name"]})x")
          .ok());  // bad direction
  EXPECT_FALSE(ParseRequest(
                   R"x({"op":"STATS","id":-3})x")
                   .ok());  // negative id
}

TEST(ProtocolTest, RejectsBadOptionValues) {
  const std::string prefix =
      R"x({"op":"TOPK","question":{"subqueries":[{"name":"q1",)x"
      R"x("agg":"count(*)","where":""}],"expr":"q1"},"attrs":["Author.name"],)x";
  EXPECT_FALSE(ParseRequest(prefix + R"x("options":{"top_k":-1}})x").ok());
  EXPECT_FALSE(ParseRequest(prefix + R"x("options":{"top_k":1.5}})x").ok());
  EXPECT_FALSE(
      ParseRequest(prefix + R"x("options":{"degree":"sideways"}})x").ok());
  EXPECT_FALSE(
      ParseRequest(prefix + R"x("options":{"minimality":"max"}})x").ok());
  EXPECT_FALSE(
      ParseRequest(prefix + R"x("options":{"min_support":-0.5}})x").ok());
  EXPECT_FALSE(ParseRequest(prefix + R"x("options":42})x").ok());
}

// An integer off the wire converts exactly or not at all: a double of
// 2^53 or above, or a non-finite one, is kInvalidArgument, never wrapped or
// rounded to another integer (a DELTA of "rows":[1e300] once deleted row 0;
// 2^53 + 1 parses to the double 2^53).
TEST(ProtocolTest, WireIntegersBeyondTwoToThe53AreRejected) {
  const std::string topk =
      R"x({"op":"TOPK","question":{"subqueries":[{"name":"q1",)x"
      R"x("agg":"count(*)","where":""}],"expr":"q1"},"attrs":["Author.name"],)x";
  auto expect_invalid = [](const std::string& line) {
    const Result<Request> request = ParseRequest(line);
    ASSERT_FALSE(request.ok()) << line;
    EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument) << line;
  };
  for (const std::string bad :
       {"1e300", "1e400", "-1e400", "9007199254740992", "9007199254740993",
        "9007199254740994"}) {
    SCOPED_TRACE(bad);
    expect_invalid(topk + R"x("options":{"top_k":)x" + bad + "}}");
    expect_invalid(topk + R"x("options":{"exact_rescore_pool":)x" + bad +
                   "}}");
    expect_invalid(std::string(R"x({"op":"STATS","expect_version":)x") +
                   bad + "}");
    expect_invalid(std::string(R"x({"op":"STATS","id":)x") + bad + "}");
    expect_invalid(
        std::string(R"x({"op":"DELTA","relation":"Authored","rows":[)x") +
        bad + "]}");
    EXPECT_EQ(
        ExtractRequestId(std::string(R"x({"op":"junk","id":)x") + bad + "}"),
        0u);
  }
  // 2^53 - 1 is the largest integer no other decimal rounds to.
  const Request edge = UnwrapOrDie(ParseRequest(
      R"x({"op":"DELTA","relation":"Authored","id":9007199254740991,)x"
      R"x("rows":[9007199254740991]})x"));
  EXPECT_EQ(edge.id, (uint64_t{1} << 53) - 1);
  EXPECT_EQ(edge.delta_rows, std::vector<uint64_t>{(uint64_t{1} << 53) - 1});
}

// Shard replies take the same checked conversion on the coordinator.
TEST(ProtocolTest, ShardReplyVersionBeyondTwoToThe53IsRejected) {
  auto reply = [](const std::string& version) {
    return std::string(R"x({"id":1,"ok":true,"op":"EXPLAIN","partial":true,)x"
                       R"x("db_version":)x") +
           version +
           R"x(,"additive":true,"cell_additive":true,"u":[1],"cells":[]})x";
  };
  EXPECT_EQ(UnwrapOrDie(cluster::ParsePartialPayload(reply("3"))).db_version,
            3u);
  for (const std::string bad : {"1e300", "1e400", "-1"}) {
    const Result<cluster::ShardPartial> partial =
        cluster::ParsePartialPayload(reply(bad));
    ASSERT_FALSE(partial.ok()) << bad;
    EXPECT_EQ(partial.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(ProtocolTest, ExtractRequestIdIsBestEffort) {
  EXPECT_EQ(ExtractRequestId(R"x({"id":42,"op":"junk"})x"), 42u);
  EXPECT_EQ(ExtractRequestId("completely broken {"), 0u);
  EXPECT_EQ(ExtractRequestId(R"x({"op":"STATS"})x"), 0u);
}

TEST(ProtocolTest, BuildQuestionResolvesAgainstDatabase) {
  Database db = BuildRunningExample();
  Request request = UnwrapOrDie(ParseRequest(kExplainLine));
  UserQuestion question = UnwrapOrDie(BuildQuestion(db, request));
  EXPECT_EQ(question.direction, Direction::kLow);
  // Unknown column in the where clause surfaces as a Status.
  request.subqueries[0].where = "nosuchcol = 1";
  EXPECT_FALSE(BuildQuestion(db, request).ok());
}

TEST(ProtocolTest, BuildQuestionRejectsNonNumericMinMax) {
  Database db = BuildRunningExample();
  Request request = UnwrapOrDie(ParseRequest(kExplainLine));
  for (const char* agg : {"max(Author.name)", "min(Publication.venue)"}) {
    request.subqueries[0].agg = agg;
    const auto question = BuildQuestion(db, request);
    ASSERT_FALSE(question.ok()) << agg;
    EXPECT_EQ(question.status().code(), StatusCode::kInvalidArgument);
  }
  request.subqueries[0].agg = "max(Publication.year)";
  EXPECT_TRUE(BuildQuestion(db, request).ok());
}

TEST(ProtocolTest, ErrorPayloadCarriesCodeAndMessage) {
  const std::string payload =
      ErrorPayload(Status::ResourceExhausted("queue full"));
  EXPECT_EQ(payload,
            "\"ok\":false,\"code\":\"ResourceExhausted\","
            "\"error\":\"queue full\"");
  const std::string response = MakeResponse(9, payload);
  EXPECT_EQ(response.front(), '{');
  EXPECT_EQ(response.back(), '}');
  EXPECT_NE(response.find("\"id\":9"), std::string::npos);
  // The response is itself valid JSON.
  EXPECT_TRUE(JsonValue::Parse(response).ok());
}

TEST(ProtocolTest, CanonicalKeyIsInjectiveAcrossFieldBoundaries) {
  Request a = UnwrapOrDie(ParseRequest(kExplainLine));
  Request b = a;
  EXPECT_EQ(CanonicalRequestKey(a), CanonicalRequestKey(b));
  // Different op, same computation inputs: different key.
  b.op = RequestOp::kTopK;
  EXPECT_NE(CanonicalRequestKey(a), CanonicalRequestKey(b));
  // Options that change the result change the key.
  b = a;
  b.options.top_k = 6;
  EXPECT_NE(CanonicalRequestKey(a), CanonicalRequestKey(b));
  b = a;
  b.options.use_cube = false;
  EXPECT_NE(CanonicalRequestKey(a), CanonicalRequestKey(b));
  // num_threads does not affect results (DESIGN.md §6) so it is excluded.
  b = a;
  b.options.num_threads = 8;
  EXPECT_EQ(CanonicalRequestKey(a), CanonicalRequestKey(b));
  // Field shuffling cannot collide: moving a suffix of one field into the
  // next field produces a different key thanks to length prefixes.
  b = a;
  b.subqueries[0].name = "q1x";
  Request c = a;
  c.subqueries[0].agg = "x" + c.subqueries[0].agg;
  EXPECT_NE(CanonicalRequestKey(b), CanonicalRequestKey(c));
}

TEST(ProtocolTest, ParsesClusterMembers) {
  Request request = UnwrapOrDie(ParseRequest(
      R"x({"id":1,"op":"EXPLAIN","partial":true,"expect_version":42,)x"
      R"x("question":{"subqueries":[{"name":"q1","agg":"count(*)",)x"
      R"x("where":""}],"expr":"q1","direction":"high"},)x"
      R"x("attrs":["Author.name"]})x"));
  EXPECT_TRUE(request.partial);
  EXPECT_TRUE(request.has_expect_version);
  EXPECT_EQ(request.expect_version, 42u);

  // partial and rescore_cells are mutually exclusive.
  EXPECT_FALSE(
      ParseRequest(
          R"x({"id":1,"op":"EXPLAIN","partial":true,)x"
          R"x("rescore_cells":[[null]],)x"
          R"x("question":{"subqueries":[{"name":"q1","agg":"count(*)",)x"
          R"x("where":""}],"expr":"q1","direction":"high"},)x"
          R"x("attrs":["Author.name"]})x")
          .ok());

  Request stats = UnwrapOrDie(
      ParseRequest(R"x({"id":2,"op":"STATS","schema":true})x"));
  EXPECT_TRUE(stats.want_schema);
}

TEST(ProtocolTest, SerializeRequestRoundTripsFieldForField) {
  Request request = UnwrapOrDie(ParseRequest(kExplainLine));
  request.partial = true;
  request.has_expect_version = true;
  request.expect_version = 7;
  request.has_trace = true;
  request.trace_id = 0x1234;
  request.trace_sampled = true;
  Tuple cell(2);
  cell[0] = Value::Str("JG");
  cell[1] = Value::Null();
  request.partial = false;  // rescore_cells excludes partial
  request.rescore_cells = {cell};

  const std::string line = SerializeRequest(request);
  Request round = UnwrapOrDie(ParseRequest(line));
  EXPECT_EQ(round.id, request.id);
  EXPECT_EQ(round.op, request.op);
  EXPECT_EQ(round.expr, request.expr);
  EXPECT_EQ(round.direction, request.direction);
  EXPECT_EQ(round.attrs, request.attrs);
  ASSERT_EQ(round.subqueries.size(), request.subqueries.size());
  for (size_t i = 0; i < round.subqueries.size(); ++i) {
    EXPECT_EQ(round.subqueries[i].name, request.subqueries[i].name);
    EXPECT_EQ(round.subqueries[i].agg, request.subqueries[i].agg);
    EXPECT_EQ(round.subqueries[i].where, request.subqueries[i].where);
  }
  EXPECT_EQ(round.partial, request.partial);
  EXPECT_EQ(round.has_expect_version, request.has_expect_version);
  EXPECT_EQ(round.expect_version, request.expect_version);
  EXPECT_EQ(round.has_trace, request.has_trace);
  EXPECT_EQ(round.trace_id, request.trace_id);
  EXPECT_EQ(round.trace_sampled, request.trace_sampled);
  ASSERT_EQ(round.rescore_cells.size(), 1u);
  EXPECT_EQ(round.rescore_cells[0], cell);
  // Serialization is deterministic (and covers the options block): a second
  // round trip is byte-identical.
  EXPECT_EQ(SerializeRequest(round), line);
}

TEST(ProtocolTest, WireValuesRoundTripEveryTypeInjectively) {
  const std::vector<Value> values = {
      Value::Null(),        Value::Bool(true),      Value::Bool(false),
      Value::Int(0),        Value::Int(-7),         Value::Int(1),
      Value::Real(1.0),     Value::Real(-0.25),     Value::Str(""),
      Value::Str("1"),      Value::Str("P1"),       Value::Str("a\"b\n")};
  for (const Value& value : values) {
    std::string out;
    AppendWireValue(value, &out);
    JsonValue json = UnwrapOrDie(JsonValue::Parse(out));
    const Value round = UnwrapOrDie(ParseWireValue(json));
    EXPECT_TRUE(round.Equals(value)) << out;
    EXPECT_EQ(round.type(), value.type()) << out;
  }
  // Int64 1 and double 1.0 must not collide on the wire (the type tag).
  std::string as_int, as_dbl;
  AppendWireValue(Value::Int(1), &as_int);
  AppendWireValue(Value::Real(1.0), &as_dbl);
  EXPECT_NE(as_int, as_dbl);
}

TEST(ProtocolTest, CanonicalKeySeparatesPartialFromFull) {
  Request a = UnwrapOrDie(ParseRequest(kExplainLine));
  Request b = a;
  b.partial = true;
  EXPECT_NE(CanonicalRequestKey(a), CanonicalRequestKey(b));
}

}  // namespace
}  // namespace server
}  // namespace xplain
