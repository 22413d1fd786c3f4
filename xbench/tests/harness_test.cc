// Self-tests of the benchmark's helpers: percentiles and the tail-support
// rule, seeded generators, outcome accounting, metric naming and the
// result line.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "harness.h"
#include "questions.h"
#include "server/json.h"
#include "util/status.h"
#include "workloads.h"

namespace xbench {
namespace {

TEST(PercentileTest, NearestRank) {
  const std::vector<double> values = {5, 1, 4, 2, 3, 10, 9, 8, 7, 6};
  EXPECT_EQ(Percentile(values, 50.0), 5.0);
  EXPECT_EQ(Percentile(values, 90.0), 9.0);
  EXPECT_EQ(Percentile(values, 100.0), 10.0);
  EXPECT_EQ(Percentile({42.0}, 90.0), 42.0);
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
}

TEST(PercentileTest, TenSamplesBeyondRule) {
  EXPECT_EQ(SamplesBeyond(100, 90.0), 10u);
  EXPECT_EQ(SamplesBeyond(99, 90.0), 9u);
  EXPECT_EQ(MinSamplesFor(90.0, 10), 100u);
  EXPECT_EQ(MinSamplesFor(50.0, 10), 20u);
  EXPECT_EQ(MinSamplesFor(99.0, 10), 1000u);
  for (size_t n = 1; n < 300; ++n) {
    EXPECT_EQ(SamplesBeyond(n, 90.0) >= 10, n >= MinSamplesFor(90.0, 10))
        << n;
  }
}

TEST(ZipfTest, SameSeedSameRanksAndSkew) {
  const ZipfSampler zipf(48, 1.1);
  xplain::Rng a(7);
  xplain::Rng b(7);
  std::vector<size_t> counts(48, 0);
  for (int i = 0; i < 20000; ++i) {
    const size_t rank = zipf.Sample(&a);
    ASSERT_EQ(rank, zipf.Sample(&b));
    ASSERT_LT(rank, 48u);
    ++counts[rank];
  }
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[10]);
  EXPECT_GT(counts[47], 0u);
}

std::vector<std::string> FirstBodies(uint64_t seed, size_t n) {
  NatalityQuestionStream stream(seed);
  std::vector<std::string> bodies;
  for (size_t i = 0; i < n; ++i) bodies.push_back(stream.Next());
  return bodies;
}

TEST(QuestionsTest, NatalityStreamIsSeededAndDistinct) {
  const std::vector<std::string> a = FirstBodies(3, 200);
  const std::vector<std::string> b = FirstBodies(3, 200);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, FirstBodies(4, 200));
  EXPECT_EQ(std::set<std::string>(a.begin(), a.end()).size(), a.size());
  for (const std::string& body : a) {
    ASSERT_TRUE(xplain::server::JsonValue::Parse(MakeLine(1, body)).ok())
        << body;
  }
}

TEST(QuestionsTest, VariantPoolIsSeededAndVariantMajor) {
  const std::vector<std::string> a = NatalityVariantPool(5, 6);
  EXPECT_EQ(a, NatalityVariantPool(5, 6));
  EXPECT_NE(a, NatalityVariantPool(6, 6));
  ASSERT_EQ(a.size(), 48u);
  EXPECT_EQ(std::set<std::string>(a.begin(), a.end()).size(), a.size());
  // Ranks 0-5 are the six questions' EXPLAIN top_k 3 bodies.
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_NE(a[i].find("\"op\":\"EXPLAIN\""), std::string::npos) << a[i];
    EXPECT_NE(a[i].find("\"top_k\":3}"), std::string::npos) << a[i];
  }
  EXPECT_NE(a.back().find("\"op\":\"TOPK\""), std::string::npos);
}

TEST(QuestionsTest, DblpPoolIsSeededAndDistinct) {
  const std::vector<std::string> a = DblpPool(9, 200);
  EXPECT_EQ(a, DblpPool(9, 200));
  EXPECT_NE(a, DblpPool(10, 200));
  EXPECT_EQ(std::set<std::string>(a.begin(), a.end()).size(), a.size());
}

TEST(QuestionsTest, DeltaRowsAreDistinctAndInRange) {
  xplain::Rng a(5);
  xplain::Rng b(5);
  const std::vector<uint64_t> rows = DeltaRowPositions(&a, 1000, 200);
  EXPECT_EQ(rows, DeltaRowPositions(&b, 1000, 200));
  ASSERT_EQ(rows.size(), 200u);
  EXPECT_EQ(std::set<uint64_t>(rows.begin(), rows.end()).size(), 200u);
  EXPECT_LT(rows.back(), 1000u);
  EXPECT_EQ(NatalityDeltaBody({1, 5}),
            "\"op\":\"DELTA\",\"relation\":\"Birth\",\"rows\":[1,5]}");
}

TEST(QuestionsTest, LineAndBodyRoundTrip) {
  const std::string line = MakeLine(17, "\"op\":\"STATS\"}");
  EXPECT_EQ(line, "{\"id\":17,\"op\":\"STATS\"}");
  EXPECT_EQ(BodyOf(line), "\"op\":\"STATS\"}");
  EXPECT_EQ(BodyOf("{\"ok\":true}"), "{\"ok\":true}");
}

TEST(OutcomeTest, ClassifiesResponses) {
  EXPECT_EQ(ClassifyResponse("{\"id\":1,\"ok\":true}"), Outcome::kOk);
  EXPECT_EQ(ClassifyResponse(
                "{\"id\":1,\"ok\":false,\"code\":\"ResourceExhausted\"}"),
            Outcome::kRefused);
  EXPECT_EQ(
      ClassifyResponse("{\"id\":1,\"ok\":false,\"code\":\"Unavailable\"}"),
      Outcome::kRefused);
  EXPECT_EQ(
      ClassifyResponse("{\"id\":1,\"ok\":false,\"code\":\"InvalidArgument\"}"),
      Outcome::kError);
  EXPECT_EQ(ClassifyResponse("not json"), Outcome::kError);
}

TEST(OutcomeTest, ClassifiesTransportFailures) {
  EXPECT_EQ(ClassifyTransportFailure(xplain::Status::Unavailable(
                "recv timed out waiting for a response")),
            Outcome::kTimedOut);
  EXPECT_EQ(ClassifyTransportFailure(
                xplain::Status::Unavailable("send: Broken pipe")),
            Outcome::kRefused);
  EXPECT_EQ(ClassifyTransportFailure(
                xplain::Status::Internal("client is disconnected")),
            Outcome::kRefused);
}

TEST(OutcomeTest, RefusedAndTimedOutCountAsFailed) {
  Tally tally;
  tally.Add(Outcome::kOk);
  tally.Add(Outcome::kOk);
  tally.Add(Outcome::kRefused);
  tally.Add(Outcome::kTimedOut);
  tally.Add(Outcome::kError);
  EXPECT_EQ(tally.attempted, 5);
  EXPECT_EQ(tally.failed(), 3);
  EXPECT_DOUBLE_EQ(tally.ok_ratio(), 0.4);
  EXPECT_EQ(tally.refused, 1);
  EXPECT_EQ(tally.timed_out, 1);
  EXPECT_DOUBLE_EQ(Tally().ok_ratio(), 1.0);
}

TEST(MetricsTest, NameAndUnitValidity) {
  EXPECT_TRUE(IsValidMetricName("read_p50_ms"));
  EXPECT_TRUE(IsValidMetricName("cluster.partial_round_ms"));
  EXPECT_TRUE(IsValidMetricName("9lives-ok"));
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName(".hidden"));
  EXPECT_FALSE(IsValidMetricName("has space"));
  EXPECT_FALSE(IsValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(IsValidUnit("1/s"));
  EXPECT_TRUE(IsValidUnit("%"));
  EXPECT_FALSE(IsValidUnit("way-too-long-unit-x"));
  EXPECT_FALSE(IsValidUnit("m s"));
}

TEST(MetricsTest, EveryDeclaredMetricIsValidAndUnique) {
  std::set<std::string> names;
  for (const auto* list : {&EndToEndMetrics(), &LayerMetrics()}) {
    for (const auto& [name, unit] : *list) {
      EXPECT_TRUE(IsValidMetricName(name)) << name;
      EXPECT_TRUE(IsValidUnit(unit)) << unit;
      EXPECT_TRUE(names.insert(name).second) << name;
    }
  }
}

TEST(MetricsTest, RejectsBadMetrics) {
  MetricSet set;
  set.Add("a", 1.0, "ms");
  EXPECT_THROW(set.Add("a", 2.0, "ms"), BenchError);
  EXPECT_THROW(set.Add("bad name", 2.0, "ms"), BenchError);
  EXPECT_THROW(set.Add("b", 1.0 / 0.0, "ms"), BenchError);
  EXPECT_EQ(set.metrics().size(), 1u);
}

TEST(MetricsTest, ResultLineKeepsEveryDigit) {
  MetricSet set;
  set.Add("latency_ms", 1.2034567891234567, "ms");
  const std::string line = ResultJson(true, 10, 1, set);
  EXPECT_EQ(line,
            "{\"correct\":true,\"attempted\":10,\"failed\":1,\"metrics\":{"
            "\"latency_ms\":{\"value\":1.2034567891234567,\"unit\":\"ms\"}}}");
  EXPECT_TRUE(xplain::server::JsonValue::Parse(line).ok());
}

TEST(SpanLogTest, ChromeJsonParses) {
  SpanLog log;
  TimeSpan(&log, "engine.explain", 3, [] {});
  log.Record("client.rtt", 4, 10, 20, 1);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_TRUE(xplain::server::JsonValue::Parse(log.ToChromeJson()).ok());
}

TEST(SpanLogTest, CapsSpansPerName) {
  SpanLog log(2);
  for (int i = 0; i < 5; ++i) log.Record("client.rtt", i, 0, 1);
  log.Record("engine.explain", 9, 0, 1);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.dropped(), 3u);
}

TEST(ParallelForTest, RunsEveryIndexAndRethrows) {
  std::vector<int> hits(100, 0);
  ParallelFor(4, hits.size(), [&](size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
  EXPECT_THROW(ParallelFor(2, 10,
                           [](size_t i) {
                             if (i == 3) throw BenchError("boom");
                           }),
               BenchError);
}

}  // namespace
}  // namespace xbench
