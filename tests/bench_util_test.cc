// Tests for the shared bench helpers: the min/median timing harness and
// the BENCH_<name>.json reporter every paper-figure bench writes.

#include "bench/bench_util.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace xplain {
namespace bench {
namespace {

TEST(MeasureMsTest, RunsWarmupThenMeasuredIterations) {
  int calls = 0;
  BenchTiming timing = MeasureMs([&] { ++calls; }, 5, 2);
  EXPECT_EQ(calls, 7);
  ASSERT_EQ(timing.samples_ms.size(), 5u);
  EXPECT_LE(timing.min_ms, timing.median_ms);
  for (double sample : timing.samples_ms) {
    EXPECT_GE(sample, timing.min_ms);
  }
}

TEST(MeasureMsTest, ClampsToOneMeasuredIteration) {
  int calls = 0;
  BenchTiming timing = MeasureMs([&] { ++calls; }, 0, 0);
  EXPECT_EQ(calls, 1);
  ASSERT_EQ(timing.samples_ms.size(), 1u);
  EXPECT_EQ(timing.min_ms, timing.median_ms);
}

TEST(JsonReporterTest, WritesOneRecordPerCallOnce) {
  const std::string name = "bench_util_test_reporter";
  const std::string path = "BENCH_" + name + ".json";
  {
    JsonReporter json(name);
    json.Add("fig/a\"b", 2, 1.5);
    BenchTiming timing;
    timing.min_ms = 1.0;
    timing.median_ms = 2.0;
    json.AddTiming("fig/timed", 1, timing);
    json.AddStats("fig/stats", 1, 3.0, {{"cube_build_ms", 0.25}});
    json.Write();
    json.Add("fig/late", 1, 9.0);  // after Write: never reaches the file
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  std::remove(path.c_str());
  EXPECT_NE(json.find("\"bench\": \"" + name + "\""), std::string::npos);
  EXPECT_NE(json.find("\"workload\": \"fig/a\\\"b\", \"threads\": 2, "
                      "\"wall_ms\": 1.500}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"wall_ms\": 2.000, \"wall_ms_min\": 1.000, "
                      "\"wall_ms_median\": 2.000}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"cube_build_ms\": 0.250"), std::string::npos) << json;
  EXPECT_EQ(json.find("fig/late"), std::string::npos) << json;
}

}  // namespace
}  // namespace bench
}  // namespace xplain
