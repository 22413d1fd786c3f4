// Tests for util/metrics: counter/gauge/histogram semantics, registry
// snapshots, the caching macros, atomicity under concurrent writers (the
// tsan preset runs this file), and the XPLAIN_LOG -> metrics routing.
//
// Metrics are process-global, so every test measures *deltas* against
// values read at test start and uses test-unique metric names.

#include "util/metrics.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/logging.h"

namespace xplain {
namespace {

using internal::GetLogThreshold;
using internal::LogLevel;
using internal::SetLogThreshold;

TEST(CounterTest, IncrementAndValue) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0);
}

TEST(GaugeTest, LastWriterWins) {
  Gauge gauge;
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.Set(3.5);
  gauge.Set(-1.0);
  EXPECT_EQ(gauge.value(), -1.0);
  gauge.Reset();
  EXPECT_EQ(gauge.value(), 0.0);
}

TEST(HistogramTest, MomentsAndBuckets) {
  Histogram hist;
  EXPECT_EQ(hist.count(), 0);
  EXPECT_EQ(hist.mean(), 0.0);
  hist.Record(0.5);  // bucket 0: < 1
  hist.Record(1.0);  // bucket 1: [1, 2)
  hist.Record(3.0);  // bucket 2: [2, 4)
  hist.Record(3.5);  // bucket 2 again
  EXPECT_EQ(hist.count(), 4);
  EXPECT_DOUBLE_EQ(hist.sum(), 8.0);
  EXPECT_DOUBLE_EQ(hist.mean(), 2.0);
  EXPECT_DOUBLE_EQ(hist.max(), 3.5);
  EXPECT_EQ(hist.bucket(0), 1);
  EXPECT_EQ(hist.bucket(1), 1);
  EXPECT_EQ(hist.bucket(2), 2);
  EXPECT_EQ(hist.bucket(3), 0);
}

TEST(HistogramTest, HugeValuesLandInLastBucket) {
  Histogram hist;
  hist.Record(1e300);
  hist.Record(1e300);
  EXPECT_EQ(hist.bucket(Histogram::kNumBuckets - 1), 2);
  EXPECT_DOUBLE_EQ(hist.max(), 1e300);
}

TEST(HistogramTest, ResetZeroesEverything) {
  Histogram hist;
  hist.Record(7.0);
  hist.Reset();
  EXPECT_EQ(hist.count(), 0);
  EXPECT_EQ(hist.sum(), 0.0);
  EXPECT_EQ(hist.max(), 0.0);
  EXPECT_EQ(hist.bucket(3), 0);
}

TEST(MetricsRegistryTest, IsValidName) {
  EXPECT_TRUE(MetricsRegistry::IsValidName("cube.base_cells"));
  EXPECT_TRUE(MetricsRegistry::IsValidName("a"));
  EXPECT_TRUE(MetricsRegistry::IsValidName("log2.x_9"));
  EXPECT_FALSE(MetricsRegistry::IsValidName(""));
  EXPECT_FALSE(MetricsRegistry::IsValidName("Cube.cells"));
  EXPECT_FALSE(MetricsRegistry::IsValidName("cube-cells"));
  EXPECT_FALSE(MetricsRegistry::IsValidName("cube cells"));
}

TEST(MetricsRegistryTest, GettersReturnStablePointers) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* c1 = registry.GetCounter("test.metrics.stable_counter");
  Counter* c2 = registry.GetCounter("test.metrics.stable_counter");
  EXPECT_EQ(c1, c2);
  Gauge* g1 = registry.GetGauge("test.metrics.stable_gauge");
  Gauge* g2 = registry.GetGauge("test.metrics.stable_gauge");
  EXPECT_EQ(g1, g2);
  Histogram* h1 = registry.GetHistogram("test.metrics.stable_hist");
  Histogram* h2 = registry.GetHistogram("test.metrics.stable_hist");
  EXPECT_EQ(h1, h2);
}

TEST(MetricsRegistryTest, SnapshotExpandsHistograms) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.metrics.snap_counter")->Increment(5);
  registry.GetGauge("test.metrics.snap_gauge")->Set(2.5);
  Histogram* hist = registry.GetHistogram("test.metrics.snap_hist");
  hist->Reset();
  hist->Record(10.0);
  hist->Record(30.0);

  std::vector<std::pair<std::string, double>> snapshot = registry.Snapshot();
  auto value_of = [&](const std::string& key) -> double {
    for (const auto& [name, value] : snapshot) {
      if (name == key) return value;
    }
    ADD_FAILURE() << "missing snapshot key " << key;
    return -1.0;
  };
  EXPECT_GE(value_of("test.metrics.snap_counter"), 5.0);
  EXPECT_EQ(value_of("test.metrics.snap_gauge"), 2.5);
  EXPECT_EQ(value_of("test.metrics.snap_hist.count"), 2.0);
  EXPECT_EQ(value_of("test.metrics.snap_hist.sum"), 40.0);
  EXPECT_EQ(value_of("test.metrics.snap_hist.mean"), 20.0);
  EXPECT_EQ(value_of("test.metrics.snap_hist.max"), 30.0);
}

TEST(MetricsRegistryTest, CounterSnapshotExcludesGaugesAndHistograms) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.metrics.delta_counter")->Increment();
  registry.GetGauge("test.metrics.delta_gauge")->Set(1.0);
  registry.GetHistogram("test.metrics.delta_hist")->Record(1.0);
  for (const auto& [name, value] : registry.CounterSnapshot()) {
    EXPECT_EQ(name.find("test.metrics.delta_gauge"), std::string::npos);
    EXPECT_EQ(name.find("test.metrics.delta_hist"), std::string::npos);
  }
}

TEST(MetricsMacroTest, CounterAddMacroAccumulates) {
  Counter* counter =
      MetricsRegistry::Global().GetCounter("test.metrics.macro_counter");
  const int64_t before = counter->value();
  for (int i = 0; i < 10; ++i) XPLAIN_COUNTER_ADD("test.metrics.macro_counter", 2);
  EXPECT_EQ(counter->value() - before, 20);
}

TEST(MetricsMacroTest, GaugeAndHistogramMacros) {
  XPLAIN_GAUGE_SET("test.metrics.macro_gauge", 9.0);
  EXPECT_EQ(MetricsRegistry::Global().GetGauge("test.metrics.macro_gauge")->value(),
            9.0);
  Histogram* hist =
      MetricsRegistry::Global().GetHistogram("test.metrics.macro_hist");
  const int64_t before = hist->count();
  XPLAIN_HISTOGRAM_RECORD("test.metrics.macro_hist", 4.0);
  EXPECT_EQ(hist->count() - before, 1);
}

// The tsan preset runs this: concurrent increments through the macro (which
// also exercises the magic-static call-site cache) must lose no updates.
TEST(MetricsConcurrencyTest, CounterAtomicUnderConcurrentWriters) {
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 10000;
  Counter* counter =
      MetricsRegistry::Global().GetCounter("test.metrics.race_counter");
  const int64_t before = counter->value();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        XPLAIN_COUNTER_ADD("test.metrics.race_counter", 1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->value() - before,
            static_cast<int64_t>(kThreads) * kIncrementsPerThread);
}

TEST(MetricsConcurrencyTest, HistogramMomentsConsistentUnderWriters) {
  constexpr int kThreads = 4;
  constexpr int kRecordsPerThread = 5000;
  Histogram* hist =
      MetricsRegistry::Global().GetHistogram("test.metrics.race_hist");
  hist->Reset();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([hist] {
      for (int i = 0; i < kRecordsPerThread; ++i) hist->Record(2.0);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(hist->count(),
            static_cast<int64_t>(kThreads) * kRecordsPerThread);
  EXPECT_DOUBLE_EQ(hist->sum(), 2.0 * kThreads * kRecordsPerThread);
  EXPECT_DOUBLE_EQ(hist->max(), 2.0);
}

TEST(HistogramPercentileTest, EmptyHistogramIsZero) {
  Histogram hist;
  EXPECT_EQ(HistogramPercentile(hist, 50.0), 0.0);
  EXPECT_EQ(HistogramPercentile(hist, 99.0), 0.0);
}

TEST(HistogramPercentileTest, SingleValueClampsToMax) {
  Histogram hist;
  hist.Record(100.0);
  // One sample in bucket [64, 128): the upper bound is clamped to the
  // observed max, so every percentile lands at or below 100.
  EXPECT_LE(HistogramPercentile(hist, 50.0), 100.0);
  EXPECT_LE(HistogramPercentile(hist, 99.0), 100.0);
  EXPECT_GE(HistogramPercentile(hist, 99.0), 64.0);
}

TEST(HistogramPercentileTest, MedianSitsInTheMiddleBucket) {
  Histogram hist;
  for (int i = 0; i < 100; ++i) hist.Record(10.0);   // bucket [8, 16)
  for (int i = 0; i < 100; ++i) hist.Record(1000.0); // bucket [512, 1024)
  const double p50 = HistogramPercentile(hist, 50.0);
  EXPECT_GE(p50, 8.0);
  EXPECT_LE(p50, 16.0);
  const double p99 = HistogramPercentile(hist, 99.0);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1000.0);  // clamped to observed max
}

TEST(HistogramPercentileTest, PercentileIsMonotoneInP) {
  Histogram hist;
  for (int i = 1; i <= 64; ++i) hist.Record(static_cast<double>(i));
  double previous = -1.0;
  for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const double value = HistogramPercentile(hist, p);
    EXPECT_GE(value, previous) << "p=" << p;
    previous = value;
  }
}

TEST(HistogramPercentileTest, UniformDistributionRoughRanges) {
  Histogram hist;
  for (int i = 1; i <= 1024; ++i) hist.Record(static_cast<double>(i));
  // Log2 buckets bound the error: the p-th percentile of uniform 1..1024
  // is ~10.24*p, and the estimate must stay within the true value's
  // bucket, i.e. within a factor of 2.
  const double p50 = HistogramPercentile(hist, 50.0);
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1024.0);
  const double p99 = HistogramPercentile(hist, 99.0);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1024.0);
  EXPECT_LE(HistogramPercentile(hist, 1.0), 16.0);
}

TEST(HistogramPercentileTest, ClampsOutOfRangePercentiles) {
  Histogram hist;
  hist.Record(4.0);
  EXPECT_GE(HistogramPercentile(hist, -5.0), 0.0);
  EXPECT_LE(HistogramPercentile(hist, 200.0), 4.0);
}

TEST(HistogramPercentileTest, TopBucketClampsToObservedMax) {
  Histogram hist;
  // One huge outlier: p100 must report max(), not the bucket's 2^i bound.
  hist.Record(1e12);
  EXPECT_LE(HistogramPercentile(hist, 100.0), 1e12 + 1.0);
}

TEST(HistogramPercentileTest, SingleValuePercentilesLandInItsBucket) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(10.0);
  // 10 lives in the [8,16) bucket; the upper bound clamps to max()=10.
  for (double p : {1.0, 25.0, 50.0, 99.0}) {
    const double v = HistogramPercentile(h, p);
    EXPECT_GE(v, 8.0) << "p" << p;
    EXPECT_LE(v, 10.0) << "p" << p;
  }
}

TEST(HistogramPercentileTest, PercentilesAreMonotonic) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<double>(i));
  const double p25 = HistogramPercentile(h, 25.0);
  const double p50 = HistogramPercentile(h, 50.0);
  const double p99 = HistogramPercentile(h, 99.0);
  EXPECT_LE(p25, p50);
  EXPECT_LE(p50, p99);
  EXPECT_GT(p99, p50);  // a spread distribution has a strictly larger tail
}

// --- Prometheus text exposition ---------------------------------------------

TEST(PrometheusTextTest, CounterAndGaugeSamples) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.prom.requests")->Increment(7);
  registry.GetGauge("test.prom.depth")->Set(2.5);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# TYPE xplain_test_prom_requests counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("\nxplain_test_prom_requests 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE xplain_test_prom_depth gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("\nxplain_test_prom_depth 2.5\n"), std::string::npos);
}

TEST(PrometheusTextTest, HistogramLadderIsCumulative) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Histogram* hist = registry.GetHistogram("test.prom.lat_us");
  hist->Reset();
  hist->Record(0.5);    // bucket 0: < 1
  hist->Record(3.0);    // bucket 2: [2, 4)
  hist->Record(300.0);  // bucket 9: [256, 512)
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# TYPE xplain_test_prom_lat_us histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("xplain_test_prom_lat_us_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("xplain_test_prom_lat_us_bucket{le=\"4\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("xplain_test_prom_lat_us_bucket{le=\"512\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("xplain_test_prom_lat_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("xplain_test_prom_lat_us_sum 303.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("xplain_test_prom_lat_us_count 3\n"),
            std::string::npos);
}

// Scans every _bucket sample in the whole exposition and asserts the
// cumulative counts never decrease within a family, and that each family's
// +Inf bucket equals its _count (the registry is quiesced here).
TEST(PrometheusTextTest, AllBucketLaddersMonotoneAndConsistent) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Histogram* hist = registry.GetHistogram("test.prom.monotone_us");
  hist->Reset();
  for (int i = 0; i < 50; ++i) hist->Record(static_cast<double>(i * 17));
  const std::string text = registry.PrometheusText();

  std::string family;       // name up to "_bucket{"
  double previous = -1.0;   // last cumulative count in the family
  double inf_value = -1.0;  // the family's +Inf count
  size_t families = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const size_t bucket = line.find("_bucket{le=\"");
    if (bucket != std::string::npos) {
      const std::string name = line.substr(0, bucket);
      if (name != family) {
        family = name;
        previous = -1.0;
        ++families;
      }
      const double value = std::stod(line.substr(line.find("} ") + 2));
      EXPECT_GE(value, previous) << line;
      previous = value;
      if (line.find("le=\"+Inf\"") != std::string::npos) inf_value = value;
      continue;
    }
    const size_t count = line.find("_count ");
    if (count != std::string::npos && line.substr(0, count) == family) {
      EXPECT_EQ(std::stod(line.substr(count + 7)), inf_value) << line;
    }
  }
  EXPECT_GE(families, 1u);
}

// XPLAIN_LOG kWarning/kError statements count into log.warnings /
// log.errors even when the threshold silences the output.
TEST(LogMetricsTest, WarningsAndErrorsRouteToCounters) {
  const LogLevel saved = GetLogThreshold();
  SetLogThreshold(LogLevel::kFatal);  // silence output, keep the counters
  Counter* warnings = MetricsRegistry::Global().GetCounter("log.warnings");
  Counter* errors = MetricsRegistry::Global().GetCounter("log.errors");
  const int64_t warnings_before = warnings->value();
  const int64_t errors_before = errors->value();
  XPLAIN_LOG(kWarning) << "silenced warning";
  XPLAIN_LOG(kError) << "silenced error";
  XPLAIN_LOG(kInfo) << "info is not counted";
  EXPECT_EQ(warnings->value() - warnings_before, 1);
  EXPECT_EQ(errors->value() - errors_before, 1);
  SetLogThreshold(saved);
}

TEST(LogMetricsTest, LogEveryNEmitsFirstAndEveryNth) {
  const LogLevel saved = GetLogThreshold();
  SetLogThreshold(LogLevel::kFatal);
  Counter* warnings = MetricsRegistry::Global().GetCounter("log.warnings");
  const int64_t before = warnings->value();
  for (int i = 0; i < 7; ++i) {
    XPLAIN_LOG_EVERY_N(kWarning, 3) << "occurrence " << i;
  }
  // Occurrences 0, 3, and 6 construct a LogMessage; the rest are one
  // relaxed atomic increment.
  EXPECT_EQ(warnings->value() - before, 3);
  SetLogThreshold(saved);
}

}  // namespace
}  // namespace xplain
