#ifndef XBENCH_HARNESS_H_
#define XBENCH_HARNESS_H_

// Workload-independent helpers of the xplain benchmark: percentiles with
// the tail-support rule, a seeded Zipf sampler, request outcome
// accounting, metric naming and the result line, and the benchmark-side
// span log. Everything here is covered by tests/harness_test.cc.

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "datagen/rng.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace xbench {

/// Set-up or harness failure: the run ends without a result line.
class BenchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The value of `result`, or a BenchError naming `what`.
template <typename T>
T Check(xplain::Result<T> result, const std::string& what) {
  if (!result.ok()) {
    throw BenchError(what + ": " + result.status().ToString());
  }
  return *std::move(result);
}

/// Throws a BenchError naming `what` when `status` is not OK.
void CheckOk(const xplain::Status& status, const std::string& what);

// ---- statistics ----------------------------------------------------------

/// Nearest-rank `p`-th percentile (0 < p <= 100) of `values`, in any
/// order: the smallest sample with at least p % of the samples at or
/// below it. 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

/// Samples strictly above the nearest-rank position of the `p`-th
/// percentile among `n` samples: n - ceil(p/100 * n).
size_t SamplesBeyond(size_t n, double p);

/// The smallest sample count that leaves at least `min_beyond` samples
/// beyond the `p`-th percentile (the "ten samples beyond" rule).
size_t MinSamplesFor(double p, size_t min_beyond);

// ---- request generation --------------------------------------------------

/// Zipf(s) over ranks 0..n-1: P(rank k) proportional to 1/(k+1)^s.
/// Sampling is a binary search over the precomputed CDF, so the same
/// generator state always yields the same rank.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);

  size_t Sample(xplain::Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

// ---- outcome accounting --------------------------------------------------

/// How one attempted request ended.
enum class Outcome { kOk, kError, kRefused, kTimedOut };

/// Classifies one response line: ok:true is kOk, a ResourceExhausted or
/// Unavailable error (admission refusal, draining) is kRefused, any other
/// ok:false line is kError. Client-side timeouts never reach this; the
/// client records them as kTimedOut.
Outcome ClassifyResponse(const std::string& response);

/// Classifies a request that got no response line: a receive timeout is
/// kTimedOut; every other transport failure (send error, peer close, no
/// connection because re-dialing failed) is kRefused.
Outcome ClassifyTransportFailure(const xplain::Status& status);

/// Per-op attempt counts. Every attempted request lands in exactly one
/// bucket, so failed() + ok == attempted.
struct Tally {
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t errors = 0;
  int64_t refused = 0;
  int64_t timed_out = 0;

  void Add(Outcome outcome);
  int64_t failed() const { return errors + refused + timed_out; }
  /// ok / attempted; 1 when nothing was attempted.
  double ok_ratio() const;
};

// ---- metrics and the result line ----------------------------------------

/// True for names of 1..64 characters from [A-Za-z0-9_.-] that start with
/// a letter or digit.
bool IsValidMetricName(const std::string& name);

/// True for units of 1..16 characters from [A-Za-z0-9_/%.-].
bool IsValidUnit(const std::string& unit);

/// An ordered set of named measurements.
class MetricSet {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  /// Adds one metric. Throws BenchError on an invalid or repeated name,
  /// an invalid unit, or a non-finite value.
  void Add(const std::string& name, double value, const std::string& unit);

  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// The benchmark's last output line: {"correct":..,"attempted":..,
/// "failed":..,"metrics":{"<name>":{"value":..,"unit":".."},..}}, numbers
/// with all 17 significant digits.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const MetricSet& metrics);

/// `value` with 17 significant digits (round-trip exact).
std::string FormatNumber(double value);

// ---- benchmark-side spans ------------------------------------------------

/// Spans the benchmark records around its own calls into the program: a
/// name, the request it belongs to, and its interval in steady-clock
/// microseconds. The program's internal spans stay off, so
/// a traced run executes exactly the code an untraced one does. At most
/// `per_name_cap` spans of one name are kept (a cache-hit workload sends
/// millions of requests); later ones are only counted as dropped.
/// Thread-safety: safe — Record may be called from any thread.
class SpanLog {
 public:
  explicit SpanLog(size_t per_name_cap = 50000) : per_name_cap_(per_name_cap) {}

  struct Span {
    std::string name;
    uint64_t request = 0;
    int64_t start_us = 0;
    int64_t end_us = 0;
    uint32_t tid = 0;
  };

  void Record(const std::string& name, uint64_t request, int64_t start_us,
              int64_t end_us, uint32_t tid = 0);
  std::vector<Span> spans() const;
  size_t size() const;
  size_t dropped() const;

  /// Chrome trace-event JSON ("ph":"X" events), openable in Perfetto.
  std::string ToChromeJson() const;

 private:
  const size_t per_name_cap_;
  mutable xplain::Mutex mu_;
  std::vector<Span> spans_ XPLAIN_GUARDED_BY(mu_);
  std::map<std::string, size_t> kept_ XPLAIN_GUARDED_BY(mu_);
  size_t dropped_ XPLAIN_GUARDED_BY(mu_) = 0;
};

/// Nanoseconds on the steady clock (the benchmark's one timebase).
int64_t NowNanos();

/// Runs `f`, records it into `log` (when non-null) under `name`, and
/// returns the elapsed microseconds.
template <typename F>
double TimeSpan(SpanLog* log, const char* name, uint64_t request, F&& f) {
  const int64_t start = NowNanos();
  f();
  const int64_t end = NowNanos();
  if (log != nullptr) log->Record(name, request, start / 1000, end / 1000);
  return static_cast<double>(end - start) / 1e3;
}

// ---- threads -------------------------------------------------------------

/// Runs fn(i) for every i in [0, count) on `threads` threads, joins them
/// all, and rethrows the first failure as a BenchError.
void ParallelFor(int threads, size_t count,
                 const std::function<void(size_t)>& fn);

// ---- process -------------------------------------------------------------

/// Peak resident set of this process so far, in MB (getrusage).
double PeakRssMb();

/// User + system CPU seconds consumed by this process so far.
double CpuSeconds();

/// Seconds on the steady clock.
double NowSeconds();

}  // namespace xbench

#endif  // XBENCH_HARNESS_H_
