#ifndef XBENCH_WORKLOADS_H_
#define XBENCH_WORKLOADS_H_

// The benchmark's three workloads (natality_adhoc, dblp_cluster,
// natality_rw) and the metrics a run reports. README.md describes each.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace xbench {

/// One benchmark invocation.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the timed window.
  double seconds = 20.0;
  /// false: the end-to-end run. true: the traced run, which reports the
  /// per-layer metrics.
  bool trace = false;
  /// Where the traced run writes its span file.
  std::string out_dir = ".bench_out";
  /// Test hook: alters one served answer before it is checked, which must
  /// make the run fail.
  bool corrupt_one_answer = false;
  /// Test hook: serves with one worker and no admission queue, so
  /// concurrent requests are refused and counted as failed.
  bool force_refusals = false;
};

/// What one invocation reports.
struct RunResult {
  bool correct = true;
  /// Every request the run sent.
  Tally tally;
  MetricSet metrics;
  /// Why `correct` is false.
  std::vector<std::string> problems;
};

/// (name, unit) of one reported metric.
using MetricSpec = std::pair<std::string, std::string>;

const std::vector<std::string>& WorkloadNames();
/// The metrics of an end-to-end run, in output order.
const std::vector<MetricSpec>& EndToEndMetrics();
/// The metrics of a traced run, in output order.
const std::vector<MetricSpec>& LayerMetrics();

/// Runs `config`. Throws BenchError when the system cannot be set up or
/// driven.
RunResult RunBenchmark(const RunConfig& config);

}  // namespace xbench

#endif  // XBENCH_WORKLOADS_H_
