// xbench: runs one workload of the xplain benchmark and prints its
// metrics, then the result line as the last line of standard output.
//
//   xbench --workload natality_adhoc --seed 1 --seconds 15 --trace 0
//
// Test hooks: --corrupt-one-answer alters one served answer before it is
// checked (the run must report correct:false); --force-refusals serves
// with one worker and no admission queue, so requests get refused and
// ok_ratio drops. Exit code: 0 when every check passed, 1 when a check
// failed (the result line says correct:false), 2 when the run could not
// be set up or driven (no result line).

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

int Usage(const std::string& error) {
  std::cerr << "xbench: " << error << "\n"
            << "usage: xbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>] [--corrupt-one-answer] "
               "[--force-refusals]\nworkloads:";
  for (const std::string& name : xbench::WorkloadNames()) {
    std::cerr << " " << name;
  }
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  xbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        config.workload = value();
      } else if (arg == "--seed") {
        config.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value());
      } else if (arg == "--trace") {
        config.trace = std::stoi(value()) != 0;
      } else if (arg == "--out-dir") {
        config.out_dir = value();
      } else if (arg == "--corrupt-one-answer") {
        config.corrupt_one_answer = true;
      } else if (arg == "--force-refusals") {
        config.force_refusals = true;
      } else {
        return Usage("unknown argument '" + arg + "'");
      }
    } catch (const std::exception&) {
      return Usage("bad value for " + arg);
    }
  }
  if (config.seconds <= 0.0) return Usage("--seconds must be positive");
  if (config.trace) mkdir(config.out_dir.c_str(), 0755);

  xbench::RunResult result;
  try {
    result = xbench::RunBenchmark(config);
  } catch (const std::exception& e) {
    std::cerr << "xbench: " << e.what() << "\n";
    return 2;
  }
  for (const std::string& problem : result.problems) {
    std::cerr << "xbench: check failed: " << problem << "\n";
  }
  std::cout << "workload " << config.workload << " seed " << config.seed
            << (config.trace ? " (traced)" : "") << ": "
            << result.tally.attempted << " requests, " << result.tally.ok
            << " ok, " << result.tally.errors << " errors, "
            << result.tally.refused << " refused, " << result.tally.timed_out
            << " timed out\n";
  for (const xbench::MetricSet::Metric& m : result.metrics.metrics()) {
    std::cout << "  " << m.name << " = " << xbench::FormatNumber(m.value)
              << " " << m.unit << "\n";
  }
  std::cout << xbench::ResultJson(result.correct, result.tally.attempted,
                                  result.tally.failed(), result.metrics)
            << std::endl;
  return result.correct ? 0 : 1;
}
