#ifndef XPLAIN_BENCH_BENCH_UTIL_H_
#define XPLAIN_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/result.h"
#include "util/stopwatch.h"

namespace xplain {
namespace bench {

template <typename T>
T Unwrap(Result<T> result, const char* what = "") {
  if (!result.ok()) {
    std::cerr << "bench error " << what << ": " << result.status().ToString()
              << std::endl;
    std::exit(1);
  }
  return std::move(result).ValueOrDie();
}

inline void PrintHeader(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

/// Prints one row of a fixed-width table.
inline void PrintRow(const std::vector<std::string>& cells, int width = 14) {
  for (const std::string& cell : cells) {
    std::cout << std::left << std::setw(width) << cell;
  }
  std::cout << "\n";
}

inline std::string Fmt(double v, int precision = 3) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

/// Wall-clock samples of one measured configuration: `min_ms` is the least
/// noisy single sample, `median_ms` the robust central tendency reported as
/// the headline number (a single sample is both).
struct BenchTiming {
  double min_ms = 0.0;
  double median_ms = 0.0;
  std::vector<double> samples_ms;
};

/// Runs `fn` `warmup` times unmeasured (cache/allocator warm-up), then
/// `iterations` measured times, and returns min/median milliseconds.
/// CI uses iterations >= 3 so one descheduled run cannot skew a record.
template <typename Fn>
BenchTiming MeasureMs(Fn&& fn, int iterations = 3, int warmup = 1) {
  for (int i = 0; i < warmup; ++i) fn();
  BenchTiming timing;
  const int n = std::max(iterations, 1);
  timing.samples_ms.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Stopwatch watch;
    fn();
    timing.samples_ms.push_back(watch.ElapsedSeconds() * 1000.0);
  }
  std::vector<double> sorted = timing.samples_ms;
  std::sort(sorted.begin(), sorted.end());
  timing.min_ms = sorted.front();
  const size_t mid = sorted.size() / 2;
  timing.median_ms = sorted.size() % 2 == 1
                         ? sorted[mid]
                         : (sorted[mid - 1] + sorted[mid]) / 2.0;
  return timing;
}

/// Machine-readable companion to the printed tables: collects one record
/// per measured configuration and writes `BENCH_<name>.json` into the
/// working directory. One object per bench binary:
///
///   {"bench": "<name>",
///    "records": [
///      {"workload": "<label>", "threads": <N>, "wall_ms": <X.XXX>}, ...]}
///
/// `threads` is the worker count the measured step actually used (1 for
/// the sequential paths). Construct one reporter at the top of main();
/// the destructor writes the file, or call Write() explicitly to flush
/// early (a second Write is a no-op).
///
/// Thread-safety: externally synchronized -- benches record from main().
class JsonReporter {
 public:
  explicit JsonReporter(std::string name) : name_(std::move(name)) {}
  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;
  ~JsonReporter() { Write(); }

  void Add(const std::string& workload, int threads, double wall_ms) {
    records_.push_back(Record{workload, threads, wall_ms, -1.0, -1.0, {}});
  }

  /// Multi-sample record: wall_ms is the median (headline number), with
  /// wall_ms_min / wall_ms_median emitted alongside.
  void AddTiming(const std::string& workload, int threads,
                 const BenchTiming& timing) {
    records_.push_back(Record{workload, threads, timing.median_ms,
                              timing.min_ms, timing.median_ms, {}});
  }

  /// Record with extra flat stats keys (e.g. QueryStats::ToFlat()) merged
  /// into the record object; keys must not collide with
  /// workload/threads/wall_ms.
  void AddStats(const std::string& workload, int threads, double wall_ms,
                std::vector<std::pair<std::string, double>> stats) {
    records_.push_back(
        Record{workload, threads, wall_ms, -1.0, -1.0, std::move(stats)});
  }

  void Write() {
    if (written_) return;
    written_ = true;
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::cerr << "bench error: cannot write " << path << std::endl;
      return;
    }
    out << "{\n  \"bench\": \"" << Escape(name_) << "\",\n  \"records\": [";
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << (i == 0 ? "" : ",") << "\n    {\"workload\": \""
          << Escape(r.workload) << "\", \"threads\": " << r.threads
          << ", \"wall_ms\": " << Fmt(r.wall_ms);
      if (r.wall_ms_min >= 0.0) {
        out << ", \"wall_ms_min\": " << Fmt(r.wall_ms_min)
            << ", \"wall_ms_median\": " << Fmt(r.wall_ms_median);
      }
      for (const auto& [key, value] : r.stats) {
        out << ", \"" << Escape(key) << "\": " << Fmt(value);
      }
      out << "}";
    }
    out << "\n  ]\n}\n";
    std::cout << "wrote " << path << " (" << records_.size() << " records)\n";
  }

 private:
  struct Record {
    std::string workload;
    int threads;
    double wall_ms;
    double wall_ms_min;     // < 0: single-sample record, keys omitted
    double wall_ms_median;  // < 0: single-sample record, keys omitted
    std::vector<std::pair<std::string, double>> stats;
  };

  static std::string Escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      switch (c) {
        case '"':
          out += "\\\"";
          break;
        case '\\':
          out += "\\\\";
          break;
        case '\n':
          out += "\\n";
          break;
        case '\t':
          out += "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            std::ostringstream os;
            os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
               << static_cast<int>(c);
            out += os.str();
          } else {
            out += c;
          }
      }
    }
    return out;
  }

  std::string name_;
  std::vector<Record> records_;
  bool written_ = false;
};

}  // namespace bench
}  // namespace xplain

#endif  // XPLAIN_BENCH_BENCH_UTIL_H_
