#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <thread>

#include "server/json.h"

namespace xbench {

void CheckOk(const xplain::Status& status, const std::string& what) {
  if (!status.ok()) throw BenchError(what + ": " + status.ToString());
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(p / 100.0 * n)), 1, n);
  return n - rank;
}

size_t MinSamplesFor(double p, size_t min_beyond) {
  size_t n = 1;
  while (SamplesBeyond(n, p) < min_beyond) ++n;
  return n;
}

ZipfSampler::ZipfSampler(size_t n, double s) {
  cdf_.reserve(n);
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Sample(xplain::Rng* rng) const {
  const double u = rng->NextDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

Outcome ClassifyResponse(const std::string& response) {
  xplain::Result<xplain::server::JsonValue> json =
      xplain::server::JsonValue::Parse(response);
  if (!json.ok() || !json->is_object()) return Outcome::kError;
  const xplain::server::JsonValue* ok = json->Find("ok");
  if (ok != nullptr && ok->is_bool() && ok->bool_value()) return Outcome::kOk;
  const std::string code = json->GetString("code", "");
  if (code == "ResourceExhausted" || code == "Unavailable") {
    return Outcome::kRefused;
  }
  return Outcome::kError;
}

Outcome ClassifyTransportFailure(const xplain::Status& status) {
  // TcpClient reports a recv(2) timeout as kUnavailable with this message;
  // the same code also covers send errors, so the message decides.
  const bool timed_out =
      status.code() == xplain::StatusCode::kUnavailable &&
      status.message().find("timed out") != std::string::npos;
  return timed_out ? Outcome::kTimedOut : Outcome::kRefused;
}

void Tally::Add(Outcome outcome) {
  ++attempted;
  switch (outcome) {
    case Outcome::kOk:
      ++ok;
      break;
    case Outcome::kError:
      ++errors;
      break;
    case Outcome::kRefused:
      ++refused;
      break;
    case Outcome::kTimedOut:
      ++timed_out;
      break;
  }
}

double Tally::ok_ratio() const {
  return attempted == 0 ? 1.0
                        : static_cast<double>(ok) / static_cast<double>(attempted);
}

bool IsValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

bool IsValidUnit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '/' || c == '%' || c == '.' || c == '-';
  });
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  if (!IsValidMetricName(name)) {
    throw BenchError("invalid metric name '" + name + "'");
  }
  if (!IsValidUnit(unit)) {
    throw BenchError("invalid unit '" + unit + "' for " + name);
  }
  if (!std::isfinite(value)) {
    throw BenchError("metric " + name + " is not finite");
  }
  for (const Metric& m : metrics_) {
    if (m.name == name) throw BenchError("metric " + name + " added twice");
  }
  metrics_.push_back({name, value, unit});
}

std::string FormatNumber(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const MetricSet& metrics) {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const MetricSet::Metric& m : metrics.metrics()) {
    if (!first) out += ",";
    first = false;
    xplain::server::AppendJsonString(m.name, &out);
    out += ":{\"value\":" + FormatNumber(m.value) + ",\"unit\":";
    xplain::server::AppendJsonString(m.unit, &out);
    out += "}";
  }
  out += "}}";
  return out;
}

void SpanLog::Record(const std::string& name, uint64_t request,
                     int64_t start_us, int64_t end_us, uint32_t tid) {
  xplain::MutexLock lock(&mu_);
  size_t& kept = kept_[name];
  if (kept >= per_name_cap_) {
    ++dropped_;
    return;
  }
  ++kept;
  spans_.push_back({name, request, start_us, end_us, tid});
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  xplain::MutexLock lock(&mu_);
  return spans_;
}

size_t SpanLog::size() const {
  xplain::MutexLock lock(&mu_);
  return spans_.size();
}

size_t SpanLog::dropped() const {
  xplain::MutexLock lock(&mu_);
  return dropped_;
}

std::string SpanLog::ToChromeJson() const {
  std::vector<Span> all = spans();
  std::stable_sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_us < b.start_us;
  });
  std::string out = "{\"traceEvents\":[";
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (i > 0) out += ",\n";
    out += "{\"name\":";
    xplain::server::AppendJsonString(s.name, &out);
    out += ",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(s.tid);
    out += ",\"ts\":" + std::to_string(s.start_us);
    out += ",\"dur\":" + std::to_string(s.end_us - s.start_us);
    out += ",\"args\":{\"request\":" + std::to_string(s.request) + "}}";
  }
  out += "]}\n";
  return out;
}

void ParallelFor(int threads, size_t count,
                 const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::string> errors(static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      try {
        for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
          fn(i);
        }
      } catch (const std::exception& e) {
        errors[static_cast<size_t>(t)] = e.what();
        next.store(count);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const std::string& error : errors) {
    if (!error.empty()) throw BenchError(error);
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss is in KiB on Linux.
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

double CpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NowSeconds() { return static_cast<double>(NowNanos()) / 1e9; }

}  // namespace xbench
