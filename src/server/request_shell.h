#ifndef XPLAIN_SERVER_REQUEST_SHELL_H_
#define XPLAIN_SERVER_REQUEST_SHELL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>

#include "server/flight_recorder.h"
#include "server/protocol.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace xplain {
namespace server {

/// The metric handles one role's requests are counted under. The role's
/// own translation unit resolves them, so each exposition family keeps
/// its role namespace (server.* for xplaind, cluster.* for the
/// coordinator) and the shell never branches on the role.
/// Thread-safety: plain data, externally synchronized.
struct ShellMetrics {
  Counter* requests = nullptr;      // every line seen
  Counter* parse_errors = nullptr;  // lines that failed to parse
  Counter* rejected = nullptr;      // admission refusals
  Gauge* in_flight = nullptr;       // admitted, unfinished requests
  /// End-to-end latency (dispatch to response handoff) per counted op.
  Histogram* explain_us = nullptr;
  Histogram* topk_us = nullptr;
  Histogram* delta_us = nullptr;
};

/// How a role sizes and labels the shell it plugs into. Every field comes
/// from the role's own options; the shell adds no knob of its own.
/// Thread-safety: plain data, externally synchronized.
struct ShellConfig {
  /// Role name for log lines and refusal messages ("xplaind").
  const char* role = "xplaind";
  /// Worker threads (0 = ThreadPool::DefaultNumThreads()).
  int num_workers = 0;
  /// Requests allowed to wait beyond the in-flight ones.
  size_t max_queue_depth = 64;
  /// Flight-recorder ring capacity and slow-query threshold.
  size_t flight_capacity = 256;
  int64_t slow_query_us = -1;
  /// Sample one of every N counted requests without a wire trace context
  /// (0 = off; the coordinator passes 0 and only honours wire contexts).
  uint64_t trace_sample_period = 0;
  ShellMetrics metrics;
};

/// The one request shell behind every NDJSON front end (DESIGN.md §8):
/// parse → meta ops (STATS/METRICS/FLIGHT/DRAIN) → drain check →
/// role pre-admission step → bounded admission → worker pool → completion
/// (rpc.flush span, latency histogram, flight record, slow-query log).
/// It owns the worker ThreadPool, the admission counters, drain, trace
/// resolution and the FlightRecorder; XplaindService (single node) and
/// cluster::Coordinator (scatter-gather) derive from it and supply only
/// their own steps through the protected hooks. Transports (loopback,
/// TCP reactors) speak to this class only.
///
/// Lifecycle: every derived destructor calls StopWorkers() first, so no
/// worker runs a hook against a half-destroyed role.
///
/// Thread-safety: safe — SubmitLineWith/SubmitLine/HandleLine/Drain may
/// be called concurrently from any number of transport threads; `done` is
/// invoked exactly once per line, on the caller or on a pool worker, and
/// must not block.
class LineService {
 public:
  virtual ~LineService();

  LineService(const LineService&) = delete;
  LineService& operator=(const LineService&) = delete;

  /// Handles one request line; `done` receives the full response line —
  /// synchronously for parse errors, meta ops, DELTA, draining refusals,
  /// admission rejections and whatever the pre-admission hook answers
  /// (cache hits), otherwise on a pool worker after the execute hook.
  void SubmitLineWith(const std::string& line,
                      std::function<void(std::string)> done);

  /// Future form of SubmitLineWith; the future always becomes ready.
  std::future<std::string> SubmitLine(const std::string& line);

  /// Blocking form: parse, admit, execute, serialize. Never throws —
  /// every failure becomes an error-response line.
  std::string HandleLine(const std::string& line);

  /// Stops admitting EXPLAIN/TOPK/DELTA (they get kUnavailable) and waits
  /// for every admitted request to finish, its flight record included.
  /// Idempotent; safe from any thread except a pool worker, including a
  /// transport thread that just parsed a DRAIN request.
  void Drain();

  /// True once Drain() started; transports use it to stop accepting.
  /// ordering: acquire — pairs with the release store in Drain() so a
  /// transport that observes true also observes every write Drain() made
  /// before flipping the flag.
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// The always-on per-request flight recorder (FLIGHT op, slow-query
  /// pinning; DESIGN.md §12). Stable address for the shell lifetime.
  const FlightRecorder& flight_recorder() const { return flight_; }

 protected:
  explicit LineService(const ShellConfig& config);

  /// The shell's request counters, for the role's Stats.
  /// Thread-safety: plain data, externally synchronized.
  struct Counts {
    int64_t received = 0;  // lines seen
    int64_t served = 0;    // ok EXPLAIN/TOPK responses (incl. hook answers)
    int64_t rejected = 0;  // kResourceExhausted admissions
    int64_t errors = 0;    // error responses other than rejections
    int64_t in_flight = 0;  // admitted, not yet finished
  };
  Counts GetCounts() const;

  /// The metric handles the role configured (its STATS reads them).
  const ShellMetrics& shell_metrics() const { return config_.metrics; }

  /// Drains, then joins the workers. Every derived destructor calls this
  /// before its own members go away. Idempotent.
  void StopWorkers();

  /// Synchronous pre-admission step for EXPLAIN/TOPK, on the transport
  /// thread. Returns true when the role answered the request itself
  /// (`*payload` and `record->code` set) so it takes no worker slot;
  /// otherwise `*carry` (role-defined, e.g. a cache key) travels to
  /// Execute. The default answers nothing.
  virtual bool Prepare(const Request& request, FlightRecord* record,
                       std::string* payload, std::string* carry);

  /// The DELTA step, synchronous on the transport thread: a delta is a
  /// serialized mutation, not pool work. Returns the response payload and
  /// sets `record->code`.
  virtual std::string Delta(const Request& request, FlightRecord* record) = 0;

  /// The worker step of an admitted EXPLAIN/TOPK. Returns the response
  /// payload and sets `record->code` (kOk = served).
  virtual std::string Execute(const Request& request, const std::string& carry,
                              FlightRecord* record) = 0;

  /// The role's STATS payload (also the DRAIN reply).
  virtual std::string StatsPayload(bool want_schema) const = 0;

 private:
  /// Wire trace context wins; else the sampling period picks one of every
  /// N requests; else the default (process-global) context.
  TraceContext ResolveTrace(const Request& request);

  /// Completes one counted request (EXPLAIN/TOPK/DELTA, any outcome):
  /// counts it by `record.code` (`rejected` = Admit already counted it),
  /// hands the response off under the rpc.flush span, records the per-op
  /// latency histogram, and appends the flight record — logging it when
  /// it crossed the slow-query threshold. Runs under the request's
  /// TraceContextScope on whichever thread finished the request.
  void CompleteRequest(FlightRecord record,
                       const std::function<void(std::string)>& done,
                       std::string response, bool rejected = false);

  /// The METRICS payload: the whole registry as Prometheus text
  /// exposition v0.0.4 in the JSON envelope.
  static std::string MetricsPayload();

  /// True when the request was admitted; false = reject (payload set).
  bool Admit(std::string* reject_payload);
  void FinishOne();

  const ShellConfig config_;
  FlightRecorder flight_;
  std::unique_ptr<ThreadPool> pool_;
  size_t admission_capacity_ = 0;

  std::atomic<bool> draining_{false};
  /// Round-robin sampling clock for trace_sample_period (relaxed: exact
  /// one-in-N spacing under contention is not required, only the rate).
  std::atomic<uint64_t> sample_counter_{0};

  mutable Mutex mu_{kMutexRankService};
  CondVar idle_cv_;  // signaled when pending_ hits 0
  /// Admitted, unfinished requests.
  size_t pending_ XPLAIN_GUARDED_BY(mu_) = 0;
  int64_t received_ XPLAIN_GUARDED_BY(mu_) = 0;
  int64_t served_ XPLAIN_GUARDED_BY(mu_) = 0;
  int64_t rejected_ XPLAIN_GUARDED_BY(mu_) = 0;
  int64_t errors_ XPLAIN_GUARDED_BY(mu_) = 0;
};

}  // namespace server
}  // namespace xplain

#endif  // XPLAIN_SERVER_REQUEST_SHELL_H_
