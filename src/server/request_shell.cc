#include "server/request_shell.h"

#include <utility>

#include "server/json.h"
#include "util/logging.h"

namespace xplain {
namespace server {

namespace {

/// Per-thread trace buffer cap a sampling daemon runs under: always-on
/// sampling must not grow memory without bound (DESIGN.md §12).
constexpr size_t kSamplingEventCap = 1u << 16;

}  // namespace

LineService::LineService(const ShellConfig& config)
    : config_(config),
      flight_(config.flight_capacity, config.slow_query_us),
      pool_(std::make_unique<ThreadPool>(config.num_workers)) {
  admission_capacity_ =
      static_cast<size_t>(pool_->num_threads()) + config_.max_queue_depth;
  if (config_.trace_sample_period > 0) {
    // Sampling implies collection: bound the per-thread buffers so an
    // always-sampling daemon runs in fixed trace memory.
    Trace::SetPerThreadEventCap(kSamplingEventCap);
    Trace::Enable();
  }
}

LineService::~LineService() = default;

void LineService::StopWorkers() {
  Drain();
  // Workers capture `this`; join them before any member is destroyed.
  pool_->Shutdown();
}

std::string LineService::HandleLine(const std::string& line) {
  return SubmitLine(line).get();
}

std::future<std::string> LineService::SubmitLine(const std::string& line) {
  auto promise = std::make_shared<std::promise<std::string>>();
  std::future<std::string> future = promise->get_future();
  SubmitLineWith(line, [promise](std::string response) {
    promise->set_value(std::move(response));
  });
  return future;
}

bool LineService::Prepare(const Request& /*request*/,
                          FlightRecord* /*record*/, std::string* /*payload*/,
                          std::string* /*carry*/) {
  return false;
}

void LineService::SubmitLineWith(const std::string& line,
                                 std::function<void(std::string)> done) {
  // Dispatch timestamp: feeds both the flight record and (when sampled)
  // the rpc.dispatch span, so it is read unconditionally.
  const int64_t arrive_us = Trace::NowMicros();
  config_.metrics.requests->Increment();
  {
    MutexLock lock(&mu_);
    ++received_;
  }

  Result<Request> parsed = ParseRequest(line);
  if (!parsed.ok()) {
    config_.metrics.parse_errors->Increment();
    {
      MutexLock lock(&mu_);
      ++errors_;
    }
    done(
        MakeResponse(ExtractRequestId(line), ErrorPayload(parsed.status())));
    return;
  }
  const Request& request = *parsed;

  // From here on every span (and the worker's, which re-installs the same
  // context) carries the request's trace identity — or records nothing
  // when the request is unsampled.
  const TraceContext trace_context = ResolveTrace(request);
  TraceContextScope trace_scope(trace_context);
  Trace::RecordManual("rpc.dispatch", arrive_us, Trace::NowMicros());

  switch (request.op) {
    // Meta ops answer before the flight-record skeleton exists, so FLIGHT
    // polling can never flood the ring it is inspecting.
    case RequestOp::kStats: {
      XPLAIN_TRACE_SPAN("rpc.stats");
      done(MakeResponse(request.id, StatsPayload(request.want_schema)));
      return;
    }
    case RequestOp::kMetrics: {
      XPLAIN_TRACE_SPAN("rpc.metrics");
      done(MakeResponse(request.id, MetricsPayload()));
      return;
    }
    case RequestOp::kFlight: {
      XPLAIN_TRACE_SPAN("rpc.flight");
      done(MakeResponse(request.id, flight_.DumpPayload()));
      return;
    }
    case RequestOp::kDrain: {
      XPLAIN_TRACE_SPAN("rpc.drain");
      Drain();
      done(MakeResponse(request.id, StatsPayload(false)));
      return;
    }
    default:
      break;
  }

  FlightRecord record;
  record.request_id = request.id;
  record.trace_id = trace_context.sampled ? trace_context.trace_id : 0;
  record.op = request.op;
  record.start_us = arrive_us;

  if (draining()) {
    const Status unavailable =
        Status::Unavailable(std::string(config_.role) + " is draining");
    record.code = unavailable.code();
    CompleteRequest(std::move(record), done,
                    MakeResponse(request.id, ErrorPayload(unavailable)));
    return;
  }

  if (request.op == RequestOp::kDelta) {
    const int64_t execute_start_us = Trace::NowMicros();
    std::string payload = Delta(request, &record);
    record.execute_us = Trace::NowMicros() - execute_start_us;
    CompleteRequest(std::move(record), done,
                    MakeResponse(request.id, std::move(payload)));
    return;
  }

  std::string payload;
  std::string carry;
  if (Prepare(request, &record, &payload, &carry)) {
    CompleteRequest(std::move(record), done,
                    MakeResponse(request.id, std::move(payload)));
    return;
  }

  if (!Admit(&payload)) {
    record.code = StatusCode::kResourceExhausted;
    CompleteRequest(std::move(record), done,
                    MakeResponse(request.id, std::move(payload)),
                    /*rejected=*/true);
    return;
  }

  const int64_t admit_us = Trace::NowMicros();
  std::future<Status> submitted = pool_->Submit(
      [this, request, carry = std::move(carry), done, trace_context, record,
       admit_us]() mutable {
        TraceContextScope worker_scope(trace_context);
        const int64_t execute_start_us = Trace::NowMicros();
        record.queue_us = execute_start_us - admit_us;
        Trace::RecordManual("rpc.queue_wait", admit_us, execute_start_us);
        std::string result = Execute(request, carry, &record);
        record.execute_us = Trace::NowMicros() - execute_start_us;
        // Completion precedes FinishOne so a Drain() that observed this
        // request as pending only returns once its response was handed
        // off and its flight record landed — a drain-time FLIGHT dump is
        // exact, never missing a just-finished request.
        CompleteRequest(std::move(record), done,
                        MakeResponse(request.id, std::move(result)));
        FinishOne();
        return Status::OK();
      });
  if (!submitted.valid()) {
    // Unreachable with a live pool; keep the contract airtight anyway.
    FinishOne();
    done(MakeResponse(
        request.id, ErrorPayload(Status::Internal("worker pool rejected"))));
  }
}

std::string LineService::MetricsPayload() {
  std::string out =
      "\"ok\":true,\"op\":\"METRICS\","
      "\"content_type\":\"text/plain; version=0.0.4\",\"exposition\":";
  AppendJsonString(MetricsRegistry::Global().PrometheusText(), &out);
  return out;
}

TraceContext LineService::ResolveTrace(const Request& request) {
  TraceContext context;
  if (request.has_trace) {
    context.sampled = request.trace_sampled;
    context.trace_id = request.trace_id;
    if (context.sampled && context.trace_id == 0) {
      context.trace_id = Trace::NextTraceId();
    }
    return context;
  }
  if (config_.trace_sample_period > 0) {
    const uint64_t tick =
        sample_counter_.fetch_add(1, std::memory_order_relaxed);
    context.sampled = tick % config_.trace_sample_period == 0;
    if (context.sampled) context.trace_id = Trace::NextTraceId();
  }
  // Otherwise the default context: process-global recording whenever
  // tracing is enabled (the pre-serving behavior).
  return context;
}

void LineService::CompleteRequest(
    FlightRecord record, const std::function<void(std::string)>& done,
    std::string response, bool rejected) {
  // Count before the handoff: a client that reads its response and then
  // asks for STATS must see its own request counted. Admit already
  // counted its rejections.
  if (!rejected) {
    MutexLock lock(&mu_);
    if (record.code != StatusCode::kOk) {
      ++errors_;
    } else if (record.op != RequestOp::kDelta) {
      ++served_;
    }
  }
  record.bytes = response.size();
  const int64_t flush_start_us = Trace::NowMicros();
  {
    TraceSpan flush_span("rpc.flush");
    done(std::move(response));
  }
  const int64_t end_us = Trace::NowMicros();
  record.flush_us = end_us - flush_start_us;
  Histogram* latency = record.op == RequestOp::kExplain
                           ? config_.metrics.explain_us
                       : record.op == RequestOp::kTopK
                           ? config_.metrics.topk_us
                           : config_.metrics.delta_us;
  latency->Record(static_cast<double>(end_us - record.start_us));
  if (flight_.Record(record)) {
    XPLAIN_LOG(kWarning) << "slow query: role=" << config_.role
                         << " op=" << RequestOpToString(record.op)
                         << " id=" << record.request_id
                         << " trace=" << TraceIdToHex(record.trace_id)
                         << " code=" << StatusCodeToString(record.code)
                         << " cache=" << CacheOutcomeToString(record.cache)
                         << " queue_us=" << record.queue_us
                         << " execute_us=" << record.execute_us
                         << " flush_us=" << record.flush_us
                         << " bytes=" << record.bytes;
  }
}

bool LineService::Admit(std::string* reject_payload) {
  MutexLock lock(&mu_);
  if (pending_ >= admission_capacity_) {
    ++rejected_;
    config_.metrics.rejected->Increment();
    *reject_payload = ErrorPayload(Status::ResourceExhausted(
        "admission queue full (" + std::to_string(admission_capacity_) +
        " requests pending)"));
    return false;
  }
  ++pending_;
  config_.metrics.in_flight->Set(static_cast<double>(pending_));
  return true;
}

void LineService::FinishOne() {
  MutexLock lock(&mu_);
  --pending_;
  config_.metrics.in_flight->Set(static_cast<double>(pending_));
  if (pending_ == 0) idle_cv_.SignalAll();
}

void LineService::Drain() {
  XPLAIN_TRACE_SPAN("rpc.drain_wait");
  // ordering: release — publishes every pre-drain write to transports that
  // acquire-load draining() and observe true.
  draining_.store(true, std::memory_order_release);
  MutexLock lock(&mu_);
  while (pending_ != 0) idle_cv_.Wait(&mu_);
  // Flush the load gauge now that the shell is quiescent.
  config_.metrics.in_flight->Set(0.0);
  XPLAIN_LOG(kInfo) << config_.role << " drained: served=" << served_
                    << " rejected=" << rejected_ << " errors=" << errors_;
}

LineService::Counts LineService::GetCounts() const {
  MutexLock lock(&mu_);
  Counts counts;
  counts.received = received_;
  counts.served = served_;
  counts.rejected = rejected_;
  counts.errors = errors_;
  counts.in_flight = static_cast<int64_t>(pending_);
  return counts;
}

}  // namespace server
}  // namespace xplain
