#include "server/service.h"

#include <utility>

#include "relational/ddl.h"
#include "server/json.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace xplain {
namespace server {

namespace {

/// The shell sizing and server.* metric handles of one service.
ShellConfig MakeShellConfig(const ServiceOptions& options) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  ShellConfig config;
  config.role = "xplaind";
  config.num_workers = options.num_workers;
  config.max_queue_depth = options.max_queue_depth;
  config.flight_capacity = options.flight_capacity;
  config.slow_query_us = options.slow_query_us;
  config.trace_sample_period = options.trace_sample_period;
  config.metrics.requests = registry.GetCounter("server.requests");
  config.metrics.parse_errors = registry.GetCounter("server.parse_errors");
  config.metrics.rejected = registry.GetCounter("server.rejected");
  config.metrics.in_flight = registry.GetGauge("server.in_flight");
  config.metrics.explain_us = registry.GetHistogram("server.op.explain_us");
  config.metrics.topk_us = registry.GetHistogram("server.op.topk_us");
  config.metrics.delta_us = registry.GetHistogram("server.op.delta_us");
  return config;
}

/// One `"<op>":{"count":N,"p50_us":X,"p99_us":Y}` member of the STATS
/// latency object, from the process-wide per-op histogram.
void AppendOpLatency(const char* key, const Histogram& h, std::string* out) {
  *out += "\"";
  *out += key;
  *out += "\":{\"count\":" + std::to_string(h.count());
  *out += ",\"p50_us\":";
  AppendJsonNumber(HistogramPercentile(h, 50.0), out);
  *out += ",\"p99_us\":";
  AppendJsonNumber(HistogramPercentile(h, 99.0), out);
  *out += "}";
}

/// The FailedPrecondition a version-fenced request gets when this node
/// serves `version` instead of the one it pinned.
Status VersionMismatch(uint64_t version, const Request& request) {
  return Status::FailedPrecondition(
      "database version is " + std::to_string(version) +
      ", request expected " + std::to_string(request.expect_version));
}

}  // namespace

Result<std::unique_ptr<XplaindService>> XplaindService::Create(
    Database db, const ServiceOptions& options) {
  std::unique_ptr<XplaindService> service(
      new XplaindService(std::move(db), options));
  {
    WriterMutexLock lock(&service->db_mu_);
    XPLAIN_ASSIGN_OR_RETURN(ExplainEngine engine,
                            ExplainEngine::Create(&service->db_));
    service->engine_ = std::make_unique<ExplainEngine>(std::move(engine));
  }
  return service;
}

XplaindService::XplaindService(Database db, const ServiceOptions& options)
    : LineService(MakeShellConfig(options)),
      options_(options),
      db_(std::move(db)) {
  if (options_.enable_cache) {
    cache_ = std::make_unique<ExplainCache>(options_.cache);
  }
}

XplaindService::~XplaindService() { StopWorkers(); }

bool XplaindService::Prepare(const Request& request, FlightRecord* record,
                             std::string* payload, std::string* cache_key) {
  record->db_version = db_version();
  // Version fence (DESIGN.md §13): fail fast at dispatch when the client
  // pinned a version this node no longer serves. ExecutePayload rechecks
  // under its lock — this early check only saves the queueing, it is not
  // the authoritative one.
  if (request.has_expect_version &&
      record->db_version != request.expect_version) {
    const Status stale = VersionMismatch(record->db_version, request);
    record->code = stale.code();
    *payload = ErrorPayload(stale);
    return true;
  }
  // Cache lookup happens before admission: hits cost no worker slot. The
  // database version is part of the key, so a stale entry can never match;
  // a version-fenced request passed the fence above, so its key version is
  // the one it pinned. Rescore requests bypass the cache both ways — their
  // answers are per-cell program-P runs the coordinator never repeats
  // against the same version.
  if (cache_ == nullptr || !request.rescore_cells.empty()) return false;
  TraceSpan probe_span("rpc.cache_probe");
  record->cache = FlightRecord::CacheOutcome::kMiss;
  *cache_key = "v=" + std::to_string(record->db_version) + ";" +
               CanonicalRequestKey(request);
  std::optional<std::string> hit = cache_->Lookup(*cache_key);
  if (!hit.has_value()) return false;
  record->cache = FlightRecord::CacheOutcome::kHit;
  *payload = *std::move(hit);
  return true;
}

std::string XplaindService::Execute(const Request& request,
                                    const std::string& cache_key,
                                    FlightRecord* record) {
  if (options_.execute_hook) options_.execute_hook();
  bool ok = false;
  std::shared_ptr<const CacheReadSet> read_set;
  std::string payload = ExecutePayload(request, &ok, &record->code, &read_set);
  if (ok && !cache_key.empty()) {
    cache_->Insert(cache_key, payload, std::move(read_set));
  }
  return payload;
}

std::string XplaindService::ExecutePayload(
    const Request& request, bool* ok, StatusCode* code,
    std::shared_ptr<const CacheReadSet>* read_set) {
  XPLAIN_TRACE_SPAN("rpc.execute");
  const int64_t start_us = Trace::NowMicros();
  *ok = false;
  *code = StatusCode::kOk;
  ReaderMutexLock lock(&db_mu_);
  std::string payload;
  // Authoritative version fence: under the reader lock no delta can commit
  // until this request finishes, so a passing check holds for the whole
  // computation (DESIGN.md §13).
  Result<UserQuestion> question =
      request.has_expect_version && db_.version() != request.expect_version
          ? Result<UserQuestion>(VersionMismatch(db_.version(), request))
          : BuildQuestion(db_, request);
  if (!question.ok()) {
    *code = question.status().code();
    payload = ErrorPayload(question.status());
  } else if (!request.rescore_cells.empty() || request.partial) {
    // Cluster shard paths (DESIGN.md §13): a rescore runs program P per
    // candidate cell; a partial builds the unpruned table-M fragment. Both
    // serialize with this node's db_version so the coordinator can detect
    // torn fan-outs.
    payload = [&]() -> std::string {
      Result<std::vector<ColumnRef>> attrs =
          engine_->ResolveAttributes(request.attrs);
      if (!attrs.ok()) {
        *code = attrs.status().code();
        return ErrorPayload(attrs.status());
      }
      if (!request.rescore_cells.empty()) {
        Result<std::vector<std::vector<double>>> values =
            engine_->RescoreCells(*question, *attrs, request.rescore_cells);
        if (!values.ok()) {
          *code = values.status().code();
          return ErrorPayload(values.status());
        }
        *ok = true;
        TraceSpan serialize_span("rpc.serialize_rescore");
        return RescorePayload(*values, db_.version());
      }
      Result<PartialExplainReport> partial =
          engine_->ExplainPartialResolved(*question, *attrs,
                                          request.options);
      if (!partial.ok()) {
        *code = partial.status().code();
        return ErrorPayload(partial.status());
      }
      *ok = true;
      if (read_set != nullptr) {
        // A partial ships *every* cube cell, so any deletion can change
        // it: always conservative (never survives a delta).
        auto rs = std::make_shared<CacheReadSet>();
        rs->conservative = true;
        *read_set = rs;
      }
      TraceSpan serialize_span("rpc.serialize_partial");
      return PartialReportPayload(*partial, db_.version());
    }();
  } else {
    Result<ExplainReport> report =
        engine_->Explain(*question, request.attrs, request.options);
    if (!report.ok()) {
      *code = report.status().code();
      payload = ErrorPayload(report.status());
    } else {
      TraceSpan serialize_span("rpc.serialize");
      payload = ReportPayload(db_, *report, request.op);
      *ok = true;
      if (read_set != nullptr) {
        // What the answer read: the subquery filters (cube cells and
        // q_j(D) totals are functions of the rows satisfying them). The
        // payload is a pure function of those rows only when every part
        // of it is — which excludes:
        //   - EXPLAIN payloads: "candidates" counts every table-M cell,
        //     and a deletion can erase a cell no filter ever read;
        //   - exact-rescored answers: program P ran over every row;
        //   - min_support > 0: support prunes on whole-cell row counts;
        //   - non-intervention rankings (aggravation of an all-zero cell
        //     is expression-dependent, e.g. 0/0);
        //   - any served degree at or below the no-change degree
        //     sign(dir) * Q(D): a deletion can only erase cells whose
        //     every filter-contribution is zero, and such a cell's
        //     intervention degree is exactly the no-change degree — so
        //     an erased cell can sit in (or pad) the served list iff
        //     some listed degree is <= that floor.
        // Anything impure is marked conservative: it depends on every
        // row and cannot survive any delta (DESIGN.md §10).
        auto rs = std::make_shared<CacheReadSet>();
        for (const AggregateQuery& q : question->query.subqueries()) {
          rs->filters.push_back(q.where);
        }
        bool pure = request.op == RequestOp::kTopK &&
                    !report->exact_rescored &&
                    request.options.degree == DegreeKind::kIntervention &&
                    request.options.min_support <= 0.0;
        const double no_change = InterventionSign(question->direction) *
                                 report->original_value;
        for (const RankedExplanation& ranked : report->explanations) {
          pure = pure && ranked.degree > no_change;
        }
        rs->conservative = !pure;
        *read_set = std::move(rs);
      }
    }
  }
  XPLAIN_HISTOGRAM_RECORD(
      "server.request_us",
      static_cast<double>(Trace::NowMicros() - start_us));
  return payload;
}

XplaindService::Stats XplaindService::GetStats() const {
  const Counts counts = GetCounts();
  Stats stats;
  stats.received = counts.received;
  stats.served = counts.served;
  stats.rejected = counts.rejected;
  stats.errors = counts.errors;
  stats.in_flight = counts.in_flight;
  stats.db_version = db_version();
  if (cache_ != nullptr) stats.cache = cache_->GetStats();
  // Every cache hit is served: the probe is the cache's only lookup.
  stats.cache_hits = stats.cache.hits;
  return stats;
}

std::string XplaindService::StatsPayload(bool want_schema) const {
  const Stats stats = GetStats();
  std::string out = "\"ok\":true,\"op\":\"STATS\",";
  out += "\"db_version\":" + std::to_string(stats.db_version);
  if (want_schema) {
    // Schema DDL for coordinator bootstrap (DESIGN.md §13): round-trips
    // through ParseSchema + CreateDatabase into a rows-free catalog.
    out += ",\"schema\":";
    ReaderMutexLock lock(&db_mu_);
    AppendJsonString(SchemaToDdl(db_), &out);
  }
  out += ",\"received\":" + std::to_string(stats.received);
  out += ",\"served\":" + std::to_string(stats.served);
  out += ",\"cache_hits\":" + std::to_string(stats.cache_hits);
  out += ",\"rejected\":" + std::to_string(stats.rejected);
  out += ",\"errors\":" + std::to_string(stats.errors);
  out += ",\"in_flight\":" + std::to_string(stats.in_flight);
  out += ",\"draining\":";
  out += draining() ? "true" : "false";
  out += ",\"cache\":{";
  out += "\"hits\":" + std::to_string(stats.cache.hits);
  out += ",\"misses\":" + std::to_string(stats.cache.misses);
  out += ",\"evictions\":" + std::to_string(stats.cache.evictions);
  out += ",\"invalidations\":" + std::to_string(stats.cache.invalidations);
  out += ",\"full_invalidations\":" +
         std::to_string(stats.cache.full_invalidations);
  out += ",\"targeted_invalidations\":" +
         std::to_string(stats.cache.targeted_invalidations);
  out += ",\"rekeyed\":" + std::to_string(stats.cache.rekeyed);
  out += ",\"entries\":" + std::to_string(stats.cache.entries);
  out += ",\"bytes\":" + std::to_string(stats.cache.bytes);
  out += "}";
  // Server-side per-op latency, derived from the process-wide log2
  // histograms (dispatch to response handoff; cache hits included).
  const ShellMetrics& metrics = shell_metrics();
  out += ",\"latency\":{";
  AppendOpLatency("explain", *metrics.explain_us, &out);
  out += ",";
  AppendOpLatency("topk", *metrics.topk_us, &out);
  out += ",";
  AppendOpLatency("delta", *metrics.delta_us, &out);
  out += "}";
  return out;
}

namespace {

/// The single emission site of the per-process delta counter (every
/// ApplyDelta outcome short of an error funnels through here).
Status CountDeltaApplied() {
  XPLAIN_COUNTER_ADD("server.deltas_applied", 1);
  return Status::OK();
}

}  // namespace

Status XplaindService::ApplyDelta(const DeltaSet& delta) {
  // Deltas serialize against each other; requests do NOT wait here — they
  // contend only on db_mu_, which ApplyDeltaLocked holds exclusively just
  // for the final swap.
  MutexLock delta_lock(&delta_mu_);
  return ApplyDeltaLocked(delta);
}

Status XplaindService::ApplyDeltaLocked(const DeltaSet& delta) {
  XPLAIN_TRACE_SPAN("rpc.apply_delta");

  // Phase A (read-only, concurrent with requests): close the delta, remap
  // U(D), patch the cube workspace, recompute the unique-core signature.
  EngineDeltaPlan plan;
  uint64_t old_version = 0;
  {
    ReaderMutexLock lock(&db_mu_);
    plan = engine_->PlanDelta(delta);
    old_version = db_.version();
  }
  if (options_.delta_plan_hook) options_.delta_plan_hook();

  if (plan.rows_removed == 0) {
    // Empty delta (possibly after closure): nothing changes, no version
    // bump, cache untouched.
    ReaderMutexLock lock(&db_mu_);
    engine_->AbortDelta();
    return CountDeltaApplied();
  }

  // Probe which cached entries the removed rows can affect, against the
  // OLD U(D) (still live under the reader lock). An entry survives the
  // version bump iff no removed universal row satisfies any of its
  // subquery filters — then neither its cube cells nor its q_j(D) grand
  // totals changed. A flipped unique-core signature can change additivity
  // verdicts, which every entry depends on, so that forces a full wipe.
  bool full_wipe = plan.signature_changed;
  std::vector<std::string> keep;
  const std::string old_prefix = "v=" + std::to_string(old_version) + ";";
  if (cache_ != nullptr && !full_wipe) {
    const auto snapshot = cache_->SnapshotReadSets();
    ReaderMutexLock lock(&db_mu_);
    const UniversalRelation& universal = engine_->universal();
    const std::vector<uint32_t>& removed = plan.remap.removed_universal;
    if (snapshot.size() * removed.size() > options_.max_targeted_probe) {
      full_wipe = true;
    } else {
      for (const auto& [key, read_set] : snapshot) {
        if (key.compare(0, old_prefix.size(), old_prefix) != 0) continue;
        if (read_set == nullptr || read_set->conservative) continue;
        bool touched = false;
        for (uint32_t u : removed) {
          for (const DnfPredicate& filter : read_set->filters) {
            if (filter.EvalUniversal(universal, u)) {
              touched = true;
              break;
            }
          }
          if (touched) break;
        }
        if (!touched) keep.push_back(key);
      }
    }
  }

  // Phase B (exclusive, pointer/state swaps only): compact the base
  // relations in place (one version bump), install the precomputed patch.
  uint64_t new_version = 0;
  {
    WriterMutexLock lock(&db_mu_);
    db_.ApplyDeltaPlan(plan.db_plan);
    new_version = db_.version();
    engine_->CommitDelta(std::move(plan));
  }

  if (cache_ != nullptr) {
    if (full_wipe) {
      cache_->InvalidateAll();
    } else {
      cache_->RetargetVersion(
          old_prefix, "v=" + std::to_string(new_version) + ";", keep);
    }
  }
  return CountDeltaApplied();
}

std::string XplaindService::Delta(const Request& request,
                                  FlightRecord* record) {
  XPLAIN_TRACE_SPAN("rpc.delta");
  // Build and apply under one delta lock so the row positions resolved by
  // BuildDelta cannot be shifted by a concurrent delta before they apply.
  MutexLock delta_lock(&delta_mu_);
  size_t rows_before = 0;
  Result<DeltaSet> delta = [&]() -> Result<DeltaSet> {
    ReaderMutexLock lock(&db_mu_);
    // Authoritative DELTA version barrier: deltas serialize on delta_mu_,
    // so a passing check pins the pre-delta version this mutation applies
    // to (DESIGN.md §13).
    if (request.has_expect_version &&
        db_.version() != request.expect_version) {
      return VersionMismatch(db_.version(), request);
    }
    rows_before = db_.TotalRows();
    return BuildDelta(db_, request);
  }();
  Status applied = delta.ok() ? ApplyDeltaLocked(*delta) : delta.status();
  size_t rows_after = 0;
  {
    ReaderMutexLock lock(&db_mu_);
    rows_after = db_.TotalRows();
    record->db_version = db_.version();
  }
  if (!applied.ok()) {
    record->code = applied.code();
    return ErrorPayload(applied);
  }
  std::string out = "\"ok\":true,\"op\":\"DELTA\",\"removed\":";
  out += std::to_string(rows_before - rows_after);
  out += ",\"db_version\":" + std::to_string(record->db_version);
  return out;
}

uint64_t XplaindService::db_version() const {
  ReaderMutexLock lock(&db_mu_);
  return db_.version();
}

}  // namespace server
}  // namespace xplain
