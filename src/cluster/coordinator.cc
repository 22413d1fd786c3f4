#include "cluster/coordinator.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "relational/ddl.h"
#include "relational/parser.h"
#include "server/json.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace xplain {
namespace cluster {

namespace {

using server::ErrorPayload;
using server::JsonValue;
using server::MakeResponse;
using server::Request;
using server::RequestOp;

/// The shell sizing and cluster.* metric handles of one coordinator. It
/// samples no traces of its own: shard spans join a request's trace only
/// through the wire context it forwards.
server::ShellConfig MakeShellConfig(const CoordinatorOptions& options) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  server::ShellConfig config;
  config.role = "coordinator";
  config.num_workers = options.num_workers;
  config.max_queue_depth = options.max_queue_depth;
  config.flight_capacity = options.flight_capacity;
  config.slow_query_us = options.slow_query_us;
  config.trace_sample_period = 0;
  config.metrics.requests = registry.GetCounter("cluster.requests");
  config.metrics.parse_errors = registry.GetCounter("cluster.parse_errors");
  config.metrics.rejected = registry.GetCounter("cluster.rejected");
  config.metrics.in_flight = registry.GetGauge("cluster.in_flight");
  Histogram* request_us = registry.GetHistogram("cluster.request_us");
  config.metrics.explain_us = request_us;
  config.metrics.topk_us = request_us;
  config.metrics.delta_us = request_us;
  return config;
}

}  // namespace

Coordinator::Coordinator(const CoordinatorOptions& options)
    : LineService(MakeShellConfig(options)), options_(options) {
  pools_.reserve(options_.shards.size());
  for (size_t s = 0; s < options_.shards.size(); ++s) {
    pools_.push_back(std::make_unique<ShardPool>());
  }
}

Result<std::unique_ptr<Coordinator>> Coordinator::Create(
    const CoordinatorOptions& options) {
  XPLAIN_TRACE_SPAN("cluster.bootstrap");
  if (options.shards.empty()) {
    return Status::InvalidArgument("coordinator needs at least one shard");
  }
  if (options.fanout_attempts < 1) {
    return Status::InvalidArgument("fanout_attempts must be >= 1");
  }
  auto coordinator =
      std::unique_ptr<Coordinator>(new Coordinator(options));

  // Bootstrap: every shard must serve byte-identical schema DDL, which
  // becomes the rows-free catalog the coordinator parses questions and
  // routes deltas against (DESIGN.md §13).
  std::string ddl;
  std::vector<uint64_t> versions(options.shards.size(), 0);
  for (size_t s = 0; s < options.shards.size(); ++s) {
    const ShardEndpoint& endpoint = options.shards[s];
    Result<server::TcpClient> dialed = server::TcpClient::ConnectWithRetry(
        endpoint.host, endpoint.port, options.client, options.connect_retry);
    if (!dialed.ok()) {
      return Status(dialed.status().code(),
                    "shard " + std::to_string(s) + " (" +
                        endpoint.ToString() +
                        "): " + dialed.status().message());
    }
    server::TcpClient client = std::move(*dialed);
    Result<std::string> response =
        client.Call("{\"id\":0,\"op\":\"STATS\",\"schema\":true}");
    if (!response.ok()) {
      return Status(response.status().code(),
                    "shard " + std::to_string(s) + " (" +
                        endpoint.ToString() +
                        "): " + response.status().message());
    }
    XPLAIN_ASSIGN_OR_RETURN(JsonValue json, JsonValue::Parse(*response));
    XPLAIN_RETURN_IF_ERROR(StatusOfResponse(json));
    const JsonValue* schema = json.Find("schema");
    if (schema == nullptr || !schema->is_string()) {
      return Status::InvalidArgument(
          "shard " + std::to_string(s) + " (" + endpoint.ToString() +
          "): STATS response carries no schema (is it an xplaind?)");
    }
    if (s == 0) {
      ddl = schema->string_value();
    } else if (schema->string_value() != ddl) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(s) + " (" + endpoint.ToString() +
          ") serves a different schema than shard 0");
    }
    XPLAIN_ASSIGN_OR_RETURN(versions[s],
                            server::WireUintMember(json, "db_version", 0));
    MutexLock lock(&coordinator->pools_[s]->mu);
    coordinator->pools_[s]->idle.push_back(std::move(client));
  }

  XPLAIN_ASSIGN_OR_RETURN(SchemaSpec spec, ParseSchema(ddl));
  XPLAIN_ASSIGN_OR_RETURN(coordinator->catalog_, CreateDatabase(spec));
  XPLAIN_ASSIGN_OR_RETURN(
      coordinator->shard_map_,
      ShardMap::Create(coordinator->catalog_, options.partition_attrs,
                       options.shards.size()));
  {
    WriterMutexLock lock(&coordinator->versions_mu_);
    coordinator->versions_ = std::move(versions);
  }
  XPLAIN_GAUGE_SET("cluster.shards",
                   static_cast<double>(options.shards.size()));
  return coordinator;
}

Coordinator::~Coordinator() { StopWorkers(); }

Result<server::TcpClient> Coordinator::LeaseConnection(size_t shard) {
  {
    MutexLock lock(&pools_[shard]->mu);
    if (!pools_[shard]->idle.empty()) {
      server::TcpClient client = std::move(pools_[shard]->idle.back());
      pools_[shard]->idle.pop_back();
      return client;
    }
  }
  // Dial outside the pool lock — connects can block for seconds.
  return server::TcpClient::ConnectWithRetry(
      options_.shards[shard].host, options_.shards[shard].port,
      options_.client, options_.connect_retry);
}

void Coordinator::ReturnConnection(size_t shard, server::TcpClient client) {
  MutexLock lock(&pools_[shard]->mu);
  pools_[shard]->idle.push_back(std::move(client));
}

Result<std::string> Coordinator::CallShard(size_t shard,
                                           const std::string& line) {
  Result<server::TcpClient> leased = LeaseConnection(shard);
  if (!leased.ok()) {
    return Status(leased.status().code(),
                  "shard " + std::to_string(shard) + " (" +
                      options_.shards[shard].ToString() +
                      "): " + leased.status().message());
  }
  server::TcpClient conn = std::move(*leased);
  Result<std::string> response = conn.Call(line);
  if (!response.ok() &&
      response.status().code() == StatusCode::kUnavailable) {
    // One bounded reconnect: the shard may have restarted between requests.
    Status redialed = conn.Reconnect(options_.connect_retry);
    if (redialed.ok()) response = conn.Call(line);
  }
  if (!response.ok()) return ShardError(shard, response.status());
  ReturnConnection(shard, std::move(conn));
  return response;
}

Status Coordinator::ShardError(size_t shard, const Status& status) const {
  XPLAIN_COUNTER_ADD("cluster.shard_errors", 1);
  return Status(status.code(), "shard " + std::to_string(shard) + " (" +
                                   options_.shards[shard].ToString() +
                                   "): " + status.message());
}

Status Coordinator::ReprobeVersion(size_t shard) {
  XPLAIN_ASSIGN_OR_RETURN(std::string line,
                          CallShard(shard, "{\"id\":0,\"op\":\"STATS\"}"));
  XPLAIN_ASSIGN_OR_RETURN(JsonValue json, JsonValue::Parse(line));
  XPLAIN_RETURN_IF_ERROR(StatusOfResponse(json));
  XPLAIN_ASSIGN_OR_RETURN(const uint64_t version,
                          server::WireUintMember(json, "db_version", 0));
  WriterMutexLock lock(&versions_mu_);
  versions_[shard] = version;
  return Status::OK();
}

Result<std::vector<std::string>> Coordinator::ScatterGather(
    const std::vector<size_t>& targets,
    const std::vector<std::string>& lines) {
  // Lease one connection per target shard.
  std::vector<server::TcpClient> conns;
  conns.reserve(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    Result<server::TcpClient> leased = LeaseConnection(targets[i]);
    if (!leased.ok()) {
      for (size_t j = 0; j < conns.size(); ++j) {
        ReturnConnection(targets[j], std::move(conns[j]));
      }
      return ShardError(targets[i], leased.status());
    }
    conns.push_back(std::move(*leased));
  }

  // On any failure the whole batch of connections is dropped: the
  // survivors have pipelined responses in flight that nobody will read,
  // so they can't go back into the pool. The next attempt re-dials.
  auto fail = [&](size_t index, const Status& status) {
    conns.clear();
    return ShardError(targets[index], status);
  };

  // Scatter: all sends first, so the shards execute concurrently; a fresh
  // lease has nothing in flight, so one reconnect + resend is safe.
  for (size_t i = 0; i < targets.size(); ++i) {
    Status sent = conns[i].Send(lines[i]);
    if (!sent.ok()) {
      Status redialed = conns[i].Reconnect(options_.connect_retry);
      if (redialed.ok()) sent = conns[i].Send(lines[i]);
      if (!sent.ok()) return fail(i, sent);
    }
  }
  // Gather, in shard order (responses are per-connection, so cross-shard
  // ordering doesn't matter; within a connection there is only one).
  std::vector<std::string> responses(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    Result<std::string> response = conns[i].ReadResponse();
    if (!response.ok()) return fail(i, response.status());
    responses[i] = *std::move(response);
  }
  for (size_t i = 0; i < targets.size(); ++i) {
    ReturnConnection(targets[i], std::move(conns[i]));
  }
  return responses;
}

Result<std::string> Coordinator::FanoutOnce(
    const Request& request, const UserQuestion& question,
    const std::vector<ColumnRef>& attributes) {
  XPLAIN_TRACE_SPAN("cluster.fanout");
  XPLAIN_COUNTER_ADD("cluster.fanouts", 1);
  const size_t k = options_.shards.size();
  std::vector<size_t> targets(k);
  for (size_t s = 0; s < k; ++s) targets[s] = s;

  // Partial fragments are EXPLAIN-shaped regardless of the caller's op
  // (the op only changes the final payload shape, which the coordinator
  // assembles) — so an EXPLAIN and a TOPK of the same question share the
  // shards' cache entries.
  Request shard_request = request;
  shard_request.op = RequestOp::kExplain;
  shard_request.partial = true;
  shard_request.rescore_cells.clear();
  shard_request.has_expect_version = true;
  std::vector<std::string> lines(k);
  for (size_t s = 0; s < k; ++s) {
    shard_request.expect_version = versions_[s];
    lines[s] = server::SerializeRequest(shard_request);
  }
  XPLAIN_ASSIGN_OR_RETURN(std::vector<std::string> responses,
                          ScatterGather(targets, lines));

  std::vector<ShardPartial> partials;
  partials.reserve(k);
  for (size_t s = 0; s < k; ++s) {
    Result<ShardPartial> partial = ParsePartialPayload(responses[s]);
    if (!partial.ok()) return ShardError(s, partial.status());
    partials.push_back(*std::move(partial));
  }

  XPLAIN_ASSIGN_OR_RETURN(
      MergedExplain merged,
      MergePartials(question, attributes, request.options, partials));

  if (merged.need_rescore) {
    XPLAIN_TRACE_SPAN("cluster.rescore_fanout");
    XPLAIN_COUNTER_ADD("cluster.rescore_fanouts", 1);
    Request rescore_request = request;
    rescore_request.op = RequestOp::kExplain;
    rescore_request.partial = false;
    rescore_request.has_expect_version = true;
    rescore_request.rescore_cells.clear();
    rescore_request.rescore_cells.reserve(merged.pool.size());
    for (const RankedExplanation& candidate : merged.pool) {
      rescore_request.rescore_cells.push_back(
          merged.report.table.coords[candidate.m_row]);
    }
    std::vector<std::string> rescore_lines(k);
    for (size_t s = 0; s < k; ++s) {
      rescore_request.expect_version = versions_[s];
      rescore_lines[s] = server::SerializeRequest(rescore_request);
    }
    XPLAIN_ASSIGN_OR_RETURN(std::vector<std::string> rescore_responses,
                            ScatterGather(targets, rescore_lines));
    std::vector<std::vector<std::vector<double>>> shard_values(k);
    for (size_t s = 0; s < k; ++s) {
      Result<std::vector<std::vector<double>>> values =
          ParseRescorePayload(rescore_responses[s]);
      if (!values.ok()) return ShardError(s, values.status());
      shard_values[s] = *std::move(values);
    }
    XPLAIN_RETURN_IF_ERROR(
        FinishRescore(question, request.options, shard_values, &merged));
  }

  return server::ReportPayload(catalog_, merged.report, request.op);
}

Result<std::string> Coordinator::RunExplain(const Request& request) {
  XPLAIN_TRACE_SPAN("cluster.request");
  XPLAIN_ASSIGN_OR_RETURN(UserQuestion question,
                          BuildQuestion(catalog_, request));
  XPLAIN_RETURN_IF_ERROR(shard_map_.CheckQueryEnvelope(question.query));
  std::vector<ColumnRef> attributes;
  attributes.reserve(request.attrs.size());
  for (const std::string& name : request.attrs) {
    XPLAIN_ASSIGN_OR_RETURN(ColumnRef ref, catalog_.ResolveColumn(name));
    attributes.push_back(ref);
  }

  Status last = Status::OK();
  for (int attempt = 0; attempt < options_.fanout_attempts; ++attempt) {
    if (attempt > 0) {
      fanout_retries_.fetch_add(1, std::memory_order_relaxed);
      XPLAIN_COUNTER_ADD("cluster.fanout_retries", 1);
      int64_t backoff = static_cast<int64_t>(options_.retry_backoff_ms)
                        << (attempt - 1);
      if (backoff > options_.max_retry_backoff_ms) {
        backoff = options_.max_retry_backoff_ms;
      }
      if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      }
    }
    if (options_.fanout_hook) options_.fanout_hook();
    Result<std::string> result = [&]() -> Result<std::string> {
      // Holding the barrier shared across the whole attempt (both rounds)
      // excludes coordinator-driven deltas from interleaving mid-merge.
      ReaderMutexLock lock(&versions_mu_);
      return FanoutOnce(request, question, attributes);
    }();
    if (result.ok()) return result;
    last = result.status();
    if (last.code() == StatusCode::kFailedPrecondition) {
      // A shard moved past our recorded version (a delta applied directly
      // to it). Re-learn every shard's version and retry the fan-out.
      for (size_t s = 0; s < options_.shards.size(); ++s) {
        Status probed = ReprobeVersion(s);
        if (!probed.ok()) last = probed;
      }
      continue;
    }
    if (last.code() == StatusCode::kUnavailable) continue;
    return last;  // not retryable (bad question, shard-side parse bug, ...)
  }
  return Status(last.code(),
                last.message() + " (after " +
                    std::to_string(options_.fanout_attempts) +
                    " fan-out attempts)");
}

std::string Coordinator::Execute(const Request& request,
                                 const std::string& /*carry*/,
                                 server::FlightRecord* record) {
  Result<std::string> result = RunExplain(request);
  if (result.ok()) return *std::move(result);
  record->code = result.status().code();
  return ErrorPayload(result.status());
}

std::string Coordinator::Delta(const Request& request,
                               server::FlightRecord* record) {
  XPLAIN_TRACE_SPAN("cluster.delta");
  Result<std::string> payload = [&]() -> Result<std::string> {
    if (!request.delta_rows.empty()) {
      return Status::InvalidArgument(
          "cluster DELTA requires the where form; row positions are "
          "shard-local (DESIGN.md §13)");
    }
    if (request.delta_where.empty()) {
      return Status::InvalidArgument(
          "cluster DELTA needs a 'where' predicate");
    }
    XPLAIN_ASSIGN_OR_RETURN(int relation,
                            catalog_.RelationIndex(request.delta_relation));
    XPLAIN_ASSIGN_OR_RETURN(
        DnfPredicate where,
        ParseDnfPredicate(catalog_, request.delta_where));

    // Route to the owning shard when the predicate pins the partition key
    // to one value (single disjunct, single equality atom on the sole
    // partition attribute); anything else broadcasts.
    std::vector<size_t> targets;
    bool routed = false;
    const std::vector<ColumnRef>& partition = shard_map_.partition_attrs();
    if (partition.size() == 1 && where.disjuncts().size() == 1 &&
        where.disjuncts()[0].atoms().size() == 1) {
      const AtomicPredicate& atom = where.disjuncts()[0].atoms()[0];
      if (atom.op == CompareOp::kEq && atom.column == partition[0] &&
          atom.column.relation == relation) {
        targets.push_back(shard_map_.ShardOfKey(Tuple{atom.constant}));
        routed = true;
      }
    }
    if (!routed) {
      for (size_t s = 0; s < options_.shards.size(); ++s) {
        targets.push_back(s);
      }
    }

    // The version barrier: exclusive over versions_mu_ for the whole
    // multi-shard write, so no fan-out can observe some shards pre-delta
    // and others post-delta (DESIGN.md §13).
    MutexLock delta_lock(&delta_mu_);
    WriterMutexLock versions_lock(&versions_mu_);
    uint64_t total_removed = 0;
    size_t applied = 0;
    std::string shards_json = "[";
    for (size_t s : targets) {
      Request shard_request = request;
      shard_request.has_expect_version = true;
      shard_request.expect_version = versions_[s];
      Result<std::string> response =
          CallShard(s, server::SerializeRequest(shard_request));
      Status shard_status = response.status();
      JsonValue json;
      if (response.ok()) {
        XPLAIN_ASSIGN_OR_RETURN(json, JsonValue::Parse(*response));
        shard_status = StatusOfResponse(json);
        if (!shard_status.ok()) {
          shard_status =
              Status(shard_status.code(),
                     "shard " + std::to_string(s) + " (" +
                         options_.shards[s].ToString() +
                         "): " + shard_status.message());
        }
      }
      if (!shard_status.ok()) {
        // Honest partial-failure report: the earlier shards have already
        // applied; their versions were re-recorded above, so a retry of
        // the same delta fences out on them instead of double-deleting.
        return Status(shard_status.code(),
                      shard_status.message() + " (cluster delta applied to " +
                          std::to_string(applied) + " of " +
                          std::to_string(targets.size()) +
                          " target shards before the failure)");
      }
      XPLAIN_ASSIGN_OR_RETURN(const uint64_t removed,
                              server::WireUintMember(json, "removed", 0));
      XPLAIN_ASSIGN_OR_RETURN(const uint64_t version,
                              server::WireUintMember(json, "db_version", 0));
      versions_[s] = version;
      total_removed += removed;
      ++applied;
      if (shards_json.size() > 1) shards_json.push_back(',');
      shards_json += "{\"shard\":" + std::to_string(s) +
                     ",\"removed\":" + std::to_string(removed) +
                     ",\"db_version\":" + std::to_string(version) + "}";
    }
    shards_json.push_back(']');
    std::string out = "\"ok\":true,\"op\":\"DELTA\",\"removed\":";
    out += std::to_string(total_removed);
    out += ",\"routed\":";
    out += routed ? "true" : "false";
    out += ",\"shards\":" + shards_json;
    return out;
  }();
  if (!payload.ok()) {
    record->code = payload.status().code();
    return ErrorPayload(payload.status());
  }
  return *std::move(payload);
}

std::string Coordinator::StatsPayload(bool /*want_schema*/) const {
  const Stats stats = GetStats();
  std::string out = "\"ok\":true,\"op\":\"STATS\",\"cluster\":true";
  out += ",\"shards\":" + std::to_string(options_.shards.size());
  out += ",\"partition\":[";
  const std::vector<std::string>& names = shard_map_.partition_attr_names();
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out.push_back(',');
    server::AppendJsonString(names[i], &out);
  }
  out += "],\"endpoints\":[";
  for (size_t s = 0; s < options_.shards.size(); ++s) {
    if (s > 0) out.push_back(',');
    server::AppendJsonString(options_.shards[s].ToString(), &out);
  }
  out += "],\"versions\":[";
  for (size_t s = 0; s < stats.shard_versions.size(); ++s) {
    if (s > 0) out.push_back(',');
    out += std::to_string(stats.shard_versions[s]);
  }
  out += "]";
  out += ",\"received\":" + std::to_string(stats.received);
  out += ",\"served\":" + std::to_string(stats.served);
  out += ",\"rejected\":" + std::to_string(stats.rejected);
  out += ",\"errors\":" + std::to_string(stats.errors);
  out += ",\"in_flight\":" + std::to_string(stats.in_flight);
  out += ",\"fanout_retries\":" + std::to_string(stats.fanout_retries);
  out += ",\"draining\":";
  out += draining() ? "true" : "false";
  return out;
}

Coordinator::Stats Coordinator::GetStats() const {
  const Counts counts = GetCounts();
  Stats stats;
  stats.received = counts.received;
  stats.served = counts.served;
  stats.rejected = counts.rejected;
  stats.errors = counts.errors;
  stats.in_flight = counts.in_flight;
  stats.fanout_retries = fanout_retries_.load(std::memory_order_relaxed);
  {
    ReaderMutexLock lock(&versions_mu_);
    stats.shard_versions = versions_;
  }
  return stats;
}

}  // namespace cluster
}  // namespace xplain
