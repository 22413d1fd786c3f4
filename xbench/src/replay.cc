#include "replay.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "cluster/merge.h"
#include "core/additivity.h"
#include "relational/column_cache.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/tcp_client.h"

namespace xbench {

namespace {

using xplain::server::Request;
using xplain::server::TcpClient;

/// The columns the cube path encodes for `query` over `attributes`: the
/// attributes, then every distinct-counted and filter column not yet
/// listed (mirrors core/cube_algorithm).
std::vector<xplain::ColumnRef> EncodedColumns(
    const xplain::NumericalQuery& query,
    const std::vector<xplain::ColumnRef>& attributes) {
  std::vector<xplain::ColumnRef> columns = attributes;
  auto add = [&columns](const xplain::ColumnRef& column) {
    if (std::find(columns.begin(), columns.end(), column) == columns.end()) {
      columns.push_back(column);
    }
  };
  for (const xplain::AggregateQuery& q : query.subqueries()) {
    if (q.agg.kind == xplain::AggregateKind::kCountDistinct) add(q.agg.column);
    for (const xplain::ConjunctivePredicate& disjunct : q.where.disjuncts()) {
      for (const xplain::AtomicPredicate& atom : disjunct.atoms()) {
        add(atom.column);
      }
    }
  }
  return columns;
}

/// Sends `lines[s]` to shard s on its own thread and waits for every
/// response; `ms[s]` receives shard s's round trip.
std::vector<std::string> Scatter(std::vector<TcpClient>* clients,
                                 const std::vector<std::string>& lines,
                                 std::vector<double>* ms) {
  const size_t k = clients->size();
  std::vector<std::string> responses(k);
  std::vector<std::string> errors(k);
  ms->assign(k, 0.0);
  std::vector<std::thread> threads;
  threads.reserve(k);
  for (size_t s = 0; s < k; ++s) {
    threads.emplace_back([&, s] {
      const int64_t start = NowNanos();
      xplain::Result<std::string> response = (*clients)[s].Call(lines[s]);
      (*ms)[s] = static_cast<double>(NowNanos() - start) / 1e6;
      if (response.ok()) {
        responses[s] = *std::move(response);
      } else {
        errors[s] = response.status().ToString();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t s = 0; s < k; ++s) {
    if (!errors[s].empty()) {
      throw BenchError("shard " + std::to_string(s) + ": " + errors[s]);
    }
    if (ClassifyResponse(responses[s]) != Outcome::kOk) {
      throw BenchError("shard " + std::to_string(s) + " answered " +
                       responses[s].substr(0, 200));
    }
  }
  return responses;
}

/// The "rescored" member of a shard's rescore response.
std::vector<std::vector<double>> ParseRescored(const std::string& response) {
  xplain::server::JsonValue json = Check(
      xplain::server::JsonValue::Parse(response), "parse rescore response");
  const xplain::server::JsonValue* rescored = json.Find("rescored");
  if (rescored == nullptr || !rescored->is_array()) {
    throw BenchError("rescore response carries no 'rescored' member");
  }
  std::vector<std::vector<double>> out;
  for (const xplain::server::JsonValue& row : rescored->array_items()) {
    std::vector<double> values;
    for (const xplain::server::JsonValue& item : row.array_items()) {
      values.push_back(item.number_value());
    }
    out.push_back(std::move(values));
  }
  return out;
}

std::pair<double, double> SlowestFastest(const std::vector<double>& ms) {
  const auto [lo, hi] = std::minmax_element(ms.begin(), ms.end());
  return {*hi, *lo};
}

}  // namespace

SingleReplay ReplaySingle(const xplain::ExplainEngine& engine,
                          const std::string& line, bool layers,
                          SpanLog* spans) {
  SingleReplay out;
  const xplain::Database& db = engine.db();
  const uint64_t id = xplain::server::ExtractRequestId(line);
  Request request;
  out.parse_us = TimeSpan(spans, "protocol.parse", id, [&] {
    request = Check(xplain::server::ParseRequest(line), "replay parse");
  });
  xplain::UserQuestion question;
  out.build_us = TimeSpan(spans, "protocol.build", id, [&] {
    question = Check(xplain::server::BuildQuestion(db, request),
                     "replay build");
  });
  const std::vector<xplain::ColumnRef> attributes =
      Check(engine.ResolveAttributes(request.attrs), "replay attributes");
  if (layers) {
    const xplain::UniversalRelation& universal = engine.universal();
    const std::vector<xplain::ColumnRef> columns =
        EncodedColumns(question.query, attributes);
    out.encode_ms = TimeSpan(spans, "relational.encode", id, [&] {
                      xplain::ColumnCache::Build(universal, columns);
                    }) / 1e3;
    double original = 0.0;
    out.original_ms = TimeSpan(spans, "relational.original", id, [&] {
                        original =
                            question.query.EvaluateOnUniversal(universal);
                      }) / 1e3;
    (void)original;
    out.additivity_ms = TimeSpan(spans, "engine.additivity", id, [&] {
                          xplain::CheckQueryAdditivity(universal,
                                                       question.query);
                          xplain::CheckCellAdditivity(universal,
                                                      question.query);
                        }) / 1e3;
  }
  xplain::ExplainOptions options = request.options;
  options.collect_stats = layers;
  xplain::ExplainReport report;
  out.explain_ms = TimeSpan(spans, "engine.explain", id, [&] {
                     report = Check(
                         engine.ExplainResolved(question, attributes, options),
                         "replay explain");
                   }) / 1e3;
  out.stats = report.stats;
  // The engine rescores up to max(exact_rescore_pool, top_k) cells.
  out.rescore_pool =
      report.exact_rescored
          ? std::min(std::max(options.exact_rescore_pool, options.top_k),
                     report.table.NumRows())
          : 0;
  std::string payload;
  out.serialize_us = TimeSpan(spans, "protocol.serialize", id, [&] {
    payload = xplain::server::ReportPayload(db, report, request.op);
  });
  out.response = xplain::server::MakeResponse(id, payload);
  return out;
}

ClusterReplay ReplayCluster(const xplain::Database& catalog,
                            const std::vector<int>& shard_ports,
                            const std::vector<uint64_t>& versions,
                            const std::string& line, SpanLog* spans) {
  ClusterReplay out;
  const size_t k = shard_ports.size();
  std::vector<TcpClient> clients;
  for (int port : shard_ports) {
    clients.push_back(Check(TcpClient::Connect("127.0.0.1", port),
                            "connect to shard"));
  }
  const Request request =
      Check(xplain::server::ParseRequest(line), "replay parse");
  const uint64_t id = request.id;
  const xplain::UserQuestion question = Check(
      xplain::server::BuildQuestion(catalog, request), "replay build");
  std::vector<xplain::ColumnRef> attributes;
  for (const std::string& name : request.attrs) {
    attributes.push_back(Check(catalog.ResolveColumn(name), "resolve " + name));
  }

  Request shard_request = request;
  shard_request.op = xplain::server::RequestOp::kExplain;
  shard_request.partial = true;
  shard_request.has_expect_version = true;
  std::vector<std::string> lines(k);
  for (size_t s = 0; s < k; ++s) {
    shard_request.expect_version = versions[s];
    lines[s] = xplain::server::SerializeRequest(shard_request);
  }
  std::vector<double> ms;
  std::vector<std::string> responses;
  TimeSpan(spans, "cluster.partial_round", id,
           [&] { responses = Scatter(&clients, lines, &ms); });
  std::tie(out.partial_slowest_ms, out.partial_fastest_ms) =
      SlowestFastest(ms);
  for (const std::string& response : responses) {
    out.partial_bytes += static_cast<double>(response.size());
  }

  std::vector<xplain::cluster::ShardPartial> partials;
  out.parse_ms = TimeSpan(spans, "cluster.parse", id, [&] {
                   for (const std::string& response : responses) {
                     partials.push_back(
                         Check(xplain::cluster::ParsePartialPayload(response),
                               "parse partial"));
                   }
                 }) / 1e3;
  xplain::cluster::MergedExplain merged;
  out.merge_ms = TimeSpan(spans, "cluster.merge", id, [&] {
                   merged = Check(xplain::cluster::MergePartials(
                                      question, attributes, request.options,
                                      partials),
                                  "merge partials");
                 }) / 1e3;

  std::vector<std::vector<std::vector<double>>> shard_values(k);
  if (merged.need_rescore) {
    out.rescored = true;
    out.rescore_pool = merged.pool.size();
    Request rescore_request = request;
    rescore_request.op = xplain::server::RequestOp::kExplain;
    rescore_request.has_expect_version = true;
    for (const xplain::RankedExplanation& candidate : merged.pool) {
      rescore_request.rescore_cells.push_back(
          merged.report.table.coords[candidate.m_row]);
    }
    for (size_t s = 0; s < k; ++s) {
      rescore_request.expect_version = versions[s];
      lines[s] = xplain::server::SerializeRequest(rescore_request);
    }
    TimeSpan(spans, "cluster.rescore_round", id,
             [&] { responses = Scatter(&clients, lines, &ms); });
    std::tie(out.rescore_slowest_ms, out.rescore_fastest_ms) =
        SlowestFastest(ms);
    for (size_t s = 0; s < k; ++s) shard_values[s] = ParseRescored(responses[s]);
  }
  std::string payload;
  out.finish_ms =
      TimeSpan(spans, "cluster.finish", id, [&] {
        if (merged.need_rescore) {
          CheckOk(xplain::cluster::FinishRescore(question, request.options,
                                                 shard_values, &merged),
                  "finish rescore");
        }
        payload =
            xplain::server::ReportPayload(catalog, merged.report, request.op);
      }) / 1e3;
  out.response = xplain::server::MakeResponse(id, payload);
  return out;
}

}  // namespace xbench
