#ifndef XPLAIN_SERVER_PROTOCOL_H_
#define XPLAIN_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "relational/database.h"
#include "relational/query.h"
#include "server/json.h"
#include "util/result.h"

namespace xplain {
namespace server {

/// The xplaind wire protocol (DESIGN.md §8): newline-delimited JSON, one
/// request object per line, one response object per line, always in request
/// order per connection. Every malformed input maps to an error *response*
/// (a Status payload) — the protocol layer never crashes and never closes
/// the stream on bad input.
///
/// Request grammar (members beyond `id`/`op` are op-specific):
///
///   {"id": 7, "op": "EXPLAIN",
///    "question": {"subqueries": [{"name": "q1",
///                                 "agg": "count(distinct P.pid)",
///                                 "where": "venue = 'SIGMOD'"}, ...],
///                 "expr": "q1 / q2", "direction": "high"|"low"},
///    "attrs": ["Author.name", "Author.inst"],
///    "options": {"top_k": 5, "degree": "interv"|"aggr"|"hybrid",
///                "minimality": "none"|"selfjoin"|"append",
///                "min_support": 0, "exact_rescore": true,
///                "exact_rescore_pool": 50}}
///
/// The No-Cube baseline is not served: "use_cube": false is
/// INVALID_ARGUMENT (the CLI's --naive and the benches still run it).
///
/// TOPK takes the same members as EXPLAIN (lighter response); STATS and
/// DRAIN take only `id`. Predicate/aggregate/expression texts reuse the
/// exact `relational/parser` grammar of the CLI.
///
/// DELTA removes tuples (the paper's D - Delta semantics; dangling rows
/// go too) and is handled synchronously on the transport thread:
///
///   {"id": 9, "op": "DELTA", "relation": "Birth",
///    "rows": [0, 17, 23]}            — explicit row positions, and/or
///   {"id": 9, "op": "DELTA", "relation": "Birth",
///    "where": "race = 'White'"}      — all rows matching a predicate
///                                      over that relation's columns
///
/// The response echoes `removed` (base rows deleted, closure included)
/// and the post-delta `db_version`.
///
/// METRICS and FLIGHT are the observability ops (DESIGN.md §12), both
/// taking only `id` and handled synchronously like STATS. METRICS returns
/// the whole metrics registry as Prometheus text exposition in the
/// `exposition` string member (scrapers unescape the JSON string; see
/// `xplain_client --metrics`). FLIGHT dumps the flight recorder: the last
/// N per-request records plus the pinned slow-query ring.
///
/// Every request may carry an optional `trace` member for request-scoped
/// tracing (DESIGN.md §12):
///
///   {"id": 7, "op": "TOPK", ...,
///    "trace": {"id": "a1f", "sampled": true}}
///
/// `trace.id` is 1..16 hex digits (omitted or "0" = the server assigns
/// one); `trace.sampled` defaults to true when the member is present.
/// The trace member never participates in the cache key — it is
/// per-request metadata, not part of the question.
enum class RequestOp {
  kExplain,
  kTopK,
  kStats,
  kDrain,
  kDelta,
  kMetrics,
  kFlight
};

/// Wire name of `op` ("EXPLAIN", ...).
const char* RequestOpToString(RequestOp op);

/// One aggregate subquery, still in text form (parsed against the serving
/// database later, by BuildQuestion).
/// Thread-safety: plain data, externally synchronized.
struct SubquerySpec {
  std::string name;
  std::string agg;
  std::string where;  // empty = TRUE
};

/// A parsed request line, with question/predicate texts not yet resolved
/// against a database.
/// Thread-safety: plain data, externally synchronized.
struct Request {
  uint64_t id = 0;
  RequestOp op = RequestOp::kStats;
  std::vector<SubquerySpec> subqueries;
  std::string expr;
  std::string direction = "high";
  std::vector<std::string> attrs;
  ExplainOptions options;  // num_threads is always 1 when serving
  /// DELTA members: the target relation, explicit row positions, and/or a
  /// predicate text selecting rows to delete (parsed by BuildDelta).
  std::string delta_relation;
  std::vector<uint64_t> delta_rows;
  std::string delta_where;
  /// Wire trace context: `has_trace` is true iff the line carried a
  /// "trace" member. `trace_id` 0 means the server assigns one;
  /// `trace_sampled` is the client's sampling decision (default true when
  /// the member is present). Deliberately not part of CanonicalRequestKey.
  bool has_trace = false;
  uint64_t trace_id = 0;
  bool trace_sampled = true;
  /// Cluster members (DESIGN.md §13). `partial` asks an EXPLAIN/TOPK for
  /// the shard-side fragment (unpruned table M + verdicts) instead of a
  /// ranked answer. `rescore_cells` (EXPLAIN only, mutually exclusive with
  /// `partial`) asks for per-cell residual subquery values — never cached.
  /// `expect_version` fences the request: kFailedPrecondition unless the
  /// serving database version matches. `want_schema` asks STATS to attach
  /// the schema DDL so a coordinator can bootstrap a rows-free catalog.
  bool partial = false;
  std::vector<Tuple> rescore_cells;
  bool has_expect_version = false;
  uint64_t expect_version = 0;
  bool want_schema = false;
};

/// Parses one request line. Structural errors (bad JSON, unknown op,
/// missing members, bad enum values) surface as ParseError /
/// InvalidArgument; predicate text is validated later against the serving
/// database by BuildQuestion.
[[nodiscard]] Result<Request> ParseRequest(const std::string& line);

/// The non-negative integer a JSON number names. Only finite integral
/// values in [0, 2^53 - 1] convert: each double there is the parse of
/// exactly one decimal integer, so the conversion can neither wrap nor
/// round (2^53 + 1 parses to 2^53, which is therefore refused). Anything
/// else is
/// kInvalidArgument naming `what`. Every integer read off the wire — from
/// a client request or a shard reply — goes through here.
[[nodiscard]] Result<uint64_t> WireUint(const JsonValue& value,
                                        const std::string& what);

/// WireUint on the member `key` of `object`; `fallback` when absent.
[[nodiscard]] Result<uint64_t> WireUintMember(const JsonValue& object,
                                              const std::string& key,
                                              uint64_t fallback);

/// Best-effort extraction of the numeric "id" member from a (possibly
/// malformed) request line, so error responses can still echo it. Returns 0
/// when no id is recoverable.
uint64_t ExtractRequestId(const std::string& line);

/// Resolves the request's question texts against `db` using
/// relational/parser (aggregates, DNF predicates, the combining
/// expression). Every question is built here — by xplaind, the cluster
/// coordinator and its shards, and the CLI's `ask` — so this is where a
/// MIN/MAX over a non-numeric column is rejected (kInvalidArgument): the
/// subquery values feed arithmetic, while a plain `query` may still ask
/// for the largest string.
[[nodiscard]] Result<UserQuestion> BuildQuestion(const Database& db,
                                                 const Request& request);

/// Resolves a DELTA request against `db`: validates the relation name and
/// row positions, parses `delta_where` (every atom must reference the
/// target relation), and returns the full-shape DeltaSet marking every
/// selected row. Closure over dangling rows happens later, in ApplyDelta.
[[nodiscard]] Result<DeltaSet> BuildDelta(const Database& db,
                                          const Request& request);

/// Serializes `request` back into one wire line (no trailing newline) that
/// ParseRequest round-trips field-for-field — the coordinator's fan-out
/// encoder. Deterministic byte-for-byte for equal requests.
std::string SerializeRequest(const Request& request);

/// Appends the type-tagged wire encoding of one Value to `out`:
/// null, true/false, {"i":"<decimal>"} for int64 (a string, so 64-bit
/// values survive double-typed JSON parsers), {"d":<number>} for double,
/// and a JSON string for strings. Injective across types.
void AppendWireValue(const Value& value, std::string* out);

/// Parses a value encoded by AppendWireValue.
[[nodiscard]] Result<Value> ParseWireValue(const JsonValue& json);

/// Serializes a shard-side partial EXPLAIN (DESIGN.md §13):
///   "ok":true,"op":"EXPLAIN","partial":true,"db_version":V,
///   "additive":b,"cell_additive":b,"u":[u_1,...],
///   "cells":[{"c":[<wire values>],"m":"<cube_mask decimal>",
///             "v":[v_1,...]},...]
/// Cells appear in the table's canonical coordinate order; doubles use the
/// shortest-round-trip rendering, so the coordinator reconstructs each
/// shard's cubes bit-exactly.
std::string PartialReportPayload(const PartialExplainReport& report,
                                 uint64_t db_version);

/// Serializes a shard-side rescore answer: one inner array of residual
/// subquery values per requested cell, in request order:
///   "ok":true,"op":"EXPLAIN","db_version":V,"rescored":[[...],...]
std::string RescorePayload(const std::vector<std::vector<double>>& values,
                           uint64_t db_version);

/// Serializes an ExplainReport as the response payload for `op`: TOPK
/// carries only the ranked explanations; EXPLAIN adds original_value,
/// additivity and table statistics. Deterministic byte-for-byte for equal
/// reports (the loopback tests and the cache rely on this).
std::string ReportPayload(const Database& db, const ExplainReport& report,
                          RequestOp op);

/// `"ok":false,"code":"<CodeName>","error":"<message>"`.
std::string ErrorPayload(const Status& status);

/// Wraps a payload into one response line: `{"id":<id>,<payload>}`.
std::string MakeResponse(uint64_t id, const std::string& payload);

/// Canonical cache-key text of the request: op class + question texts +
/// attrs + CanonicalOptionsKey, whitespace-normalized. Two requests with
/// equal keys produce byte-identical payloads against the same database
/// version (the version itself is appended by the cache owner).
std::string CanonicalRequestKey(const Request& request);

}  // namespace server
}  // namespace xplain

#endif  // XPLAIN_SERVER_PROTOCOL_H_
