#include "server/protocol.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "relational/parser.h"
#include "server/json.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace xplain {
namespace server {

namespace {

Result<RequestOp> ParseOp(const std::string& text) {
  if (EqualsIgnoreCase(text, "explain")) return RequestOp::kExplain;
  if (EqualsIgnoreCase(text, "topk")) return RequestOp::kTopK;
  if (EqualsIgnoreCase(text, "stats")) return RequestOp::kStats;
  if (EqualsIgnoreCase(text, "drain")) return RequestOp::kDrain;
  if (EqualsIgnoreCase(text, "delta")) return RequestOp::kDelta;
  if (EqualsIgnoreCase(text, "metrics")) return RequestOp::kMetrics;
  if (EqualsIgnoreCase(text, "flight")) return RequestOp::kFlight;
  return Status::InvalidArgument(
      "unknown op '" + text +
      "' (expected EXPLAIN, TOPK, STATS, DRAIN, DELTA, METRICS or FLIGHT)");
}

/// Parses the optional request "trace" member into the request's trace
/// fields (see the protocol.h grammar).
Status ParseTraceMember(const JsonValue& root, Request* request) {
  const JsonValue* trace = root.Find("trace");
  if (trace == nullptr) return Status::OK();
  if (!trace->is_object()) {
    return Status::InvalidArgument("trace must be an object");
  }
  request->has_trace = true;
  const JsonValue* id = trace->Find("id");
  if (id != nullptr) {
    if (!id->is_string() ||
        !ParseTraceIdHex(id->string_value(), &request->trace_id)) {
      return Status::InvalidArgument(
          "trace.id must be a 1..16 hex digit string");
    }
  }
  const JsonValue* sampled = trace->Find("sampled");
  if (sampled != nullptr) {
    if (!sampled->is_bool()) {
      return Status::InvalidArgument("trace.sampled must be a boolean");
    }
    request->trace_sampled = sampled->bool_value();
  }
  return Status::OK();
}

Status ParseOptions(const JsonValue& object, ExplainOptions* options) {
  XPLAIN_ASSIGN_OR_RETURN(options->top_k,
                          WireUintMember(object, "top_k", options->top_k));
  const std::string degree = ToLower(object.GetString("degree", "interv"));
  if (degree == "interv" || degree == "intervention") {
    options->degree = DegreeKind::kIntervention;
  } else if (degree == "aggr" || degree == "aggravation") {
    options->degree = DegreeKind::kAggravation;
  } else if (degree == "hybrid") {
    options->degree = DegreeKind::kHybrid;
  } else {
    return Status::InvalidArgument(
        "options.degree must be interv, aggr or hybrid");
  }
  const std::string minimality =
      ToLower(object.GetString("minimality", "append"));
  if (minimality == "none") {
    options->minimality = MinimalityStrategy::kNone;
  } else if (minimality == "selfjoin") {
    options->minimality = MinimalityStrategy::kSelfJoin;
  } else if (minimality == "append") {
    options->minimality = MinimalityStrategy::kAppend;
  } else {
    return Status::InvalidArgument(
        "options.minimality must be none, selfjoin or append");
  }
  const JsonValue* support = object.Find("min_support");
  if (support != nullptr) {
    if (!support->is_number() || support->number_value() < 0) {
      return Status::InvalidArgument(
          "options.min_support must be a non-negative number");
    }
    options->min_support = support->number_value();
  }
  // The No-Cube evaluator scans U(D) once per candidate cell, exponential
  // in the attributes: a CLI, bench and test oracle that is never served.
  if (!object.GetBool("use_cube", true)) {
    return Status::InvalidArgument(
        "options.use_cube:false (the No-Cube baseline) is not served; use "
        "the CLI's --naive");
  }
  options->exact_rescore_when_not_additive = object.GetBool(
      "exact_rescore", options->exact_rescore_when_not_additive);
  XPLAIN_ASSIGN_OR_RETURN(
      options->exact_rescore_pool,
      WireUintMember(object, "exact_rescore_pool",
                     options->exact_rescore_pool));
  return Status::OK();
}

/// Parses a non-negative uint64 from a JSON number or decimal string
/// member (numbers of 2^53 and above must travel as strings to survive
/// double-typed JSON parsers).
Result<uint64_t> ParseUint64Member(const JsonValue& member,
                                   const char* what) {
  if (member.is_number()) return WireUint(member, what);
  if (member.is_string() && !member.string_value().empty()) {
    uint64_t out = 0;
    for (char c : member.string_value()) {
      if (c < '0' || c > '9') {
        return Status::InvalidArgument(std::string(what) +
                                       " must be a decimal string");
      }
      const uint64_t digit = static_cast<uint64_t>(c - '0');
      if (out > (UINT64_MAX - digit) / 10) {
        return Status::InvalidArgument(std::string(what) + " overflows");
      }
      out = out * 10 + digit;
    }
    return out;
  }
  return Status::InvalidArgument(std::string(what) +
                                 " must be a number or decimal string");
}

/// Injective field framing for cache keys: "<length>:<text>;".
void AppendKeyField(const std::string& text, std::string* out) {
  *out += std::to_string(text.size());
  *out += ':';
  *out += text;
  *out += ';';
}

void AppendExplanations(const Database& db,
                        const std::vector<RankedExplanation>& explanations,
                        std::string* out) {
  *out += "\"explanations\":[";
  for (size_t i = 0; i < explanations.size(); ++i) {
    const RankedExplanation& ranked = explanations[i];
    if (i > 0) out->push_back(',');
    *out += "{\"rank\":";
    *out += std::to_string(i + 1);
    *out += ",\"predicate\":";
    AppendJsonString(ranked.explanation.predicate().ToString(db), out);
    *out += ",\"degree\":";
    AppendJsonNumber(ranked.degree, out);
    // Deliberately no table-M row index here: it is an internal position
    // that shifts whenever a delta erases unrelated cells, which would
    // break the cache's survival contract (DESIGN.md §10).
    out->push_back('}');
  }
  out->push_back(']');
}

}  // namespace

const char* RequestOpToString(RequestOp op) {
  switch (op) {
    case RequestOp::kExplain:
      return "EXPLAIN";
    case RequestOp::kTopK:
      return "TOPK";
    case RequestOp::kStats:
      return "STATS";
    case RequestOp::kDrain:
      return "DRAIN";
    case RequestOp::kDelta:
      return "DELTA";
    case RequestOp::kMetrics:
      return "METRICS";
    case RequestOp::kFlight:
      return "FLIGHT";
  }
  return "UNKNOWN";
}

Result<Request> ParseRequest(const std::string& line) {
  XPLAIN_ASSIGN_OR_RETURN(JsonValue root, JsonValue::Parse(line));
  if (!root.is_object()) {
    return Status::ParseError("request must be a JSON object");
  }
  Request request;
  XPLAIN_ASSIGN_OR_RETURN(request.id, WireUintMember(root, "id", 0));
  const JsonValue* op = root.Find("op");
  if (op == nullptr || !op->is_string()) {
    return Status::InvalidArgument("request is missing the \"op\" member");
  }
  XPLAIN_ASSIGN_OR_RETURN(request.op, ParseOp(op->string_value()));
  XPLAIN_RETURN_IF_ERROR(ParseTraceMember(root, &request));
  const JsonValue* expect = root.Find("expect_version");
  if (expect != nullptr) {
    XPLAIN_ASSIGN_OR_RETURN(
        request.expect_version,
        ParseUint64Member(*expect, "expect_version"));
    request.has_expect_version = true;
  }
  if (request.op == RequestOp::kStats) {
    const JsonValue* schema = root.Find("schema");
    if (schema != nullptr) {
      if (!schema->is_bool()) {
        return Status::InvalidArgument("schema must be a boolean");
      }
      request.want_schema = schema->bool_value();
    }
    return request;
  }
  // Serving pins one engine thread per request; cross-request parallelism
  // comes from the service pool (DESIGN.md §8). The wire carries no thread
  // count: an "options.num_threads" key is ignored like any unknown key.
  request.options.num_threads = 1;
  if (request.op == RequestOp::kDelta) {
    request.delta_relation = root.GetString("relation", "");
    if (request.delta_relation.empty()) {
      return Status::InvalidArgument(
          "DELTA needs a \"relation\" string");
    }
    const JsonValue* rows = root.Find("rows");
    if (rows != nullptr) {
      if (!rows->is_array()) {
        return Status::InvalidArgument("DELTA rows must be an array");
      }
      for (const JsonValue& row : rows->array_items()) {
        XPLAIN_ASSIGN_OR_RETURN(const uint64_t index,
                                WireUint(row, "DELTA rows"));
        request.delta_rows.push_back(index);
      }
    }
    request.delta_where = root.GetString("where", "");
    if (rows == nullptr && request.delta_where.empty()) {
      return Status::InvalidArgument(
          "DELTA needs \"rows\" and/or \"where\"");
    }
    return request;
  }
  if (request.op != RequestOp::kExplain && request.op != RequestOp::kTopK) {
    return request;
  }

  const JsonValue* question = root.Find("question");
  if (question == nullptr || !question->is_object()) {
    return Status::InvalidArgument(
        "EXPLAIN/TOPK need a \"question\" object");
  }
  const JsonValue* subqueries = question->Find("subqueries");
  if (subqueries == nullptr || !subqueries->is_array() ||
      subqueries->array_items().empty()) {
    return Status::InvalidArgument(
        "question.subqueries must be a non-empty array");
  }
  for (const JsonValue& item : subqueries->array_items()) {
    if (!item.is_object()) {
      return Status::InvalidArgument("each subquery must be an object");
    }
    SubquerySpec spec;
    spec.name = item.GetString("name", "");
    spec.agg = item.GetString("agg", "");
    spec.where = item.GetString("where", "");
    if (spec.name.empty() || spec.agg.empty()) {
      return Status::InvalidArgument(
          "each subquery needs \"name\" and \"agg\" strings");
    }
    request.subqueries.push_back(std::move(spec));
  }
  request.expr = question->GetString("expr", "");
  if (request.expr.empty()) {
    return Status::InvalidArgument("question.expr must be a string");
  }
  request.direction = ToLower(question->GetString("direction", "high"));
  if (request.direction != "high" && request.direction != "low") {
    return Status::InvalidArgument("question.direction must be high or low");
  }

  const JsonValue* attrs = root.Find("attrs");
  if (attrs == nullptr || !attrs->is_array() ||
      attrs->array_items().empty()) {
    return Status::InvalidArgument(
        "EXPLAIN/TOPK need a non-empty \"attrs\" array");
  }
  for (const JsonValue& attr : attrs->array_items()) {
    if (!attr.is_string() || attr.string_value().empty()) {
      return Status::InvalidArgument("attrs must be non-empty strings");
    }
    request.attrs.push_back(attr.string_value());
  }

  const JsonValue* options = root.Find("options");
  if (options != nullptr) {
    if (!options->is_object()) {
      return Status::InvalidArgument("options must be an object");
    }
    XPLAIN_RETURN_IF_ERROR(ParseOptions(*options, &request.options));
  }

  const JsonValue* partial = root.Find("partial");
  if (partial != nullptr) {
    if (!partial->is_bool()) {
      return Status::InvalidArgument("partial must be a boolean");
    }
    request.partial = partial->bool_value();
  }
  const JsonValue* rescore = root.Find("rescore_cells");
  if (rescore != nullptr) {
    if (request.op != RequestOp::kExplain) {
      return Status::InvalidArgument(
          "rescore_cells is only valid on EXPLAIN");
    }
    if (request.partial) {
      return Status::InvalidArgument(
          "partial and rescore_cells are mutually exclusive");
    }
    if (!rescore->is_array() || rescore->array_items().empty()) {
      return Status::InvalidArgument(
          "rescore_cells must be a non-empty array of cells");
    }
    for (const JsonValue& cell : rescore->array_items()) {
      if (!cell.is_array() ||
          cell.array_items().size() != request.attrs.size()) {
        return Status::InvalidArgument(
            "each rescore cell must be an array of one value per attr");
      }
      Tuple tuple;
      tuple.reserve(cell.array_items().size());
      for (const JsonValue& coord : cell.array_items()) {
        XPLAIN_ASSIGN_OR_RETURN(Value value, ParseWireValue(coord));
        tuple.push_back(std::move(value));
      }
      request.rescore_cells.push_back(std::move(tuple));
    }
  }
  return request;
}

void AppendWireValue(const Value& value, std::string* out) {
  switch (value.type()) {
    case DataType::kNull:
      *out += "null";
      return;
    case DataType::kBool:
      *out += value.AsBool() ? "true" : "false";
      return;
    case DataType::kInt64:
      *out += "{\"i\":\"";
      *out += std::to_string(value.AsInt());
      *out += "\"}";
      return;
    case DataType::kDouble:
      *out += "{\"d\":";
      AppendJsonNumber(value.AsDouble(), out);
      out->push_back('}');
      return;
    case DataType::kString:
      AppendJsonString(value.AsString(), out);
      return;
  }
}

Result<Value> ParseWireValue(const JsonValue& json) {
  if (json.is_null()) return Value::Null();
  if (json.is_bool()) return Value::Bool(json.bool_value());
  if (json.is_string()) return Value::Str(json.string_value());
  if (json.is_object()) {
    const JsonValue* i = json.Find("i");
    if (i != nullptr) {
      if (!i->is_string()) {
        return Status::InvalidArgument("wire int64 \"i\" must be a string");
      }
      const std::string& text = i->string_value();
      errno = 0;
      char* end = nullptr;
      const long long parsed = std::strtoll(text.c_str(), &end, 10);
      if (text.empty() || end != text.c_str() + text.size() || errno != 0) {
        return Status::InvalidArgument("bad wire int64 '" + text + "'");
      }
      return Value::Int(static_cast<int64_t>(parsed));
    }
    const JsonValue* d = json.Find("d");
    if (d != nullptr) {
      if (!d->is_number()) {
        return Status::InvalidArgument("wire double \"d\" must be a number");
      }
      return Value::Real(d->number_value());
    }
    return Status::InvalidArgument(
        "wire value object needs an \"i\" or \"d\" member");
  }
  return Status::InvalidArgument(
      "wire value must be null, bool, string, or a tagged {\"i\"}/{\"d\"} "
      "object");
}

Result<uint64_t> WireUint(const JsonValue& value, const std::string& what) {
  constexpr double kMaxExact = 9007199254740991.0;  // 2^53 - 1
  const double v = value.is_number() ? value.number_value() : -1.0;
  if (v < 0 || v != std::floor(v)) {  // NaN != its own floor
    return Status::InvalidArgument(what + " must be a non-negative integer");
  }
  if (v > kMaxExact) {  // +inf too
    return Status::InvalidArgument(what + " must be at most 2^53 - 1");
  }
  return static_cast<uint64_t>(v);
}

Result<uint64_t> WireUintMember(const JsonValue& object,
                                const std::string& key, uint64_t fallback) {
  const JsonValue* member = object.Find(key);
  if (member == nullptr) return fallback;
  return WireUint(*member, key);
}

uint64_t ExtractRequestId(const std::string& line) {
  auto root = JsonValue::Parse(line);
  if (!root.ok() || !root->is_object()) return 0;
  const Result<uint64_t> id = WireUintMember(*root, "id", 0);
  return id.ok() ? *id : 0;
}

Result<UserQuestion> BuildQuestion(const Database& db,
                                   const Request& request) {
  std::vector<AggregateQuery> subqueries;
  std::vector<std::string> names;
  for (const SubquerySpec& spec : request.subqueries) {
    AggregateQuery q;
    q.name = spec.name;
    XPLAIN_ASSIGN_OR_RETURN(q.agg, ParseAggregate(db, spec.agg));
    if (q.agg.kind != AggregateKind::kCountStar &&
        q.agg.kind != AggregateKind::kCountDistinct &&
        !IsNumeric(db.ColumnType(q.agg.column))) {
      return Status::InvalidArgument(
          q.agg.ToString(db) + " needs a numeric column: a question's " +
          "subquery values are combined arithmetically");
    }
    XPLAIN_ASSIGN_OR_RETURN(q.where, ParseDnfPredicate(db, spec.where));
    names.push_back(q.name);
    subqueries.push_back(std::move(q));
  }
  XPLAIN_ASSIGN_OR_RETURN(ExprPtr expr, ParseExpression(request.expr, names));
  UserQuestion question;
  XPLAIN_ASSIGN_OR_RETURN(
      question.query,
      NumericalQuery::Create(std::move(subqueries), std::move(expr)));
  question.direction =
      request.direction == "low" ? Direction::kLow : Direction::kHigh;
  return question;
}

Result<DeltaSet> BuildDelta(const Database& db, const Request& request) {
  XPLAIN_ASSIGN_OR_RETURN(int rel, db.RelationIndex(request.delta_relation));
  DeltaSet delta = db.EmptyDelta();
  const size_t num_rows = db.relation(rel).NumRows();
  for (uint64_t row : request.delta_rows) {
    if (row >= num_rows) {
      return Status::InvalidArgument(
          "DELTA row " + std::to_string(row) + " out of range (" +
          request.delta_relation + " has " + std::to_string(num_rows) +
          " rows)");
    }
    delta[rel].Set(static_cast<size_t>(row));
  }
  if (!request.delta_where.empty()) {
    XPLAIN_ASSIGN_OR_RETURN(DnfPredicate where,
                            ParseDnfPredicate(db, request.delta_where));
    for (const ConjunctivePredicate& disjunct : where.disjuncts()) {
      for (const AtomicPredicate& atom : disjunct.atoms()) {
        if (atom.column.relation != rel) {
          return Status::InvalidArgument(
              "DELTA where may only reference columns of " +
              request.delta_relation);
        }
      }
    }
    for (size_t row = 0; row < num_rows; ++row) {
      for (const ConjunctivePredicate& disjunct : where.disjuncts()) {
        if (disjunct.EvalOnRelation(db, rel, row)) {
          delta[rel].Set(row);
          break;
        }
      }
    }
  }
  return delta;
}

std::string SerializeRequest(const Request& request) {
  std::string out = "{\"id\":";
  out += std::to_string(request.id);
  out += ",\"op\":\"";
  out += RequestOpToString(request.op);
  out += "\"";
  if (request.has_trace) {
    out += ",\"trace\":{\"id\":";
    AppendJsonString(TraceIdToHex(request.trace_id), &out);
    out += ",\"sampled\":";
    out += request.trace_sampled ? "true" : "false";
    out += "}";
  }
  if (request.has_expect_version) {
    // A string, so versions above 2^53 survive double-typed JSON parsers.
    out += ",\"expect_version\":\"";
    out += std::to_string(request.expect_version);
    out += "\"";
  }
  switch (request.op) {
    case RequestOp::kStats:
      if (request.want_schema) out += ",\"schema\":true";
      break;
    case RequestOp::kDrain:
    case RequestOp::kMetrics:
    case RequestOp::kFlight:
      break;
    case RequestOp::kDelta: {
      out += ",\"relation\":";
      AppendJsonString(request.delta_relation, &out);
      if (!request.delta_rows.empty()) {
        out += ",\"rows\":[";
        for (size_t i = 0; i < request.delta_rows.size(); ++i) {
          if (i > 0) out.push_back(',');
          out += std::to_string(request.delta_rows[i]);
        }
        out.push_back(']');
      }
      if (!request.delta_where.empty()) {
        out += ",\"where\":";
        AppendJsonString(request.delta_where, &out);
      }
      break;
    }
    case RequestOp::kExplain:
    case RequestOp::kTopK: {
      out += ",\"question\":{\"subqueries\":[";
      for (size_t i = 0; i < request.subqueries.size(); ++i) {
        const SubquerySpec& spec = request.subqueries[i];
        if (i > 0) out.push_back(',');
        out += "{\"name\":";
        AppendJsonString(spec.name, &out);
        out += ",\"agg\":";
        AppendJsonString(spec.agg, &out);
        if (!spec.where.empty()) {
          out += ",\"where\":";
          AppendJsonString(spec.where, &out);
        }
        out.push_back('}');
      }
      out += "],\"expr\":";
      AppendJsonString(request.expr, &out);
      out += ",\"direction\":";
      AppendJsonString(request.direction, &out);
      out += "},\"attrs\":[";
      for (size_t i = 0; i < request.attrs.size(); ++i) {
        if (i > 0) out.push_back(',');
        AppendJsonString(request.attrs[i], &out);
      }
      out.push_back(']');
      const ExplainOptions& o = request.options;
      out += ",\"options\":{\"top_k\":";
      out += std::to_string(o.top_k);
      out += ",\"degree\":\"";
      out += DegreeKindToString(o.degree);
      out += "\",\"minimality\":\"";
      out += o.minimality == MinimalityStrategy::kNone
                 ? "none"
                 : (o.minimality == MinimalityStrategy::kSelfJoin
                        ? "selfjoin"
                        : "append");
      out += "\",\"min_support\":";
      AppendJsonNumber(o.min_support, &out);
      out += ",\"exact_rescore\":";
      out += o.exact_rescore_when_not_additive ? "true" : "false";
      out += ",\"exact_rescore_pool\":";
      out += std::to_string(o.exact_rescore_pool);
      out.push_back('}');
      if (request.partial) out += ",\"partial\":true";
      if (!request.rescore_cells.empty()) {
        out += ",\"rescore_cells\":[";
        for (size_t i = 0; i < request.rescore_cells.size(); ++i) {
          if (i > 0) out.push_back(',');
          out.push_back('[');
          const Tuple& cell = request.rescore_cells[i];
          for (size_t j = 0; j < cell.size(); ++j) {
            if (j > 0) out.push_back(',');
            AppendWireValue(cell[j], &out);
          }
          out.push_back(']');
        }
        out.push_back(']');
      }
      break;
    }
  }
  out.push_back('}');
  return out;
}

std::string PartialReportPayload(const PartialExplainReport& report,
                                 uint64_t db_version) {
  const TableM& table = report.table;
  std::string out = "\"ok\":true,\"op\":\"EXPLAIN\",\"partial\":true";
  out += ",\"db_version\":";
  out += std::to_string(db_version);
  out += ",\"additive\":";
  out += report.additivity.additive ? "true" : "false";
  out += ",\"cell_additive\":";
  out += report.cell_additivity.additive ? "true" : "false";
  out += ",\"u\":[";
  for (size_t j = 0; j < table.original_values.size(); ++j) {
    if (j > 0) out.push_back(',');
    AppendJsonNumber(table.original_values[j], &out);
  }
  out += "],\"cells\":[";
  const size_t m = table.subquery_values.size();
  for (size_t row = 0; row < table.NumRows(); ++row) {
    if (row > 0) out.push_back(',');
    out += "{\"c\":[";
    const Tuple& coords = table.coords[row];
    for (size_t a = 0; a < coords.size(); ++a) {
      if (a > 0) out.push_back(',');
      AppendWireValue(coords[a], &out);
    }
    out += "],\"m\":\"";
    out += std::to_string(row < table.cube_mask.size() ? table.cube_mask[row]
                                                       : 0);
    out += "\",\"v\":[";
    for (size_t j = 0; j < m; ++j) {
      if (j > 0) out.push_back(',');
      AppendJsonNumber(table.subquery_values[j][row], &out);
    }
    out += "]}";
  }
  out += "]";
  return out;
}

std::string RescorePayload(const std::vector<std::vector<double>>& values,
                           uint64_t db_version) {
  std::string out = "\"ok\":true,\"op\":\"EXPLAIN\",\"db_version\":";
  out += std::to_string(db_version);
  out += ",\"rescored\":[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.push_back('[');
    for (size_t j = 0; j < values[i].size(); ++j) {
      if (j > 0) out.push_back(',');
      AppendJsonNumber(values[i][j], &out);
    }
    out.push_back(']');
  }
  out += "]";
  return out;
}

std::string ReportPayload(const Database& db, const ExplainReport& report,
                          RequestOp op) {
  std::string out = "\"ok\":true,\"op\":\"";
  out += RequestOpToString(op);
  out += "\",";
  if (op == RequestOp::kExplain) {
    out += "\"original_value\":";
    AppendJsonNumber(report.original_value, &out);
    out += ",\"used_cube\":";
    out += report.used_cube ? "true" : "false";
    out += ",\"exact_rescored\":";
    out += report.exact_rescored ? "true" : "false";
    out += ",\"additive\":";
    out += report.additivity.additive ? "true" : "false";
    out += ",\"cell_additive\":";
    out += report.cell_additivity.additive ? "true" : "false";
    out += ",\"candidates\":";
    out += std::to_string(report.table.NumRows());
    out += ",";
  }
  AppendExplanations(db, report.explanations, &out);
  return out;
}

std::string ErrorPayload(const Status& status) {
  std::string out = "\"ok\":false,\"code\":\"";
  out += StatusCodeToString(status.code());
  out += "\",\"error\":";
  AppendJsonString(status.message(), &out);
  return out;
}

std::string MakeResponse(uint64_t id, const std::string& payload) {
  std::string out = "{\"id\":";
  out += std::to_string(id);
  out.push_back(',');
  out += payload;
  out.push_back('}');
  return out;
}

std::string CanonicalRequestKey(const Request& request) {
  // EXPLAIN and TOPK share the computation but not the payload, so the op
  // participates in the key.
  std::string key;
  AppendKeyField(RequestOpToString(request.op), &key);
  for (const SubquerySpec& spec : request.subqueries) {
    AppendKeyField(spec.name, &key);
    AppendKeyField(spec.agg, &key);
    AppendKeyField(spec.where, &key);
  }
  AppendKeyField(request.expr, &key);
  AppendKeyField(request.direction, &key);
  for (const std::string& attr : request.attrs) {
    AppendKeyField(attr, &key);
  }
  AppendKeyField(CanonicalOptionsKey(request.options), &key);
  // Partial (shard-fragment) answers have a different payload shape than
  // ranked answers, so the flag participates. Rescore requests never reach
  // the cache (the service bypasses probe and insert), so rescore_cells
  // deliberately do not.
  AppendKeyField(request.partial ? "partial" : "full", &key);
  return key;
}

}  // namespace server
}  // namespace xplain
