#include "cluster/merge.h"

#include <cerrno>
#include <cstdlib>
#include <utility>

#include "core/cube_algorithm.h"
#include "relational/cube.h"
#include "server/json.h"
#include "server/protocol.h"
#include "util/trace.h"

namespace xplain {
namespace cluster {

namespace {

using server::JsonValue;

/// Inverse of StatusCodeToString for the codes that travel the wire;
/// unknown names decode as kInternal (an honest "something failed over
/// there" rather than a crash).
StatusCode CodeFromName(const std::string& name) {
  static constexpr StatusCode kCodes[] = {
      StatusCode::kInvalidArgument,    StatusCode::kNotFound,
      StatusCode::kAlreadyExists,      StatusCode::kOutOfRange,
      StatusCode::kUnimplemented,      StatusCode::kInternal,
      StatusCode::kParseError,         StatusCode::kConstraintViolation,
      StatusCode::kIoError,            StatusCode::kResourceExhausted,
      StatusCode::kUnavailable,        StatusCode::kFailedPrecondition,
  };
  for (StatusCode code : kCodes) {
    if (name == StatusCodeToString(code)) return code;
  }
  return StatusCode::kInternal;
}

Result<uint64_t> ParseMaskString(const std::string& text) {
  if (text.empty()) {
    return Status::InvalidArgument("empty cube-mask string");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE || end == nullptr || *end != '\0') {
    return Status::InvalidArgument("bad cube-mask string '" + text + "'");
  }
  return static_cast<uint64_t>(parsed);
}

/// Parses a shard reply line into a JSON object whose status is ok; an
/// ok:false reply returns the shard's own status. `what` names the reply
/// in errors.
Result<JsonValue> ParseOkReply(const std::string& line, const char* what) {
  XPLAIN_ASSIGN_OR_RETURN(JsonValue json, JsonValue::Parse(line));
  if (!json.is_object()) {
    return Status::InvalidArgument(std::string(what) +
                                   " is not a JSON object");
  }
  XPLAIN_RETURN_IF_ERROR(StatusOfResponse(json));
  return json;
}

/// The numbers of the JSON array `array` (nullptr = missing); `what`
/// names it in errors.
Result<std::vector<double>> ParseNumbers(const JsonValue* array,
                                         const std::string& what) {
  if (array == nullptr || !array->is_array()) {
    return Status::InvalidArgument(what + " is missing or not an array");
  }
  std::vector<double> numbers;
  numbers.reserve(array->array_items().size());
  for (const JsonValue& item : array->array_items()) {
    if (!item.is_number()) {
      return Status::InvalidArgument(what + " holds a non-number");
    }
    numbers.push_back(item.number_value());
  }
  return numbers;
}

}  // namespace

Status StatusOfResponse(const JsonValue& response) {
  const JsonValue* ok = response.Find("ok");
  if (ok != nullptr && ok->is_bool() && ok->bool_value()) {
    return Status::OK();
  }
  return Status(CodeFromName(response.GetString("code", "Internal")),
                response.GetString("error", "shard returned ok:false"));
}

Result<ShardPartial> ParsePartialPayload(const std::string& line) {
  XPLAIN_ASSIGN_OR_RETURN(JsonValue json, ParseOkReply(line, "shard partial"));
  if (!json.GetBool("partial", false)) {
    return Status::InvalidArgument(
        "shard response carries no partial fragment");
  }
  ShardPartial partial;
  XPLAIN_ASSIGN_OR_RETURN(partial.db_version,
                          server::WireUintMember(json, "db_version", 0));
  partial.additive = json.GetBool("additive", false);
  partial.cell_additive = json.GetBool("cell_additive", false);
  XPLAIN_ASSIGN_OR_RETURN(partial.u,
                          ParseNumbers(json.Find("u"), "shard partial 'u'"));
  const JsonValue* cells = json.Find("cells");
  if (cells == nullptr || !cells->is_array()) {
    return Status::InvalidArgument("shard partial is missing 'cells'");
  }
  partial.coords.reserve(cells->array_items().size());
  partial.masks.reserve(cells->array_items().size());
  partial.values.reserve(cells->array_items().size());
  for (const JsonValue& cell : cells->array_items()) {
    if (!cell.is_object()) {
      return Status::InvalidArgument("shard partial cell is not an object");
    }
    const JsonValue* c = cell.Find("c");
    const JsonValue* mask = cell.Find("m");
    if (c == nullptr || !c->is_array() || mask == nullptr ||
        !mask->is_string()) {
      return Status::InvalidArgument(
          "shard partial cell is missing c/m members");
    }
    Tuple coords;
    coords.reserve(c->array_items().size());
    for (const JsonValue& coord : c->array_items()) {
      XPLAIN_ASSIGN_OR_RETURN(Value value, server::ParseWireValue(coord));
      coords.push_back(std::move(value));
    }
    XPLAIN_ASSIGN_OR_RETURN(uint64_t mask_bits,
                            ParseMaskString(mask->string_value()));
    XPLAIN_ASSIGN_OR_RETURN(
        std::vector<double> values,
        ParseNumbers(cell.Find("v"), "shard partial cell 'v'"));
    if (values.size() != partial.u.size()) {
      return Status::InvalidArgument(
          "shard partial cell has " + std::to_string(values.size()) +
          " values but the question has " + std::to_string(partial.u.size()) +
          " subqueries");
    }
    partial.coords.push_back(std::move(coords));
    partial.masks.push_back(mask_bits);
    partial.values.push_back(std::move(values));
  }
  return partial;
}

Result<std::vector<std::vector<double>>> ParseRescorePayload(
    const std::string& line) {
  XPLAIN_ASSIGN_OR_RETURN(JsonValue json,
                          ParseOkReply(line, "shard rescore response"));
  const JsonValue* rescored = json.Find("rescored");
  if (rescored == nullptr || !rescored->is_array()) {
    return Status::InvalidArgument(
        "rescore response carries no 'rescored' member");
  }
  std::vector<std::vector<double>> rows;
  rows.reserve(rescored->array_items().size());
  for (const JsonValue& row : rescored->array_items()) {
    XPLAIN_ASSIGN_OR_RETURN(std::vector<double> values,
                            ParseNumbers(&row, "rescore row"));
    rows.push_back(std::move(values));
  }
  return rows;
}

Result<MergedExplain> MergePartials(
    const UserQuestion& question, const std::vector<ColumnRef>& attributes,
    const ExplainOptions& options,
    const std::vector<ShardPartial>& partials) {
  XPLAIN_TRACE_SPAN("cluster.merge");
  if (partials.empty()) {
    return Status::InvalidArgument("no shard partials to merge");
  }
  const size_t m = static_cast<size_t>(question.query.num_subqueries());
  for (size_t s = 0; s < partials.size(); ++s) {
    if (partials[s].u.size() != m) {
      return Status::InvalidArgument(
          "shard " + std::to_string(s) + " answered " +
          std::to_string(partials[s].u.size()) + " subqueries; expected " +
          std::to_string(m));
    }
    for (const Tuple& coords : partials[s].coords) {
      if (coords.size() != attributes.size()) {
        return Status::InvalidArgument(
            "shard " + std::to_string(s) +
            " fragment row arity does not match the candidate attributes");
      }
    }
  }

  // Reconstruct each shard's per-subquery cube from its fragment rows
  // (mask bit j = cube C_j materialized the cell), join the K shard cubes
  // per subquery, and column-sum into the global cube. Cube cells of the
  // envelope aggregates are additive over the disjoint row partition, so
  // the summed cube equals the single-node cube cell-for-cell; summation
  // runs in shard-map order for determinism.
  std::vector<DataCube> merged_cubes;
  merged_cubes.reserve(m);
  for (size_t j = 0; j < m; ++j) {
    std::vector<DataCube> shard_cubes;
    shard_cubes.reserve(partials.size());
    for (const ShardPartial& partial : partials) {
      DataCube::CellMap cells;
      for (size_t row = 0; row < partial.coords.size(); ++row) {
        if ((partial.masks[row] >> j) & 1u) {
          cells.emplace(partial.coords[row], partial.values[row][j]);
        }
      }
      shard_cubes.push_back(DataCube::FromCells(attributes, std::move(cells)));
    }
    std::vector<const DataCube*> operands;
    operands.reserve(shard_cubes.size());
    for (const DataCube& cube : shard_cubes) operands.push_back(&cube);
    XPLAIN_ASSIGN_OR_RETURN(CubeJoinResult joined,
                            FullOuterJoinCubes(operands));
    DataCube::CellMap sums;
    sums.reserve(joined.NumRows());
    for (size_t row = 0; row < joined.NumRows(); ++row) {
      bool present = false;
      double sum = 0.0;
      for (size_t s = 0; s < partials.size(); ++s) {
        sum += joined.values[s][row];
        present = present || joined.present[s][row] != 0;
      }
      if (present) sums.emplace(joined.coords[row], sum);
    }
    merged_cubes.push_back(DataCube::FromCells(attributes, std::move(sums)));
  }

  std::vector<const DataCube*> operands;
  operands.reserve(merged_cubes.size());
  for (const DataCube& cube : merged_cubes) operands.push_back(&cube);
  XPLAIN_ASSIGN_OR_RETURN(CubeJoinResult joined, FullOuterJoinCubes(operands));

  MergedExplain merged;
  ExplainReport& report = merged.report;
  report.used_cube = true;

  // Global originals: u_j(D) = sum over shards of u_j(D_s) (exact for the
  // envelope aggregates — counts stay integral in doubles).
  std::vector<double> u_sum(m, 0.0);
  for (const ShardPartial& partial : partials) {
    for (size_t j = 0; j < m; ++j) u_sum[j] += partial.u[j];
  }
  report.original_value = question.query.Combine(u_sum);

  // Verdicts are ANDed across shards: additivity is a property of the
  // schema, FK kinds and unique-core bits, and a partition that co-locates
  // every base row's universal occurrences preserves each shard's bits
  // (DESIGN.md §13 documents the non-co-locating caveat).
  report.additivity.additive = true;
  report.cell_additivity.additive = true;
  for (size_t s = 0; s < partials.size(); ++s) {
    if (!partials[s].additive && report.additivity.additive) {
      report.additivity.additive = false;
      report.additivity.reason =
          "shard " + std::to_string(s) + " is not additive";
    }
    if (!partials[s].cell_additive && report.cell_additivity.additive) {
      report.cell_additivity.additive = false;
      report.cell_additivity.reason =
          "shard " + std::to_string(s) + " is not cell-additive";
    }
  }
  if (report.additivity.additive) {
    report.additivity.reason =
        "all " + std::to_string(partials.size()) + " shard verdicts additive";
  }
  if (report.cell_additivity.additive) {
    report.cell_additivity.reason =
        "all " + std::to_string(partials.size()) +
        " shard verdicts cell-additive";
  }

  // The shared single-node tail: support pruning (the coordinator is the
  // only place min_support applies — shards always ship unpruned), degree
  // columns, ranking. Identical inputs, identical code, identical bytes.
  TableM& table = report.table;
  table.attributes = attributes;
  table.original_values = u_sum;
  XPLAIN_RETURN_IF_ERROR(AssembleTableM(std::move(joined), question.query,
                                        question.direction,
                                        options.min_support, nullptr, &table));

  // The shared ranking tail: ranks now, or leaves the candidate pool to
  // the rescore fan-out.
  XPLAIN_ASSIGN_OR_RETURN(merged.pool,
                          RankOrSelectRescorePool(options, nullptr, &report));
  merged.need_rescore = report.exact_rescored;
  return merged;
}

Status FinishRescore(
    const UserQuestion& question, const ExplainOptions& options,
    const std::vector<std::vector<std::vector<double>>>& shard_values,
    MergedExplain* merged) {
  XPLAIN_TRACE_SPAN("cluster.rescore_merge");
  if (!merged->need_rescore) {
    return Status::Internal("FinishRescore called without a pending rescore");
  }
  std::vector<RankedExplanation>& pool = merged->pool;
  const size_t m = static_cast<size_t>(question.query.num_subqueries());
  // q_j(D - Delta^phi) decomposes into the per-shard residuals when the
  // partition co-locates every base row's universal occurrences (DESIGN.md
  // §13); sum them in shard-map order, then rank as a single node does.
  std::vector<std::vector<double>> residuals(pool.size(),
                                             std::vector<double>(m, 0.0));
  for (size_t s = 0; s < shard_values.size(); ++s) {
    if (shard_values[s].size() != pool.size()) {
      return Status::InvalidArgument(
          "shard " + std::to_string(s) + " rescored " +
          std::to_string(shard_values[s].size()) + " cells; expected " +
          std::to_string(pool.size()));
    }
    for (size_t i = 0; i < pool.size(); ++i) {
      if (shard_values[s][i].size() != m) {
        return Status::InvalidArgument(
            "shard " + std::to_string(s) +
            " rescore row has the wrong subquery arity");
      }
      for (size_t j = 0; j < m; ++j) residuals[i][j] += shard_values[s][i][j];
    }
  }
  RankByExactResiduals(question, options.top_k, residuals, std::move(pool),
                       &merged->report);
  merged->need_rescore = false;
  return Status::OK();
}

}  // namespace cluster
}  // namespace xplain
