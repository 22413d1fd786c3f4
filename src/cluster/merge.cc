#include "cluster/merge.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <utility>

#include "core/cube_algorithm.h"
#include "core/degree.h"
#include "core/topk.h"
#include "relational/cube.h"
#include "server/json.h"
#include "server/protocol.h"
#include "util/trace.h"

namespace xplain {
namespace cluster {

namespace {

using server::JsonValue;

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

}  // namespace

Result<ShardPartial> ParsePartialPayload(const std::string& line) {
  XPLAIN_ASSIGN_OR_RETURN(JsonValue json, JsonValue::Parse(line));
  if (!json.is_object()) {
    return Status::InvalidArgument("shard partial is not a JSON object");
  }
  const JsonValue* ok = json.Find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->bool_value()) {
    return Status::InvalidArgument("shard partial is not an ok response");
  }
  if (!json.GetBool("partial", false)) {
    return Status::InvalidArgument(
        "shard response carries no partial fragment");
  }
  ShardPartial partial;
  XPLAIN_ASSIGN_OR_RETURN(partial.db_version,
                          server::WireUintMember(json, "db_version", 0));
  partial.additive = json.GetBool("additive", false);
  partial.cell_additive = json.GetBool("cell_additive", false);
  const JsonValue* u = json.Find("u");
  if (u == nullptr || !u->is_array()) {
    return Status::InvalidArgument("shard partial is missing 'u'");
  }
  for (const JsonValue& item : u->array_items()) {
    if (!item.is_number()) {
      return Status::InvalidArgument("shard partial 'u' holds a non-number");
    }
    partial.u.push_back(item.number_value());
  }
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
    const JsonValue* v = cell.Find("v");
    if (c == nullptr || !c->is_array() || mask == nullptr ||
        !mask->is_string() || v == nullptr || !v->is_array()) {
      return Status::InvalidArgument(
          "shard partial cell is missing c/m/v members");
    }
    Tuple coords;
    coords.reserve(c->array_items().size());
    for (const JsonValue& coord : c->array_items()) {
      XPLAIN_ASSIGN_OR_RETURN(Value value, server::ParseWireValue(coord));
      coords.push_back(std::move(value));
    }
    XPLAIN_ASSIGN_OR_RETURN(uint64_t mask_bits,
                            ParseMaskString(mask->string_value()));
    std::vector<double> values;
    values.reserve(v->array_items().size());
    for (const JsonValue& item : v->array_items()) {
      if (!item.is_number()) {
        return Status::InvalidArgument(
            "shard partial cell 'v' holds a non-number");
      }
      values.push_back(item.number_value());
    }
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

  const bool need_exact = options.degree == DegreeKind::kIntervention &&
                          !report.cell_additivity.additive;
  if (!need_exact) {
    XPLAIN_TRACE_SPAN("cluster.topk");
    report.explanations =
        TopKExplanations(table, options.degree, options.top_k,
                         options.minimality, nullptr);
    return merged;
  }
  if (!options.exact_rescore_when_not_additive) {
    return Status::InvalidArgument(
        "question is not cell-exact intervention-additive (" +
        report.cell_additivity.reason +
        "); enable exact_rescore_when_not_additive or rank by aggravation");
  }

  // Mirror of the engine's hybrid path: select the candidate pool on the
  // cube proxy, then leave the exact degrees to the rescore fan-out.
  report.exact_rescored = true;
  merged.need_rescore = true;
  const size_t pool_size = std::max(options.exact_rescore_pool, options.top_k);
  XPLAIN_TRACE_SPAN("cluster.rescore_select");
  merged.pool = TopKExplanations(
      table, DegreeKind::kIntervention, pool_size,
      options.minimality == MinimalityStrategy::kNone
          ? MinimalityStrategy::kNone
          : MinimalityStrategy::kSelfJoin,
      nullptr);
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
  for (size_t s = 0; s < shard_values.size(); ++s) {
    if (shard_values[s].size() != pool.size()) {
      return Status::InvalidArgument(
          "shard " + std::to_string(s) + " rescored " +
          std::to_string(shard_values[s].size()) + " cells; expected " +
          std::to_string(pool.size()));
    }
    for (const std::vector<double>& values : shard_values[s]) {
      if (values.size() != m) {
        return Status::InvalidArgument(
            "shard " + std::to_string(s) +
            " rescore row has the wrong subquery arity");
      }
    }
  }
  // Exact degree of candidate phi: sign * E over the residual subquery
  // values summed across shards — q_j(D - Delta^phi) decomposes into the
  // per-shard residuals when the partition co-locates every base row's
  // universal occurrences (DESIGN.md §13).
  const double sign = InterventionSign(question.direction);
  for (size_t i = 0; i < pool.size(); ++i) {
    std::vector<double> residual(m, 0.0);
    for (size_t s = 0; s < shard_values.size(); ++s) {
      for (size_t j = 0; j < m; ++j) residual[j] += shard_values[s][i][j];
    }
    const double degree = sign * question.query.Combine(residual);
    pool[i].degree = degree;
    // Keep table M in sync so follow-up minimality sees exact values.
    merged->report.table.mu_interv[pool[i].m_row] = degree;
  }
  std::stable_sort(pool.begin(), pool.end(),
                   [](const RankedExplanation& a, const RankedExplanation& b) {
                     return a.degree > b.degree;
                   });
  if (pool.size() > options.top_k) pool.resize(options.top_k);
  merged->report.explanations = std::move(pool);
  merged->need_rescore = false;
  return Status::OK();
}

}  // namespace cluster
}  // namespace xplain
