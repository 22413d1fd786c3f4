#include "core/cube_algorithm.h"

#include "core/degree.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace xplain {

namespace {

/// Milliseconds elapsed since `start_us` on the trace clock.
double MsSince(int64_t start_us) {
  return static_cast<double>(Trace::NowMicros() - start_us) / 1000.0;
}

/// Wraps a freshly computed cube for table M, offering it to `workspace`
/// (when set) for retention. Only int64 SUM needs a sidecar: COUNT(*) over
/// the same rows and attributes, its cell-liveness count.
Result<std::shared_ptr<const DataCube>> KeepCube(
    const Database& db, CubeWorkspace* workspace, const AggregateQuery& q,
    const std::vector<ColumnRef>& attributes, DataCube cube,
    const ColumnCache& cache, const std::vector<int>& attr_indices,
    const std::vector<uint32_t>& rows, const CubeOptions& options) {
  if (workspace == nullptr) {
    return std::make_shared<const DataCube>(std::move(cube));
  }
  DataCube::CellMap counts;
  if (q.agg.kind == AggregateKind::kSum &&
      CubeWorkspace::CubeIsMaintainable(db, q.agg)) {
    XPLAIN_ASSIGN_OR_RETURN(
        DataCube count_cells,
        DataCube::Compute(cache, attr_indices, AggregateKind::kCountStar, -1,
                          &rows, options));
    counts = std::move(*count_cells.mutable_cells());
  }
  return workspace->InsertCube(db, q, attributes, std::move(cube),
                               std::move(counts));
}

}  // namespace

int64_t TableM::FindRow(const Tuple& cell) const {
  for (size_t i = 0; i < coords.size(); ++i) {
    if (TupleEq{}(coords[i], cell)) return static_cast<int64_t>(i);
  }
  return -1;
}

Result<TableM> ComputeTableM(const UniversalRelation& universal,
                             const UserQuestion& question,
                             const std::vector<ColumnRef>& attributes,
                             const TableMOptions& options) {
  const NumericalQuery& query = question.query;
  const int m = query.num_subqueries();
  if (m == 0) {
    return Status::InvalidArgument("question has no subqueries");
  }
  if (attributes.empty()) {
    return Status::InvalidArgument("table M needs a candidate attribute");
  }

  TableM table;
  table.attributes = attributes;
  XPLAIN_TRACE_SPAN("tablem.compute");

  // Step 2: the m cubes, each from the maintained workspace when it holds
  // one (shared across calls) or computed fresh over one set of
  // dictionary-encoded columns shared by the cubes still to build.
  const Database& db = universal.db();
  CubeWorkspace* workspace = options.workspace;
  std::vector<std::shared_ptr<const DataCube>> cubes(m);
  std::vector<int> missed;
  int64_t step_start_us = Trace::NowMicros();
  TraceSpan cubes_span("tablem.cubes");
  for (int j = 0; j < m; ++j) {
    if (workspace != nullptr) {
      cubes[j] = workspace->LookupCube(db, query.subqueries()[j], attributes);
    }
    if (cubes[j] == nullptr) missed.push_back(j);
  }
  if (!missed.empty()) {
    // Encode the grouping attributes plus every aggregated and filter
    // column of the cubes still to build, so the group-by, the aggregate
    // and the WHERE clauses all run on dictionary codes.
    std::vector<ColumnRef> cached_columns = attributes;
    for (int j : missed) {
      AppendQueryColumns(query.subqueries()[j], &cached_columns);
    }
    const int64_t encode_start_us = Trace::NowMicros();
    TraceSpan encode_span("tablem.encode");
    const ColumnCache cache =
        workspace != nullptr ? workspace->Columns(universal, cached_columns)
                             : ColumnCache::Build(universal, cached_columns);
    encode_span.End();
    table.build_stats.encode_ms = MsSince(encode_start_us);
    std::vector<int> attr_indices;
    for (size_t i = 0; i < attributes.size(); ++i) {
      attr_indices.push_back(static_cast<int>(i));
    }
    for (int j : missed) {
      const AggregateQuery& q = query.subqueries()[j];
      XPLAIN_ASSIGN_OR_RETURN(CodedFilter filter,
                              CodedFilter::Compile(cache, q.where));
      const std::vector<uint32_t> filter_rows = filter.EvalRows(cache, nullptr);
      const int measure_index = q.agg.kind == AggregateKind::kCountStar
                                    ? -1
                                    : cache.FindColumn(q.agg.column);
      XPLAIN_ASSIGN_OR_RETURN(
          DataCube cube,
          DataCube::Compute(cache, attr_indices, q.agg.kind, measure_index,
                            &filter_rows, options.cube));
      XPLAIN_ASSIGN_OR_RETURN(
          cubes[j], KeepCube(db, workspace, q, attributes, std::move(cube),
                             cache, attr_indices, filter_rows, options.cube));
    }
  }
  cubes_span.End();
  table.build_stats.cube_build_ms = MsSince(step_start_us);

  // Step 1: u_j = q_j(D) is the apex (all-ALL) cell, which maintained
  // cubes keep patched under deltas. A filter that passes no row leaves no
  // apex, which reads 0 like the row-at-a-time aggregate.
  step_start_us = Trace::NowMicros();
  {
    XPLAIN_TRACE_SPAN("tablem.apex");
    table.original_values.reserve(m);
    for (const auto& cube : cubes) {
      table.original_values.push_back(cube->GrandTotal());
    }
  }
  table.build_stats.originals_ms = MsSince(step_start_us);

  // Step 3: full outer join, then the shared assemble step (support
  // pruning + degree columns) that the cluster coordinator reuses over
  // merged shard cubes (DESIGN.md §13).
  step_start_us = Trace::NowMicros();
  TraceSpan merge_span("tablem.merge");
  std::vector<const DataCube*> cube_ptrs;
  for (const auto& c : cubes) cube_ptrs.push_back(c.get());
  XPLAIN_ASSIGN_OR_RETURN(CubeJoinResult joined,
                          FullOuterJoinCubes(cube_ptrs));
  merge_span.End();
  table.build_stats.merge_ms = MsSince(step_start_us);
  XPLAIN_RETURN_IF_ERROR(AssembleTableM(std::move(joined), query,
                                        question.direction,
                                        options.min_support,
                                        options.cube.pool, &table));
  return table;
}

Status AssembleTableM(CubeJoinResult joined, const NumericalQuery& query,
                      Direction direction, double min_support,
                      ThreadPool* pool, TableM* table) {
  const int m = static_cast<int>(joined.values.size());
  if (m == 0) {
    return Status::InvalidArgument("joined cube table has no value columns");
  }
  if (m > 64) {
    return Status::InvalidArgument(
        "cube_mask covers at most 64 subqueries; got " + std::to_string(m));
  }
  if (static_cast<int>(query.num_subqueries()) != m) {
    return Status::InvalidArgument(
        "joined cube table has " + std::to_string(m) +
        " value columns but the query has " +
        std::to_string(query.num_subqueries()) + " subqueries");
  }
  int64_t step_start_us = Trace::NowMicros();
  TraceSpan assemble_span("tablem.assemble");
  table->build_stats.rows_before_support = joined.NumRows();

  // Optional support pruning.
  std::vector<size_t> kept;
  kept.reserve(joined.NumRows());
  for (size_t row = 0; row < joined.NumRows(); ++row) {
    if (min_support > 0.0) {
      bool supported = false;
      for (int j = 0; j < m; ++j) {
        if (joined.values[j][row] >= min_support) {
          supported = true;
          break;
        }
      }
      if (!supported) continue;
    }
    kept.push_back(row);
  }

  table->coords.reserve(kept.size());
  table->subquery_values.assign(m, {});
  for (int j = 0; j < m; ++j) table->subquery_values[j].reserve(kept.size());
  table->cube_mask.reserve(kept.size());
  const bool have_present = !joined.present.empty();
  for (size_t row : kept) {
    table->coords.push_back(std::move(joined.coords[row]));
    uint64_t mask = 0;
    for (int j = 0; j < m; ++j) {
      table->subquery_values[j].push_back(joined.values[j][row]);
      if (have_present && joined.present[j][row]) mask |= uint64_t{1} << j;
    }
    table->cube_mask.push_back(mask);
  }
  assemble_span.End();
  table->build_stats.merge_ms += MsSince(step_start_us);
  table->build_stats.rows = table->coords.size();

  // Steps 4-5: degree columns. Rows are independent, so shards write
  // disjoint ranges of the preallocated columns; each row's arithmetic is
  // identical to the sequential path, keeping the columns bit-identical
  // for every thread count.
  const double interv_sign = InterventionSign(direction);
  const double aggr_sign = AggravationSign(direction);
  const size_t rows = table->coords.size();
  table->mu_interv.assign(rows, 0.0);
  table->mu_aggr.assign(rows, 0.0);
  step_start_us = Trace::NowMicros();
  TraceSpan degrees_span("tablem.degrees");
  XPLAIN_RETURN_IF_ERROR(ParallelShards(
      pool, rows, [&](int, size_t begin, size_t end) {
        XPLAIN_TRACE_SPAN("tablem.degree_shard");
        std::vector<double> vars(m);
        for (size_t row = begin; row < end; ++row) {
          for (int j = 0; j < m; ++j) {
            vars[j] =
                table->original_values[j] - table->subquery_values[j][row];
          }
          table->mu_interv[row] = interv_sign * query.Combine(vars);
          for (int j = 0; j < m; ++j) {
            vars[j] = table->subquery_values[j][row];
          }
          table->mu_aggr[row] = aggr_sign * query.Combine(vars);
        }
        return Status::OK();
      }));
  degrees_span.End();
  table->build_stats.degree_ms = MsSince(step_start_us);
  return Status::OK();
}

}  // namespace xplain
