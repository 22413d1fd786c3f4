#ifndef XPLAIN_CLUSTER_MERGE_H_
#define XPLAIN_CLUSTER_MERGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "relational/query.h"
#include "server/json.h"
#include "util/result.h"

namespace xplain {
namespace cluster {

/// One shard's answer to a partial EXPLAIN, decoded from the wire
/// (server::PartialReportPayload): the unpruned table-M fragment over that
/// shard's partition, row-major.
/// Thread-safety: plain data, externally synchronized.
struct ShardPartial {
  uint64_t db_version = 0;
  bool additive = false;
  bool cell_additive = false;
  /// Per-shard originals u_j = q_j(D_s).
  std::vector<double> u;
  /// One entry per fragment row, in the shard's canonical order.
  std::vector<Tuple> coords;
  /// cube_mask of each row (bit j = cube C_j materialized this cell).
  std::vector<uint64_t> masks;
  /// values[row][j] = v_j of that row.
  std::vector<std::vector<double>> values;
};

/// Decodes a shard's ok:false response into the shard's own Status (its
/// wire code name and error message; an unknown code decodes as
/// kInternal); OK for an ok:true response.
[[nodiscard]] Status StatusOfResponse(const server::JsonValue& response);

/// Parses one shard response line carrying a PartialReportPayload, once.
/// An ok:false line returns the shard's own status (StatusOfResponse);
/// a malformed line is kInvalidArgument (or the JSON parser's error).
[[nodiscard]] Result<ShardPartial> ParsePartialPayload(
    const std::string& line);

/// Parses one shard response line to a rescore request
/// (server::RescorePayload): the "rescored" rows, rows[i][j] =
/// q_j(D_s - Delta^phi_i_s). Error statuses as ParsePartialPayload's;
/// FinishRescore checks the row count and arity.
[[nodiscard]] Result<std::vector<std::vector<double>>> ParseRescorePayload(
    const std::string& line);

/// The coordinator-side outcome of merging K shard fragments: either a
/// finished report (`need_rescore == false`) or a report whose candidate
/// `pool` still needs the exact-rescore fan-out (FinishRescore).
/// Thread-safety: plain data, externally synchronized.
struct MergedExplain {
  ExplainReport report;
  bool need_rescore = false;
  /// Rescore candidates (when need_rescore): ranked by the cube proxy,
  /// m_row indexing report.table.
  std::vector<RankedExplanation> pool;
};

/// Merges K shard fragments into one report, bit-identically to a single
/// node over the union database (DESIGN.md §13): reconstructs each
/// shard's per-subquery cubes from the fragment rows and their cube
/// masks, full-outer-joins and column-sums them into the global cubes,
/// joins those across subqueries, and re-runs the shared AssembleTableM +
/// RankOrSelectRescorePool tail with the caller's real options
/// (min_support is applied here, after the global merge). Additivity
/// verdicts are the AND over shards — exact whenever the partition
/// co-locates every base row's universal occurrences. When the question needs exact intervention
/// degrees, the result carries the candidate pool for the rescore
/// fan-out instead of final rankings.
[[nodiscard]] Result<MergedExplain> MergePartials(
    const UserQuestion& question, const std::vector<ColumnRef>& attributes,
    const ExplainOptions& options, const std::vector<ShardPartial>& partials);

/// Completes an exact rescore from the per-shard residual subquery values
/// (shard_values[s][i][j] = q_j(D_s - Delta^phi_i_s), shards in shard-map
/// order, cells in `merged->pool` order): sums residuals across shards,
/// then ranks through the single node's RankByExactResiduals.
[[nodiscard]] Status FinishRescore(
    const UserQuestion& question, const ExplainOptions& options,
    const std::vector<std::vector<std::vector<double>>>& shard_values,
    MergedExplain* merged);

}  // namespace cluster
}  // namespace xplain

#endif  // XPLAIN_CLUSTER_MERGE_H_
