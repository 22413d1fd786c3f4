#ifndef XPLAIN_CORE_CUBE_ALGORITHM_H_
#define XPLAIN_CORE_CUBE_ALGORITHM_H_

#include <string>
#include <vector>

#include "core/cube_workspace.h"
#include "core/explanation.h"
#include "relational/cube.h"
#include "relational/query.h"
#include "util/result.h"

namespace xplain {

/// Wall-clock / size breakdown of one ComputeTableM call. Always collected
/// (the cost is a handful of monotonic-clock reads per call); the engine
/// copies it into QueryStats when ExplainOptions::collect_stats is set.
/// Thread-safety: plain data, externally synchronized.
struct TableMStats {
  /// Step 1: u_j = q_j(D), read off the m cube apex cells.
  double originals_ms = 0.0;
  /// Step 2: building the m data cubes, including encode_ms.
  double cube_build_ms = 0.0;
  /// The part of cube_build_ms spent assembling the dictionary-encoded
  /// columns (encoding the ones no earlier question retained).
  double encode_ms = 0.0;
  /// Step 3: full outer join of the cubes + support pruning.
  double merge_ms = 0.0;
  /// Steps 4-5: the mu_interv / mu_aggr degree columns.
  double degree_ms = 0.0;
  /// Joined rows before support pruning.
  size_t rows_before_support = 0;
  /// Rows of the final table M.
  size_t rows = 0;
};

/// The materialized table M of Algorithm 1: one row per candidate
/// explanation (cube cell over the candidate attributes A'), carrying the
/// per-subquery cube values v_j(phi) = q_j(D_phi) and the two degree
/// columns. Rows are in canonical (lexicographic coordinate) order.
/// Thread-safety: safe for concurrent const access once computed;
/// mutation (e.g. the engine's exact rescore) is externally synchronized.
struct TableM {
  std::vector<ColumnRef> attributes;
  /// Cell coordinates; NULL = don't care. Includes the trivial all-NULL row.
  std::vector<Tuple> coords;
  /// subquery_values[j][row] = v_j = q_j(D_phi).
  std::vector<std::vector<double>> subquery_values;
  /// u_j = q_j(D) on the full database.
  std::vector<double> original_values;
  /// mu_interv(phi) = interv_sign * E(u_1 - v_1, ..., u_m - v_m)
  /// (valid when Q is intervention-additive).
  std::vector<double> mu_interv;
  /// mu_aggr(phi) = aggr_sign * E(v_1, ..., v_m).
  std::vector<double> mu_aggr;
  /// cube_mask[row] bit j is set iff cube C_j materialized a cell at
  /// coords[row] (as opposed to the full outer join padding v_j with 0).
  /// The cluster layer ships these masks so the coordinator can
  /// reconstruct each shard's per-subquery cube support exactly
  /// (DESIGN.md §13).
  std::vector<uint64_t> cube_mask;
  /// How long each build step took (see TableMStats).
  TableMStats build_stats;

  size_t NumRows() const { return coords.size(); }
  Explanation ExplanationAt(size_t row) const {
    return Explanation::FromCell(attributes, coords[row]);
  }
  /// Index of the cell with coordinates `cell`, or -1.
  int64_t FindRow(const Tuple& cell) const;
};

/// Options for ComputeTableM.
/// Thread-safety: plain data, externally synchronized.
struct TableMOptions {
  /// Cube evaluation options; set `cube.pool` to shard the cube scans,
  /// rollups, and the degree columns across a ThreadPool (DESIGN.md §6).
  CubeOptions cube;
  /// Keep only rows where at least one v_j reaches this support (the paper
  /// used 1000 on natality). 0 keeps everything.
  double min_support = 0.0;
  /// Optional store of incrementally-maintained cubes and encoded columns
  /// shared across calls (DESIGN.md §10). When set, per-subquery cubes are
  /// looked up first, columns are assembled only for the cubes that
  /// missed, and maintainable fresh results are retained. nullptr computes
  /// everything from scratch (identical results).
  CubeWorkspace* workspace = nullptr;
};

/// Algorithm 1 (paper Section 4.2): computes the cubes C_1..C_m for the
/// question's subqueries, full-outer-joins them, and adds the mu_interv and
/// mu_aggr columns. The mu_interv column is the *cube-based* degree, which
/// equals the exact degree exactly when Q is intervention-additive
/// (Definition 4.2) -- callers should gate on CheckQueryAdditivity.
[[nodiscard]] Result<TableM> ComputeTableM(const UniversalRelation& universal,
                             const UserQuestion& question,
                             const std::vector<ColumnRef>& attributes,
                             const TableMOptions& options = TableMOptions());

/// Steps 3-5 of Algorithm 1, starting from an already-joined cube table:
/// support pruning, then the mu_interv / mu_aggr degree columns. Fills
/// coords, subquery_values, cube_mask, mu columns and the merge/degree
/// build stats of `*table`; `table->attributes` and
/// `table->original_values` must be set by the caller (u_j feeds the
/// degree arithmetic). Shared by ComputeTableM and the cluster
/// coordinator's merge path, so a coordinator-assembled table is
/// bit-identical to a single-node one over the same joined cells
/// (DESIGN.md §13).
[[nodiscard]] Status AssembleTableM(CubeJoinResult joined,
                                    const NumericalQuery& query,
                                    Direction direction, double min_support,
                                    ThreadPool* pool, TableM* table);

}  // namespace xplain

#endif  // XPLAIN_CORE_CUBE_ALGORITHM_H_
