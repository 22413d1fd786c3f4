#ifndef XPLAIN_RELATIONAL_CUBE_H_
#define XPLAIN_RELATIONAL_CUBE_H_

#include <unordered_map>
#include <vector>

#include "relational/aggregate.h"
#include "relational/column_cache.h"
#include "relational/universal.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace xplain {

/// Options for DataCube computation.
/// Thread-safety: plain data, externally synchronized like any struct.
struct CubeOptions {
  /// Hard cap on the number of cube attributes (2^d lattice).
  int max_attributes = 16;
  /// Non-owning worker pool for the sharded cube evaluation (DESIGN.md §6):
  /// the input row list is split into per-thread ranges aggregated into
  /// thread-local cell maps (merged exactly — cells are additive under any
  /// disjoint partition of the input rows), and the 2^d rollup lattice is
  /// partitioned by mask so shards emit disjoint cell sets. nullptr (the
  /// default) runs the exact single-threaded legacy path.
  ThreadPool* pool = nullptr;
};

/// The result of `GROUP BY ... WITH CUBE` over the universal relation for a
/// single aggregate (paper Example 4.1).
///
/// A cell coordinate assigns each cube attribute either a concrete value or
/// NULL meaning ALL ("don't care"). The all-NULL cell holds the grand total.
/// Computation is two-phase over dictionary codes: (1) group the listed
/// rows into base cells keyed by the packed attribute codes; (2)
/// roll every base cell up into all 2^d ancestor cells of the lattice.
/// COUNT(DISTINCT) rolls up its code sets, so it is exact (not sum-based).
/// Both phases shard across CubeOptions::pool when one is supplied (see
/// DESIGN.md §6 for the determinism guarantee).
///
/// Thread-safety: a computed DataCube is immutable; all const accessors
/// are safe to call concurrently.
class DataCube {
 public:
  /// Computes the cube of `kind` over the rows of `cache` listed in
  /// `rows` (ascending row ids; nullptr = every row), grouped by the cache
  /// columns `attr_indices`. With no grouping columns the one cell is the
  /// apex, keyed by the empty tuple: the aggregate over the listed rows
  /// (GrandTotal reads it). `measure_index` is the cache column the
  /// aggregate reads (-1 for COUNT(*)); SUM/AVG/MIN/MAX need a numeric
  /// one. Cell values follow AggregateAccumulator: NULL inputs are
  /// skipped, and a cell whose measured values are all NULL is present
  /// with value 0. A listed row with a NULL grouping attribute is
  /// kInvalidArgument (it would collide with the ALL marker). Rows fold
  /// in list order, so a one-thread cube depends only on the list.
  [[nodiscard]] static Result<DataCube> Compute(
      const ColumnCache& cache, const std::vector<int>& attr_indices,
      AggregateKind kind, int measure_index,
      const std::vector<uint32_t>* rows,
      const CubeOptions& options = CubeOptions());

  /// Rewraps an existing cell map as a DataCube without recomputation —
  /// the adoption point for incrementally maintained cubes
  /// (DESIGN.md §10). The caller vouches that `cells` equals what
  /// Compute would produce for `attributes` over the current database.
  static DataCube FromCells(std::vector<ColumnRef> attributes,
                            std::unordered_map<Tuple, double, TupleHash,
                                               TupleEq> cells);

  /// The cube's grouping attributes, in coordinate order.
  const std::vector<ColumnRef>& attributes() const { return attributes_; }
  /// Number of materialized (non-empty) cells across the whole lattice.
  size_t NumCells() const { return cells_.size(); }

  using CellMap = std::unordered_map<Tuple, double, TupleHash, TupleEq>;
  /// All materialized cells, keyed by coordinate tuple (NULL = ALL).
  const CellMap& cells() const { return cells_; }
  /// Mutable cell access for incremental maintenance; mutating breaks the
  /// immutability guarantee, so callers must hold exclusive access.
  CellMap* mutable_cells() { return &cells_; }

  /// Aggregate value of the cell at `coords`; 0 when the cell is absent
  /// (no input row matched).
  double CellValue(const Tuple& coords) const;

  /// The grand-total (all-NULL) cell value.
  double GrandTotal() const;

  /// Multi-line rendering of up to `max_cells` cells.
  std::string ToString(const Database& db, size_t max_cells = 20) const;

 private:
  std::vector<ColumnRef> attributes_;
  CellMap cells_;
};

/// The full outer join of m cubes over identical attribute lists: one row
/// per coordinate appearing in any cube, with that cube's value or 0
/// (paper Section 4.1: explanations missing from a cube count as zero).
/// Rows are in canonical (lexicographic coordinate) order, so the joined
/// table is identical however the input cubes were computed — in
/// particular across num_threads settings.
/// Thread-safety: plain data, externally synchronized.
struct CubeJoinResult {
  std::vector<ColumnRef> attributes;
  std::vector<Tuple> coords;
  /// values[j][row] = value of cube j at coords[row].
  std::vector<std::vector<double>> values;
  /// present[j][row] = 1 iff cube j materialized a cell at coords[row].
  /// Distinguishes a genuine 0-valued cell (e.g. SUM of zeros) from a cell
  /// the cube never produced — the distinction the cluster merge needs to
  /// reconstruct per-shard cube supports exactly (DESIGN.md §13).
  std::vector<std::vector<uint8_t>> present;

  size_t NumRows() const { return coords.size(); }
};

/// Joins `cubes` (all non-null, same attribute list) into one table.
/// m == 1 is a pass-through: the single cube's cells in canonical order.
/// An empty operand list or mismatched attribute lists are
/// kInvalidArgument — the coordinator surfaces these as structured errors
/// rather than merging garbage.
[[nodiscard]] Result<CubeJoinResult> FullOuterJoinCubes(
    const std::vector<const DataCube*>& cubes);

}  // namespace xplain

#endif  // XPLAIN_RELATIONAL_CUBE_H_
