#ifndef XPLAIN_CORE_CUBE_WORKSPACE_H_
#define XPLAIN_CORE_CUBE_WORKSPACE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "relational/column_cache.h"
#include "relational/cube.h"
#include "relational/query.h"
#include "util/mutex.h"

namespace xplain {

/// Canonical, injective key for a maintained cube: aggregate + filter +
/// grouping attributes, length-prefix framed so no field concatenation
/// collides. Thread-safety: safe (pure).
std::string CanonicalCubeKey(const Database& db, const AggregateQuery& query,
                             const std::vector<ColumnRef>& attributes);

/// Appends to `*columns` each column `query` reads (its aggregated column
/// and every filter column) that `*columns` does not yet hold: the columns
/// a ColumnCache needs for `query`'s cube, after the grouping attributes.
/// Thread-safety: safe (pure).
void AppendQueryColumns(const AggregateQuery& query,
                        std::vector<ColumnRef>* columns);

/// Counters snapshot of one CubeWorkspace (see GetStats).
/// Thread-safety: plain data, externally synchronized.
struct CubeWorkspaceStats {
  int64_t cube_hits = 0;
  int64_t cube_misses = 0;
  /// Requested columns served by a retained encoding / encoded afresh.
  int64_t column_hits = 0;
  int64_t column_misses = 0;
  int64_t cells_patched = 0;
  int64_t cells_recomputed = 0;
  size_t cube_entries = 0;
  /// Retained encoded columns.
  size_t column_entries = 0;
};

/// A store of incrementally-maintained DataCubes, keyed by (aggregate,
/// filter, attributes), and of dictionary-encoded columns, keyed by
/// column, shared across Explain calls of one ExplainEngine (DESIGN.md
/// §10). A column is encoded at most once per engine (while retained),
/// whichever questions ask for it.
///
/// Cubes are retained only when their aggregate can be maintained under
/// deletion with byte-identical results (CubeIsMaintainable). Every delta
/// runs the cube kernel (DataCube::Compute) over the removed filter-
/// passing rows: COUNT(*) and SUM(int64) subtract those cubes (SUM keeps
/// a COUNT(*) sidecar to see a cell die); MIN/MAX(numeric) are rebuilt
/// over the surviving rows only when a removed extremum reaches the
/// stored one; COUNT(DISTINCT) and AVG(int64) are rebuilt whenever a
/// filter-passing row dies. SUM/AVG over double columns are never
/// retained — floating-point subtraction is not exact.
///
/// Delta protocol: BeginDelta freezes inserts; PlanDelta (still under the
/// owner's read lock, against the pre-delta universal relation) computes a
/// pure-data Patch; CommitDelta (under the owner's exclusive lock) applies
/// the patch as map updates and unfreezes. AbortDelta unfreezes without
/// applying.
///
/// Thread-safety: safe — lookups/inserts lock an internal mutex
/// (kMutexRankCubeWorkspace); CommitDelta additionally requires that no
/// concurrent reader holds a cube pointer (the serving layer guarantees
/// this with its database writer lock).
class CubeWorkspace {
 public:
  /// Bounds on retained entries; inserts past the cap are skipped (the
  /// workspace is an optimization, never a correctness dependency).
  struct Limits {
    size_t max_cubes = 64;
    /// Retained encoded columns (each 4 bytes per universal row plus its
    /// dictionary). Columns are distinct, so retention never exceeds the
    /// schema's column count either.
    size_t max_columns = 32;
  };

  /// A planned maintenance update for the whole workspace: per-entry cell
  /// overwrites, erasures or a rebuilt cell map, ready to commit as pure
  /// map operations.
  /// Thread-safety: plain data, externally synchronized.
  struct Patch {
    struct EntryPatch {
      std::string key;
      /// A patched cell: its new value and, for int64 SUM, its new
      /// contributing-row count.
      struct CellUpdate {
        Tuple coord;
        double value = 0.0;
        double count = 0.0;
      };
      /// Cells to overwrite (absent coords keep their value).
      std::vector<CellUpdate> updates;
      /// Cells whose contributing-row count reached zero.
      std::vector<Tuple> erasures;
      /// The whole post-delta cell map, replacing the cube's cells.
      std::optional<DataCube::CellMap> rebuilt;
      /// The kernel failed on this entry; commit drops it.
      bool drop = false;
    };
    std::vector<EntryPatch> entries;
    int64_t cells_patched = 0;
    int64_t cells_recomputed = 0;
  };

  CubeWorkspace() = default;
  /// A workspace with custom retention bounds.
  explicit CubeWorkspace(Limits limits) : limits_(limits) {}

  CubeWorkspace(const CubeWorkspace&) = delete;
  CubeWorkspace& operator=(const CubeWorkspace&) = delete;

  /// True when `agg`'s cube can be maintained under tuple deletion with
  /// byte-identical results (see class comment for the per-kind rule).
  static bool CubeIsMaintainable(const Database& db, const AggregateSpec& agg);

  /// The maintained cube for (query, attributes), or nullptr. The pointer
  /// stays valid while the caller's read lock excludes CommitDelta.
  std::shared_ptr<const DataCube> LookupCube(
      const Database& db, const AggregateQuery& query,
      const std::vector<ColumnRef>& attributes) const;

  /// Offers a freshly computed cube for retention; an int64 SUM cube
  /// brings `counts`, its COUNT(*) sidecar over the same filter (cell
  /// liveness), other kinds an empty map. Skipped without effect unless
  /// the cube is maintainable, the workspace is neither frozen nor full,
  /// and (query, attributes) is not yet retained; in every case returns
  /// `cube` wrapped in a shared_ptr for the caller to keep using.
  std::shared_ptr<const DataCube> InsertCube(
      const Database& db, const AggregateQuery& query,
      const std::vector<ColumnRef>& attributes, DataCube cube,
      DataCube::CellMap counts);

  /// One request's ColumnCache over `columns` of `universal` (the
  /// current U(D)): retained encodings are shared by pointer, and only the
  /// missing columns are encoded, outside the lock. Fresh encodings are
  /// offered for retention under InsertCube's freeze and cap rules; when a
  /// concurrent request retained the same column first, that encoding is
  /// used instead. Counts one column hit or miss per requested column.
  ColumnCache Columns(const UniversalRelation& universal,
                      const std::vector<ColumnRef>& columns);

  /// Freezes inserts for the duration of a delta (lookups stay open).
  void BeginDelta();

  /// Computes the maintenance patch for a delta described by `remap`,
  /// evaluated against `old_universal` (the pre-delta state the retained
  /// entries currently reflect). Each entry's columns come from the
  /// retained encodings (a column no longer retained is encoded for the
  /// plan only), without counting column hits or misses. Read-only; call
  /// between BeginDelta and CommitDelta, with the owner's read lock held.
  Patch PlanDelta(const UniversalRelation& old_universal,
                  const UniversalRemap& remap) const;

  /// Applies `patch` and gathers every retained encoded column onto the
  /// surviving rows (once per column), then unfreezes inserts. Caller must
  /// hold exclusive access over every reader that could hold a cube or
  /// column pointer.
  void CommitDelta(Patch&& patch, const UniversalRemap& remap);

  /// Unfreezes inserts without applying anything (failed/abandoned delta).
  void AbortDelta();

  /// Point-in-time counters and sizes.
  CubeWorkspaceStats GetStats() const;

 private:
  struct CubeEntry {
    AggregateQuery query;
    std::vector<ColumnRef> attributes;
    std::shared_ptr<DataCube> cube;
    /// int64 SUM only: coord -> number of filter-passing input rows
    /// (COUNT(*) over the same filter/attrs); a cell dies exactly when
    /// this reaches zero.
    DataCube::CellMap counts;
  };

  Limits limits_;
  mutable Mutex mu_{kMutexRankCubeWorkspace};
  std::unordered_map<std::string, CubeEntry> cubes_ XPLAIN_GUARDED_BY(mu_);
  std::map<ColumnRef, std::shared_ptr<EncodedColumn>> columns_
      XPLAIN_GUARDED_BY(mu_);
  bool frozen_ XPLAIN_GUARDED_BY(mu_) = false;
  mutable int64_t cube_hits_ XPLAIN_GUARDED_BY(mu_) = 0;
  mutable int64_t cube_misses_ XPLAIN_GUARDED_BY(mu_) = 0;
  int64_t column_hits_ XPLAIN_GUARDED_BY(mu_) = 0;
  int64_t column_misses_ XPLAIN_GUARDED_BY(mu_) = 0;
  int64_t cells_patched_ XPLAIN_GUARDED_BY(mu_) = 0;
  int64_t cells_recomputed_ XPLAIN_GUARDED_BY(mu_) = 0;
};

}  // namespace xplain

#endif  // XPLAIN_CORE_CUBE_WORKSPACE_H_
