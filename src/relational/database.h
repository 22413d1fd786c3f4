#ifndef XPLAIN_RELATIONAL_DATABASE_H_
#define XPLAIN_RELATIONAL_DATABASE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "relational/relation.h"
#include "relational/rowset.h"
#include "relational/schema.h"
#include "util/result.h"

namespace xplain {

/// A resolved foreign key: relation indices and attribute positions.
/// Thread-safety: plain data, externally synchronized.
struct ResolvedForeignKey {
  int child_relation = -1;
  std::vector<int> child_attrs;
  int parent_relation = -1;
  std::vector<int> parent_attrs;
  ForeignKeyKind kind = ForeignKeyKind::kStandard;
};

/// The precomputed effect of one tuple delta on a database: the delta
/// closed under dangling-row removal, plus per-relation old-row -> new-row
/// index maps describing the compaction. Produced read-only by
/// Database::PlanDelta and consumed (once) by Database::ApplyDeltaPlan, so
/// the expensive closure/analysis can run while readers are still being
/// served and only the mutation itself needs exclusive access
/// (DESIGN.md §10).
/// Thread-safety: plain data, externally synchronized.
struct DeltaPlan {
  /// Sentinel in `row_remap` for a removed row.
  static constexpr uint32_t kNoRow = 0xffffffffu;

  /// The requested delta unioned with every row it leaves dangling
  /// (MarkDanglingRows fixpoint), aligned with the database's relations.
  DeltaSet removed;
  /// row_remap[r][i] = post-compaction index of row i of relation r, or
  /// kNoRow when removed[r] contains i. Untouched relations carry an
  /// empty vector (identity map).
  std::vector<std::vector<uint32_t>> row_remap;
  /// Relations with at least one removed row, ascending.
  std::vector<int> touched;
  /// Total rows in `removed` (closure included).
  size_t rows_removed = 0;

  /// True when relation `r` loses no rows (its remap is the identity).
  bool RelationUntouched(int r) const { return row_remap[r].empty(); }
  /// New index of row `i` of relation `r`; kNoRow when removed.
  uint32_t MapRow(int r, size_t i) const {
    return row_remap[r].empty() ? static_cast<uint32_t>(i)
                                : row_remap[r][i];
  }
};

/// A database instance: relations R_1..R_k plus foreign key constraints
/// (standard and back-and-forth, paper Section 2.2).
///
/// Thread-safety: thread-compatible — concurrent const access is safe;
/// any mutation (AddRelation, AddForeignKey, mutable_relation,
/// SemijoinReduce, ApplyDeltaPlan) requires exclusive access.
class Database {
 public:
  Database() = default;

  /// Adds a relation; names must be unique. Bumps version() on success.
  [[nodiscard]] Status AddRelation(Relation relation);

  /// Adds and validates a foreign key: both relations exist, attribute lists
  /// exist with matching types, and the parent attributes are exactly the
  /// parent's primary key. Bumps version() on success.
  [[nodiscard]] Status AddForeignKey(const ForeignKey& fk);

  /// Number of relations k.
  int num_relations() const { return static_cast<int>(relations_.size()); }
  /// Relation by index; `i` must be in [0, num_relations()).
  const Relation& relation(int i) const { return relations_[i]; }
  /// Mutable access to a relation. Handing out the pointer counts as one
  /// logical mutation: version() bumps on every call (conservative — the
  /// caller's row edits are invisible to the database).
  Relation* mutable_relation(int i) {
    ++version_;
    return &relations_[i];
  }

  /// Monotonically increasing mutation counter, the serving layer's
  /// cache-invalidation hook (DESIGN.md §8). Starts at 0 for an empty
  /// database and bumps exactly once per logical mutation: AddRelation,
  /// AddForeignKey, mutable_relation access, each ApplyDelta (the derived
  /// database carries the parent's version + 1), and each row-removing
  /// ApplyDeltaPlan / SemijoinReduce. A plan that removes zero rows is not
  /// a mutation and does not bump (DESIGN.md §10 bump-once contract).
  uint64_t version() const { return version_; }
  /// Index of the named relation, or NotFound.
  [[nodiscard]] Result<int> RelationIndex(const std::string& name) const;
  /// Convenience: relation by name; CHECK-fails when absent.
  const Relation& RelationByName(const std::string& name) const;

  /// The declared foreign keys, in insertion order.
  const std::vector<ForeignKey>& foreign_keys() const { return foreign_keys_; }
  /// The foreign keys resolved to positional form, aligned with
  /// foreign_keys().
  const std::vector<ResolvedForeignKey>& resolved_foreign_keys() const {
    return resolved_fks_;
  }

  /// True if any foreign key is back-and-forth.
  bool HasBackAndForthKeys() const;

  /// Resolves "Relation.attribute" (or an unambiguous bare attribute name)
  /// to positional form.
  [[nodiscard]] Result<ColumnRef> ResolveColumn(const std::string& qualified) const;
  /// "Relation.attribute" for a positional reference.
  std::string ColumnName(const ColumnRef& ref) const;
  /// Declared type of the referenced column.
  DataType ColumnType(const ColumnRef& ref) const;

  /// Total number of rows across relations (the paper's n).
  size_t TotalRows() const;

  /// Verifies every foreign key: each child key value appears as a parent
  /// primary key (child key values must be non-NULL).
  [[nodiscard]] Status CheckReferentialIntegrity() const;

  /// Removes dangling tuples in place so that each R_i equals the projection
  /// of the universal relation (pairwise-consistency fixpoint over all FK
  /// edges; exact for acyclic schemas). Returns the number of removed rows.
  /// Bumps version() exactly once iff any row was removed. Equivalent to
  /// ApplyDeltaPlan(PlanDelta(EmptyDelta())).
  size_t SemijoinReduce();

  /// Materializes D - delta as a new database: same schemas and foreign
  /// keys, rows deep-copied and compacted, version = version() + 1. Does
  /// NOT close the delta over dangling rows — pair with SemijoinReduce (or
  /// pass a closed delta) when referential integrity must be restored.
  /// This is the legacy rebuild path; the in-place PlanDelta /
  /// ApplyDeltaPlan pair avoids the copy (DESIGN.md §10).
  Database ApplyDelta(const DeltaSet& delta) const;

  /// Read-only analysis of D - delta: closes `delta` over dangling rows
  /// (so the result satisfies referential integrity) and derives the
  /// per-relation row remaps. Does not modify the database; safe to call
  /// while concurrent readers use it.
  DeltaPlan PlanDelta(const DeltaSet& delta) const;

  /// Applies a plan produced by PlanDelta on THIS database state: move-
  /// compacts exactly the touched relations (untouched relations are not
  /// copied or moved) and bumps version() exactly once iff
  /// plan.rows_removed > 0. Requires exclusive access, and that the
  /// database has not been mutated since the plan was made. Returns the
  /// number of removed rows. Cost is O(rows of touched relations) tuple
  /// moves — no Value deep copies.
  size_t ApplyDeltaPlan(const DeltaPlan& plan);

  /// A DeltaSet shaped for this database with all components empty.
  DeltaSet EmptyDelta() const;

  /// Deep copy (relations are value types already; provided for symmetry).
  Database Clone() const { return *this; }

  /// Human-readable schema + sampled rows rendering.
  std::string ToString(size_t max_rows_per_relation = 10) const;

 private:
  std::vector<Relation> relations_;
  std::unordered_map<std::string, int> relation_index_;
  std::vector<ForeignKey> foreign_keys_;
  std::vector<ResolvedForeignKey> resolved_fks_;
  uint64_t version_ = 0;
};

/// Extends `dangling` (aligned with db relations) with every row that cannot
/// participate in the universal relation of the database restricted to rows
/// outside `dangling`. This is the bitmap form of semijoin reduction used by
/// Database::SemijoinReduce and by delta planning.
/// Returns the number of rows newly marked.
size_t MarkDanglingRows(const Database& db, DeltaSet* dangling);

}  // namespace xplain

#endif  // XPLAIN_RELATIONAL_DATABASE_H_
