#ifndef XPLAIN_CORE_ENGINE_H_
#define XPLAIN_CORE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/additivity.h"
#include "core/cube_algorithm.h"
#include "core/cube_workspace.h"
#include "core/degree.h"
#include "core/intervention.h"
#include "core/naive.h"
#include "core/topk.h"
#include "relational/database.h"
#include "relational/query.h"
#include "util/result.h"

namespace xplain {

/// Per-question knobs for ExplainEngine::Explain.
/// Thread-safety: plain data, externally synchronized.
struct ExplainOptions {
  size_t top_k = 5;
  DegreeKind degree = DegreeKind::kIntervention;
  MinimalityStrategy minimality = MinimalityStrategy::kAppend;
  /// Support threshold on the cube cells (paper Section 5.1.1 used 1000).
  double min_support = 0.0;
  /// Worker threads for the parallel execution layer (cube aggregation,
  /// degree columns, top-K scans, exact rescoring). 0 = one thread per
  /// hardware core (ThreadPool::DefaultNumThreads); 1 = the exact
  /// sequential legacy path, no pool created. Results are bit-identical
  /// for every setting (DESIGN.md §6).
  int num_threads = 0;
  /// false selects the naive (No Cube) evaluation -- exponential; only for
  /// small candidate spaces and the Figure 12 baseline (never served).
  bool use_cube = true;
  /// When ranking by intervention and Q is *not* intervention-additive, the
  /// cube's mu_interv column is only a proxy. If true, the engine rescores
  /// the best `exact_rescore_pool` candidate cells exactly with program P
  /// and ranks on the exact degrees; if false, Explain returns
  /// InvalidArgument in that situation.
  bool exact_rescore_when_not_additive = true;
  size_t exact_rescore_pool = 50;
  CubeOptions cube;
  /// Attach a QueryStats per-phase breakdown to the report. The phase
  /// timers are local to the call, but the fixpoint/semijoin figures come
  /// from process-wide counter deltas, so concurrent Explain calls with
  /// collect_stats on would contaminate each other's deltas — profile one
  /// query at a time. Off by default: the disabled cost is zero.
  bool collect_stats = false;
};

/// Canonical, whitespace-free, injective rendering of every ExplainOptions
/// field that can change an Explain *result*. num_threads and collect_stats
/// are deliberately excluded: results are bit-identical across thread
/// counts (DESIGN.md §6) and stats are not part of the serialized answer.
/// This is the serving layer's cache-key fragment (DESIGN.md §8).
/// Thread-safety: safe (pure).
std::string CanonicalOptionsKey(const ExplainOptions& options);

/// Per-phase breakdown of one Explain call (EXPLAIN-style report),
/// populated when ExplainOptions::collect_stats is set. All times are
/// wall-clock milliseconds. additivity_ms, originals_ms, cube_build_ms,
/// merge_ms, degree_ms, topk_ms and exact_rescore_ms are disjoint and
/// together cover nearly all of total_ms; encode_ms is part of
/// cube_build_ms, and semijoin_ms is accumulated across the
/// semijoin-reduction passes nested inside other phases.
/// Thread-safety: plain data, externally synchronized.
struct QueryStats {
  double total_ms = 0.0;
  /// Time inside semijoin reduction (MarkDanglingRows), wherever it ran.
  double semijoin_ms = 0.0;
  /// The query- and cell-level additivity checks.
  double additivity_ms = 0.0;
  /// Q(D)'s subquery values u_j (TableMStats::originals_ms), read off
  /// the cube apex cells on the cube path.
  double originals_ms = 0.0;
  /// Building the m data cubes (TableMStats::cube_build_ms), encode_ms
  /// included.
  double cube_build_ms = 0.0;
  /// The part of cube_build_ms spent assembling encoded columns
  /// (TableMStats::encode_ms).
  double encode_ms = 0.0;
  /// Full-outer-joining the cubes + support pruning.
  double merge_ms = 0.0;
  /// Degree columns (mu_interv / mu_aggr).
  double degree_ms = 0.0;
  /// Top-K selection scan (candidate-pool scan on the exact-rescore path).
  double topk_ms = 0.0;
  /// Exact program-P rescoring, when it ran.
  double exact_rescore_ms = 0.0;
  /// Candidate cells rescored exactly (0 when no rescore ran), so
  /// exact_rescore_ms / rescore_cells is the mean per candidate.
  size_t rescore_cells = 0;
  /// Rows of table M after support pruning.
  size_t table_rows = 0;
  /// Program P executions / progressing rounds / deleted tuples during
  /// this call (counter deltas).
  int64_t fixpoint_runs = 0;
  int64_t fixpoint_rounds = 0;
  int64_t fixpoint_deleted_tuples = 0;
  /// Every process-wide counter that moved during this call, by delta.
  std::vector<std::pair<std::string, double>> counter_deltas;

  /// Flat key -> value view (the per-phase keys merged into BENCH JSON:
  /// semijoin_ms, cube_build_ms, merge_ms, topk_ms, ...).
  std::vector<std::pair<std::string, double>> ToFlat() const;
  /// Human-readable EXPLAIN-style rendering.
  std::string ToString() const;
};

/// The outcome of one Explain call.
/// Thread-safety: plain data, externally synchronized.
struct ExplainReport {
  std::vector<RankedExplanation> explanations;
  /// Q(D), for reference (e.g. the paper reports Q_Race(D) = 79.3).
  double original_value = 0.0;
  bool used_cube = true;
  /// The paper's Def. 4.2 sufficient-condition check.
  AdditivityReport additivity;
  /// The refined per-cell exactness check actually gating the cube path
  /// (see CheckCellAdditivity).
  AdditivityReport cell_additivity;
  bool exact_rescored = false;
  /// The materialized table M (kept for inspection / follow-up top-K runs).
  TableM table;
  /// Per-phase breakdown; meaningful only when stats_collected.
  QueryStats stats;
  /// True when ExplainOptions::collect_stats populated `stats`.
  bool stats_collected = false;

  /// Pretty-prints the ranked explanations.
  std::string ToString(const Database& db) const;
};

/// The shard-side fragment of one EXPLAIN under the cluster's scatter-
/// gather protocol (DESIGN.md §13): the *unpruned* table M over this
/// node's database partition (min_support is applied by the coordinator
/// after the cluster-wide merge) plus the local additivity verdicts. The
/// table's original_values carry the per-shard u_j = q_j(D_s) and
/// cube_mask carries the per-subquery cube supports, which together let
/// the coordinator reconstruct each shard's cubes exactly and re-run the
/// shared assemble step bit-identically to a single node.
/// Thread-safety: plain data, externally synchronized.
struct PartialExplainReport {
  TableM table;
  AdditivityReport additivity;
  AdditivityReport cell_additivity;
};

/// The precomputed full effect of one delta on an ExplainEngine and its
/// database: the base-relation compaction plan, the universal-row remap,
/// the cube-workspace patch, and the post-delta unique-core signature.
/// Produced by ExplainEngine::PlanDelta (read-only, concurrent with
/// Explain calls) and consumed by ExplainEngine::CommitDelta (exclusive).
/// Thread-safety: plain data, externally synchronized.
struct EngineDeltaPlan {
  DeltaPlan db_plan;
  UniversalRemap remap;
  CubeWorkspace::Patch workspace_patch;
  /// Per-relation RelationIsUniqueCore bits over the post-delta U(D).
  std::vector<uint8_t> new_unique_core;
  /// True when any unique-core bit flips — additivity verdicts (pure
  /// functions of schema, FK kinds, and these bits) may change, so cached
  /// explanations keyed on them are stale (DESIGN.md §10).
  bool signature_changed = false;
  /// Base rows removed (delta closed over dangling rows).
  size_t rows_removed = 0;
};

/// The first half of the ranking tail that ExplainEngine and the cluster
/// coordinator share. Ranks report->table into report->explanations, or,
/// when ranking by intervention on a question that is not cell-additive,
/// sets report->exact_rescored and returns the rescore pool instead: the
/// best max(exact_rescore_pool, top_k) cells by the cube's mu_interv
/// proxy (kInvalidArgument if exact_rescore_when_not_additive is off).
/// `workers` (nullable) shards the top-K scans.
[[nodiscard]] Result<std::vector<RankedExplanation>> RankOrSelectRescorePool(
    const ExplainOptions& options, ThreadPool* workers, ExplainReport* report);

/// The second half: given residuals[i][j] = q_j(D - Delta^phi) for
/// pool[i]'s cell, sets each degree to sign * E(residuals[i]), writes it
/// back into report->table.mu_interv (so follow-up minimality sees exact
/// values), and keeps the best `top_k` by a stable sort as
/// report->explanations.
void RankByExactResiduals(const UserQuestion& question, size_t top_k,
                          const std::vector<std::vector<double>>& residuals,
                          std::vector<RankedExplanation> pool,
                          ExplainReport* report);

/// Facade tying the pieces together: builds U(D) once, checks
/// intervention-additivity, runs Algorithm 1 (or the naive baseline), and
/// ranks candidate explanations with the requested minimality strategy
/// through the shared ranking tail; a non-additive question's pool is
/// rescored by RescoreCells. Each Explain call spins up its own ThreadPool
/// when ExplainOptions::num_threads warrants one, so no pool state
/// outlives a call.
///
/// Thread-safety: safe after construction — Explain only reads the
/// engine, the database, and U(D) (the cube workspace synchronizes
/// itself), so concurrent Explain calls (each with their own options) are
/// allowed. The `db` passed to Create must not be mutated while the
/// engine exists, except through the PlanDelta →
/// Database::ApplyDeltaPlan → CommitDelta sequence, whose commit steps
/// require exclusion of all Explain calls.
class ExplainEngine {
 public:
  /// `db` must outlive the engine. Fails if referential integrity does not
  /// hold or U(D) cannot be built (disconnected FK graph).
  [[nodiscard]] static Result<ExplainEngine> Create(const Database* db);

  const Database& db() const { return *db_; }
  const UniversalRelation& universal() const { return *universal_; }
  const InterventionEngine& intervention() const { return *intervention_; }

  /// Resolves candidate attribute names ("Rel.attr" or unambiguous bare
  /// names) to positional references.
  [[nodiscard]] Result<std::vector<ColumnRef>> ResolveAttributes(
      const std::vector<std::string>& names) const;

  /// Answers a user question: returns the top-K candidate explanations over
  /// the candidate attributes A'.
  [[nodiscard]] Result<ExplainReport> Explain(
      const UserQuestion& question, const std::vector<std::string>& attributes,
      const ExplainOptions& options = ExplainOptions()) const;

  /// As above with pre-resolved attributes.
  [[nodiscard]] Result<ExplainReport> ExplainResolved(
      const UserQuestion& question, const std::vector<ColumnRef>& attributes,
      const ExplainOptions& options = ExplainOptions()) const;

  /// Shard-side half of a scatter-gather EXPLAIN (DESIGN.md §13): builds
  /// the unpruned table M (options.min_support is ignored — the
  /// coordinator prunes after merging all shards) and the local
  /// additivity verdicts, but does no ranking. Requires the cube path
  /// (options.use_cube == false is kInvalidArgument: the naive table
  /// carries no per-cube supports to merge).
  [[nodiscard]] Result<PartialExplainReport> ExplainPartialResolved(
      const UserQuestion& question, const std::vector<ColumnRef>& attributes,
      const ExplainOptions& options = ExplainOptions()) const;

  /// The one routine that turns candidate cells into exact residuals:
  /// for each cell phi, runs program P and returns q_j(D - Delta^phi),
  /// one inner vector per cell indexed like the question's subqueries.
  /// It runs on the question's coded columns from the workspace: phi's
  /// rows come from the cell's CodedFilter, and each q_j is the cube
  /// kernel's apex over the live rows passing q_j's filter. The hybrid
  /// path ranks on these directly; a shard's are summed by the coordinator
  /// (DESIGN.md §13). `workers` (nullable) shards the cells, with
  /// bit-identical results; a served shard request passes none and runs
  /// on the calling thread (DESIGN.md §8).
  [[nodiscard]] Result<std::vector<std::vector<double>>> RescoreCells(
      const UserQuestion& question, const std::vector<ColumnRef>& attributes,
      const std::vector<Tuple>& cells, ThreadPool* workers = nullptr) const;

  /// Computes the full incremental effect of `delta` without mutating
  /// anything: closes the delta, derives the U(D) remap and the workspace
  /// patch, and recomputes the unique-core signature over the post-delta
  /// rows. Freezes workspace inserts until CommitDelta or AbortDelta.
  /// Safe to call while concurrent Explain calls are running (the caller
  /// typically holds a read lock on the database).
  EngineDeltaPlan PlanDelta(const DeltaSet& delta) const;

  /// Installs a plan: patches the cube workspace, adopts the remapped
  /// U(D) rows, rebuilds the intervention engine over them, and swaps the
  /// unique-core signature. Call with exclusive access, after
  /// Database::ApplyDeltaPlan(plan.db_plan) has compacted the base
  /// relations. Unfreezes workspace inserts.
  void CommitDelta(EngineDeltaPlan&& plan);

  /// Abandons a plan made by PlanDelta: unfreezes workspace inserts and
  /// changes nothing else. The database must not have been mutated.
  void AbortDelta();

  /// Per-relation RelationIsUniqueCore bits for the current U(D) — the
  /// pure inputs (besides the immutable schema and FK kinds) of every
  /// additivity verdict, used by the serving layer to decide whether
  /// cached verdict-dependent results survive a delta.
  const std::vector<uint8_t>& unique_core_signature() const {
    return unique_core_;
  }

  /// The engine's maintained cube/column-cache store.
  const CubeWorkspace& workspace() const { return *workspace_; }

 private:
  ExplainEngine() = default;

  const Database* db_ = nullptr;
  std::unique_ptr<UniversalRelation> universal_;
  std::unique_ptr<InterventionEngine> intervention_;
  std::unique_ptr<CubeWorkspace> workspace_;
  std::vector<uint8_t> unique_core_;
};

}  // namespace xplain

#endif  // XPLAIN_CORE_ENGINE_H_
