#ifndef XPLAIN_CORE_INTERVENTION_H_
#define XPLAIN_CORE_INTERVENTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "relational/database.h"
#include "relational/predicate.h"
#include "relational/rowset.h"
#include "relational/universal.h"
#include "util/result.h"

namespace xplain {

/// Knobs for InterventionEngine::Compute.
/// Thread-safety: plain data, externally synchronized.
struct InterventionOptions {
  /// Safety cap on fixpoint rounds; 0 means the theoretical bound n
  /// (Prop. 3.4) is used.
  size_t max_iterations = 0;

  /// Extension beyond the paper: when the fixpoint of program P leaves
  /// phi-satisfying rows in the residual universal relation (possible on
  /// schemas without a fact-core relation; see DESIGN.md), re-apply Rule (i)
  /// relative to the residual database and continue, until phi-free.
  bool repair = false;
};

/// Outcome of running program P (paper Section 3.1) for one explanation.
/// Thread-safety: plain data, externally synchronized.
struct InterventionResult {
  /// The fixpoint Delta = (Delta_1, ..., Delta_k).
  DeltaSet delta;

  /// Rounds until the fixpoint, counted as in the paper's Example 3.7:
  /// the Rule (i) seed round is iteration 1, and each subsequent
  /// simultaneous application of Rules (ii)+(iii) that adds tuples counts
  /// as one iteration.
  size_t iterations = 0;

  /// |Delta^1|: tuples seeded by Rule (i).
  size_t seed_count = 0;

  /// Whether U(D - delta) contains no phi-satisfying row. Always true when
  /// Theorem 3.3's precondition holds; may be false on pathological schemas
  /// unless options.repair was set.
  bool residual_phi_free = true;

  /// Number of extra Rule (i) re-seedings performed (repair mode only).
  size_t repair_rounds = 0;
};

/// Report for the three conditions of Definition 2.6.
/// Thread-safety: plain data, externally synchronized.
struct ValidityReport {
  bool closed = false;            // condition 1 (cascade + backward cascade)
  bool semijoin_reduced = false;  // condition 2
  bool phi_free = false;          // condition 3

  bool valid() const { return closed && semijoin_reduced && phi_free; }
  std::string ToString() const;
};

/// Computes interventions Delta^phi via the recursive program P:
///
///   Rule (i)   Delta_i = R_i - Pi_{A_i} sigma_{!phi}(R_1 |><| ... |><| R_k)
///   Rule (ii)  Delta_i = R_i - Pi_{A_i}[(R_1-Delta_1) |><| ... |><| (R_k-Delta_k)]
///   Rule (iii) Delta_i = R_i |><(pk=fk) Delta_j   for back-and-forth FKs
///
/// The universal relation is materialized once and shared across calls;
/// each Compute() is then O(iterations * |U| * k). Rule (ii) exploits that
/// U(D - Delta) is exactly the set of U(D) rows all of whose base tuples
/// survive Delta, so one rule application is a support scan over U.
///
/// Thread-safety: safe after construction -- Compute() only reads the
/// shared U(D), so concurrent Compute calls are allowed (the parallel
/// exact-rescore path in ExplainEngine relies on this).
class InterventionEngine {
 public:
  /// `universal` must outlive the engine.
  explicit InterventionEngine(const UniversalRelation* universal);

  const UniversalRelation& universal() const { return *universal_; }
  const Database& db() const { return universal_->db(); }

  /// Runs program P for `phi` to its minimal fixpoint: evaluates phi on
  /// every universal row and calls ComputeOnRows. A conjunctive phi
  /// converts to a one-disjunct DnfPredicate; disjunctive explanations
  /// (paper Section 6(ii)) need nothing more, since program P only
  /// evaluates phi row-wise.
  [[nodiscard]] Result<InterventionResult> Compute(
      const DnfPredicate& phi,
      const InterventionOptions& options = InterventionOptions()) const;

  /// Runs program P for the explanation phi whose satisfying universal
  /// rows are `phi_rows` (ascending row ids, e.g. a CodedFilter's
  /// EvalRows), the same row-list form the cube kernel takes. Rule (i),
  /// the phi-free check and repair read only this list; repair deletes
  /// from `repair_relation`, phi's MaxMentionedRelation (-1 when phi is
  /// TRUE). A list that is not ascending or names a row outside U(D) is
  /// kInvalidArgument.
  [[nodiscard]] Result<InterventionResult> ComputeOnRows(
      const std::vector<uint32_t>& phi_rows, int repair_relation,
      const InterventionOptions& options = InterventionOptions()) const;

  /// The universal rows surviving `delta`: row u is live iff every base
  /// tuple of u is outside delta. By join monotonicity these rows are
  /// exactly U(D - delta).
  RowSet LiveUniversalRows(const DeltaSet& delta) const;

 private:
  /// One application of Rule (iii) from the snapshot `delta` into `next`
  /// (which already equals delta); returns tuples added.
  size_t ApplyBackwardCascade(const DeltaSet& delta, DeltaSet* next) const;

  /// One application of Rule (ii) from the snapshot `delta` into `next`;
  /// returns tuples added.
  size_t ApplySemijoinReduction(const DeltaSet& delta, DeltaSet* next) const;

  const UniversalRelation* universal_;
  /// Per back-and-forth FK: child row -> parent row (UINT32_MAX if absent).
  struct BackAndForthMap {
    int child_relation;
    int parent_relation;
    std::vector<uint32_t> parent_of_child;
  };
  std::vector<BackAndForthMap> bf_maps_;
};

/// Checks the three conditions of Definition 2.6 for an arbitrary delta.
/// Exposed for tests and for the brute-force minimality oracle.
ValidityReport VerifyIntervention(const Database& db, const DnfPredicate& phi,
                                  const DeltaSet& delta);

}  // namespace xplain

#endif  // XPLAIN_CORE_INTERVENTION_H_
