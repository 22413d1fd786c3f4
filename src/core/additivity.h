#ifndef XPLAIN_CORE_ADDITIVITY_H_
#define XPLAIN_CORE_ADDITIVITY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "relational/aggregate.h"
#include "relational/query.h"
#include "relational/universal.h"

namespace xplain {

/// Outcome of the intervention-additivity check (paper Def. 4.2): whether
///   q(D - Delta^phi) = q(D) - q(D_phi)   for every phi,
/// which is the precondition for computing mu_interv with the data cube.
/// Thread-safety: plain data, externally synchronized.
struct AdditivityReport {
  bool additive = false;
  std::string reason;
};

/// Checks the paper's sufficient conditions for one aggregate:
///
///  1. COUNT(*) over a schema with no back-and-forth foreign keys
///     (Corollary 3.6).
///  2. COUNT(DISTINCT R_i.pk) where some back-and-forth FK
///     R_j.fk <-> R_i.pk exists and every row of R_j appears in at most one
///     universal row (the "unique core" condition; Section 4.1).
///  3. COUNT(DISTINCT R_i.pk) with no back-and-forth FKs where every row of
///     R_i itself appears in at most one universal row (then the distinct
///     count is a plain row count over a complement-additive set).
///
/// The uniqueness conditions read `unique_core` = UniqueCoreBits(U), the
/// per-relation bits ExplainEngine keeps current across deltas.
AdditivityReport CheckAggregateAdditivity(
    const Database& db, const AggregateSpec& agg,
    const std::vector<uint8_t>& unique_core);

/// As above, computing the unique-core bits from `universal` (one pass
/// over U per relation).
AdditivityReport CheckAggregateAdditivity(const UniversalRelation& universal,
                                          const AggregateSpec& agg);

/// A numerical query is intervention-additive iff all its subqueries are.
AdditivityReport CheckQueryAdditivity(const Database& db,
                                      const NumericalQuery& query,
                                      const std::vector<uint8_t>& unique_core);

/// As above, computing the unique-core bits once from `universal`.
AdditivityReport CheckQueryAdditivity(const UniversalRelation& universal,
                                      const NumericalQuery& query);

/// Refined *cell-exactness* check (an xplain strengthening; see DESIGN.md):
/// guarantees that the cube-based mu_interv equals the exact program-P
/// degree for EVERY conjunctive equality explanation, not just that the
/// paper's Def. 4.2 sufficient condition holds. Beyond
/// CheckAggregateAdditivity it requires Rule (i) to be exact -- some
/// relation must be a unique core -- and, for COUNT(DISTINCT parent.pk)
/// justified through a back-and-forth key, that the subquery's WHERE atoms
/// mention only the counted parent relation (a WHERE on a sibling relation,
/// e.g. Author.dom in the paper's DBLP queries, breaks exactness for
/// multi-author papers: the pub is removed through one author's phi-row but
/// q_j(D_phi) counts it only under the WHERE author's row).
///
/// This form computes the unique-core bits once from `universal`.
AdditivityReport CheckCellAdditivity(const UniversalRelation& universal,
                                     const NumericalQuery& query);

/// As above, reusing `query_report` = CheckQueryAdditivity(db, query,
/// unique_core) and the caller's unique-core bits, so one explain pays for
/// neither the query-level check nor a scan of U twice.
AdditivityReport CheckCellAdditivity(const Database& db,
                                     const NumericalQuery& query,
                                     const AdditivityReport& query_report,
                                     const std::vector<uint8_t>& unique_core);

/// True if every row of `relation` appears in at most one universal row
/// (i.e. the relation functionally pins the universal tuple it occurs in —
/// a "fact core").
bool RelationIsUniqueCore(const UniversalRelation& universal, int relation);

/// RelationIsUniqueCore for every relation, in relation order.
std::vector<uint8_t> UniqueCoreBits(const UniversalRelation& universal);

}  // namespace xplain

#endif  // XPLAIN_CORE_ADDITIVITY_H_
