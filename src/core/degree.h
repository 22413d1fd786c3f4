#ifndef XPLAIN_CORE_DEGREE_H_
#define XPLAIN_CORE_DEGREE_H_

#include "core/intervention.h"
#include "relational/query.h"
#include "relational/universal.h"

namespace xplain {

/// Degree of explanation by aggravation (paper Def. 2.4):
///   mu_aggr(phi) = sign * Q(D_phi),   sign = +1 for dir=high, -1 for dir=low
/// where D_phi restricts the database to the universal rows satisfying phi.
/// A conjunctive phi converts to a one-disjunct DnfPredicate; disjunctive
/// explanations are the paper's Section 6(ii).
double AggravationDegree(const UniversalRelation& universal,
                         const UserQuestion& question,
                         const DnfPredicate& phi);

/// Degree of explanation by intervention (paper Def. 2.7), computed
/// *exactly* by running program P for phi and evaluating Q on the residual
/// database row at a time -- the reference the served rescore
/// (ExplainEngine::RescoreCells) is tested against:
///   mu_interv(phi) = sign * Q(D - Delta^phi), sign = -1 for dir=high,
///                                             sign = +1 for dir=low.
/// If `result_out` is non-null the full intervention result is stored there.
[[nodiscard]] Result<double> InterventionDegreeExact(
    const InterventionEngine& engine, const UserQuestion& question,
    const DnfPredicate& phi, InterventionResult* result_out = nullptr,
    const InterventionOptions& options = InterventionOptions());

/// The sign applied to Q(D_phi) for mu_aggr under `dir`.
inline double AggravationSign(Direction dir) {
  return dir == Direction::kHigh ? 1.0 : -1.0;
}

/// The sign applied to Q(D - Delta) for mu_interv under `dir` (opposite of
/// aggravation: intervention should *inhibit* the phenomenon).
inline double InterventionSign(Direction dir) {
  return dir == Direction::kHigh ? -1.0 : 1.0;
}

}  // namespace xplain

#endif  // XPLAIN_CORE_DEGREE_H_
