#include "core/degree.h"

namespace xplain {

double AggravationDegree(const UniversalRelation& universal,
                         const UserQuestion& question,
                         const DnfPredicate& phi) {
  // Restrict every subquery to sigma_{phi AND where_j}, where
  // (OR_i w_i) AND (OR_k p_k) = OR_{i,k} (w_i AND p_k), and combine with
  // the direction sign.
  std::vector<double> values;
  values.reserve(question.query.num_subqueries());
  for (const AggregateQuery& q : question.query.subqueries()) {
    std::vector<ConjunctivePredicate> disjuncts;
    for (const ConjunctivePredicate& w : q.where.disjuncts()) {
      for (const ConjunctivePredicate& p : phi.disjuncts()) {
        disjuncts.push_back(w.And(p));
      }
    }
    const DnfPredicate combined(std::move(disjuncts));
    Value v = EvaluateAggregate(universal, q.agg, &combined);
    values.push_back(v.is_null() ? 0.0 : v.AsNumeric());
  }
  return AggravationSign(question.direction) *
         question.query.Combine(values);
}

Result<double> InterventionDegreeExact(const InterventionEngine& engine,
                                       const UserQuestion& question,
                                       const DnfPredicate& phi,
                                       InterventionResult* result_out,
                                       const InterventionOptions& options) {
  XPLAIN_ASSIGN_OR_RETURN(InterventionResult result,
                          engine.Compute(phi, options));
  RowSet live = engine.LiveUniversalRows(result.delta);
  double q_residual =
      question.query.EvaluateOnUniversal(engine.universal(), &live);
  if (result_out != nullptr) *result_out = std::move(result);
  return InterventionSign(question.direction) * q_residual;
}

}  // namespace xplain
