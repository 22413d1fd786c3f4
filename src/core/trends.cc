#include "core/trends.h"

namespace xplain {

Result<UserQuestion> MakeSlopeQuestion(const Database& db,
                                       const SlopeQuestionSpec& spec) {
  if (spec.window < 1) {
    return Status::InvalidArgument("window must be >= 1");
  }
  if (db.ColumnType(spec.time_column) != DataType::kInt64) {
    return Status::InvalidArgument("time column must be int64, got " +
                                   db.ColumnName(spec.time_column));
  }
  // Window starts.
  std::vector<int64_t> starts;
  for (int64_t t = spec.time_begin; t + spec.window - 1 <= spec.time_end;
       t += spec.window) {
    starts.push_back(t);
  }
  const size_t m = starts.size();
  if (m < 2) {
    return Status::InvalidArgument(
        "slope needs at least two windows in [" +
        std::to_string(spec.time_begin) + ", " +
        std::to_string(spec.time_end) + "]");
  }
  if (m > 64) {
    return Status::InvalidArgument("too many windows (" + std::to_string(m) +
                                   " > 64)");
  }

  // Subqueries: q_i over window i.
  std::vector<AggregateQuery> subqueries;
  std::vector<double> midpoints;
  for (size_t i = 0; i < m; ++i) {
    AggregateQuery q;
    q.name = "q";
    q.name += std::to_string(i + 1);
    q.agg = spec.agg;
    std::vector<AtomicPredicate> window_atoms;
    window_atoms.push_back(AtomicPredicate{spec.time_column, CompareOp::kGe,
                                           Value::Int(starts[i])});
    window_atoms.push_back(
        AtomicPredicate{spec.time_column, CompareOp::kLe,
                        Value::Int(starts[i] + spec.window - 1)});
    q.where =
        spec.base_where.And(ConjunctivePredicate(std::move(window_atoms)));
    subqueries.push_back(std::move(q));
    midpoints.push_back(static_cast<double>(starts[i]) +
                        (spec.window - 1) / 2.0);
  }

  // Regression weights.
  double xbar = 0;
  for (double x : midpoints) xbar += x;
  xbar /= static_cast<double>(m);
  double sxx = 0;
  for (double x : midpoints) sxx += (x - xbar) * (x - xbar);
  XPLAIN_CHECK(sxx > 0);

  // slope = sum_i w_i * q_i.
  ExprPtr expr;
  for (size_t i = 0; i < m; ++i) {
    double w = (midpoints[i] - xbar) / sxx;
    ExprPtr term = Expression::Binary(
        Expression::BinaryOp::kMul, Expression::Constant(w),
        Expression::Variable(static_cast<int>(i), subqueries[i].name));
    expr = expr == nullptr
               ? term
               : Expression::Binary(Expression::BinaryOp::kAdd, expr, term);
  }

  UserQuestion question;
  XPLAIN_ASSIGN_OR_RETURN(
      question.query,
      NumericalQuery::Create(std::move(subqueries), std::move(expr)));
  question.direction = spec.direction;
  return question;
}

}  // namespace xplain
