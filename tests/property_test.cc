#include <cstdint>
#include <vector>

#include "core/additivity.h"
#include "core/causal_graph.h"
#include "core/cube_algorithm.h"
#include "core/degree.h"
#include "core/intervention.h"
#include "core/naive.h"
#include "core/topk.h"
#include "datagen/random_db.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace xplain {
namespace {

using ::xplain::testing::UnwrapOrDie;
using datagen::DbTemplate;
using datagen::GenerateRandomDb;
using datagen::RandomDbOptions;
using datagen::RandomExplanation;

struct PropertyCase {
  uint64_t seed;
  DbTemplate schema;
};

std::string CaseName(const ::testing::TestParamInfo<PropertyCase>& info) {
  const char* name = info.param.schema == DbTemplate::kChain ? "Chain"
                     : info.param.schema == DbTemplate::kStarFact
                         ? "StarFact"
                         : "DblpLike";
  return std::string(name) + "_seed" + std::to_string(info.param.seed);
}

class PropertyTest : public ::testing::TestWithParam<PropertyCase> {
 protected:
  Database MakeDb(int size) {
    RandomDbOptions options;
    options.seed = GetParam().seed;
    options.schema = GetParam().schema;
    options.size = size;
    return UnwrapOrDie(GenerateRandomDb(options));
  }

  bool HasFactCore() const {
    return GetParam().schema != DbTemplate::kChain;
  }
};

// The fixpoint of program P is always closed and semijoin-reduced, and on
// fact-core schemas it is phi-free (Theorem 3.3's precondition holds).
TEST_P(PropertyTest, FixpointClosedReducedAndPhiFreeOnFactCores) {
  Database db = MakeDb(10);
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  InterventionEngine engine(&u);
  for (uint64_t phi_seed = 0; phi_seed < 6; ++phi_seed) {
    auto phi_or = RandomExplanation(db, GetParam().seed * 100 + phi_seed);
    if (!phi_or.ok()) continue;
    ConjunctivePredicate phi = *phi_or;
    InterventionResult result = UnwrapOrDie(engine.Compute(phi));
    ValidityReport report = VerifyIntervention(db, phi, result.delta);
    EXPECT_TRUE(report.closed) << phi.ToString(db);
    EXPECT_TRUE(report.semijoin_reduced) << phi.ToString(db);
    EXPECT_EQ(report.phi_free, result.residual_phi_free);
    if (HasFactCore()) {
      EXPECT_TRUE(result.residual_phi_free) << phi.ToString(db);
    }
  }
}

// Brute-force oracle: the fixpoint is contained in EVERY valid intervention
// (Definition 2.6), and when it is itself valid it is the unique minimum.
TEST_P(PropertyTest, FixpointIsTheUniqueMinimalValidIntervention) {
  Database db = MakeDb(4);
  size_t n = db.TotalRows();
  if (n > 14) GTEST_SKIP() << "instance too large for brute force";
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  InterventionEngine engine(&u);

  // Flattened row addressing.
  std::vector<std::pair<int, size_t>> cells;
  for (int r = 0; r < db.num_relations(); ++r) {
    for (size_t i = 0; i < db.relation(r).NumRows(); ++i) {
      cells.emplace_back(r, i);
    }
  }

  for (uint64_t phi_seed = 0; phi_seed < 3; ++phi_seed) {
    auto phi_or = RandomExplanation(db, GetParam().seed * 37 + phi_seed);
    if (!phi_or.ok()) continue;
    ConjunctivePredicate phi = *phi_or;
    InterventionResult result = UnwrapOrDie(engine.Compute(phi));

    size_t num_valid = 0;
    for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
      DeltaSet delta = db.EmptyDelta();
      for (size_t bit = 0; bit < n; ++bit) {
        if (mask & (uint64_t{1} << bit)) {
          delta[cells[bit].first].Set(cells[bit].second);
        }
      }
      if (!VerifyIntervention(db, phi, delta).valid()) continue;
      ++num_valid;
      EXPECT_TRUE(DeltaIsSubsetOf(result.delta, delta))
          << phi.ToString(db) << " mask=" << mask;
    }
    // Delta = D is always valid.
    EXPECT_GE(num_valid, 1u);
    if (result.residual_phi_free) {
      EXPECT_TRUE(VerifyIntervention(db, phi, result.delta).valid())
          << phi.ToString(db);
    }
  }
}

// Prop. 3.4 (<= n iterations) and Prop. 3.10 (<= 2q+2) hold empirically.
TEST_P(PropertyTest, ConvergenceBounds) {
  Database db = MakeDb(8);
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  InterventionEngine engine(&u);
  DataCausalGraph graph = UnwrapOrDie(DataCausalGraph::Build(u));
  SchemaCausalGraph schema_graph(&db);
  for (uint64_t phi_seed = 0; phi_seed < 4; ++phi_seed) {
    auto phi_or = RandomExplanation(db, GetParam().seed * 53 + phi_seed);
    if (!phi_or.ok()) continue;
    ConjunctivePredicate phi = *phi_or;
    InterventionResult result = UnwrapOrDie(engine.Compute(phi));
    EXPECT_LE(result.iterations, db.TotalRows() + 1) << phi.ToString(db);
    if (auto bound = schema_graph.StaticConvergenceBound()) {
      EXPECT_LE(result.iterations, *bound) << phi.ToString(db);
    }
    // Prop 3.10: 2q + 2 where q = max causal length from the seeds. Re-run
    // the seed computation by taking Rule (i) output = delta after one
    // iteration; approximating with the final delta's rows as seed
    // superset still upper-bounds q from the true seeds' reachability, so
    // compute from the true seeds: recompute via a fresh engine call with
    // max 1 iteration is not exposed; instead use all delta rows as seeds
    // (paths from supersets only lengthen q, keeping the bound sound).
    auto q_or = graph.MaxCausalLengthFromSeeds(result.delta, 2000000);
    if (q_or.ok()) {
      EXPECT_LE(result.iterations, 2 * (*q_or) + 2) << phi.ToString(db);
    }
  }
}

// Monotonicity in Delta: re-running P on a database where the fixpoint was
// already applied yields an empty intervention for phi.
TEST_P(PropertyTest, FixpointIsIdempotent) {
  Database db = MakeDb(8);
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  InterventionEngine engine(&u);
  auto phi_or = RandomExplanation(db, GetParam().seed * 71);
  if (!phi_or.ok()) GTEST_SKIP();
  ConjunctivePredicate phi = *phi_or;
  InterventionResult result = UnwrapOrDie(engine.Compute(phi));
  if (!result.residual_phi_free) GTEST_SKIP();
  Database residual = db.ApplyDelta(result.delta);
  if (residual.TotalRows() == 0) GTEST_SKIP();
  UniversalRelation u2 = UnwrapOrDie(UniversalRelation::Build(residual));
  InterventionEngine engine2(&u2);
  InterventionResult again = UnwrapOrDie(engine2.Compute(phi));
  EXPECT_EQ(DeltaCount(again.delta), 0u) << phi.ToString(db);
}

UserQuestion MakeCountQuestion(const Database& db, bool count_star) {
  // q1 = agg over rows with first value-attribute = 0; q2 = agg overall.
  AggregateQuery q1, q2;
  q1.name = "q1";
  q2.name = "q2";
  if (count_star) {
    q1.agg = AggregateSpec::CountStar();
  } else {
    // count(distinct P.pid) on the DBLP-like template.
    q1.agg = AggregateSpec::CountDistinct(*db.ResolveColumn("P.pid"));
  }
  q2.agg = q1.agg;
  // A filter on some value column. For the distinct count the WHERE must
  // stay on the counted parent P for cell-exactness (CheckCellAdditivity);
  // count(*) tolerates any WHERE once a unique core exists.
  ColumnRef filter_col = *db.ResolveColumn(
      count_star ? std::string("DimA.va")
                 : std::string("P.vp"));
  q1.where = ConjunctivePredicate(
      {AtomicPredicate{filter_col, CompareOp::kEq, Value::Int(0)}});
  ExprPtr expr =
      UnwrapOrDie(ParseExpression("q1 / q2", {"q1", "q2"}));
  return UserQuestion{UnwrapOrDie(NumericalQuery::Create({q1, q2}, expr)),
                      Direction::kHigh};
}

// When the question is intervention-additive, the cube-based mu_interv
// equals the exact fixpoint degree on EVERY cell of M.
TEST_P(PropertyTest, CubeDegreesMatchExactWhenAdditive) {
  if (GetParam().schema == DbTemplate::kChain) {
    GTEST_SKIP() << "chain template has no additive aggregate";
  }
  const bool star = GetParam().schema == DbTemplate::kStarFact;
  Database db = MakeDb(10);
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  InterventionEngine engine(&u);
  UserQuestion question = MakeCountQuestion(db, /*count_star=*/star);
  AdditivityReport additivity = CheckCellAdditivity(u, question.query);
  ASSERT_TRUE(additivity.additive) << additivity.reason;

  std::vector<ColumnRef> attrs;
  if (star) {
    attrs = {*db.ResolveColumn("DimA.va"), *db.ResolveColumn("DimB.vb")};
  } else {
    attrs = {*db.ResolveColumn("A.va"), *db.ResolveColumn("P.vp")};
  }
  TableM table = UnwrapOrDie(ComputeTableM(u, question, attrs));
  for (size_t row = 0; row < table.NumRows(); ++row) {
    Explanation e = table.ExplanationAt(row);
    double exact = UnwrapOrDie(
        InterventionDegreeExact(engine, question, e.predicate()));
    EXPECT_NEAR(table.mu_interv[row], exact, 1e-9)
        << e.ToString(db) << " row " << row;
  }
}

// The cube evaluation and the naive enumeration agree cell-by-cell for
// every aggregate kind over an int64 column, with a WHERE filter on one
// subquery: u_j and v_j are equal exactly (integer sums are exact in any
// order), every naive row is a cube row, and every cube row with a
// nonzero value is a naive row (naive drops the all-zero cells).
TEST_P(PropertyTest, CubeMatchesNaive) {
  if (GetParam().schema == DbTemplate::kChain) {
    GTEST_SKIP() << "covered by the fact-core templates";
  }
  const bool star = GetParam().schema == DbTemplate::kStarFact;
  Database db = MakeDb(9);
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  std::vector<ColumnRef> attrs;
  if (star) {
    attrs = {*db.ResolveColumn("DimA.va"), *db.ResolveColumn("DimB.vb")};
  } else {
    attrs = {*db.ResolveColumn("A.va"), *db.ResolveColumn("P.vp")};
  }
  const ColumnRef measure = *db.ResolveColumn(star ? "F.vf" : "A.id");
  const ColumnRef counted = *db.ResolveColumn(star ? "F.b" : "P.pid");
  const ConjunctivePredicate filter({AtomicPredicate{
      *db.ResolveColumn(star ? "DimA.va" : "P.vp"), CompareOp::kEq,
      Value::Int(0)}});
  const AggregateSpec aggs[] = {
      AggregateSpec::CountStar(),
      AggregateSpec::CountDistinct(counted),
      AggregateSpec::Sum(measure),
      AggregateSpec{AggregateKind::kAvg, measure},
      AggregateSpec{AggregateKind::kMin, measure},
      AggregateSpec{AggregateKind::kMax, measure}};
  ExprPtr expr = UnwrapOrDie(ParseExpression("q1 / (q2 + 1)", {"q1", "q2"}));
  for (const AggregateSpec& agg : aggs) {
    SCOPED_TRACE(agg.ToString(db));
    AggregateQuery q1, q2;
    q1.name = "q1";
    q1.agg = agg;
    q1.where = filter;
    q2.name = "q2";
    q2.agg = agg;
    const UserQuestion question{
        UnwrapOrDie(NumericalQuery::Create({q1, q2}, expr)),
        Direction::kHigh};
    TableM cube = UnwrapOrDie(ComputeTableM(u, question, attrs));
    TableM naive = UnwrapOrDie(ComputeTableMNaive(u, question, attrs));
    EXPECT_EQ(cube.original_values, naive.original_values);
    for (size_t row = 0; row < naive.NumRows(); ++row) {
      const int64_t cube_row = cube.FindRow(naive.coords[row]);
      ASSERT_GE(cube_row, 0) << TupleToString(naive.coords[row]);
      for (size_t j = 0; j < 2; ++j) {
        EXPECT_EQ(cube.subquery_values[j][cube_row],
                  naive.subquery_values[j][row])
            << TupleToString(naive.coords[row]) << " q" << j + 1;
      }
      EXPECT_EQ(cube.mu_interv[cube_row], naive.mu_interv[row]);
      EXPECT_EQ(cube.mu_aggr[cube_row], naive.mu_aggr[row]);
    }
    for (size_t row = 0; row < cube.NumRows(); ++row) {
      if (cube.subquery_values[0][row] == 0.0 &&
          cube.subquery_values[1][row] == 0.0) {
        continue;
      }
      EXPECT_GE(naive.FindRow(cube.coords[row]), 0)
          << TupleToString(cube.coords[row]);
    }
  }
}

// Minimal-self-join and minimal-append agree: append winners are exactly
// the top non-dominated rows in order.
TEST_P(PropertyTest, MinimalityStrategiesConsistent) {
  if (GetParam().schema == DbTemplate::kChain) GTEST_SKIP();
  const bool star = GetParam().schema == DbTemplate::kStarFact;
  Database db = MakeDb(10);
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  UserQuestion question = MakeCountQuestion(db, star);
  std::vector<ColumnRef> attrs;
  if (star) {
    attrs = {*db.ResolveColumn("DimA.va"), *db.ResolveColumn("DimB.vb")};
  } else {
    attrs = {*db.ResolveColumn("A.va"), *db.ResolveColumn("P.vp")};
  }
  TableM table = UnwrapOrDie(ComputeTableM(u, question, attrs));
  auto self_join = TopKExplanations(table, DegreeKind::kIntervention, 3,
                                    MinimalityStrategy::kSelfJoin);
  auto append = TopKExplanations(table, DegreeKind::kIntervention, 3,
                                 MinimalityStrategy::kAppend);
  // Append winners are never dominated.
  for (const RankedExplanation& e : append) {
    EXPECT_FALSE(IsDominated(table, DegreeKind::kIntervention, e.m_row));
  }
  if (!self_join.empty() && !append.empty()) {
    EXPECT_EQ(self_join[0].m_row, append[0].m_row);
  }
}

std::vector<PropertyCase> MakeSweep() {
  std::vector<PropertyCase> cases;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    cases.push_back(PropertyCase{seed, DbTemplate::kChain});
    cases.push_back(PropertyCase{seed, DbTemplate::kStarFact});
    cases.push_back(PropertyCase{seed, DbTemplate::kDblpLike});
  }
  for (uint64_t seed = 9; seed <= 12; ++seed) {
    cases.push_back(PropertyCase{seed, DbTemplate::kDblpLike});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PropertyTest,
                         ::testing::ValuesIn(MakeSweep()), CaseName);

}  // namespace
}  // namespace xplain
