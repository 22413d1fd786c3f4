// Edge cases across the stack: degenerate databases, NULL-heavy data,
// extreme values, and boundary conditions the module tests do not reach.

#include "core/engine.h"
#include "core/intervention.h"
#include "gtest/gtest.h"
#include "relational/cube.h"
#include "relational/parser.h"
#include "tests/test_util.h"

namespace xplain {
namespace {

using ::xplain::testing::BuildRunningExample;
using ::xplain::testing::ComputeCube;
using ::xplain::testing::FilterRows;
using ::xplain::testing::Pred;
using ::xplain::testing::UnwrapOrDie;

/// Single relation whose value column is entirely NULL except one row.
Database BuildNullHeavyDb() {
  auto schema = RelationSchema::Create(
      "T", {{"k", DataType::kInt64}, {"v", DataType::kString}}, {"k"});
  Relation t(std::move(*schema));
  for (int i = 0; i < 5; ++i) {
    t.AppendUnchecked({Value::Int(i),
                       i == 2 ? Value::Str("present") : Value::Null()});
  }
  Database db;
  XPLAIN_CHECK(db.AddRelation(std::move(t)).ok());
  return db;
}

TEST(EdgeCaseTest, NullValuesNeverSatisfyPredicates) {
  Database db = BuildNullHeavyDb();
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  DnfPredicate eq = Pred(db, "T.v = 'present'");
  EXPECT_DOUBLE_EQ(
      EvaluateAggregate(u, AggregateSpec::CountStar(), &eq).AsNumeric(), 1);
  // <> also fails on NULL (three-valued logic): only the present row
  // qualifies for v <> 'other'.
  DnfPredicate ne = Pred(db, "T.v <> 'other'");
  EXPECT_DOUBLE_EQ(
      EvaluateAggregate(u, AggregateSpec::CountStar(), &ne).AsNumeric(), 1);
}

TEST(EdgeCaseTest, CubeRejectsNullGroupingAttributes) {
  // A data NULL in a grouping attribute would be indistinguishable from
  // the lattice's don't-care marker (SQL's GROUPING() ambiguity), so the
  // cube rejects it when a filter-passing row carries one.
  Database db = BuildNullHeavyDb();
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  ColumnRef v = *db.ResolveColumn("T.v");
  ColumnCache cache = ColumnCache::Build(u, {v});
  const std::vector<uint32_t> all_rows = FilterRows(u, nullptr);
  auto unfiltered = DataCube::Compute(cache, {0}, AggregateKind::kCountStar,
                                      -1, &all_rows);
  EXPECT_EQ(unfiltered.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unfiltered.status().message().find("T.v"), std::string::npos)
      << unfiltered.status().ToString();
  // Filtering the NULLs away first makes the cube legal, although the
  // dictionary still holds the NULL the dropped rows carry.
  for (const char* filter : {"T.v = 'present'", "T.v <> 'zzz'"}) {
    DnfPredicate pred = Pred(db, filter);
    const std::vector<uint32_t> rows = FilterRows(u, &pred);
    DataCube ok = UnwrapOrDie(DataCube::Compute(
        cache, {0}, AggregateKind::kCountStar, -1, &rows));
    EXPECT_EQ(ok.NumCells(), 2u) << filter;
    EXPECT_DOUBLE_EQ(ok.CellValue({Value::Str("present")}), 1) << filter;
  }
}

TEST(EdgeCaseTest, FilteredNullGroupAnswersEveryAggregateLikeNaive) {
  // T(k, v, w) with one NULL v: a question whose filter drops that row
  // groups by T.v for count(*) as well as for sum/max.
  auto schema = RelationSchema::Create(
      "T",
      {{"k", DataType::kInt64}, {"v", DataType::kString},
       {"w", DataType::kInt64}},
      {"k"});
  Relation t(std::move(*schema));
  const char* vs[] = {"a", "b", nullptr, "a", "c", "b"};
  for (int i = 0; i < 6; ++i) {
    t.AppendUnchecked({Value::Int(i),
                       vs[i] == nullptr ? Value::Null() : Value::Str(vs[i]),
                       Value::Int(10 * i + 1)});
  }
  Database db;
  XPLAIN_CHECK(db.AddRelation(std::move(t)).ok());
  ExplainEngine engine = UnwrapOrDie(ExplainEngine::Create(&db));
  for (const char* agg : {"count(*)", "sum(T.w)", "max(T.w)"}) {
    SCOPED_TRACE(agg);
    AggregateQuery q1;
    q1.name = "q1";
    q1.agg = UnwrapOrDie(ParseAggregate(db, agg));
    q1.where = Pred(db, "T.v <> 'zzz'");
    ExprPtr expr = UnwrapOrDie(ParseExpression("q1", {"q1"}));
    UserQuestion question{UnwrapOrDie(NumericalQuery::Create({q1}, expr)),
                          Direction::kHigh};
    ExplainOptions options;
    options.degree = DegreeKind::kAggravation;
    options.num_threads = 1;
    ExplainReport cube =
        UnwrapOrDie(engine.Explain(question, {"T.v"}, options));
    options.use_cube = false;
    ExplainReport naive =
        UnwrapOrDie(engine.Explain(question, {"T.v"}, options));
    EXPECT_EQ(cube.original_value, naive.original_value);
    ASSERT_EQ(naive.table.NumRows(), 4u);  // a, b, c, ALL
    for (size_t row = 0; row < naive.table.NumRows(); ++row) {
      const int64_t cube_row = cube.table.FindRow(naive.table.coords[row]);
      ASSERT_GE(cube_row, 0) << TupleToString(naive.table.coords[row]);
      EXPECT_EQ(cube.table.subquery_values[0][cube_row],
                naive.table.subquery_values[0][row]);
    }
    ASSERT_EQ(cube.explanations.size(), naive.explanations.size());
    for (size_t i = 0; i < cube.explanations.size(); ++i) {
      EXPECT_EQ(cube.explanations[i].degree, naive.explanations[i].degree);
      EXPECT_EQ(cube.explanations[i].explanation.ToString(db),
                naive.explanations[i].explanation.ToString(db));
    }
  }
}

TEST(EdgeCaseTest, InterventionOnNullColumnPredicate) {
  Database db = BuildNullHeavyDb();
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  InterventionEngine engine(&u);
  ConjunctivePredicate phi = Pred(db, "T.v = 'present'");
  InterventionResult result = UnwrapOrDie(engine.Compute(phi));
  // Only the single matching row is removed; NULL rows never satisfy phi.
  EXPECT_EQ(DeltaCount(result.delta), 1u);
  EXPECT_TRUE(result.delta[0].Test(2));
}

TEST(EdgeCaseTest, SingleRowDatabase) {
  auto schema = RelationSchema::Create("T", {{"k", DataType::kInt64}}, {"k"});
  Relation t(std::move(*schema));
  t.AppendUnchecked({Value::Int(7)});
  Database db;
  XPLAIN_CHECK(db.AddRelation(std::move(t)).ok());
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  InterventionEngine engine(&u);
  InterventionResult hit =
      UnwrapOrDie(engine.Compute(Pred(db, "T.k = 7")));
  EXPECT_EQ(DeltaCount(hit.delta), 1u);
  InterventionResult miss =
      UnwrapOrDie(engine.Compute(Pred(db, "T.k = 8")));
  EXPECT_EQ(DeltaCount(miss.delta), 0u);
}

TEST(EdgeCaseTest, EmptyRelationUniversal) {
  auto schema = RelationSchema::Create("T", {{"k", DataType::kInt64}}, {"k"});
  Database db;
  XPLAIN_CHECK(db.AddRelation(Relation(std::move(*schema))).ok());
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  EXPECT_EQ(u.NumRows(), 0u);
  EXPECT_DOUBLE_EQ(
      EvaluateAggregate(u, AggregateSpec::CountStar(), nullptr).AsNumeric(),
      0);
  // A cube over an empty input has only absent cells.
  DataCube cube = UnwrapOrDie(ComputeCube(
      u, {ColumnRef{0, 0}}, AggregateSpec::CountStar(), nullptr));
  EXPECT_EQ(cube.NumCells(), 0u);
  EXPECT_DOUBLE_EQ(cube.GrandTotal(), 0.0);
}

TEST(EdgeCaseTest, ExtremeNumericValues) {
  auto schema = RelationSchema::Create(
      "T", {{"k", DataType::kInt64}, {"d", DataType::kDouble}}, {"k"});
  Relation t(std::move(*schema));
  t.AppendUnchecked({Value::Int(std::numeric_limits<int64_t>::max()),
                     Value::Real(1e308)});
  t.AppendUnchecked({Value::Int(std::numeric_limits<int64_t>::min()),
                     Value::Real(-1e308)});
  XPLAIN_EXPECT_OK(t.CheckPrimaryKeyUnique());
  Database db;
  XPLAIN_CHECK(db.AddRelation(std::move(t)).ok());
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  ColumnRef d = *db.ResolveColumn("T.d");
  Value mx = EvaluateAggregate(u, AggregateSpec{AggregateKind::kMax, d},
                               nullptr);
  EXPECT_DOUBLE_EQ(mx.AsDouble(), 1e308);
  // Cross-type comparison near the int64 boundary stays exact.
  EXPECT_GT(Value::Int(std::numeric_limits<int64_t>::max())
                .Compare(Value::Real(9.0e18)),
            0);
}

TEST(EdgeCaseTest, SelfReferencingSchemaRejectedGracefully) {
  // An FK from a relation to itself: AddForeignKey accepts it (parent pk),
  // and the universal relation treats it as a filter edge.
  auto schema = RelationSchema::Create(
      "E", {{"id", DataType::kInt64}, {"boss", DataType::kInt64}}, {"id"});
  Relation e(std::move(*schema));
  e.AppendUnchecked({Value::Int(1), Value::Int(1)});  // self-managed
  e.AppendUnchecked({Value::Int(2), Value::Int(1)});
  Database db;
  XPLAIN_CHECK(db.AddRelation(std::move(e)).ok());
  ForeignKey fk;
  fk.child_relation = "E";
  fk.child_attrs = {"boss"};
  fk.parent_relation = "E";
  fk.parent_attrs = {"id"};
  XPLAIN_EXPECT_OK(db.AddForeignKey(fk));
  XPLAIN_EXPECT_OK(db.CheckReferentialIntegrity());
  // The self-edge acts as the filter E.boss == E.id: only row 1 survives
  // in U(D) (a one-relation "join" with itself on the same row).
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  EXPECT_EQ(u.NumRows(), 1u);
}

TEST(EdgeCaseTest, TopKLargerThanTable) {
  Database db = BuildRunningExample();
  ExplainEngine engine = UnwrapOrDie(ExplainEngine::Create(&db));
  AggregateQuery q;
  q.name = "q1";
  q.agg = AggregateSpec::CountDistinct(*db.ResolveColumn("Publication.pubid"));
  UserQuestion question{
      UnwrapOrDie(NumericalQuery::Create(
          {q}, UnwrapOrDie(ParseExpression("q1", {"q1"})))),
      Direction::kHigh};
  ExplainOptions options;
  options.top_k = 1000;  // far more than candidate cells
  ExplainReport report =
      UnwrapOrDie(engine.Explain(question, {"Author.name"}, options));
  EXPECT_LE(report.explanations.size(), 3u);
}

TEST(EdgeCaseTest, MinSupportPrunesEverything) {
  Database db = BuildRunningExample();
  ExplainEngine engine = UnwrapOrDie(ExplainEngine::Create(&db));
  AggregateQuery q;
  q.name = "q1";
  q.agg = AggregateSpec::CountStar();
  UserQuestion question{
      UnwrapOrDie(NumericalQuery::Create(
          {q}, UnwrapOrDie(ParseExpression("q1", {"q1"})))),
      Direction::kHigh};
  ExplainOptions options;
  options.min_support = 1e9;
  options.degree = DegreeKind::kAggravation;
  ExplainReport report =
      UnwrapOrDie(engine.Explain(question, {"Author.name"}, options));
  EXPECT_TRUE(report.explanations.empty());
  EXPECT_EQ(report.table.NumRows(), 0u);
}

}  // namespace
}  // namespace xplain
