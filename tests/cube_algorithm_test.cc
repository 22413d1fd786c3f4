#include "core/cube_algorithm.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/naive.h"
#include "gtest/gtest.h"
#include "relational/parser.h"
#include "tests/test_util.h"

namespace xplain {
namespace {

using ::xplain::testing::BuildRunningExample;
using ::xplain::testing::Pred;
using ::xplain::testing::UnwrapOrDie;

class CubeAlgorithmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = BuildRunningExample();
    universal_ = std::make_unique<UniversalRelation>(
        UnwrapOrDie(UniversalRelation::Build(db_)));

    // Q = q1 / q2: SIGMOD-com vs SIGMOD-edu distinct papers; dir = high.
    AggregateQuery q1, q2;
    q1.name = "q1";
    q1.agg =
        AggregateSpec::CountDistinct(*db_.ResolveColumn("Publication.pubid"));
    q1.where =
        Pred(db_, "Author.dom = 'com' AND Publication.venue = 'SIGMOD'");
    q2 = q1;
    q2.name = "q2";
    q2.where =
        Pred(db_, "Author.dom = 'edu' AND Publication.venue = 'SIGMOD'");
    ExprPtr expr = UnwrapOrDie(ParseExpression("q1 / q2", {"q1", "q2"}));
    question_.query = UnwrapOrDie(NumericalQuery::Create({q1, q2}, expr));
    question_.direction = Direction::kHigh;

    attrs_ = {*db_.ResolveColumn("Author.name"),
              *db_.ResolveColumn("Publication.year")};
  }

  Database db_;
  std::unique_ptr<UniversalRelation> universal_;
  UserQuestion question_;
  std::vector<ColumnRef> attrs_;
};

TEST_F(CubeAlgorithmTest, OriginalValuesAreQofD) {
  TableM table =
      UnwrapOrDie(ComputeTableM(*universal_, question_, attrs_));
  ASSERT_EQ(table.original_values.size(), 2u);
  EXPECT_DOUBLE_EQ(table.original_values[0], 2.0);  // com SIGMOD pubs
  EXPECT_DOUBLE_EQ(table.original_values[1], 1.0);  // edu SIGMOD pubs
}

TEST_F(CubeAlgorithmTest, DegreeColumnsFollowDefinitions) {
  TableM table =
      UnwrapOrDie(ComputeTableM(*universal_, question_, attrs_));
  const EvalOptions opts;
  for (size_t row = 0; row < table.NumRows(); ++row) {
    double v1 = table.subquery_values[0][row];
    double v2 = table.subquery_values[1][row];
    // mu_aggr = +E(v1, v2); mu_interv = -E(u1 - v1, u2 - v2) for dir=high.
    double expected_aggr = v1 / std::max(v2, opts.epsilon);
    EXPECT_DOUBLE_EQ(table.mu_aggr[row], expected_aggr) << row;
    double r1 = table.original_values[0] - v1;
    double r2 = table.original_values[1] - v2;
    double expected_interv = -(r1 / (std::fabs(r2) < opts.epsilon
                                         ? opts.epsilon
                                         : r2));
    EXPECT_DOUBLE_EQ(table.mu_interv[row], expected_interv) << row;
  }
}

TEST_F(CubeAlgorithmTest, ContainsExpectedCells) {
  TableM table =
      UnwrapOrDie(ComputeTableM(*universal_, question_, attrs_));
  // The cell [name=RR] must exist with v1 = 2, v2 = 0.
  Tuple rr{Value::Str("RR"), Value::Null()};
  int64_t row = table.FindRow(rr);
  ASSERT_GE(row, 0);
  EXPECT_DOUBLE_EQ(table.subquery_values[0][row], 2.0);
  EXPECT_DOUBLE_EQ(table.subquery_values[1][row], 0.0);
  Explanation e = table.ExplanationAt(row);
  EXPECT_EQ(e.ToString(db_), "[Author.name = 'RR']");
}

TEST_F(CubeAlgorithmTest, MinSupportPrunes) {
  TableMOptions options;
  options.min_support = 2.0;  // keep rows where some v_j >= 2
  TableM table = UnwrapOrDie(
      ComputeTableM(*universal_, question_, attrs_, options));
  for (size_t row = 0; row < table.NumRows(); ++row) {
    EXPECT_TRUE(table.subquery_values[0][row] >= 2.0 ||
                table.subquery_values[1][row] >= 2.0);
  }
  // [name=JG, year=2011] has q1 = 0 and q2 = 0 in SIGMOD: pruned.
  EXPECT_EQ(table.FindRow({Value::Str("JG"), Value::Int(2011)}), -1);
}

TEST_F(CubeAlgorithmTest, NaiveMatchesCubeOnSharedCells) {
  TableM cube = UnwrapOrDie(ComputeTableM(*universal_, question_, attrs_));
  TableM naive =
      UnwrapOrDie(ComputeTableMNaive(*universal_, question_, attrs_));
  // Every cube cell with a nonzero subquery value appears in the naive
  // table with identical values and degrees.
  size_t compared = 0;
  for (size_t row = 0; row < cube.NumRows(); ++row) {
    if (cube.subquery_values[0][row] == 0.0 &&
        cube.subquery_values[1][row] == 0.0) {
      continue;
    }
    int64_t naive_row = naive.FindRow(cube.coords[row]);
    ASSERT_GE(naive_row, 0) << TupleToString(cube.coords[row]);
    EXPECT_DOUBLE_EQ(naive.subquery_values[0][naive_row],
                     cube.subquery_values[0][row]);
    EXPECT_DOUBLE_EQ(naive.subquery_values[1][naive_row],
                     cube.subquery_values[1][row]);
    EXPECT_DOUBLE_EQ(naive.mu_interv[naive_row], cube.mu_interv[row]);
    EXPECT_DOUBLE_EQ(naive.mu_aggr[naive_row], cube.mu_aggr[row]);
    ++compared;
  }
  EXPECT_GT(compared, 5u);
  // And vice versa: naive rows all have a nonzero value (all-zero rows are
  // omitted), so they appear in the cube table too.
  for (size_t row = 0; row < naive.NumRows(); ++row) {
    EXPECT_GE(cube.FindRow(naive.coords[row]), 0);
  }
}

TEST_F(CubeAlgorithmTest, NaiveCandidateCapEnforced) {
  NaiveOptions options;
  options.max_candidates = 2;
  EXPECT_FALSE(
      ComputeTableMNaive(*universal_, question_, attrs_, options).ok());
}

/// The raw bytes of a double column, so equal means byte-identical.
std::string Bytes(const std::vector<double>& values) {
  return std::string(reinterpret_cast<const char*>(values.data()),
                     values.size() * sizeof(double));
}

void ExpectSameTable(const TableM& a, const TableM& b) {
  ASSERT_EQ(a.NumRows(), b.NumRows());
  for (size_t row = 0; row < a.NumRows(); ++row) {
    EXPECT_EQ(TupleToString(a.coords[row]), TupleToString(b.coords[row]));
  }
  EXPECT_EQ(Bytes(a.original_values), Bytes(b.original_values));
  ASSERT_EQ(a.subquery_values.size(), b.subquery_values.size());
  for (size_t j = 0; j < a.subquery_values.size(); ++j) {
    EXPECT_EQ(Bytes(a.subquery_values[j]), Bytes(b.subquery_values[j]));
  }
  EXPECT_EQ(Bytes(a.mu_interv), Bytes(b.mu_interv));
  EXPECT_EQ(Bytes(a.mu_aggr), Bytes(b.mu_aggr));
  EXPECT_EQ(a.cube_mask, b.cube_mask);
}

TEST_F(CubeAlgorithmTest, WorkspaceEncodesEachColumnOnce) {
  CubeWorkspace workspace;
  TableMOptions options;
  options.workspace = &workspace;
  (void)UnwrapOrDie(ComputeTableM(*universal_, question_, attrs_, options));
  // Author.name, Publication.year, the counted pubid, Author.dom, venue.
  const CubeWorkspaceStats first = workspace.GetStats();
  EXPECT_EQ(first.column_hits, 0);
  EXPECT_EQ(first.column_misses, 5);
  EXPECT_EQ(first.column_entries, 5u);

  // A second question shares name, pubid, dom and venue; only Author.inst
  // is new, so only it is encoded.
  const std::vector<ColumnRef> attrs = {*db_.ResolveColumn("Author.name"),
                                        *db_.ResolveColumn("Author.inst")};
  TableM shared =
      UnwrapOrDie(ComputeTableM(*universal_, question_, attrs, options));
  const CubeWorkspaceStats second = workspace.GetStats();
  EXPECT_EQ(second.column_hits - first.column_hits, 4);
  EXPECT_EQ(second.column_misses - first.column_misses, 1);
  EXPECT_EQ(second.column_entries, 6u);
  ExpectSameTable(shared,
                  UnwrapOrDie(ComputeTableM(*universal_, question_, attrs)));

  // Every cube of a repeated question is retained: no column is assembled.
  TableM repeat =
      UnwrapOrDie(ComputeTableM(*universal_, question_, attrs, options));
  const CubeWorkspaceStats third = workspace.GetStats();
  EXPECT_EQ(third.column_hits, second.column_hits);
  EXPECT_EQ(third.column_misses, second.column_misses);
  EXPECT_GT(third.cube_hits, second.cube_hits);
  ExpectSameTable(repeat, shared);
}

TEST_F(CubeAlgorithmTest, ApexOriginalsMatchRowAtATime) {
  // Every aggregate kind, each once with a filter no row passes (no apex:
  // reads 0 like the row-at-a-time aggregate).
  const ColumnRef pubid = *db_.ResolveColumn("Publication.pubid");
  const ColumnRef year = *db_.ResolveColumn("Publication.year");
  const char* filters[] = {"Publication.venue = 'SIGMOD'",
                           "Publication.venue = 'ICDE'"};
  std::vector<AggregateQuery> subqueries;
  for (const char* filter : filters) {
    for (const AggregateSpec& agg :
         {AggregateSpec::CountStar(), AggregateSpec::CountDistinct(pubid),
          AggregateSpec::Sum(year), AggregateSpec{AggregateKind::kAvg, year},
          AggregateSpec{AggregateKind::kMin, year},
          AggregateSpec{AggregateKind::kMax, year}}) {
      AggregateQuery q;
      q.name = "q" + std::to_string(subqueries.size() + 1);
      q.agg = agg;
      q.where = Pred(db_, filter);
      subqueries.push_back(std::move(q));
    }
  }
  std::vector<std::string> names;
  std::string sum;
  for (const AggregateQuery& q : subqueries) {
    names.push_back(q.name);
    sum += (sum.empty() ? "" : " + ") + q.name;
  }
  ExprPtr expr = UnwrapOrDie(ParseExpression(sum, names));
  UserQuestion question{
      UnwrapOrDie(NumericalQuery::Create(std::move(subqueries), expr)),
      Direction::kHigh};
  const std::vector<double> expected =
      question.query.EvaluateSubqueries(*universal_);
  ASSERT_EQ(expected, (std::vector<double>{4.0, 2.0, 8004.0, 2001.0, 2001.0,
                                           2001.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                                           0.0}));

  CubeWorkspace workspace;
  TableMOptions options;
  options.workspace = &workspace;
  for (const TableMOptions& run : {TableMOptions(), options, options}) {
    TableM table =
        UnwrapOrDie(ComputeTableM(*universal_, question, attrs_, run));
    EXPECT_EQ(Bytes(table.original_values), Bytes(expected));
    EXPECT_EQ(question.query.Combine(table.original_values),
              question.query.EvaluateOnUniversal(*universal_));
  }
  EXPECT_GT(workspace.GetStats().cube_hits, 0);  // the third run's apexes
}

TEST_F(CubeAlgorithmTest, RejectsEmptyInputs) {
  UserQuestion empty;
  ExprPtr expr = UnwrapOrDie(ParseExpression("1", {}));
  empty.query = UnwrapOrDie(NumericalQuery::Create({}, expr));
  EXPECT_FALSE(ComputeTableM(*universal_, empty, attrs_).ok());
  EXPECT_FALSE(ComputeTableMNaive(*universal_, empty, attrs_).ok());
  EXPECT_FALSE(ComputeTableM(*universal_, question_, {}).ok());
}

}  // namespace
}  // namespace xplain
