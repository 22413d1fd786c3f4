#include "relational/cube.h"

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace xplain {
namespace {

using ::xplain::testing::BuildRunningExample;
using ::xplain::testing::ComputeCube;
using ::xplain::testing::Pred;
using ::xplain::testing::UnwrapOrDie;

class CubeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = BuildRunningExample();
    universal_ = std::make_unique<UniversalRelation>(
        UnwrapOrDie(UniversalRelation::Build(db_)));
    name_ = *db_.ResolveColumn("Author.name");
    year_ = *db_.ResolveColumn("Publication.year");
  }

  Database db_;
  std::unique_ptr<UniversalRelation> universal_;
  ColumnRef name_, year_;
};

TEST_F(CubeTest, Example41CountCube) {
  // The paper's Example 4.1: cube over (name, year) with count(*).
  DataCube cube = UnwrapOrDie(ComputeCube(
      *universal_, {name_, year_},
      AggregateSpec::CountStar(), nullptr));
  EXPECT_EQ(cube.NumCells(), 11u);
  auto cell = [](const char* n, int64_t y) {
    Tuple t(2);
    t[0] = n == nullptr ? Value::Null() : Value::Str(n);
    t[1] = y == 0 ? Value::Null() : Value::Int(y);
    return t;
  };
  EXPECT_DOUBLE_EQ(cube.CellValue(cell("JG", 2001)), 1);
  EXPECT_DOUBLE_EQ(cube.CellValue(cell("JG", 2011)), 1);
  EXPECT_DOUBLE_EQ(cube.CellValue(cell("RR", 2001)), 2);
  EXPECT_DOUBLE_EQ(cube.CellValue(cell("CM", 2001)), 1);
  EXPECT_DOUBLE_EQ(cube.CellValue(cell("CM", 2011)), 1);
  EXPECT_DOUBLE_EQ(cube.CellValue(cell("JG", 0)), 2);
  EXPECT_DOUBLE_EQ(cube.CellValue(cell("RR", 0)), 2);
  EXPECT_DOUBLE_EQ(cube.CellValue(cell("CM", 0)), 2);
  EXPECT_DOUBLE_EQ(cube.CellValue(cell(nullptr, 2001)), 4);
  EXPECT_DOUBLE_EQ(cube.CellValue(cell(nullptr, 2011)), 2);
  EXPECT_DOUBLE_EQ(cube.CellValue(cell(nullptr, 0)), 6);
  EXPECT_DOUBLE_EQ(cube.GrandTotal(), 6);
  // Missing cells read as 0.
  EXPECT_DOUBLE_EQ(cube.CellValue(cell("RR", 2011)), 0);
}

TEST_F(CubeTest, FilteredCube) {
  DnfPredicate sigmod = Pred(db_, "Publication.venue = 'SIGMOD'");
  DataCube cube = UnwrapOrDie(ComputeCube(
      *universal_, {name_},
      AggregateSpec::CountStar(), &sigmod));
  EXPECT_DOUBLE_EQ(cube.CellValue({Value::Str("RR")}), 2);
  EXPECT_DOUBLE_EQ(cube.CellValue({Value::Str("JG")}), 1);
  EXPECT_DOUBLE_EQ(cube.GrandTotal(), 4);
}

TEST_F(CubeTest, CountDistinctRollsUpExactly) {
  ColumnRef pubid = *db_.ResolveColumn("Publication.pubid");
  DataCube cube = UnwrapOrDie(ComputeCube(
      *universal_, {name_},
      AggregateSpec::CountDistinct(pubid), nullptr));
  // Each author wrote 2 distinct papers; total distinct papers is 3, NOT
  // the sum 6 -- distinct rollup must not double count.
  EXPECT_DOUBLE_EQ(cube.CellValue({Value::Str("JG")}), 2);
  EXPECT_DOUBLE_EQ(cube.GrandTotal(), 3);
}

TEST_F(CubeTest, SumCube) {
  DataCube cube = UnwrapOrDie(ComputeCube(*universal_, {name_},
                                          AggregateSpec::Sum(year_), nullptr));
  EXPECT_DOUBLE_EQ(cube.CellValue({Value::Str("JG")}), 2001 + 2011);
  EXPECT_DOUBLE_EQ(cube.CellValue({Value::Str("RR")}), 2001 + 2001);
  EXPECT_DOUBLE_EQ(cube.GrandTotal(), 4 * 2001 + 2 * 2011);

  // AVG/MIN/MAX run through the same numeric accumulator.
  auto cube_of = [&](AggregateKind kind) {
    return UnwrapOrDie(ComputeCube(*universal_, {name_},
                                   AggregateSpec{kind, year_}, nullptr));
  };
  const Tuple jg = {Value::Str("JG")};
  const Tuple rr = {Value::Str("RR")};
  DataCube avg = cube_of(AggregateKind::kAvg);
  EXPECT_DOUBLE_EQ(avg.CellValue(jg), 2006);
  EXPECT_DOUBLE_EQ(avg.CellValue(rr), 2001);
  EXPECT_DOUBLE_EQ(avg.GrandTotal(), (4 * 2001 + 2 * 2011) / 6.0);
  DataCube min = cube_of(AggregateKind::kMin);
  EXPECT_DOUBLE_EQ(min.CellValue(jg), 2001);
  EXPECT_DOUBLE_EQ(min.GrandTotal(), 2001);
  DataCube max = cube_of(AggregateKind::kMax);
  EXPECT_DOUBLE_EQ(max.CellValue(jg), 2011);
  EXPECT_DOUBLE_EQ(max.CellValue(rr), 2001);
  EXPECT_DOUBLE_EQ(max.GrandTotal(), 2011);

  // T(k, g, w): group 'a' has w = 5 and a NULL, group 'b' only NULLs. Its
  // cell is present (rows fell into it) and every aggregate reads 0.
  auto schema = RelationSchema::Create(
      "T",
      {{"k", DataType::kInt64}, {"g", DataType::kString},
       {"w", DataType::kInt64}},
      {"k"});
  Relation t(std::move(*schema));
  t.AppendUnchecked({Value::Int(0), Value::Str("a"), Value::Int(5)});
  t.AppendUnchecked({Value::Int(1), Value::Str("a"), Value::Null()});
  t.AppendUnchecked({Value::Int(2), Value::Str("b"), Value::Null()});
  Database db;
  XPLAIN_CHECK(db.AddRelation(std::move(t)).ok());
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  const ColumnRef g = *db.ResolveColumn("T.g");
  const ColumnRef w = *db.ResolveColumn("T.w");
  const Tuple a = {Value::Str("a")};
  const Tuple b = {Value::Str("b")};
  for (AggregateKind kind : {AggregateKind::kSum, AggregateKind::kAvg,
                             AggregateKind::kMin, AggregateKind::kMax}) {
    SCOPED_TRACE(AggregateKindToString(kind));
    DataCube nulls =
        UnwrapOrDie(ComputeCube(u, {g}, AggregateSpec{kind, w}, nullptr));
    EXPECT_EQ(nulls.NumCells(), 3u);  // a, b, ALL
    ASSERT_EQ(nulls.cells().count(b), 1u);
    EXPECT_EQ(nulls.cells().at(b), 0.0);
    EXPECT_EQ(nulls.CellValue(a), 5.0);  // the NULL is skipped
    EXPECT_EQ(nulls.GrandTotal(), 5.0);
  }
}

TEST_F(CubeTest, AttributeCapEnforced) {
  CubeOptions options;
  options.max_attributes = 1;
  EXPECT_FALSE(ComputeCube(*universal_, {name_, year_},
                           AggregateSpec::CountStar(), nullptr, options)
                   .ok());
  // No attributes is not a cap violation: the one cell is the apex.
  EXPECT_EQ(UnwrapOrDie(ComputeCube(*universal_, {},
                                    AggregateSpec::CountStar(), nullptr))
                .NumCells(),
            1u);
}

TEST_F(CubeTest, FullOuterJoinFillsZeros) {
  DnfPredicate y2001 = Pred(db_, "Publication.year = 2001");
  DnfPredicate y2011 = Pred(db_, "Publication.year = 2011");
  DataCube c1 = UnwrapOrDie(ComputeCube(
      *universal_, {name_},
      AggregateSpec::CountStar(), &y2001));
  DataCube c2 = UnwrapOrDie(ComputeCube(
      *universal_, {name_},
      AggregateSpec::CountStar(), &y2011));
  CubeJoinResult joined = UnwrapOrDie(FullOuterJoinCubes({&c1, &c2}));
  // Union of cells; JG appears in both, RR only in 2001, CM in both.
  ASSERT_EQ(joined.NumRows(), 4u);  // JG, RR, CM, ALL
  for (size_t row = 0; row < joined.NumRows(); ++row) {
    if (joined.coords[row][0].is_null()) continue;
    const std::string& who = joined.coords[row][0].AsString();
    if (who == "RR") {
      EXPECT_DOUBLE_EQ(joined.values[0][row], 2);
      EXPECT_DOUBLE_EQ(joined.values[1][row], 0);  // missing cell -> 0
    }
  }
}

TEST_F(CubeTest, FullOuterJoinValidatesInputs) {
  DataCube c1 = UnwrapOrDie(ComputeCube(
      *universal_, {name_},
      AggregateSpec::CountStar(), nullptr));
  DataCube c2 = UnwrapOrDie(ComputeCube(
      *universal_, {year_},
      AggregateSpec::CountStar(), nullptr));
  EXPECT_FALSE(FullOuterJoinCubes({&c1, &c2}).ok());
  EXPECT_FALSE(FullOuterJoinCubes({}).ok());
  EXPECT_FALSE(FullOuterJoinCubes({&c1, nullptr}).ok());
}

TEST_F(CubeTest, FullOuterJoinEmptyOperandListIsInvalidArgument) {
  const auto joined = FullOuterJoinCubes({});
  ASSERT_FALSE(joined.ok());
  EXPECT_EQ(joined.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(joined.status().message().find("at least one cube operand"),
            std::string::npos);
}

TEST_F(CubeTest, FullOuterJoinNullOperandNamesItsIndex) {
  DataCube c1 = UnwrapOrDie(ComputeCube(
      *universal_, {name_},
      AggregateSpec::CountStar(), nullptr));
  const auto joined = FullOuterJoinCubes({&c1, nullptr});
  ASSERT_FALSE(joined.ok());
  EXPECT_EQ(joined.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(joined.status().message().find("operand 1"), std::string::npos);
}

TEST_F(CubeTest, FullOuterJoinMismatchedAttributesNamesOffender) {
  DataCube c1 = UnwrapOrDie(ComputeCube(
      *universal_, {name_},
      AggregateSpec::CountStar(), nullptr));
  DataCube c2 = UnwrapOrDie(ComputeCube(
      *universal_, {name_, year_},
      AggregateSpec::CountStar(), nullptr));
  const auto joined = FullOuterJoinCubes({&c1, &c2});
  ASSERT_FALSE(joined.ok());
  EXPECT_EQ(joined.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(joined.status().message().find("operand 1"), std::string::npos);
  EXPECT_NE(joined.status().message().find("share one attribute list"),
            std::string::npos);
}

TEST_F(CubeTest, FullOuterJoinSingleCubeIsPassThrough) {
  // m = 1: the joined table is the cube's own cells in canonical order,
  // every one present.
  DataCube cube = UnwrapOrDie(ComputeCube(
      *universal_, {name_},
      AggregateSpec::CountStar(), nullptr));
  CubeJoinResult joined = UnwrapOrDie(FullOuterJoinCubes({&cube}));
  ASSERT_EQ(joined.NumRows(), cube.NumCells());
  ASSERT_EQ(joined.values.size(), 1u);
  ASSERT_EQ(joined.present.size(), 1u);
  for (size_t row = 0; row < joined.NumRows(); ++row) {
    EXPECT_DOUBLE_EQ(joined.values[0][row],
                     cube.CellValue(joined.coords[row]));
    EXPECT_EQ(joined.present[0][row], 1);
  }
}

TEST_F(CubeTest, FullOuterJoinWithEmptyCubeOperand) {
  // An empty cube (no cells at all) joins fine: it contributes no
  // coordinates, is absent (and 0) everywhere, and the union is the other
  // operand's cells.
  DataCube c1 = UnwrapOrDie(ComputeCube(
      *universal_, {name_},
      AggregateSpec::CountStar(), nullptr));
  DataCube empty = DataCube::FromCells({name_}, {});
  CubeJoinResult joined = UnwrapOrDie(FullOuterJoinCubes({&c1, &empty}));
  ASSERT_EQ(joined.NumRows(), c1.NumCells());
  for (size_t row = 0; row < joined.NumRows(); ++row) {
    EXPECT_EQ(joined.present[0][row], 1);
    EXPECT_EQ(joined.present[1][row], 0);
    EXPECT_DOUBLE_EQ(joined.values[1][row], 0.0);
  }
}

TEST_F(CubeTest, FullOuterJoinPresentBitsDistinguishMissingFromZero) {
  // A cell materialized with value 0 must stay distinguishable from a cell
  // the cube never produced — the cluster merge reconstructs per-shard
  // supports from exactly this bit (DESIGN.md §13).
  DataCube::CellMap zero_cells;
  Tuple jg(1);
  jg[0] = Value::Str("JG");
  zero_cells[jg] = 0.0;
  DataCube zero = DataCube::FromCells({name_}, std::move(zero_cells));
  DataCube::CellMap other_cells;
  Tuple rr(1);
  rr[0] = Value::Str("RR");
  other_cells[rr] = 3.0;
  DataCube other = DataCube::FromCells({name_}, std::move(other_cells));
  CubeJoinResult joined = UnwrapOrDie(FullOuterJoinCubes({&zero, &other}));
  ASSERT_EQ(joined.NumRows(), 2u);
  for (size_t row = 0; row < joined.NumRows(); ++row) {
    const bool is_jg = joined.coords[row] == jg;
    // Both rows carry a 0 in one cube; only JG's is a real cell there.
    EXPECT_EQ(joined.present[0][row], is_jg ? 1 : 0);
    EXPECT_EQ(joined.present[1][row], is_jg ? 0 : 1);
    EXPECT_DOUBLE_EQ(joined.values[0][row], 0.0);
    EXPECT_DOUBLE_EQ(joined.values[1][row], is_jg ? 0.0 : 3.0);
  }
}

TEST_F(CubeTest, ToStringIsDeterministic) {
  DataCube cube = UnwrapOrDie(ComputeCube(
      *universal_, {name_},
      AggregateSpec::CountStar(), nullptr));
  EXPECT_EQ(cube.ToString(db_), cube.ToString(db_));
  EXPECT_NE(cube.ToString(db_).find("Author.name"), std::string::npos);
}

}  // namespace
}  // namespace xplain
