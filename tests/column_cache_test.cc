#include "relational/column_cache.h"

#include <unordered_set>

#include "gtest/gtest.h"
#include "relational/cube.h"
#include "relational/parser.h"
#include "tests/test_util.h"

namespace xplain {
namespace {

using ::xplain::testing::BuildRunningExample;
using ::xplain::testing::FilterRows;
using ::xplain::testing::Pred;
using ::xplain::testing::UnwrapOrDie;

class ColumnCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = BuildRunningExample();
    universal_ = std::make_unique<UniversalRelation>(
        UnwrapOrDie(UniversalRelation::Build(db_)));
    name_ = *db_.ResolveColumn("Author.name");
    year_ = *db_.ResolveColumn("Publication.year");
    pubid_ = *db_.ResolveColumn("Publication.pubid");
    venue_ = *db_.ResolveColumn("Publication.venue");
  }

  Database db_;
  std::unique_ptr<UniversalRelation> universal_;
  ColumnRef name_, year_, pubid_, venue_;
};

TEST_F(ColumnCacheTest, EncodingRoundTrips) {
  ColumnCache cache = ColumnCache::Build(*universal_, {name_, year_});
  EXPECT_EQ(cache.num_columns(), 2);
  EXPECT_EQ(cache.NumRows(), universal_->NumRows());
  EXPECT_EQ(cache.DictionarySize(0), 3u);  // JG, RR, CM
  EXPECT_EQ(cache.DictionarySize(1), 2u);  // 2001, 2011
  for (size_t u = 0; u < cache.NumRows(); ++u) {
    EXPECT_TRUE(cache.Decode(0, cache.Code(u, 0))
                    .Equals(universal_->ValueAt(u, name_)));
    EXPECT_TRUE(cache.Decode(1, cache.Code(u, 1))
                    .Equals(universal_->ValueAt(u, year_)));
  }
  EXPECT_EQ(cache.FindColumn(name_), 0);
  EXPECT_EQ(cache.FindColumn(pubid_), -1);
}

TEST_F(ColumnCacheTest, CodedFilterListsPassingRows) {
  DnfPredicate sigmod = Pred(db_, "Publication.venue = 'SIGMOD'");
  const ColumnCache cache =
      ColumnCache::Build(*universal_, {name_, year_, venue_});
  const CodedFilter filter = UnwrapOrDie(CodedFilter::Compile(cache, sigmod));
  const std::vector<uint32_t> rows = filter.EvalRows(cache, nullptr);
  EXPECT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows, FilterRows(*universal_, &sigmod));
  // EvalRows keeps the passing rows of a candidate list, in list order.
  std::vector<uint32_t> odd, odd_passing;
  for (uint32_t u = 1; u < universal_->NumRows(); u += 2) odd.push_back(u);
  for (uint32_t u : rows) {
    if (u % 2 == 1) odd_passing.push_back(u);
  }
  EXPECT_EQ(filter.EvalRows(cache, &odd), odd_passing);
  EXPECT_EQ(FilterRows(*universal_, nullptr).size(), universal_->NumRows());
}

// Both directions against the row-at-a-time oracle that core/naive
// enumerates: every coded cell equals EvaluateAggregate over the rows its
// coordinates select, and every coordinate some filter-passing row rolls
// up to has a cell.
void ExpectCellsMatchRowAtATime(const UniversalRelation& u,
                                const DataCube& cube,
                                const AggregateSpec& agg,
                                const DnfPredicate& filter) {
  const std::vector<ColumnRef>& attrs = cube.attributes();
  for (const auto& [cell, value] : cube.cells()) {
    std::vector<AtomicPredicate> atoms;
    for (size_t i = 0; i < attrs.size(); ++i) {
      if (!cell[i].is_null()) {
        atoms.push_back(AtomicPredicate{attrs[i], CompareOp::kEq, cell[i]});
      }
    }
    const DnfPredicate selected =
        filter.And(ConjunctivePredicate(std::move(atoms)));
    const Value expected = EvaluateAggregate(u, agg, &selected);
    EXPECT_EQ(value, expected.is_null() ? 0.0 : expected.AsNumeric())
        << TupleToString(cell);
  }
  std::unordered_set<Tuple, TupleHash, TupleEq> rolled_up;
  for (size_t row = 0; row < u.NumRows(); ++row) {
    if (!filter.EvalUniversal(u, row)) continue;
    for (uint32_t mask = 0; mask < (1u << attrs.size()); ++mask) {
      Tuple coords(attrs.size());
      for (size_t i = 0; i < attrs.size(); ++i) {
        if (mask & (1u << i)) coords[i] = u.ValueAt(row, attrs[i]);
      }
      rolled_up.insert(std::move(coords));
    }
  }
  EXPECT_EQ(cube.NumCells(), rolled_up.size());
}

TEST_F(ColumnCacheTest, CodedCountStarMatchesRowAtATime) {
  const DnfPredicate sigmod = Pred(db_, "Publication.venue = 'SIGMOD'");
  const ColumnCache cache = ColumnCache::Build(*universal_, {name_, year_});
  const std::vector<uint32_t> rows = FilterRows(*universal_, &sigmod);
  const DataCube cube = UnwrapOrDie(DataCube::Compute(
      cache, {0, 1}, AggregateKind::kCountStar, -1, &rows));
  ExpectCellsMatchRowAtATime(*universal_, cube, AggregateSpec::CountStar(),
                             sigmod);
}

TEST_F(ColumnCacheTest, CodedCountDistinctMatchesRowAtATime) {
  const ColumnCache cache = ColumnCache::Build(*universal_, {name_, pubid_});
  const std::vector<uint32_t> rows = FilterRows(*universal_, nullptr);
  const DataCube cube = UnwrapOrDie(DataCube::Compute(
      cache, {0}, AggregateKind::kCountDistinct, 1, &rows));
  ExpectCellsMatchRowAtATime(*universal_, cube,
                             AggregateSpec::CountDistinct(pubid_),
                             DnfPredicate::True());
}

TEST_F(ColumnCacheTest, CodedNumericAggregatesMatchRowAtATime) {
  const DnfPredicate sigmod = Pred(db_, "Publication.venue = 'SIGMOD'");
  const ColumnCache cache =
      ColumnCache::Build(*universal_, {name_, pubid_, year_});
  const std::vector<uint32_t> rows = FilterRows(*universal_, &sigmod);
  for (AggregateKind kind : {AggregateKind::kSum, AggregateKind::kAvg,
                             AggregateKind::kMin, AggregateKind::kMax}) {
    SCOPED_TRACE(AggregateKindToString(kind));
    const DataCube cube =
        UnwrapOrDie(DataCube::Compute(cache, {0, 1}, kind, 2, &rows));
    ExpectCellsMatchRowAtATime(*universal_, cube, AggregateSpec{kind, year_},
                               sigmod);
  }
}

// Six attributes with 1030 distinct values each need 6 x 11 = 66 bits of
// packed codes, so the kernel takes its code-vector fallback; it must keep
// the packed path's semantics (numeric NULL handling, the NULL rule).
TEST(CodedCubeWideKeyTest, CodeVectorFallbackKeepsTheSemantics) {
  constexpr int kRows = 1030;
  std::vector<AttributeDef> defs = {{"k", DataType::kInt64}};
  for (const char* name : {"a", "b", "c", "d", "e", "f", "w"}) {
    defs.push_back(AttributeDef{name, DataType::kInt64});
  }
  auto schema = RelationSchema::Create("W", defs, {"k"});
  Relation rel(std::move(*schema));
  for (int i = 0; i < kRows; ++i) {
    Tuple row;
    for (int c = 0; c < 7; ++c) row.push_back(Value::Int(i + c * kRows));
    // w is NULL on every 7th row; f is NULL on row 3.
    row.push_back(i % 7 == 0 ? Value::Null() : Value::Int(i));
    if (i == 3) row[6] = Value::Null();
    rel.AppendUnchecked(std::move(row));
  }
  Database db;
  XPLAIN_CHECK(db.AddRelation(std::move(rel)).ok());
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  std::vector<ColumnRef> columns;
  for (const char* name :
       {"W.a", "W.b", "W.c", "W.d", "W.e", "W.f", "W.w"}) {
    columns.push_back(*db.ResolveColumn(name));
  }
  const ColumnCache cache = ColumnCache::Build(u, columns);
  const std::vector<int> attrs = {0, 1, 2, 3, 4, 5};

  // Row 3 carries the NULL f: unfiltered it is rejected, filtered away the
  // cube is legal.
  const std::vector<uint32_t> all_rows = FilterRows(u, nullptr);
  EXPECT_EQ(DataCube::Compute(cache, attrs, AggregateKind::kCountStar, -1,
                              &all_rows)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  const DnfPredicate not_row_3 = Pred(db, "W.k <> 3");
  const std::vector<uint32_t> rows = FilterRows(u, &not_row_3);

  double sum = 0.0, max = 0.0;
  int64_t non_null = 0;
  for (int i = 0; i < kRows; ++i) {
    if (i == 3 || i % 7 == 0) continue;
    sum += i;
    max = i;
    ++non_null;
  }
  const DataCube count =
      UnwrapOrDie(DataCube::Compute(cache, attrs, AggregateKind::kCountStar,
                                    -1, &rows));
  // Every attribute is unique per row: each non-empty mask yields one cell
  // per row, plus the apex.
  EXPECT_EQ(count.NumCells(), 63u * (kRows - 1) + 1);
  EXPECT_EQ(count.GrandTotal(), kRows - 1.0);
  const DataCube sums =
      UnwrapOrDie(DataCube::Compute(cache, attrs, AggregateKind::kSum, 6,
                                    &rows));
  EXPECT_EQ(sums.GrandTotal(), sum);
  // Row i holds a = i + kRows, b = i + 2 * kRows, ...
  const Tuple row_7 = {Value::Int(7 + kRows), Value::Int(7 + 2 * kRows),
                       Value::Null(), Value::Null(), Value::Null(),
                       Value::Null()};
  const Tuple row_8 = {Value::Int(8 + kRows), Value::Null(), Value::Null(),
                       Value::Null(), Value::Null(), Value::Null()};
  ASSERT_EQ(sums.cells().count(row_7), 1u);
  EXPECT_EQ(sums.cells().at(row_7), 0.0);  // all-NULL cell, present
  EXPECT_EQ(sums.CellValue(row_8), 8.0);
  const DataCube avg =
      UnwrapOrDie(DataCube::Compute(cache, attrs, AggregateKind::kAvg, 6,
                                    &rows));
  EXPECT_EQ(avg.GrandTotal(), sum / static_cast<double>(non_null));
  const DataCube maxes =
      UnwrapOrDie(DataCube::Compute(cache, attrs, AggregateKind::kMax, 6,
                                    &rows));
  EXPECT_EQ(maxes.GrandTotal(), max);
  const DataCube mins =
      UnwrapOrDie(DataCube::Compute(cache, attrs, AggregateKind::kMin, 6,
                                    &rows));
  EXPECT_EQ(mins.GrandTotal(), 1.0);
}

TEST_F(ColumnCacheTest, CodedCubeWithoutAttributesIsTheApex) {
  ColumnCache cache = ColumnCache::Build(*universal_, {name_});
  const std::vector<uint32_t> rows = FilterRows(*universal_, nullptr);
  const DataCube apex = UnwrapOrDie(
      DataCube::Compute(cache, {}, AggregateKind::kCountStar, -1, &rows));
  EXPECT_EQ(apex.NumCells(), 1u);
  EXPECT_EQ(apex.GrandTotal(), static_cast<double>(rows.size()));
  const std::vector<uint32_t> none;
  EXPECT_EQ(UnwrapOrDie(DataCube::Compute(cache, {}, AggregateKind::kCountStar,
                                          -1, &none))
                .NumCells(),
            0u);
}

TEST_F(ColumnCacheTest, CodedCubeRejectsBadArguments) {
  ColumnCache cache = ColumnCache::Build(*universal_, {name_});
  const std::vector<uint32_t> rows = FilterRows(*universal_, nullptr);
  EXPECT_FALSE(
      DataCube::Compute(cache, {5}, AggregateKind::kCountStar, -1, &rows)
          .ok());
  EXPECT_FALSE(
      DataCube::Compute(cache, {0}, AggregateKind::kCountDistinct, 7, &rows)
          .ok());
  EXPECT_FALSE(
      DataCube::Compute(cache, {0}, AggregateKind::kSum, -1, &rows).ok());
  // A string measure is a structured error, never an abort.
  EXPECT_EQ(
      DataCube::Compute(cache, {0}, AggregateKind::kMax, 0, &rows)
          .status()
          .code(),
      StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace xplain
