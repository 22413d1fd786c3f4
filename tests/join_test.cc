#include "relational/join.h"

#include <algorithm>

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace xplain {
namespace {

Relation MakeRel(const char* name, std::vector<std::pair<int64_t, int64_t>> rows) {
  auto schema = RelationSchema::Create(
      name, {{"k", DataType::kInt64}, {"v", DataType::kInt64}}, {"k", "v"});
  Relation rel(std::move(*schema));
  for (auto [k, v] : rows) {
    rel.AppendUnchecked({Value::Int(k), Value::Int(v)});
  }
  return rel;
}

TEST(HashJoinTest, MatchesOnKeys) {
  Relation left = MakeRel("L", {{1, 10}, {2, 20}, {3, 30}});
  Relation right = MakeRel("R", {{2, 0}, {3, 0}, {3, 1}, {4, 0}});
  auto pairs = HashJoin(left, right, JoinKeys{{0}, {0}});
  std::sort(pairs.begin(), pairs.end());
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0], (std::pair<size_t, size_t>{1, 0}));
  EXPECT_EQ(pairs[1], (std::pair<size_t, size_t>{2, 1}));
  EXPECT_EQ(pairs[2], (std::pair<size_t, size_t>{2, 2}));
}

TEST(HashJoinTest, BuildSideChoiceDoesNotChangeResult) {
  Relation small = MakeRel("S", {{1, 0}});
  Relation large = MakeRel("L", {{1, 0}, {1, 1}, {2, 0}});
  auto a = HashJoin(small, large, JoinKeys{{0}, {0}});
  auto b = HashJoin(large, small, JoinKeys{{0}, {0}});
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 2u);
}

TEST(HashJoinTest, CompositeKeys) {
  Relation left = MakeRel("L", {{1, 10}, {1, 20}});
  Relation right = MakeRel("R", {{1, 10}, {1, 30}});
  auto pairs = HashJoin(left, right, JoinKeys{{0, 1}, {0, 1}});
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], (std::pair<size_t, size_t>{0, 0}));
}

/// N(k, v) = {(NULL, 0), (1, 1)}: one row whose join key is NULL.
Relation NullKeyRelation() {
  auto schema = RelationSchema::Create(
      "N", {{"k", DataType::kInt64}, {"v", DataType::kInt64}}, {"v"});
  Relation rel(std::move(*schema));
  for (int64_t v : {0, 1}) {
    Tuple row(2);
    if (v == 1) row[0] = Value::Int(1);
    row[1] = Value::Int(v);
    rel.AppendUnchecked(std::move(row));
  }
  return rel;
}

TEST(HashJoinTest, NullKeysNeverJoin) {
  Relation left = NullKeyRelation();
  Relation right = MakeRel("R", {{1, 0}});
  auto pairs = HashJoin(left, right, JoinKeys{{0}, {0}});
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].first, 1u);
}

TEST(SemijoinTest, KeepsMatchingLeftRows) {
  Relation left = MakeRel("L", {{1, 0}, {2, 0}, {3, 0}});
  Relation right = MakeRel("R", {{2, 9}, {9, 9}});
  RowSet kept = Semijoin(left, right, JoinKeys{{0}, {0}});
  EXPECT_EQ(kept.ToRows(), (std::vector<size_t>{1}));
}

TEST(AntijoinTest, ComplementsSemijoin) {
  Relation left = MakeRel("L", {{1, 0}, {2, 0}, {3, 0}});
  Relation right = MakeRel("R", {{2, 9}});
  RowSet anti = Antijoin(left, right, JoinKeys{{0}, {0}});
  EXPECT_EQ(anti.ToRows(), (std::vector<size_t>{0, 2}));
}

TEST(SortMergeJoinTest, MatchesHashJoin) {
  Relation left = MakeRel("L", {{3, 0}, {1, 10}, {2, 20}, {3, 30}, {1, 11}});
  Relation right = MakeRel("R", {{2, 0}, {3, 0}, {3, 1}, {4, 0}, {1, 5}});
  auto hash = HashJoin(left, right, JoinKeys{{0}, {0}});
  auto merge = SortMergeJoin(left, right, JoinKeys{{0}, {0}});
  std::sort(hash.begin(), hash.end());
  std::sort(merge.begin(), merge.end());
  EXPECT_EQ(hash, merge);
  ASSERT_EQ(merge.size(), 7u);  // 2x1 + 1 + 2x2
}

TEST(SortMergeJoinTest, DuplicateGroupsCrossProduct) {
  Relation left = MakeRel("L", {{1, 0}, {1, 1}});
  Relation right = MakeRel("R", {{1, 0}, {1, 1}, {1, 2}});
  auto merge = SortMergeJoin(left, right, JoinKeys{{0}, {0}});
  EXPECT_EQ(merge.size(), 6u);  // 2 x 3
}

TEST(SortMergeJoinTest, NullKeysSkipped) {
  Relation left = NullKeyRelation();
  Relation right = MakeRel("R", {{1, 0}});
  auto merge = SortMergeJoin(left, right, JoinKeys{{0}, {0}});
  ASSERT_EQ(merge.size(), 1u);
  EXPECT_EQ(merge[0].first, 1u);
}

TEST(JoinTest, EmptyInputs) {
  Relation left = MakeRel("L", {});
  Relation right = MakeRel("R", {{1, 0}});
  EXPECT_TRUE(HashJoin(left, right, JoinKeys{{0}, {0}}).empty());
  EXPECT_TRUE(Semijoin(left, right, JoinKeys{{0}, {0}}).empty());
  EXPECT_EQ(Antijoin(right, left, JoinKeys{{0}, {0}}).count(), 1u);
}

}  // namespace
}  // namespace xplain
