#ifndef XPLAIN_TESTS_TEST_UTIL_H_
#define XPLAIN_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "relational/column_cache.h"
#include "relational/cube.h"
#include "relational/database.h"
#include "relational/parser.h"
#include "relational/predicate.h"
#include "util/result.h"

namespace xplain {
namespace testing {

#define XPLAIN_ASSERT_OK(expr)                                \
  do {                                                        \
    const ::xplain::Status _st = (expr);                      \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                  \
  } while (false)

#define XPLAIN_EXPECT_OK(expr)                                \
  do {                                                        \
    const ::xplain::Status _st = (expr);                      \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                  \
  } while (false)

/// Unwraps a Result<T> or fails the test.
template <typename T>
T UnwrapOrDie(Result<T> result, const char* what = "result") {
  if (!result.ok()) {
    ADD_FAILURE() << what << ": " << result.status().ToString();
  }
  return std::move(result).ValueOrDie();
}

/// Builds the paper's running example (Figure 3):
///
///   Author:      r1=(A1,JG,C.edu,edu) r2=(A2,RR,M.com,com)
///                r3=(A3,CM,I.com,com)
///   Authored:    s1=(A1,P1) s2=(A2,P1) s3=(A1,P2) s4=(A3,P2)
///                s5=(A2,P3) s6=(A3,P3)
///   Publication: t1=(P1,2001,SIGMOD) t2=(P2,2011,VLDB) t3=(P3,2001,SIGMOD)
///
/// Foreign keys (Eq. 2): Authored.id -> Author.id (standard),
/// Authored.pubid <-> Publication.pubid (back-and-forth unless
/// `all_standard`).
inline Database BuildRunningExample(bool all_standard = false) {
  auto author_schema = RelationSchema::Create("Author",
                                              {{"id", DataType::kString},
                                               {"name", DataType::kString},
                                               {"inst", DataType::kString},
                                               {"dom", DataType::kString}},
                                              {"id"});
  auto authored_schema = RelationSchema::Create(
      "Authored", {{"id", DataType::kString}, {"pubid", DataType::kString}},
      {"id", "pubid"});
  auto pub_schema = RelationSchema::Create("Publication",
                                           {{"pubid", DataType::kString},
                                            {"year", DataType::kInt64},
                                            {"venue", DataType::kString}},
                                           {"pubid"});
  Relation author(std::move(*author_schema));
  Relation authored(std::move(*authored_schema));
  Relation publication(std::move(*pub_schema));

  author.AppendUnchecked({Value::Str("A1"), Value::Str("JG"),
                          Value::Str("C.edu"), Value::Str("edu")});
  author.AppendUnchecked({Value::Str("A2"), Value::Str("RR"),
                          Value::Str("M.com"), Value::Str("com")});
  author.AppendUnchecked({Value::Str("A3"), Value::Str("CM"),
                          Value::Str("I.com"), Value::Str("com")});

  authored.AppendUnchecked({Value::Str("A1"), Value::Str("P1")});  // s1
  authored.AppendUnchecked({Value::Str("A2"), Value::Str("P1")});  // s2
  authored.AppendUnchecked({Value::Str("A1"), Value::Str("P2")});  // s3
  authored.AppendUnchecked({Value::Str("A3"), Value::Str("P2")});  // s4
  authored.AppendUnchecked({Value::Str("A2"), Value::Str("P3")});  // s5
  authored.AppendUnchecked({Value::Str("A3"), Value::Str("P3")});  // s6

  publication.AppendUnchecked(
      {Value::Str("P1"), Value::Int(2001), Value::Str("SIGMOD")});  // t1
  publication.AppendUnchecked(
      {Value::Str("P2"), Value::Int(2011), Value::Str("VLDB")});  // t2
  publication.AppendUnchecked(
      {Value::Str("P3"), Value::Int(2001), Value::Str("SIGMOD")});  // t3

  Database db;
  XPLAIN_CHECK(db.AddRelation(std::move(author)).ok());
  XPLAIN_CHECK(db.AddRelation(std::move(authored)).ok());
  XPLAIN_CHECK(db.AddRelation(std::move(publication)).ok());

  ForeignKey to_author;
  to_author.child_relation = "Authored";
  to_author.child_attrs = {"id"};
  to_author.parent_relation = "Author";
  to_author.parent_attrs = {"id"};
  to_author.kind = ForeignKeyKind::kStandard;
  XPLAIN_CHECK(db.AddForeignKey(to_author).ok());

  ForeignKey to_pub;
  to_pub.child_relation = "Authored";
  to_pub.child_attrs = {"pubid"};
  to_pub.parent_relation = "Publication";
  to_pub.parent_attrs = {"pubid"};
  to_pub.kind =
      all_standard ? ForeignKeyKind::kStandard : ForeignKeyKind::kBackAndForth;
  XPLAIN_CHECK(db.AddForeignKey(to_pub).ok());
  return db;
}

/// Parses a predicate or fails the test.
inline ConjunctivePredicate Pred(const Database& db, const std::string& text) {
  return UnwrapOrDie(ParsePredicate(db, text), text.c_str());
}

/// The rows of `universal` passing `filter` (nullptr = every row),
/// ascending, evaluated row at a time: the row list DataCube::Compute
/// takes, from an oracle independent of CodedFilter.
inline std::vector<uint32_t> FilterRows(const UniversalRelation& universal,
                                        const DnfPredicate* filter) {
  std::vector<uint32_t> rows;
  for (size_t u = 0; u < universal.NumRows(); ++u) {
    if (filter == nullptr || filter->EvalUniversal(universal, u)) {
      rows.push_back(static_cast<uint32_t>(u));
    }
  }
  return rows;
}

/// The cube of `agg` over the rows of `universal` passing `filter`
/// (nullptr = all rows), grouped by `attributes`: encodes the grouping and
/// aggregated columns, then runs DataCube::Compute on their codes.
inline Result<DataCube> ComputeCube(const UniversalRelation& universal,
                                    const std::vector<ColumnRef>& attributes,
                                    const AggregateSpec& agg,
                                    const DnfPredicate* filter,
                                    const CubeOptions& options = {}) {
  std::vector<ColumnRef> columns = attributes;
  if (agg.kind != AggregateKind::kCountStar) columns.push_back(agg.column);
  const ColumnCache cache = ColumnCache::Build(universal, columns);
  std::vector<int> attr_indices;
  for (size_t i = 0; i < attributes.size(); ++i) {
    attr_indices.push_back(static_cast<int>(i));
  }
  const std::vector<uint32_t> rows = FilterRows(universal, filter);
  const int measure = agg.kind == AggregateKind::kCountStar
                          ? -1
                          : static_cast<int>(attributes.size());
  return DataCube::Compute(cache, attr_indices, agg.kind, measure, &rows,
                           options);
}

/// Collects the rows of a RowSet as a sorted vector for assertions.
inline std::vector<size_t> Rows(const RowSet& set) { return set.ToRows(); }

/// Builds the Example 2.9 chain instance:
///   D = {R1(a), S1(a,b), R2(b), S2(b,c), R3(c)}
/// with four standard FKs. If `extended` (Example 2.10), also inserts
/// S1(a,b'), R2(b'), S2(b',c).
inline Database BuildChainExample(bool extended = false) {
  auto r1s = RelationSchema::Create("R1", {{"x", DataType::kString}}, {"x"});
  auto s1s = RelationSchema::Create(
      "S1", {{"x", DataType::kString}, {"y", DataType::kString}}, {"x", "y"});
  auto r2s = RelationSchema::Create("R2", {{"y", DataType::kString}}, {"y"});
  auto s2s = RelationSchema::Create(
      "S2", {{"y", DataType::kString}, {"z", DataType::kString}}, {"y", "z"});
  auto r3s = RelationSchema::Create("R3", {{"z", DataType::kString}}, {"z"});
  Relation r1(std::move(*r1s)), s1(std::move(*s1s)), r2(std::move(*r2s)),
      s2(std::move(*s2s)), r3(std::move(*r3s));
  r1.AppendUnchecked({Value::Str("a")});
  s1.AppendUnchecked({Value::Str("a"), Value::Str("b")});
  r2.AppendUnchecked({Value::Str("b")});
  s2.AppendUnchecked({Value::Str("b"), Value::Str("c")});
  r3.AppendUnchecked({Value::Str("c")});
  if (extended) {
    s1.AppendUnchecked({Value::Str("a"), Value::Str("b'")});
    r2.AppendUnchecked({Value::Str("b'")});
    s2.AppendUnchecked({Value::Str("b'"), Value::Str("c")});
  }
  Database db;
  XPLAIN_CHECK(db.AddRelation(std::move(r1)).ok());
  XPLAIN_CHECK(db.AddRelation(std::move(s1)).ok());
  XPLAIN_CHECK(db.AddRelation(std::move(r2)).ok());
  XPLAIN_CHECK(db.AddRelation(std::move(s2)).ok());
  XPLAIN_CHECK(db.AddRelation(std::move(r3)).ok());
  auto add_fk = [&db](const char* child, const char* cattr,
                      const char* parent, const char* pattr) {
    ForeignKey fk;
    fk.child_relation = child;
    fk.child_attrs = {cattr};
    fk.parent_relation = parent;
    fk.parent_attrs = {pattr};
    fk.kind = ForeignKeyKind::kStandard;
    XPLAIN_CHECK(db.AddForeignKey(fk).ok());
  };
  add_fk("S1", "x", "R1", "x");
  add_fk("S1", "y", "R2", "y");
  add_fk("S2", "y", "R2", "y");
  add_fk("S2", "z", "R3", "z");
  return db;
}

}  // namespace testing
}  // namespace xplain

#endif  // XPLAIN_TESTS_TEST_UTIL_H_
