// ExplainEngine::RescoreCells, the one routine that turns candidate cells
// into exact residuals, against the row-at-a-time reference
// (InterventionEngine::Compute + LiveUniversalRows + EvaluateSubqueries)
// on random instances of every random_db template, back-and-forth FKs
// included; and the row-list ComputeOnRows against pinned repair results.

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "datagen/random_db.h"
#include "datagen/rng.h"
#include "gtest/gtest.h"
#include "relational/parser.h"
#include "tests/test_util.h"
#include "util/thread_pool.h"

namespace xplain {
namespace {

using ::xplain::testing::UnwrapOrDie;
using datagen::DbTemplate;

/// Replaces every third value of `column` with NULL, so an aggregate over
/// it sees NULL inputs (value columns carry no FK, so integrity holds).
void NullEveryThird(Database* db, const ColumnRef& column) {
  const Relation& old = db->relation(column.relation);
  Relation nulled(old.schema());
  for (size_t i = 0; i < old.NumRows(); ++i) {
    Tuple row = old.row(i);
    if (i % 3 == 0) row[column.attribute] = Value::Null();
    nulled.AppendUnchecked(std::move(row));
  }
  *db->mutable_relation(column.relation) = std::move(nulled);
}

struct Shape {
  DbTemplate schema;
  std::vector<std::string> attributes;
  std::string measure;   // NULL-bearing; sum/avg/min/max read it
  std::string distinct;  // count(distinct) reads it
};

/// One question per aggregate kind, each under a random filter (q1 under
/// TRUE), over the template's columns.
UserQuestion MakeQuestion(const Database& db, const Shape& shape,
                          uint64_t seed) {
  const ColumnRef measure = UnwrapOrDie(db.ResolveColumn(shape.measure));
  const AggregateSpec specs[] = {
      AggregateSpec::CountStar(),
      AggregateSpec::CountDistinct(
          UnwrapOrDie(db.ResolveColumn(shape.distinct))),
      AggregateSpec{AggregateKind::kSum, measure},
      AggregateSpec{AggregateKind::kAvg, measure},
      AggregateSpec{AggregateKind::kMin, measure},
      AggregateSpec{AggregateKind::kMax, measure},
  };
  std::vector<AggregateQuery> subqueries;
  std::vector<std::string> names;
  std::string expr;
  for (const AggregateSpec& spec : specs) {
    AggregateQuery q;
    q.name = "q" + std::to_string(subqueries.size() + 1);
    q.agg = spec;
    if (!subqueries.empty()) {
      Result<ConjunctivePredicate> filter =
          datagen::RandomExplanation(db, seed * 100 + subqueries.size());
      if (filter.ok()) q.where = *filter;
    }
    expr += (expr.empty() ? "" : " + ") + q.name;
    names.push_back(q.name);
    subqueries.push_back(std::move(q));
  }
  UserQuestion question;
  question.query = UnwrapOrDie(NumericalQuery::Create(
      std::move(subqueries), UnwrapOrDie(ParseExpression(expr, names))));
  return question;
}

/// Random cells over `attributes`: each coordinate is don't-care, a value
/// of the column, or a value absent from the instance (as a cell merged
/// from another shard can be).
std::vector<Tuple> RandomCells(const Database& db,
                               const std::vector<ColumnRef>& attributes,
                               uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<Tuple> cells;
  for (size_t i = 0; i < count; ++i) {
    Tuple cell;
    for (const ColumnRef& column : attributes) {
      const double draw = rng.NextDouble();
      if (draw < 0.25) {
        cell.push_back(Value::Null());
      } else if (draw < 0.35) {
        cell.push_back(Value::Int(1000 + static_cast<int64_t>(i)));
      } else {
        std::vector<Value> domain =
            db.relation(column.relation).DistinctValues(column.attribute);
        std::erase_if(domain, [](const Value& v) { return v.is_null(); });
        cell.push_back(domain.empty()
                           ? Value::Int(-1)
                           : domain[rng.UniformInt(0, domain.size() - 1)]);
      }
    }
    cells.push_back(std::move(cell));
  }
  return cells;
}

void ExpectBitIdentical(const std::vector<double>& got,
                        const std::vector<double>& want,
                        const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t j = 0; j < got.size(); ++j) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got[j]),
              std::bit_cast<uint64_t>(want[j]))
        << where << " q" << j + 1 << ": " << got[j] << " vs " << want[j];
  }
}

TEST(RescoreTest, CodedRescoreMatchesRowAtATimeReference) {
  const Shape shapes[] = {
      {DbTemplate::kChain, {"R1.v1", "R3.v3"}, "R2.v2", "S1.y"},
      {DbTemplate::kStarFact, {"DimA.va", "F.vf"}, "DimB.vb", "F.a"},
      {DbTemplate::kDblpLike, {"A.va", "P.vp"}, "P.vp", "C.aid"},
  };
  ThreadPool workers(3);
  size_t compared = 0;
  for (const Shape& shape : shapes) {
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      datagen::RandomDbOptions options;
      options.seed = seed;
      options.schema = shape.schema;
      options.size = 6 + static_cast<int>(seed % 7);
      Database db = UnwrapOrDie(datagen::GenerateRandomDb(options));
      NullEveryThird(&db, UnwrapOrDie(db.ResolveColumn(shape.measure)));
      const ExplainEngine engine = UnwrapOrDie(ExplainEngine::Create(&db));
      const std::vector<ColumnRef> attributes =
          UnwrapOrDie(engine.ResolveAttributes(shape.attributes));
      const UserQuestion question = MakeQuestion(db, shape, seed);
      const std::vector<Tuple> cells = RandomCells(db, attributes, seed, 12);

      const std::vector<std::vector<double>> coded =
          UnwrapOrDie(engine.RescoreCells(question, attributes, cells));
      const std::vector<std::vector<double>> sharded = UnwrapOrDie(
          engine.RescoreCells(question, attributes, cells, &workers));
      ASSERT_EQ(coded.size(), cells.size());
      ASSERT_EQ(sharded.size(), cells.size());
      for (size_t i = 0; i < cells.size(); ++i) {
        const std::string where =
            "template " + std::to_string(static_cast<int>(shape.schema)) +
            " seed " + std::to_string(seed) + " cell " +
            TupleToString(cells[i]);
        const InterventionResult result =
            UnwrapOrDie(engine.intervention().Compute(
                Explanation::FromCell(attributes, cells[i]).predicate()));
        const RowSet live =
            engine.intervention().LiveUniversalRows(result.delta);
        const std::vector<double> reference =
            question.query.EvaluateSubqueries(engine.universal(), &live);
        ExpectBitIdentical(coded[i], reference, where);
        ExpectBitIdentical(sharded[i], reference, where + " (sharded)");
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 3u * 12u * 12u);
}

TEST(RescoreTest, RejectsCellsOfTheWrongArity) {
  Database db = ::xplain::testing::BuildRunningExample();
  const ExplainEngine engine = UnwrapOrDie(ExplainEngine::Create(&db));
  const std::vector<ColumnRef> attributes =
      UnwrapOrDie(engine.ResolveAttributes({"Author.name"}));
  UserQuestion question;
  AggregateQuery q;
  q.name = "q1";
  q.agg = AggregateSpec::CountStar();
  question.query = UnwrapOrDie(NumericalQuery::Create(
      {q}, UnwrapOrDie(ParseExpression("q1", {"q1"}))));
  EXPECT_EQ(engine
                .RescoreCells(question, attributes,
                              {Tuple{Value::Str("JG"), Value::Int(1)}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

/// Program P with repair on a chain instance without a fact core, where
/// the fixpoint is not phi-free. The expected Delta and round counts were
/// recorded from the predicate-scan implementation that the row list
/// replaced.
struct PinnedRepair {
  int size;
  uint64_t seed;
  size_t iterations;
  size_t seed_count;
  std::vector<std::vector<size_t>> delta;  // per relation, ascending
};

TEST(RescoreTest, RowListComputeMatchesPinnedRepair) {
  const PinnedRepair cases[] = {
      {10, 17, 3, 1, {{}, {}, {}, {1, 6, 8}, {0}}},
      {10, 95, 3, 4, {{}, {7}, {1}, {0, 7, 8, 9}, {2}}},
      // One repair round deletes three R3 tuples, from three live phi rows.
      {16, 243, 3, 2, {{}, {}, {}, {3, 4, 5, 7, 11}, {1, 2, 4}}},
  };
  for (const PinnedRepair& pinned : cases) {
    datagen::RandomDbOptions options;
    options.seed = pinned.seed;
    options.schema = DbTemplate::kChain;
    options.size = pinned.size;
    options.domain = 3;
    const Database db = UnwrapOrDie(datagen::GenerateRandomDb(options));
    const ConjunctivePredicate phi =
        UnwrapOrDie(datagen::RandomExplanation(db, pinned.seed * 31 + 7));
    const UniversalRelation universal =
        UnwrapOrDie(UniversalRelation::Build(db));
    const InterventionEngine engine(&universal);

    std::vector<ColumnRef> columns;
    for (const AtomicPredicate& atom : phi.atoms()) {
      columns.push_back(atom.column);
    }
    const ColumnCache cache = ColumnCache::Build(universal, columns);
    const CodedFilter filter = UnwrapOrDie(CodedFilter::Compile(cache, phi));
    InterventionOptions repair;
    repair.repair = true;
    const InterventionResult from_rows = UnwrapOrDie(engine.ComputeOnRows(
        filter.EvalRows(cache, nullptr), phi.MaxMentionedRelation(), repair));
    const InterventionResult from_phi =
        UnwrapOrDie(engine.Compute(phi, repair));
    for (const InterventionResult* result : {&from_rows, &from_phi}) {
      EXPECT_EQ(result->repair_rounds, 1u) << "seed " << pinned.seed;
      EXPECT_EQ(result->iterations, pinned.iterations);
      EXPECT_EQ(result->seed_count, pinned.seed_count);
      EXPECT_TRUE(result->residual_phi_free);
      ASSERT_EQ(result->delta.size(), pinned.delta.size());
      for (size_t r = 0; r < pinned.delta.size(); ++r) {
        EXPECT_EQ(result->delta[r].ToRows(), pinned.delta[r])
            << "seed " << pinned.seed << " relation " << r;
      }
    }
    // Without repair the fixpoint leaves phi rows behind.
    EXPECT_FALSE(UnwrapOrDie(engine.ComputeOnRows(
                                 filter.EvalRows(cache, nullptr),
                                 phi.MaxMentionedRelation()))
                     .residual_phi_free);
  }
}

TEST(RescoreTest, RowListMustBeAscendingAndInRange) {
  Database db = ::xplain::testing::BuildRunningExample();
  const UniversalRelation universal =
      UnwrapOrDie(UniversalRelation::Build(db));
  const InterventionEngine engine(&universal);
  EXPECT_EQ(engine.ComputeOnRows({2, 1}, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.ComputeOnRows({1, 1}, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine
                .ComputeOnRows({static_cast<uint32_t>(universal.NumRows())},
                               0)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(engine.ComputeOnRows({0, 1}, 0).ok());
}

}  // namespace
}  // namespace xplain
