// Incremental delta maintenance (DESIGN.md §10): DeltaPlan unit behavior
// (bump-once version contract, in-place compaction identity), the
// PlanRemap == fresh-Build identity on U(D), per-aggregate cube
// maintenance through the engine (COUNT(*), COUNT DISTINCT, SUM over
// int64, MIN extremum death), and the randomized incremental ≡ rebuild
// equivalence property (answers and Q(D)) over random instances — for
// every maintainable aggregate kind — and natality slices, including the
// MIN/MAX rule that rebuilds a cube only when an extremum dies.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "datagen/natality.h"
#include "datagen/random_db.h"
#include "datagen/rng.h"
#include "relational/database.h"
#include "relational/parser.h"
#include "server/protocol.h"
#include "tests/test_util.h"

namespace xplain {
namespace {

using ::xplain::testing::BuildRunningExample;
using ::xplain::testing::UnwrapOrDie;

Database MakeRandomDb(uint64_t seed, int size) {
  datagen::RandomDbOptions options;
  options.seed = seed;
  options.schema = datagen::DbTemplate::kDblpLike;
  options.size = size;
  options.domain = 3;
  return UnwrapOrDie(datagen::GenerateRandomDb(options));
}

/// Byte-identical rendering of one report (the serving payload format).
std::string Render(const Database& db, const ExplainReport& report) {
  return server::ReportPayload(db, report, server::RequestOp::kExplain);
}

TEST(DeltaPlanTest, EmptyDeltaDoesNotBumpVersion) {
  Database db = BuildRunningExample();
  const uint64_t before = db.version();
  DeltaPlan plan = db.PlanDelta(db.EmptyDelta());
  EXPECT_EQ(plan.rows_removed, 0u);
  EXPECT_EQ(db.ApplyDeltaPlan(plan), 0u);
  EXPECT_EQ(db.version(), before);
}

TEST(DeltaPlanTest, ApplyDeltaPlanBumpsExactlyOnce) {
  Database db = BuildRunningExample();
  const uint64_t before = db.version();
  DeltaSet delta = db.EmptyDelta();
  const int authored = *db.RelationIndex("Authored");
  delta[static_cast<size_t>(authored)].Set(0);
  DeltaPlan plan = db.PlanDelta(delta);
  EXPECT_GT(plan.rows_removed, 0u);
  EXPECT_EQ(db.ApplyDeltaPlan(plan), plan.rows_removed);
  EXPECT_EQ(db.version(), before + 1);
}

TEST(DeltaPlanTest, InPlaceCompactionMatchesRebuild) {
  Database in_place = BuildRunningExample();
  Database rebuilt = BuildRunningExample();
  DeltaSet delta = in_place.EmptyDelta();
  const int pub = *in_place.RelationIndex("Publication");
  delta[static_cast<size_t>(pub)].Set(0);  // P1 dies; s1, s2 dangle

  DeltaPlan plan = in_place.PlanDelta(delta);
  in_place.ApplyDeltaPlan(plan);

  // Rebuild path: close the delta first, then one full copy.
  DeltaSet closed = delta;
  MarkDanglingRows(rebuilt, &closed);
  rebuilt = rebuilt.ApplyDelta(closed);

  ASSERT_EQ(in_place.num_relations(), rebuilt.num_relations());
  for (int r = 0; r < in_place.num_relations(); ++r) {
    ASSERT_EQ(in_place.relation(r).NumRows(), rebuilt.relation(r).NumRows())
        << in_place.relation(r).name();
    for (size_t i = 0; i < in_place.relation(r).NumRows(); ++i) {
      EXPECT_TRUE(
          TupleEq{}(in_place.relation(r).row(i), rebuilt.relation(r).row(i)))
          << in_place.relation(r).name() << " row " << i;
    }
  }
  EXPECT_EQ(in_place.version(), rebuilt.version());
}

TEST(DeltaPlanTest, StalePlanOnMutatedRelationIsRejected) {
  Database db = BuildRunningExample();
  DeltaSet delta = db.EmptyDelta();
  const int authored = *db.RelationIndex("Authored");
  delta[static_cast<size_t>(authored)].Set(5);
  DeltaPlan plan = db.PlanDelta(delta);
  db.ApplyDeltaPlan(plan);  // Authored shrank from 6 to 5 rows
  EXPECT_DEATH(db.ApplyDeltaPlan(plan), "stale DeltaPlan");
}

TEST(UniversalRemapTest, PlanRemapMatchesFreshBuild) {
  for (const uint64_t seed : {11u, 23u, 57u}) {
    Database db = MakeRandomDb(seed, 14);
    UniversalRelation old_u = UnwrapOrDie(UniversalRelation::Build(db));
    DeltaSet delta = db.EmptyDelta();
    Rng rng(seed * 31 + 7);
    for (int r = 0; r < db.num_relations(); ++r) {
      if (db.relation(r).NumRows() == 0) continue;
      delta[r].Set(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(db.relation(r).NumRows()) -
                                1)));
    }

    DeltaPlan plan = db.PlanDelta(delta);
    UniversalRemap remap = old_u.PlanRemap(plan);
    db.ApplyDeltaPlan(plan);
    old_u.AdoptRows(std::move(remap));

    UniversalRelation fresh = UnwrapOrDie(UniversalRelation::Build(db));
    ASSERT_EQ(old_u.NumRows(), fresh.NumRows()) << "seed " << seed;
    for (size_t u = 0; u < fresh.NumRows(); ++u) {
      for (int r = 0; r < db.num_relations(); ++r) {
        EXPECT_EQ(old_u.BaseRow(u, r), fresh.BaseRow(u, r))
            << "seed " << seed << " u=" << u << " rel=" << r;
      }
    }
  }
}

/// Produces the delta to apply at `step` against the database's *current*
/// shape — a DeltaSet's row positions are only valid for the instance it
/// is applied to, so deltas cannot be pre-built across steps.
using DeltaGenerator = std::function<DeltaSet(const Database&, size_t)>;

/// Runs the same question on a maintained engine (across `steps` deltas)
/// and on fresh engines built from scratch after each delta, expecting
/// byte-identical payloads at every step.
/// When `stats` is set it receives the maintained engine's workspace
/// counters after the last step.
void ExpectIncrementalEqualsRebuild(Database db,
                                    const UserQuestion& question,
                                    const std::vector<std::string>& attrs,
                                    size_t steps, const DeltaGenerator& gen,
                                    const ExplainOptions& options,
                                    CubeWorkspaceStats* stats = nullptr) {
  Database reference = db;  // deep copy, mutated by the rebuild path
  ExplainEngine engine = UnwrapOrDie(ExplainEngine::Create(&db));

  // Warm the workspace, then check the warm answer against a cold one.
  const std::string cold =
      Render(db, UnwrapOrDie(engine.Explain(question, attrs, options)));
  const std::string warm =
      Render(db, UnwrapOrDie(engine.Explain(question, attrs, options)));
  EXPECT_EQ(cold, warm);

  for (size_t step = 0; step < steps; ++step) {
    // `db` and `reference` have identical contents here, so one delta is
    // valid against both.
    const DeltaSet delta = gen(db, step);
    EngineDeltaPlan plan = engine.PlanDelta(delta);
    if (plan.rows_removed == 0) {
      engine.AbortDelta();
    } else {
      db.ApplyDeltaPlan(plan.db_plan);
      engine.CommitDelta(std::move(plan));
    }

    DeltaSet closed = delta;
    MarkDanglingRows(reference, &closed);
    reference = reference.ApplyDelta(closed);
    reference.SemijoinReduce();
    ExplainEngine fresh = UnwrapOrDie(ExplainEngine::Create(&reference));

    const ExplainReport incremental =
        UnwrapOrDie(engine.Explain(question, attrs, options));
    const ExplainReport rebuilt =
        UnwrapOrDie(fresh.Explain(question, attrs, options));
    EXPECT_EQ(Render(db, incremental), Render(reference, rebuilt))
        << "delta step " << step;
    // Q(D): the maintained apexes against a fresh row-at-a-time pass.
    EXPECT_EQ(incremental.table.original_values,
              question.query.EvaluateSubqueries(fresh.universal()))
        << "delta step " << step;
    EXPECT_EQ(incremental.original_value,
              question.query.EvaluateOnUniversal(fresh.universal()))
        << "delta step " << step;
  }
  if (stats != nullptr) *stats = engine.workspace().GetStats();
}

/// A question over the running example exercising one aggregate kind.
UserQuestion MakeQuestion(const Database& db, const std::string& agg1,
                          const std::string& agg2) {
  std::vector<AggregateQuery> subqueries;
  AggregateQuery q1;
  q1.name = "q1";
  q1.agg = UnwrapOrDie(ParseAggregate(db, agg1));
  q1.where = UnwrapOrDie(ParseDnfPredicate(db, "venue = 'SIGMOD'"));
  AggregateQuery q2;
  q2.name = "q2";
  q2.agg = UnwrapOrDie(ParseAggregate(db, agg2));
  q2.where = UnwrapOrDie(ParseDnfPredicate(db, "venue = 'VLDB'"));
  subqueries.push_back(std::move(q1));
  subqueries.push_back(std::move(q2));
  ExprPtr expr = UnwrapOrDie(ParseExpression("q1 - q2", {"q1", "q2"}));
  UserQuestion question;
  question.query = UnwrapOrDie(
      NumericalQuery::Create(std::move(subqueries), std::move(expr)));
  return question;
}

/// Generator deleting one Authored row per step (position taken modulo
/// the relation's current size, since earlier steps shrink it).
DeltaGenerator AuthoredDeletions(std::vector<size_t> rows) {
  return [rows = std::move(rows)](const Database& db, size_t step) {
    const int authored = *db.RelationIndex("Authored");
    DeltaSet delta = db.EmptyDelta();
    const size_t n = db.relation(authored).NumRows();
    if (n > 0) {
      delta[static_cast<size_t>(authored)].Set(rows[step] % n);
    }
    return delta;
  };
}

TEST(CubeMaintenanceTest, CountStarAndCountDistinct) {
  Database db = BuildRunningExample(/*all_standard=*/true);
  UserQuestion question =
      MakeQuestion(db, "count(*)", "count(distinct Author.name)");
  ExpectIncrementalEqualsRebuild(db, question, {"Author.dom", "venue"}, 2,
                                 AuthoredDeletions({0, 2}),
                                 ExplainOptions());
}

TEST(CubeMaintenanceTest, SumInt64SubtractsExactly) {
  Database db = BuildRunningExample(/*all_standard=*/true);
  UserQuestion question = MakeQuestion(db, "sum(year)", "count(*)");
  ExpectIncrementalEqualsRebuild(db, question, {"Author.dom", "venue"}, 2,
                                 AuthoredDeletions({1, 3}),
                                 ExplainOptions());
}

TEST(CubeMaintenanceTest, MinMaxSurviveExtremumDeath) {
  Database db = BuildRunningExample(/*all_standard=*/true);
  // Deleting Publication P2 (year 2011, the max) forces a targeted
  // recompute of every MAX cell whose extremum died.
  UserQuestion question = MakeQuestion(db, "max(year)", "min(year)");
  ExpectIncrementalEqualsRebuild(
      db, question, {"Author.dom", "venue"}, 1,
      [](const Database& db, size_t) {
        const int pub = *db.RelationIndex("Publication");
        DeltaSet delta = db.EmptyDelta();
        delta[static_cast<size_t>(pub)].Set(1);
        return delta;
      },
      ExplainOptions());
}

TEST(CubeMaintenanceTest, WorkspacePatchesRatherThanRebuilds) {
  Database db = BuildRunningExample(/*all_standard=*/true);
  ExplainEngine engine = UnwrapOrDie(ExplainEngine::Create(&db));
  UserQuestion question = MakeQuestion(db, "count(*)", "count(*)");
  const std::vector<std::string> attrs = {"Author.dom", "venue"};

  (void)UnwrapOrDie(engine.Explain(question, attrs, ExplainOptions()));
  const CubeWorkspaceStats cold = engine.workspace().GetStats();
  EXPECT_GT(cold.cube_misses, 0);
  (void)UnwrapOrDie(engine.Explain(question, attrs, ExplainOptions()));
  const CubeWorkspaceStats warm = engine.workspace().GetStats();
  EXPECT_GT(warm.cube_hits, cold.cube_hits);

  DeltaSet delta = db.EmptyDelta();
  const int authored = *db.RelationIndex("Authored");
  delta[static_cast<size_t>(authored)].Set(4);
  EngineDeltaPlan plan = engine.PlanDelta(delta);
  ASSERT_GT(plan.rows_removed, 0u);
  db.ApplyDeltaPlan(plan.db_plan);
  engine.CommitDelta(std::move(plan));

  const CubeWorkspaceStats after = engine.workspace().GetStats();
  EXPECT_GT(after.cells_patched, warm.cells_patched);
  EXPECT_GT(after.cube_entries, 0u);  // cubes were maintained, not dropped

  // The maintained cubes serve the next call: hits, not misses.
  (void)UnwrapOrDie(engine.Explain(question, attrs, ExplainOptions()));
  const CubeWorkspaceStats reused = engine.workspace().GetStats();
  EXPECT_GT(reused.cube_hits, after.cube_hits);
  EXPECT_EQ(reused.cube_misses, after.cube_misses);
}

TEST(DeltaEquivalenceProperty, RandomDeltaSequencesMatchRebuild) {
  for (const uint64_t seed : {3u, 19u, 42u}) {
    Database db = MakeRandomDb(seed, 16);
    // kDblpLike random instances expose A.va / P.vp categorical columns.
    UserQuestion question;
    std::vector<AggregateQuery> subqueries;
    AggregateQuery q1;
    q1.name = "q1";
    q1.agg = AggregateSpec::CountStar();
    q1.where = UnwrapOrDie(ParseDnfPredicate(db, "A.va = 0"));
    AggregateQuery q2;
    q2.name = "q2";
    q2.agg = AggregateSpec::CountStar();
    q2.where = UnwrapOrDie(ParseDnfPredicate(db, "A.va = 1"));
    subqueries.push_back(std::move(q1));
    subqueries.push_back(std::move(q2));
    ExprPtr expr = UnwrapOrDie(ParseExpression("q1 - q2", {"q1", "q2"}));
    question.query = UnwrapOrDie(
        NumericalQuery::Create(std::move(subqueries), std::move(expr)));

    // The generator draws each step's rows against the current shape: a
    // DeltaSet built before earlier steps compacted the relations would
    // reference stale positions.
    auto rng = std::make_shared<Rng>(seed + 1000);
    ExpectIncrementalEqualsRebuild(
        db, question, {"A.va", "P.vp"}, 4,
        [rng](const Database& current, size_t) {
          DeltaSet delta = current.EmptyDelta();
          for (int r = 0; r < current.num_relations(); ++r) {
            const size_t n = current.relation(r).NumRows();
            if (n == 0 || rng->UniformInt(0, 1) == 0) continue;
            delta[r].Set(static_cast<size_t>(
                rng->UniformInt(0, static_cast<int64_t>(n) - 1)));
          }
          return delta;
        },
        ExplainOptions());
  }
}

TEST(DeltaEquivalenceProperty, EveryMaintainableKindMatchesRebuild) {
  // Every kind the workspace retains, aggregating the int64 P.pid, under
  // deltas that delete one random row from every relation at each step.
  for (const char* agg :
       {"count(*)", "count(distinct P.pid)", "sum(P.pid)", "avg(P.pid)",
        "min(P.pid)", "max(P.pid)"}) {
    for (const uint64_t seed : {5u, 29u}) {
      SCOPED_TRACE(std::string(agg) + " seed " + std::to_string(seed));
      Database db = MakeRandomDb(seed, 24);
      std::vector<AggregateQuery> subqueries;
      for (const char* where : {"A.va = 0", "A.va <> 0"}) {
        AggregateQuery q;
        q.name = subqueries.empty() ? "q1" : "q2";
        q.agg = UnwrapOrDie(ParseAggregate(db, agg));
        q.where = UnwrapOrDie(ParseDnfPredicate(db, where));
        subqueries.push_back(std::move(q));
      }
      ExprPtr expr = UnwrapOrDie(ParseExpression("q1 - q2", {"q1", "q2"}));
      UserQuestion question;
      question.query = UnwrapOrDie(
          NumericalQuery::Create(std::move(subqueries), std::move(expr)));
      auto rng = std::make_shared<Rng>(seed + 2000);
      CubeWorkspaceStats stats;
      ExpectIncrementalEqualsRebuild(
          db, question, {"A.va", "P.vp"}, 3,
          [rng](const Database& current, size_t) {
            DeltaSet delta = current.EmptyDelta();
            for (int r = 0; r < current.num_relations(); ++r) {
              const size_t n = current.relation(r).NumRows();
              if (n == 0) continue;
              delta[r].Set(static_cast<size_t>(
                  rng->UniformInt(0, static_cast<int64_t>(n) - 1)));
            }
            return delta;
          },
          ExplainOptions(), &stats);
      EXPECT_EQ(stats.cube_entries, 2u);  // maintained, never dropped
    }
  }
}

/// Q = max(Birth.id | White) - min(Birth.id | Black) over a natality
/// slice, where Birth.id is the row position, grouped by marital and sex.
UserQuestion NatalityExtremaQuestion(const Database& db) {
  std::vector<AggregateQuery> subqueries;
  for (const auto& [agg, where] :
       {std::pair<const char*, const char*>{"max(Birth.id)",
                                            "Birth.race = 'White'"},
        {"min(Birth.id)", "Birth.race = 'Black'"}}) {
    AggregateQuery q;
    q.name = subqueries.empty() ? "q1" : "q2";
    q.agg = UnwrapOrDie(ParseAggregate(db, agg));
    q.where = UnwrapOrDie(ParseDnfPredicate(db, where));
    subqueries.push_back(std::move(q));
  }
  ExprPtr expr = UnwrapOrDie(ParseExpression("q1 - q2", {"q1", "q2"}));
  UserQuestion question;
  question.query = UnwrapOrDie(
      NumericalQuery::Create(std::move(subqueries), std::move(expr)));
  return question;
}

/// Deletes the Birth rows [first, first + count).
DeltaGenerator BirthRange(size_t first, size_t count) {
  return [first, count](const Database& db, size_t) {
    const int birth = *db.RelationIndex("Birth");
    DeltaSet delta = db.EmptyDelta();
    for (size_t row = first; row < first + count; ++row) {
      delta[static_cast<size_t>(birth)].Set(row);
    }
    return delta;
  };
}

TEST(DeltaEquivalenceProperty, MinMaxRebuildOnlyWhenAnExtremumDies) {
  datagen::NatalityOptions options;
  options.num_rows = 4000;
  options.seed = 2010;
  const Database db = UnwrapOrDie(datagen::GenerateNatality(options));
  const UserQuestion question = NatalityExtremaQuestion(db);
  const std::vector<std::string> attrs = {"marital", "sex"};

  // Mid-range ids are neither a maximum nor a minimum of any cell (each
  // holds dozens of rows spread over all 4000 ids): the maintained cubes
  // keep every value and recompute nothing.
  CubeWorkspaceStats stats;
  ExpectIncrementalEqualsRebuild(db, question, attrs, 1, BirthRange(1990, 20),
                                 ExplainOptions(), &stats);
  EXPECT_EQ(stats.cells_recomputed, 0);
  EXPECT_EQ(stats.cube_entries, 2u);

  // The last White row holds the largest White id, the max apex: deleting
  // it rebuilds that cube.
  ExpectIncrementalEqualsRebuild(
      db, question, attrs, 1,
      [](const Database& current, size_t) {
        const int birth = *current.RelationIndex("Birth");
        const Relation& rel = current.relation(birth);
        const int race = rel.schema().FindAttribute("race");
        size_t last_white = rel.NumRows() - 1;
        while (rel.at(last_white, race).AsString() != "White") --last_white;
        DeltaSet delta = current.EmptyDelta();
        delta[static_cast<size_t>(birth)].Set(last_white);
        return delta;
      },
      ExplainOptions(), &stats);
  EXPECT_GT(stats.cells_recomputed, 0);
}

TEST(DeltaEquivalenceProperty, NatalitySliceMatchesRebuild) {
  datagen::NatalityOptions options;
  options.num_rows = 4000;
  options.seed = 2010;
  Database db = UnwrapOrDie(datagen::GenerateNatality(options));
  UserQuestion question = UnwrapOrDie(datagen::MakeNatalityQRace(db));

  ExpectIncrementalEqualsRebuild(
      db, question, {"marital", "tobacco", "education"}, 1,
      [](const Database& current, size_t) {
        DeltaSet delta = current.EmptyDelta();
        const int birth = *current.RelationIndex("Birth");
        Rng rng(77);
        const int64_t n =
            static_cast<int64_t>(current.relation(birth).NumRows());
        for (int i = 0; i < 40; ++i) {
          delta[static_cast<size_t>(birth)].Set(
              static_cast<size_t>(rng.UniformInt(0, n - 1)));
        }
        return delta;
      },
      ExplainOptions());
}

}  // namespace
}  // namespace xplain
