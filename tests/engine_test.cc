#include "core/engine.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "datagen/dblp.h"
#include "datagen/natality.h"
#include "gtest/gtest.h"
#include "relational/parser.h"
#include "server/protocol.h"
#include "tests/test_util.h"

namespace xplain {
namespace {

using ::xplain::testing::BuildRunningExample;
using ::xplain::testing::Pred;
using ::xplain::testing::UnwrapOrDie;

// Q = (#SIGMOD papers) / (#VLDB papers) = 2, dir = high. The WHERE
// predicates stay on the counted Publication relation, so the question is
// cell-exact additive (CheckCellAdditivity) and the cube path applies
// without rescoring.
UserQuestion MakeVenueRatioQuestion(const Database& db) {
  AggregateQuery q1, q2;
  q1.name = "q1";
  q1.agg =
      AggregateSpec::CountDistinct(*db.ResolveColumn("Publication.pubid"));
  q1.where =
      UnwrapOrDie(ParsePredicate(db, "Publication.venue = 'SIGMOD'"));
  q2 = q1;
  q2.name = "q2";
  q2.where = UnwrapOrDie(ParsePredicate(db, "Publication.venue = 'VLDB'"));
  ExprPtr expr = UnwrapOrDie(ParseExpression("q1 / q2", {"q1", "q2"}));
  return UserQuestion{
      UnwrapOrDie(NumericalQuery::Create({q1, q2}, expr)),
      Direction::kHigh};
}

TEST(EngineTest, CreateValidates) {
  Database db = BuildRunningExample();
  ExplainEngine engine = UnwrapOrDie(ExplainEngine::Create(&db));
  EXPECT_EQ(engine.universal().NumRows(), 6u);
  EXPECT_FALSE(ExplainEngine::Create(nullptr).ok());

  Database broken = BuildRunningExample();
  broken.mutable_relation(1)->AppendUnchecked(
      {Value::Str("A9"), Value::Str("P1")});
  EXPECT_FALSE(ExplainEngine::Create(&broken).ok());
}

TEST(EngineTest, ResolveAttributes) {
  Database db = BuildRunningExample();
  ExplainEngine engine = UnwrapOrDie(ExplainEngine::Create(&db));
  auto attrs = engine.ResolveAttributes({"Author.name", "venue"});
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->size(), 2u);
  EXPECT_FALSE(engine.ResolveAttributes({"nope"}).ok());
}

TEST(EngineTest, ExplainAdditiveQuestionUsesCube) {
  Database db = BuildRunningExample();
  ExplainEngine engine = UnwrapOrDie(ExplainEngine::Create(&db));
  UserQuestion question = MakeVenueRatioQuestion(db);
  ExplainOptions options;
  options.top_k = 3;
  ExplainReport report = UnwrapOrDie(
      engine.Explain(question, {"Author.name", "Publication.year"}, options));
  EXPECT_TRUE(report.additivity.additive) << report.additivity.reason;
  EXPECT_FALSE(report.exact_rescored);
  EXPECT_DOUBLE_EQ(report.original_value, 2.0);
  ASSERT_GE(report.explanations.size(), 2u);
  // Two interventions fully erase the com SIGMOD papers (degree 0, the
  // maximum): removing year 2001 and removing RR. Ties prefer the
  // lexicographically-first cell.
  EXPECT_DOUBLE_EQ(report.explanations[0].degree, 0.0);
  EXPECT_EQ(report.explanations[0].explanation.ToString(db),
            "[Publication.year = 2001]");
  EXPECT_EQ(report.explanations[1].explanation.ToString(db),
            "[Author.name = 'RR']");
  // Cube degrees must match the exact fixpoint degrees (additivity).
  for (const RankedExplanation& e : report.explanations) {
    double exact = UnwrapOrDie(InterventionDegreeExact(
        engine.intervention(), question, e.explanation.predicate()));
    EXPECT_DOUBLE_EQ(e.degree, exact) << e.explanation.ToString(db);
  }
  EXPECT_NE(report.ToString(db).find("RR"), std::string::npos);
}

TEST(EngineTest, ExplainByAggravation) {
  Database db = BuildRunningExample();
  ExplainEngine engine = UnwrapOrDie(ExplainEngine::Create(&db));
  UserQuestion question = MakeVenueRatioQuestion(db);
  ExplainOptions options;
  options.degree = DegreeKind::kAggravation;
  options.top_k = 2;
  ExplainReport report = UnwrapOrDie(
      engine.Explain(question, {"Author.name", "Publication.year"}, options));
  ASSERT_FALSE(report.explanations.empty());
  // Aggravation is maximized by restricting to com-heavy cells.
  EXPECT_GT(report.explanations[0].degree, 2.0);
}

TEST(EngineTest, NonAdditiveIntervRescoresExactly) {
  Database db = BuildRunningExample();
  ExplainEngine engine = UnwrapOrDie(ExplainEngine::Create(&db));
  // count(*) with the back-and-forth key: not additive.
  UserQuestion question = MakeVenueRatioQuestion(db);
  AggregateQuery q1, q2;
  q1.name = "q1";
  q1.agg = AggregateSpec::CountStar();
  q1.where = Pred(db, "Author.dom = 'com'");
  q2.name = "q2";
  q2.agg = AggregateSpec::CountStar();
  q2.where = Pred(db, "Author.dom = 'edu'");
  ExprPtr expr = UnwrapOrDie(ParseExpression("q1 / q2", {"q1", "q2"}));
  question.query = UnwrapOrDie(NumericalQuery::Create({q1, q2}, expr));

  ExplainOptions options;
  options.top_k = 3;
  ExplainReport report = UnwrapOrDie(
      engine.Explain(question, {"Author.name"}, options));
  EXPECT_FALSE(report.additivity.additive);
  EXPECT_TRUE(report.exact_rescored);
  ASSERT_FALSE(report.explanations.empty());
  // Degrees are exact now.
  for (const RankedExplanation& e : report.explanations) {
    double exact = UnwrapOrDie(InterventionDegreeExact(
        engine.intervention(), question, e.explanation.predicate()));
    EXPECT_DOUBLE_EQ(e.degree, exact);
  }

  options.exact_rescore_when_not_additive = false;
  EXPECT_FALSE(
      engine.Explain(question, {"Author.name"}, options).ok());
}

TEST(EngineTest, HybridDegreeSkipsExactRescoring) {
  Database db = BuildRunningExample();
  ExplainEngine engine = UnwrapOrDie(ExplainEngine::Create(&db));
  // count(*) with the back-and-forth key is NOT additive, but the hybrid
  // degree (Section 6(iii)) reads the cube proxy anyway, without program P.
  AggregateQuery q1, q2;
  q1.name = "q1";
  q1.agg = AggregateSpec::CountStar();
  q1.where = Pred(db, "Author.dom = 'com'");
  q2.name = "q2";
  q2.agg = AggregateSpec::CountStar();
  q2.where = Pred(db, "Author.dom = 'edu'");
  ExprPtr expr = UnwrapOrDie(ParseExpression("q1 / q2", {"q1", "q2"}));
  UserQuestion question{UnwrapOrDie(NumericalQuery::Create({q1, q2}, expr)),
                        Direction::kHigh};
  ExplainOptions options;
  options.degree = DegreeKind::kHybrid;
  options.top_k = 3;
  ExplainReport report = UnwrapOrDie(
      engine.Explain(question, {"Author.name"}, options));
  EXPECT_FALSE(report.additivity.additive);
  EXPECT_FALSE(report.exact_rescored);  // hybrid never rescored
  ASSERT_FALSE(report.explanations.empty());
  // The hybrid column is sign * E(u - v): check against the table.
  for (const RankedExplanation& e : report.explanations) {
    EXPECT_DOUBLE_EQ(e.degree, report.table.mu_interv[e.m_row]);
  }
}

TEST(EngineTest, NaivePathMatchesCubePath) {
  Database db = BuildRunningExample();
  ExplainEngine engine = UnwrapOrDie(ExplainEngine::Create(&db));
  UserQuestion question = MakeVenueRatioQuestion(db);
  ExplainOptions cube_options;
  ExplainOptions naive_options;
  naive_options.use_cube = false;
  ExplainReport cube = UnwrapOrDie(
      engine.Explain(question, {"Author.name"}, cube_options));
  ExplainReport naive = UnwrapOrDie(
      engine.Explain(question, {"Author.name"}, naive_options));
  ASSERT_EQ(cube.explanations.size(), naive.explanations.size());
  for (size_t i = 0; i < cube.explanations.size(); ++i) {
    EXPECT_DOUBLE_EQ(cube.explanations[i].degree,
                     naive.explanations[i].degree);
  }
  EXPECT_FALSE(naive.used_cube);
}

TEST(EngineTest, OriginalValueIsQofDOnBothPaths) {
  Database db = BuildRunningExample();
  ExplainEngine engine = UnwrapOrDie(ExplainEngine::Create(&db));
  // count(*) and count(distinct), plus a filter that passes no row.
  AggregateQuery q1, q2, q3;
  q1.name = "q1";
  q1.agg = AggregateSpec::CountStar();
  q1.where = Pred(db, "Publication.venue = 'SIGMOD'");
  q2.name = "q2";
  q2.agg =
      AggregateSpec::CountDistinct(*db.ResolveColumn("Publication.pubid"));
  q2.where = Pred(db, "Author.dom = 'com'");
  q3 = q2;
  q3.name = "q3";
  q3.where = Pred(db, "Publication.venue = 'ICDE'");
  ExprPtr expr =
      UnwrapOrDie(ParseExpression("q1 / q2 + q3", {"q1", "q2", "q3"}));
  UserQuestion question{
      UnwrapOrDie(NumericalQuery::Create({q1, q2, q3}, expr)),
      Direction::kHigh};
  const std::vector<double> expected =
      question.query.EvaluateSubqueries(engine.universal());
  ASSERT_EQ(expected, (std::vector<double>{4.0, 3.0, 0.0}));

  ExplainOptions options;
  options.degree = DegreeKind::kAggravation;
  ExplainOptions naive_options = options;
  naive_options.use_cube = false;
  // Cold cube path, warm cube path (apexes from the workspace), naive.
  for (const ExplainOptions& run : {options, options, naive_options}) {
    ExplainReport report =
        UnwrapOrDie(engine.Explain(question, {"Author.name"}, run));
    EXPECT_EQ(report.table.original_values, expected);
    EXPECT_EQ(report.original_value,
              question.query.EvaluateOnUniversal(engine.universal()));
  }
}

TEST(EngineTest, ConcurrentMissesOnOneColumnShareIt) {
  datagen::NatalityOptions data;
  data.num_rows = 3000;
  data.seed = 5;
  Database db = UnwrapOrDie(datagen::GenerateNatality(data));
  const UserQuestion race = UnwrapOrDie(datagen::MakeNatalityQRace(db));
  const UserQuestion marital =
      UnwrapOrDie(datagen::MakeNatalityQMarital(db));
  // Both questions need tobacco, marital, ap and race, none yet encoded.
  const std::vector<std::string> race_attrs = {"tobacco", "marital"};
  const std::vector<std::string> marital_attrs = {"tobacco", "race"};
  ExplainOptions options;
  options.num_threads = 2;

  ExplainEngine engine = UnwrapOrDie(ExplainEngine::Create(&db));
  std::string served[2];
  std::atomic<int> ready{0};
  auto run = [&](int slot, const UserQuestion& question,
                 const std::vector<std::string>& attrs) {
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
    served[slot] = server::ReportPayload(
        db, UnwrapOrDie(engine.Explain(question, attrs, options)),
        server::RequestOp::kExplain);
  };
  std::thread first(run, 0, std::cref(race), std::cref(race_attrs));
  std::thread second(run, 1, std::cref(marital), std::cref(marital_attrs));
  first.join();
  second.join();

  // tobacco, marital, ap, race: each retained once, whoever encoded it.
  EXPECT_EQ(engine.workspace().GetStats().column_entries, 4u);
  ExplainEngine fresh = UnwrapOrDie(ExplainEngine::Create(&db));
  EXPECT_EQ(served[0], server::ReportPayload(
                           db, UnwrapOrDie(fresh.Explain(race, race_attrs,
                                                         options)),
                           server::RequestOp::kExplain));
  ExplainEngine fresh2 = UnwrapOrDie(ExplainEngine::Create(&db));
  EXPECT_EQ(served[1], server::ReportPayload(
                           db, UnwrapOrDie(fresh2.Explain(
                                   marital, marital_attrs, options)),
                           server::RequestOp::kExplain));
}

TEST(EngineTest, QueryStatsAttributeTheExplain) {
  datagen::NatalityOptions data;
  data.num_rows = 60000;
  data.seed = 2010;
  Database db = UnwrapOrDie(datagen::GenerateNatality(data));
  ExplainEngine engine = UnwrapOrDie(ExplainEngine::Create(&db));
  const UserQuestion question = UnwrapOrDie(datagen::MakeNatalityQRace(db));
  ExplainOptions options;
  options.collect_stats = true;
  const ExplainReport report = UnwrapOrDie(engine.Explain(
      question, {"marital", "tobacco", "education"}, options));
  ASSERT_TRUE(report.stats_collected);
  const QueryStats& s = report.stats;
  EXPECT_GT(s.encode_ms, 0.0);  // a cold engine encodes its columns
  EXPECT_LE(s.encode_ms, s.cube_build_ms);
  const double phases = s.additivity_ms + s.originals_ms + s.cube_build_ms +
                        s.merge_ms + s.degree_ms + s.topk_ms +
                        s.exact_rescore_ms;
  EXPECT_LE(s.total_ms - phases, 0.05 * s.total_ms) << s.ToString();
  bool flat_has_encode = false;
  bool flat_has_rescore_cells = false;
  for (const auto& [key, value] : s.ToFlat()) {
    flat_has_encode = flat_has_encode || key == "encode_ms";
    flat_has_rescore_cells = flat_has_rescore_cells || key == "rescore_cells";
  }
  EXPECT_TRUE(flat_has_encode);
  EXPECT_TRUE(flat_has_rescore_cells);
  EXPECT_EQ(s.rescore_cells, 0u);  // Q_Race is additive: no rescore

  // A non-additive question (count(*) across the back-and-forth key)
  // rescores its whole pool, and the rescore is attributed too.
  datagen::DblpOptions dblp;
  dblp.scale = 0.5;
  Database dblp_db = UnwrapOrDie(datagen::GenerateDblp(dblp));
  ExplainEngine dblp_engine = UnwrapOrDie(ExplainEngine::Create(&dblp_db));
  AggregateQuery q1, q2;
  q1.name = "q1";
  q1.agg = AggregateSpec::CountStar();
  q1.where = Pred(dblp_db, "Publication.venue = 'SIGMOD'");
  q2.name = "q2";
  q2.agg = AggregateSpec::CountStar();
  q2.where = Pred(dblp_db, "Publication.venue = 'PODS'");
  ExprPtr expr =
      UnwrapOrDie(ParseExpression("q1 / (q2 + 1)", {"q1", "q2"}));
  const UserQuestion venues{
      UnwrapOrDie(NumericalQuery::Create({q1, q2}, expr)), Direction::kHigh};
  const ExplainReport rescored =
      UnwrapOrDie(dblp_engine.Explain(venues, {"Author.name"}, options));
  ASSERT_TRUE(rescored.exact_rescored);
  const QueryStats& r = rescored.stats;
  EXPECT_EQ(r.rescore_cells, options.exact_rescore_pool);
  EXPECT_GT(r.exact_rescore_ms, 0.0);
  const double rescored_phases = r.additivity_ms + r.originals_ms +
                                 r.cube_build_ms + r.merge_ms + r.degree_ms +
                                 r.topk_ms + r.exact_rescore_ms;
  EXPECT_LE(r.total_ms - rescored_phases, 0.05 * r.total_ms) << r.ToString();
}

}  // namespace
}  // namespace xplain
