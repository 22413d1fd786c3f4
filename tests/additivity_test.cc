#include "core/additivity.h"

#include "core/intervention.h"
#include "gtest/gtest.h"
#include "relational/parser.h"
#include "tests/test_util.h"

namespace xplain {
namespace {

using ::xplain::testing::BuildRunningExample;
using ::xplain::testing::Pred;
using ::xplain::testing::UnwrapOrDie;

TEST(AdditivityTest, UniqueCoreDetection) {
  Database db = BuildRunningExample();
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  // Each Authored row appears in exactly one universal row.
  EXPECT_TRUE(RelationIsUniqueCore(u, *db.RelationIndex("Authored")));
  // Authors and publications appear in several.
  EXPECT_FALSE(RelationIsUniqueCore(u, *db.RelationIndex("Author")));
  EXPECT_FALSE(RelationIsUniqueCore(u, *db.RelationIndex("Publication")));
}

TEST(AdditivityTest, CountStarWithoutBackAndForthIsAdditive) {
  Database db = BuildRunningExample(/*all_standard=*/true);
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  AdditivityReport report =
      CheckAggregateAdditivity(u, AggregateSpec::CountStar());
  EXPECT_TRUE(report.additive) << report.reason;
}

TEST(AdditivityTest, CountStarWithBackAndForthIsNot) {
  Database db = BuildRunningExample();
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  AdditivityReport report =
      CheckAggregateAdditivity(u, AggregateSpec::CountStar());
  EXPECT_FALSE(report.additive);
}

TEST(AdditivityTest, CountDistinctPubidIsAdditiveOnDblpSchema) {
  Database db = BuildRunningExample();
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  ColumnRef pubid = *db.ResolveColumn("Publication.pubid");
  AdditivityReport report =
      CheckAggregateAdditivity(u, AggregateSpec::CountDistinct(pubid));
  EXPECT_TRUE(report.additive) << report.reason;
}

TEST(AdditivityTest, CountDistinctNonKeyRejected) {
  Database db = BuildRunningExample();
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  ColumnRef year = *db.ResolveColumn("Publication.year");
  EXPECT_FALSE(
      CheckAggregateAdditivity(u, AggregateSpec::CountDistinct(year))
          .additive);
}

TEST(AdditivityTest, SumNotKnownAdditive) {
  Database db = BuildRunningExample();
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  ColumnRef year = *db.ResolveColumn("Publication.year");
  EXPECT_FALSE(
      CheckAggregateAdditivity(u, AggregateSpec::Sum(year)).additive);
}

TEST(AdditivityTest, QueryAdditivityAggregatesSubqueries) {
  Database db = BuildRunningExample();
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  ColumnRef pubid = *db.ResolveColumn("Publication.pubid");

  AggregateQuery good;
  good.name = "q1";
  good.agg = AggregateSpec::CountDistinct(pubid);
  AggregateQuery bad;
  bad.name = "q2";
  bad.agg = AggregateSpec::CountStar();
  ExprPtr expr = UnwrapOrDie(ParseExpression("q1 / q2", {"q1", "q2"}));

  NumericalQuery all_good =
      UnwrapOrDie(NumericalQuery::Create({good, good}, expr));
  EXPECT_TRUE(CheckQueryAdditivity(u, all_good).additive);

  NumericalQuery mixed =
      UnwrapOrDie(NumericalQuery::Create({good, bad}, expr));
  AdditivityReport report = CheckQueryAdditivity(u, mixed);
  EXPECT_FALSE(report.additive);
  EXPECT_NE(report.reason.find("q2"), std::string::npos);
}

// The checks that read passed-in unique-core bits (what ExplainEngine
// keeps current) and reuse the query-level report must say exactly what
// the self-contained checks over U say.
TEST(AdditivityTest, CellCheckReusesQueryReportAndUniqueCoreBits) {
  for (const bool all_standard : {false, true}) {
    Database db = BuildRunningExample(all_standard);
    UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
    const std::vector<uint8_t> bits = UniqueCoreBits(u);
    ASSERT_EQ(bits.size(), static_cast<size_t>(db.num_relations()));
    for (int r = 0; r < db.num_relations(); ++r) {
      EXPECT_EQ(bits[r] != 0, RelationIsUniqueCore(u, r)) << r;
    }
    const ColumnRef pubid = *db.ResolveColumn("Publication.pubid");
    const ColumnRef year = *db.ResolveColumn("Publication.year");
    const AggregateSpec aggs[] = {
        AggregateSpec::CountStar(), AggregateSpec::CountDistinct(pubid),
        AggregateSpec::CountDistinct(year), AggregateSpec::Sum(year)};
    const char* filters[] = {"", "Publication.venue = 'SIGMOD'",
                             "Author.dom = 'com'"};
    ExprPtr expr = UnwrapOrDie(ParseExpression("q1 / q2", {"q1", "q2"}));
    size_t compared = 0;
    for (const AggregateSpec& agg : aggs) {
      const AdditivityReport alone = CheckAggregateAdditivity(u, agg);
      const AdditivityReport with_bits =
          CheckAggregateAdditivity(db, agg, bits);
      EXPECT_EQ(alone.additive, with_bits.additive);
      EXPECT_EQ(alone.reason, with_bits.reason);
    }
    for (const AggregateSpec& agg1 : aggs) {
      for (const AggregateSpec& agg2 : aggs) {
        for (const char* filter : filters) {
          AggregateQuery q1, q2;
          q1.name = "q1";
          q1.agg = agg1;
          q2.name = "q2";
          q2.agg = agg2;
          if (*filter != '\0') q2.where = Pred(db, filter);
          NumericalQuery query =
              UnwrapOrDie(NumericalQuery::Create({q1, q2}, expr));
          const AdditivityReport query_alone = CheckQueryAdditivity(u, query);
          const AdditivityReport query_bits =
              CheckQueryAdditivity(db, query, bits);
          EXPECT_EQ(query_alone.additive, query_bits.additive);
          EXPECT_EQ(query_alone.reason, query_bits.reason);
          const AdditivityReport alone = CheckCellAdditivity(u, query);
          const AdditivityReport reused =
              CheckCellAdditivity(db, query, query_bits, bits);
          EXPECT_EQ(alone.additive, reused.additive) << alone.reason;
          EXPECT_EQ(alone.reason, reused.reason);
          ++compared;
        }
      }
    }
    EXPECT_EQ(compared, 48u);
  }
}

// Empirical check of Def. 4.2: q(D - Delta^phi) == q(D) - q(D_phi) for
// count(distinct pubid) on the running example, across several phi.
TEST(AdditivityTest, EmpiricalInterventionAdditivity) {
  Database db = BuildRunningExample();
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  InterventionEngine engine(&u);
  ColumnRef pubid = *db.ResolveColumn("Publication.pubid");
  AggregateSpec agg = AggregateSpec::CountDistinct(pubid);

  for (const char* phi_text :
       {"Author.name = 'JG'", "Author.name = 'RR'",
        "Publication.year = 2001", "Author.dom = 'com'",
        "Author.name = 'JG' AND Publication.year = 2001",
        "Publication.venue = 'SIGMOD'"}) {
    ConjunctivePredicate phi = Pred(db, phi_text);
    DnfPredicate phi_dnf = phi;
    InterventionResult result = UnwrapOrDie(engine.Compute(phi));
    RowSet live = engine.LiveUniversalRows(result.delta);
    double on_residual =
        EvaluateAggregate(u, agg, nullptr, &live).AsNumeric();
    double on_d = EvaluateAggregate(u, agg, nullptr).AsNumeric();
    double on_phi = EvaluateAggregate(u, agg, &phi_dnf).AsNumeric();
    EXPECT_DOUBLE_EQ(on_residual, on_d - on_phi) << phi_text;
  }
}

// Counter-check: count(*) with a back-and-forth key really is NOT additive
// (the paper's warning).
TEST(AdditivityTest, CountStarAdditivityFailsWithBackAndForth) {
  Database db = BuildRunningExample();
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  InterventionEngine engine(&u);
  AggregateSpec agg = AggregateSpec::CountStar();
  // phi = [name = 'JG']: Delta removes P1/P2 and with them the co-author
  // rows s2, s4, which sigma_phi(U) does not count.
  ConjunctivePredicate phi = Pred(db, "Author.name = 'JG'");
  DnfPredicate phi_dnf = phi;
  InterventionResult result = UnwrapOrDie(engine.Compute(phi));
  RowSet live = engine.LiveUniversalRows(result.delta);
  double on_residual = EvaluateAggregate(u, agg, nullptr, &live).AsNumeric();
  double on_d = EvaluateAggregate(u, agg, nullptr).AsNumeric();
  double on_phi = EvaluateAggregate(u, agg, &phi_dnf).AsNumeric();
  EXPECT_NE(on_residual, on_d - on_phi);
}

}  // namespace
}  // namespace xplain
