// Serving-layer tests of incremental delta maintenance (DESIGN.md §10):
// targeted cache invalidation keeps untouched entries warm across a
// version bump, the DELTA wire op applies and validates deltas, reads
// make progress while a delta is being planned, the bump-once version
// contract holds end to end, and the maintained engine stays
// byte-identical to a fresh engine over the reference D - Delta.

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "datagen/natality.h"
#include "datagen/random_db.h"
#include "server/loopback.h"
#include "server/protocol.h"
#include "server/service.h"
#include "tests/test_util.h"

namespace xplain {
namespace server {
namespace {

using ::xplain::testing::UnwrapOrDie;

Database MakeRandom() {
  datagen::RandomDbOptions options;
  options.seed = 77;
  options.schema = datagen::DbTemplate::kDblpLike;
  options.size = 12;
  options.domain = 3;
  return UnwrapOrDie(datagen::GenerateRandomDb(options));
}

Database MakeNatality(size_t rows) {
  datagen::NatalityOptions options;
  options.num_rows = rows;
  options.seed = 2010;
  return UnwrapOrDie(datagen::GenerateNatality(options));
}

/// TOPK form of the paper's Q_Race: both filters are Asian-only, so a
/// delta over White rows never touches this entry's read set.
std::string QRaceLine(int id) {
  return "{\"id\":" + std::to_string(id) +
         ",\"op\":\"TOPK\",\"question\":{\"subqueries\":["
         "{\"name\":\"q1\",\"agg\":\"count(*)\",\"where\":\"Birth.ap = "
         "'good' AND Birth.race = 'Asian'\"},"
         "{\"name\":\"q2\",\"agg\":\"count(*)\",\"where\":\"Birth.ap = "
         "'poor' AND Birth.race = 'Asian'\"}],"
         "\"expr\":\"q1 / q2\",\"direction\":\"high\"},"
         "\"attrs\":[\"marital\",\"tobacco\",\"education\"],"
         "\"options\":{\"top_k\":3}}";
}

/// TOPK form of Q_Marital: every Birth row is married or unmarried, so
/// any delta over Birth touches this entry's read set.
std::string QMaritalLine(int id) {
  return "{\"id\":" + std::to_string(id) +
         ",\"op\":\"TOPK\",\"question\":{\"subqueries\":["
         "{\"name\":\"q1\",\"agg\":\"count(*)\",\"where\":\"Birth.ap = "
         "'good' AND Birth.marital = 'married'\"},"
         "{\"name\":\"q2\",\"agg\":\"count(*)\",\"where\":\"Birth.ap = "
         "'poor' AND Birth.marital = 'married'\"},"
         "{\"name\":\"q3\",\"agg\":\"count(*)\",\"where\":\"Birth.ap = "
         "'good' AND Birth.marital = 'unmarried'\"},"
         "{\"name\":\"q4\",\"agg\":\"count(*)\",\"where\":\"Birth.ap = "
         "'poor' AND Birth.marital = 'unmarried'\"}],"
         "\"expr\":\"(q1 / q2) / (q3 / q4)\",\"direction\":\"high\"},"
         "\"attrs\":[\"tobacco\",\"education\",\"prenatal\"],"
         "\"options\":{\"top_k\":3}}";
}

/// The same line answered by a direct engine on `db` through the same
/// payload code — the byte-identity reference.
std::string DirectResponse(const Database& db, const ExplainEngine& engine,
                           const std::string& line) {
  Request request = UnwrapOrDie(ParseRequest(line));
  UserQuestion question = UnwrapOrDie(BuildQuestion(db, request));
  auto report = engine.Explain(question, request.attrs, request.options);
  if (!report.ok()) {
    return MakeResponse(request.id, ErrorPayload(report.status()));
  }
  return MakeResponse(request.id, ReportPayload(db, *report, request.op));
}

/// A simple EXPLAIN line over the random kDblpLike instance.
std::string RandomDbLine(int id, int x) {
  return "{\"id\":" + std::to_string(id) +
         ",\"op\":\"EXPLAIN\",\"question\":{\"subqueries\":["
         "{\"name\":\"q1\",\"agg\":\"count(*)\",\"where\":\"\"},"
         "{\"name\":\"q2\",\"agg\":\"count(*)\",\"where\":\"A.va = " +
         std::to_string(x) +
         "\"}],\"expr\":\"q1 - q2\",\"direction\":\"high\"},"
         "\"attrs\":[\"A.va\",\"P.vp\"],\"options\":{\"top_k\":3}}";
}

TEST(ServerDeltaTest, TargetedInvalidationKeepsUntouchedEntries) {
  auto service = UnwrapOrDie(XplaindService::Create(MakeNatality(4000)));
  LoopbackTransport transport(service.get());
  const uint64_t version_before = service->db_version();

  // Warm both entries (miss then hit each).
  const std::string race_warm = transport.Call(QRaceLine(1));
  ASSERT_NE(race_warm.find("\"ok\":true"), std::string::npos) << race_warm;
  EXPECT_EQ(transport.Call(QRaceLine(1)), race_warm);
  const std::string marital_warm = transport.Call(QMaritalLine(2));
  ASSERT_NE(marital_warm.find("\"ok\":true"), std::string::npos)
      << marital_warm;
  EXPECT_EQ(transport.Call(QMaritalLine(2)), marital_warm);
  XplaindService::Stats stats = service->GetStats();
  EXPECT_EQ(stats.cache_hits, 2);

  // Delete every White row through the wire op. QRace reads only Asian
  // rows, so its entry must survive the version bump; QMarital reads
  // every row, so its entry must be targeted-invalidated.
  const std::string delta_response = transport.Call(
      "{\"id\":3,\"op\":\"DELTA\",\"relation\":\"Birth\","
      "\"where\":\"race = 'White'\"}");
  ASSERT_NE(delta_response.find("\"ok\":true"), std::string::npos)
      << delta_response;
  EXPECT_NE(delta_response.find("\"op\":\"DELTA\""), std::string::npos);
  EXPECT_NE(delta_response.find("\"removed\":"), std::string::npos);
  EXPECT_EQ(service->db_version(), version_before + 1);

  stats = service->GetStats();
  EXPECT_GE(stats.cache.rekeyed, 1) << "QRace entry should survive";
  EXPECT_GE(stats.cache.targeted_invalidations, 1)
      << "QMarital entry should be dropped";
  EXPECT_EQ(stats.cache.full_invalidations, 0);

  // The surviving QRace entry serves as a hit under the new version...
  const std::string race_after = transport.Call(QRaceLine(1));
  XplaindService::Stats after = service->GetStats();
  EXPECT_EQ(after.cache_hits, stats.cache_hits + 1);
  // ...and is byte-identical to a from-scratch engine on an identically
  // mutated database (the survival soundness contract).
  Database reference = MakeNatality(4000);
  DeltaSet reference_delta = reference.EmptyDelta();
  const int birth = *reference.RelationIndex("Birth");
  const DnfPredicate white =
      UnwrapOrDie(ParseDnfPredicate(reference, "race = 'White'"));
  for (size_t row = 0; row < reference.relation(birth).NumRows(); ++row) {
    if (white.disjuncts()[0].EvalOnRelation(reference, birth, row)) {
      reference_delta[static_cast<size_t>(birth)].Set(row);
    }
  }
  reference = reference.ApplyDelta(reference_delta);
  reference.SemijoinReduce();
  ExplainEngine reference_engine =
      UnwrapOrDie(ExplainEngine::Create(&reference));
  EXPECT_EQ(race_after,
            DirectResponse(reference, reference_engine, QRaceLine(1)));
  EXPECT_EQ(race_after, race_warm)
      << "Asian-only answer must not change when White rows vanish";

  // The invalidated QMarital entry recomputes — a miss, but correct.
  const std::string marital_after = transport.Call(QMaritalLine(2));
  EXPECT_EQ(service->GetStats().cache_hits, after.cache_hits);
  EXPECT_NE(marital_after, marital_warm);
  EXPECT_EQ(marital_after,
            DirectResponse(reference, reference_engine, QMaritalLine(2)));
}

TEST(ServerDeltaTest, DeltaOpValidatesAndAppliesRowLists) {
  auto service = UnwrapOrDie(XplaindService::Create(MakeRandom()));
  LoopbackTransport transport(service.get());
  const uint64_t version_before = service->db_version();

  // Unknown relation.
  std::string response = transport.Call(
      "{\"id\":1,\"op\":\"DELTA\",\"relation\":\"Nope\",\"rows\":[0]}");
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
  EXPECT_NE(response.find("NotFound"), std::string::npos) << response;

  // Neither rows nor where.
  response =
      transport.Call("{\"id\":2,\"op\":\"DELTA\",\"relation\":\"C\"}");
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;

  // Out-of-range row position.
  response = transport.Call(
      "{\"id\":3,\"op\":\"DELTA\",\"relation\":\"C\",\"rows\":[999999]}");
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;

  // A where clause referencing a different relation than the target.
  response = transport.Call(
      "{\"id\":4,\"op\":\"DELTA\",\"relation\":\"A\","
      "\"where\":\"P.vp = 0\"}");
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;

  // None of the failures touched the database.
  EXPECT_EQ(service->db_version(), version_before);
  EXPECT_EQ(service->GetStats().errors, 4);

  // A valid row-list delta applies and reports what it removed.
  response = transport.Call(
      "{\"id\":5,\"op\":\"DELTA\",\"relation\":\"C\",\"rows\":[0]}");
  ASSERT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  EXPECT_NE(response.find("\"db_version\":" +
                          std::to_string(version_before + 1)),
            std::string::npos)
      << response;
  EXPECT_EQ(service->db_version(), version_before + 1);
}

TEST(ServerDeltaTest, EmptyDeltaDoesNotBumpOrInvalidate) {
  auto service = UnwrapOrDie(XplaindService::Create(MakeRandom()));
  LoopbackTransport transport(service.get());
  const std::string warm = transport.Call(RandomDbLine(1, 0));
  ASSERT_NE(warm.find("\"ok\":true"), std::string::npos) << warm;
  const uint64_t version_before = service->db_version();

  // A where clause matching nothing removes nothing: no version bump.
  const std::string response = transport.Call(
      "{\"id\":2,\"op\":\"DELTA\",\"relation\":\"A\","
      "\"where\":\"A.va = 999\"}");
  ASSERT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  EXPECT_NE(response.find("\"removed\":0"), std::string::npos) << response;
  EXPECT_EQ(service->db_version(), version_before);

  // The cached entry still matches its version key: a hit, not a miss.
  const int64_t hits_before = service->GetStats().cache_hits;
  EXPECT_EQ(transport.Call(RandomDbLine(1, 0)), warm);
  EXPECT_EQ(service->GetStats().cache_hits, hits_before + 1);

  // The programmatic API agrees.
  XPLAIN_EXPECT_OK(service->ApplyDelta(service->db().EmptyDelta()));
  EXPECT_EQ(service->db_version(), version_before);
}

TEST(ServerDeltaTest, OneDeltaBumpsVersionExactlyOnce) {
  // Regression: ApplyDelta used to bump twice per delta (once for the
  // removal, once for the dangling-row closure). Row 0 of C leaves rows
  // dangling, so the closure removes more than the requested row — and
  // the version still moves by exactly one, through the API and the wire.
  auto service = UnwrapOrDie(XplaindService::Create(MakeRandom()));
  const size_t rows_before = service->db().TotalRows();
  uint64_t before = service->db_version();
  DeltaSet delta = service->db().EmptyDelta();
  const int c_index = *service->db().RelationIndex("C");
  delta[static_cast<size_t>(c_index)].Set(0);
  XPLAIN_EXPECT_OK(service->ApplyDelta(delta));
  EXPECT_EQ(service->db_version(), before + 1);
  EXPECT_GT(rows_before - service->db().TotalRows(), 1u);

  before = service->db_version();
  const std::string response = service->HandleLine(
      "{\"id\":1,\"op\":\"DELTA\",\"relation\":\"C\",\"rows\":[0]}");
  ASSERT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  EXPECT_EQ(service->db_version(), before + 1);
}

TEST(ServerDeltaTest, ReadsProgressWhileDeltaIsPlanned) {
  // The delta-plan hook runs after the read-only planning phase, holding
  // only the delta mutex. An EXPLAIN submitted at that moment must
  // complete before the delta commits — proving ApplyDelta no longer
  // holds the writer lock across the whole rebuild.
  std::promise<void> planning_started;
  std::promise<void> explain_finished;
  std::shared_future<void> explain_finished_f =
      explain_finished.get_future().share();
  ServiceOptions options;
  options.delta_plan_hook = [&planning_started, explain_finished_f] {
    planning_started.set_value();
    explain_finished_f.wait();
  };
  auto service =
      UnwrapOrDie(XplaindService::Create(MakeNatality(2000), options));
  LoopbackTransport transport(service.get());

  std::thread delta_thread([&service] {
    DeltaSet delta = service->db().EmptyDelta();
    const int birth = *service->db().RelationIndex("Birth");
    for (size_t row = 0; row < 200; ++row) {
      delta[static_cast<size_t>(birth)].Set(row);
    }
    XPLAIN_EXPECT_OK(service->ApplyDelta(delta));
  });

  planning_started.get_future().wait();
  // The delta is mid-flight (parked in the hook). A fresh read must
  // finish — on the pre-delta database, at the pre-delta version.
  const uint64_t version_during = service->db_version();
  std::future<std::string> read = std::async(std::launch::async, [&] {
    return transport.Call(QRaceLine(7));
  });
  ASSERT_EQ(read.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "EXPLAIN deadlocked behind an in-flight delta";
  const std::string response = read.get();
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;

  explain_finished.set_value();
  delta_thread.join();
  EXPECT_EQ(service->db_version(), version_during + 1);
}

TEST(ServerDeltaTest, ConcurrentReadersDuringRepeatedDeltas) {
  // TSan stress: readers race a sequence of incremental deltas. Every
  // response must be well-formed, and the final state must match a
  // from-scratch engine on an identically mutated database.
  ServiceOptions options;
  options.num_workers = 4;
  auto service =
      UnwrapOrDie(XplaindService::Create(MakeNatality(2000), options));
  LoopbackTransport transport(service.get());

  std::atomic<bool> stop{false};
  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&transport, &stop, t] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string line =
            (t + i) % 2 == 0 ? QRaceLine(100 + t) : QMaritalLine(200 + t);
        const std::string response = transport.Call(line);
        EXPECT_NE(response.find("\"id\":"), std::string::npos) << response;
        ++i;
      }
    });
  }

  // Each delta removes the first 20 rows of the *current* shape (row
  // positions shift as earlier deltas compact), so five rounds remove
  // the first 100 original rows.
  constexpr int kDeltas = 5;
  for (int d = 0; d < kDeltas; ++d) {
    DeltaSet delta = service->db().EmptyDelta();
    const int birth = *service->db().RelationIndex("Birth");
    for (size_t row = 0; row < 20; ++row) {
      delta[static_cast<size_t>(birth)].Set(row);
    }
    XPLAIN_EXPECT_OK(service->ApplyDelta(delta));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  // The maintained state answers like a fresh engine on the same rows.
  Database reference = MakeNatality(2000);
  DeltaSet reference_delta = reference.EmptyDelta();
  const int birth = *reference.RelationIndex("Birth");
  for (size_t row = 0; row < kDeltas * 20; ++row) {
    reference_delta[static_cast<size_t>(birth)].Set(row);
  }
  reference = reference.ApplyDelta(reference_delta);
  reference.SemijoinReduce();
  ExplainEngine reference_engine =
      UnwrapOrDie(ExplainEngine::Create(&reference));
  EXPECT_EQ(transport.Call(QRaceLine(1)),
            DirectResponse(reference, reference_engine, QRaceLine(1)));
  EXPECT_EQ(transport.Call(QMaritalLine(2)),
            DirectResponse(reference, reference_engine, QMaritalLine(2)));
}

TEST(ServerDeltaTest, IncrementalDeltaMatchesFreshEngine) {
  // The reference: Database::ApplyDelta + SemijoinReduce over a copy, and
  // a fresh engine built on the result.
  auto service = UnwrapOrDie(XplaindService::Create(MakeRandom()));
  LoopbackTransport transport(service.get());
  const std::string line = RandomDbLine(9, 1);
  ASSERT_NE(transport.Call(line).find("\"ok\":true"), std::string::npos);

  Database reference = MakeRandom();
  const uint64_t version_before = reference.version();
  DeltaSet delta = reference.EmptyDelta();
  const int c_index = *reference.RelationIndex("C");
  delta[static_cast<size_t>(c_index)].Set(0);
  delta[static_cast<size_t>(c_index)].Set(3);
  reference = reference.ApplyDelta(delta);
  reference.SemijoinReduce();
  const ExplainEngine reference_engine =
      UnwrapOrDie(ExplainEngine::Create(&reference));

  const std::string delta_response = transport.Call(
      "{\"id\":10,\"op\":\"DELTA\",\"relation\":\"C\",\"rows\":[0,3]}");
  ASSERT_NE(delta_response.find("\"ok\":true"), std::string::npos)
      << delta_response;

  // Same rows, same answers byte for byte, one version bump — and the
  // maintained cache never needed a full wipe.
  EXPECT_EQ(service->db().TotalRows(), reference.TotalRows());
  EXPECT_EQ(service->db_version(), version_before + 1);
  EXPECT_EQ(transport.Call(line),
            DirectResponse(reference, reference_engine, line));
  EXPECT_EQ(service->GetStats().cache.full_invalidations, 0);
}

}  // namespace
}  // namespace server
}  // namespace xplain
