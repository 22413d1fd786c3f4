// Mixed read/write serving: the cost of one tuple delta through xplaind's
// incremental maintenance vs a fresh-engine baseline (DESIGN.md §10).
//
// A warmed service over the natality instance applies a 1% delta of
// race='White' Birth rows: it plans under a reader lock, patches the cube
// workspace, and re-keys the cache entries the delta did not touch (the
// Asian-only Q_Race family survives; the Q_Marital family is
// targeted-invalidated). The baseline applies the same delta outside any
// service — Database::ApplyDelta + SemijoinReduce, then
// ExplainEngine::Create on the result — and so starts with no cache.
//
// Emits BENCH_delta.json:
//   {"bench": "delta", "records": [
//     {"workload": "incremental", ..., "incremental_delta_us": ...,
//      "post_delta_cache_hits": ..., "targeted_invalidations": ...,
//      "rekeyed": ..., "full_invalidations": 0},
//     {"workload": "rebuild", ..., "rebuild_delta_us": ...,
//      "post_delta_cache_hits": 0, "full_invalidations": ...},
//     {"workload": "summary", ..., "speedup": ...}]}

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/engine.h"
#include "datagen/natality.h"
#include "relational/database.h"
#include "relational/parser.h"
#include "server/service.h"
#include "util/stopwatch.h"

namespace {

using xplain::Database;
using xplain::DeltaSet;
using xplain::Stopwatch;
using xplain::bench::Fmt;
using xplain::bench::JsonReporter;
using xplain::bench::PrintHeader;
using xplain::bench::PrintRow;
using xplain::bench::Unwrap;
using xplain::server::XplaindService;

/// TOPK form of the paper's Q_Race, Asian-only on both sides: a delta
/// over White rows never touches its read set, so its cache entry must
/// survive the version bump. `top_k` varies to make distinct entries.
std::string QRaceLine(int id, int top_k) {
  return "{\"id\":" + std::to_string(id) +
         ",\"op\":\"TOPK\",\"question\":{\"subqueries\":["
         "{\"name\":\"q1\",\"agg\":\"count(*)\",\"where\":\"Birth.ap = "
         "'good' AND Birth.race = 'Asian'\"},"
         "{\"name\":\"q2\",\"agg\":\"count(*)\",\"where\":\"Birth.ap = "
         "'poor' AND Birth.race = 'Asian'\"}],"
         "\"expr\":\"q1 / q2\",\"direction\":\"high\"},"
         "\"attrs\":[\"marital\",\"tobacco\",\"education\"],"
         "\"options\":{\"top_k\":" + std::to_string(top_k) + "}}";
}

/// TOPK form of Q_Marital: every Birth row is married or unmarried, so
/// the White-rows delta touches its read set and drops its entry.
std::string QMaritalLine(int id, int top_k) {
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
         "\"options\":{\"top_k\":" + std::to_string(top_k) + "}}";
}

/// The read mix: half survivor candidates (Asian-only), half entries the
/// delta must drop.
std::vector<std::string> MakeMixLines(int per_family) {
  std::vector<std::string> lines;
  lines.reserve(static_cast<size_t>(per_family) * 2);
  for (int i = 0; i < per_family; ++i) {
    lines.push_back(QRaceLine(100 + i, 3 + i));
    lines.push_back(QMaritalLine(200 + i, 3 + i));
  }
  return lines;
}

void ExitOnErrorResponse(const std::string& response) {
  if (response.find("\"ok\":true") == std::string::npos) {
    std::cerr << "bench error: " << response << std::endl;
    std::exit(1);
  }
}

/// Runs every line synchronously; the second pass over the same lines is
/// the warm pass that populates/hits the cache.
void RunLines(XplaindService* service, const std::vector<std::string>& lines) {
  for (const std::string& line : lines) {
    ExitOnErrorResponse(service->HandleLine(line));
  }
}

/// The first `count` Birth-row positions matching race = 'White' in
/// `db`'s *current* shape (positions go stale across deltas).
DeltaSet WhiteDelta(const Database& db, size_t count) {
  const int birth = *db.RelationIndex("Birth");
  const xplain::DnfPredicate white =
      Unwrap(xplain::ParseDnfPredicate(db, "race = 'White'"), "predicate");
  DeltaSet delta = db.EmptyDelta();
  size_t taken = 0;
  const size_t rows = db.relation(birth).NumRows();
  for (size_t row = 0; row < rows && taken < count; ++row) {
    if (white.disjuncts()[0].EvalOnRelation(db, birth, row)) {
      delta[static_cast<size_t>(birth)].Set(row);
      ++taken;
    }
  }
  if (taken < count) {
    std::cerr << "bench error: only " << taken << " White rows of " << count
              << " requested" << std::endl;
    std::exit(1);
  }
  return delta;
}

struct DeltaRun {
  double delta_us = 0.0;
  double post_delta_cache_hits = 0.0;
  XplaindService::Stats stats;
};

/// Warms the mix, applies one `delta_rows`-row delta, replays the mix, and
/// reports the delta wall time plus how many replayed requests were still
/// cache hits afterwards.
DeltaRun RunService(Database db, size_t delta_rows,
                    const std::vector<std::string>& lines) {
  auto service = Unwrap(XplaindService::Create(std::move(db)), "service");

  RunLines(service.get(), lines);  // cold: populate
  RunLines(service.get(), lines);  // warm: all hits
  const int64_t hits_before_delta = service->GetStats().cache_hits;

  const DeltaSet delta = WhiteDelta(service->db(), delta_rows);
  Stopwatch watch;
  const xplain::Status applied = service->ApplyDelta(delta);
  const double delta_us = watch.ElapsedMillis() * 1000.0;
  if (!applied.ok()) {
    std::cerr << "bench error: " << applied.ToString() << std::endl;
    std::exit(1);
  }

  RunLines(service.get(), lines);  // post-delta: survivors hit, rest recompute
  DeltaRun run;
  run.delta_us = delta_us;
  run.stats = service->GetStats();
  run.post_delta_cache_hits =
      static_cast<double>(run.stats.cache_hits - hits_before_delta);
  service->Drain();
  return run;
}

/// The fresh-engine baseline: the same delta applied to a copy of `base`
/// through the reference path, then a new engine over the result. Returns
/// the wall time in µs.
double RebuildUs(const Database& base, size_t delta_rows) {
  const DeltaSet delta = WhiteDelta(base, delta_rows);
  Stopwatch watch;
  Database next = base.ApplyDelta(delta);
  next.SemijoinReduce();
  const xplain::ExplainEngine engine =
      Unwrap(xplain::ExplainEngine::Create(&next), "engine");
  return watch.ElapsedMillis() * 1000.0;
}

}  // namespace

int main(int argc, char** argv) {
  size_t rows = 400000;
  double delta_pct = 1.0;
  int per_family = 8;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--rows" && i + 1 < argc) {
      rows = static_cast<size_t>(std::stoll(argv[++i]));
    } else if (arg == "--delta-pct" && i + 1 < argc) {
      delta_pct = std::stod(argv[++i]);
    } else if (arg == "--queries" && i + 1 < argc) {
      per_family = std::max(1, std::stoi(argv[++i]));
    }
  }
  const size_t delta_rows = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(rows) * delta_pct / 100.0));

  xplain::datagen::NatalityOptions natality;
  natality.num_rows = rows;
  natality.seed = 2010;
  const Database base =
      Unwrap(xplain::datagen::GenerateNatality(natality), "natality");
  const std::vector<std::string> lines = MakeMixLines(per_family);

  PrintHeader("xplaind mixed read/write (" + std::to_string(rows) +
              " natality rows, " + std::to_string(delta_rows) +
              "-row delta, " + std::to_string(lines.size()) +
              " warm entries)");
  PrintRow({"path", "delta_ms", "post_hits", "rekeyed", "targeted", "full"});

  const DeltaRun incremental = RunService(base, delta_rows, lines);
  PrintRow({"incremental", Fmt(incremental.delta_us / 1000.0),
            Fmt(incremental.post_delta_cache_hits, 0),
            Fmt(static_cast<double>(incremental.stats.cache.rekeyed), 0),
            Fmt(static_cast<double>(
                    incremental.stats.cache.targeted_invalidations), 0),
            Fmt(static_cast<double>(
                    incremental.stats.cache.full_invalidations), 0)});

  // A fresh engine keeps no cache: every warm entry is lost at once.
  const double rebuild_us = RebuildUs(base, delta_rows);
  const double lost = static_cast<double>(lines.size());
  PrintRow({"rebuild", Fmt(rebuild_us / 1000.0), "0", "0", "0",
            Fmt(lost, 0)});

  const double speedup = rebuild_us / incremental.delta_us;
  PrintRow({"speedup", Fmt(speedup, 2) + "x"});

  JsonReporter json("delta");
  json.AddStats(
      "incremental", 1, incremental.delta_us / 1000.0,
      {{"rows", static_cast<double>(rows)},
       {"delta_rows", static_cast<double>(delta_rows)},
       {"incremental_delta_us", incremental.delta_us},
       {"post_delta_cache_hits", incremental.post_delta_cache_hits},
       {"rekeyed", static_cast<double>(incremental.stats.cache.rekeyed)},
       {"targeted_invalidations",
        static_cast<double>(incremental.stats.cache.targeted_invalidations)},
       {"full_invalidations",
        static_cast<double>(incremental.stats.cache.full_invalidations)}});
  json.AddStats("rebuild", 1, rebuild_us / 1000.0,
                {{"rows", static_cast<double>(rows)},
                 {"delta_rows", static_cast<double>(delta_rows)},
                 {"rebuild_delta_us", rebuild_us},
                 {"post_delta_cache_hits", 0.0},
                 {"full_invalidations", lost}});
  json.AddStats("summary", 1, (incremental.delta_us + rebuild_us) / 1000.0,
                {{"incremental_delta_us", incremental.delta_us},
                 {"rebuild_delta_us", rebuild_us},
                 {"speedup", speedup}});
  json.Write();

  // The whole point of the incremental path: survivors keep serving from
  // the cache, and nothing forced a full wipe.
  if (incremental.post_delta_cache_hits <= 0 ||
      incremental.stats.cache.full_invalidations != 0 ||
      incremental.stats.cache.targeted_invalidations <= 0) {
    std::cerr << "bench error: incremental path lost its cache (hits="
              << incremental.post_delta_cache_hits << ", full="
              << incremental.stats.cache.full_invalidations << ", targeted="
              << incremental.stats.cache.targeted_invalidations << ")"
              << std::endl;
    return 1;
  }
  return 0;
}
