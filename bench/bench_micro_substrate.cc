// Micro-benchmarks (google-benchmark) for the relational substrate and the
// intervention engine: universal-relation assembly, semijoin reduction,
// predicate scans, the program-P fixpoint and the exact rescore of a
// candidate pool on the synthetic DBLP workload; the cube kernel and
// cube-workspace delta planning on natality.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/cube_algorithm.h"
#include "core/cube_workspace.h"
#include "core/engine.h"
#include "core/intervention.h"
#include "datagen/dblp.h"
#include "datagen/natality.h"
#include "relational/cube.h"
#include "relational/join.h"
#include "relational/expression.h"
#include "relational/parser.h"
#include "relational/universal.h"

namespace xplain {
namespace {

const Database& DblpDb() {
  static Database* db = [] {
    datagen::DblpOptions options;
    options.scale = 0.5;
    auto result = datagen::GenerateDblp(options);
    XPLAIN_CHECK(result.ok());
    return new Database(std::move(result).ValueOrDie());
  }();
  return *db;
}

const Database& NatalityDb() {
  static Database* db = [] {
    datagen::NatalityOptions options;
    options.num_rows = 100000;
    auto result = datagen::GenerateNatality(options);
    XPLAIN_CHECK(result.ok());
    return new Database(std::move(result).ValueOrDie());
  }();
  return *db;
}

const UniversalRelation& DblpUniversal() {
  static UniversalRelation* u = [] {
    auto result = UniversalRelation::Build(DblpDb());
    XPLAIN_CHECK(result.ok());
    return new UniversalRelation(std::move(result).ValueOrDie());
  }();
  return *u;
}

void BM_UniversalBuild(benchmark::State& state) {
  const Database& db = DblpDb();
  for (auto _ : state) {
    auto u = UniversalRelation::Build(db);
    benchmark::DoNotOptimize(u);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(db.TotalRows()));
}
BENCHMARK(BM_UniversalBuild);

void BM_SemijoinReduce(benchmark::State& state) {
  const Database& db = DblpDb();
  for (auto _ : state) {
    DeltaSet dangling = db.EmptyDelta();
    // Delete 1% of publications and measure the reduction cascade.
    const Relation& pubs = db.RelationByName("Publication");
    int pub_idx = *db.RelationIndex("Publication");
    for (size_t i = 0; i < pubs.NumRows(); i += 100) dangling[pub_idx].Set(i);
    benchmark::DoNotOptimize(MarkDanglingRows(db, &dangling));
  }
}
BENCHMARK(BM_SemijoinReduce);

void BM_PredicateScan(benchmark::State& state) {
  const Database& db = DblpDb();
  const UniversalRelation& u = DblpUniversal();
  auto phi = ParseDnfPredicate(
      db, "Publication.venue = 'SIGMOD' AND Author.dom = 'com'");
  XPLAIN_CHECK(phi.ok());
  for (auto _ : state) {
    Value v = EvaluateAggregate(u, AggregateSpec::CountStar(), &*phi);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(u.NumRows()));
}
BENCHMARK(BM_PredicateScan);

/// Times the cube kernel over the first state.range(0) natality
/// attributes. With a `race` the loop also evaluates Birth.race = race
/// into the row list the kernel takes, as ComputeTableM does per cube;
/// without one the kernel reads every row.
void CubeNatality(benchmark::State& state, const char* race) {
  const Database& db = NatalityDb();
  static UniversalRelation* u = [] {
    auto result = UniversalRelation::Build(NatalityDb());
    XPLAIN_CHECK(result.ok());
    return new UniversalRelation(std::move(result).ValueOrDie());
  }();
  const int num_attrs = static_cast<int>(state.range(0));
  const char* names[] = {"Birth.age", "Birth.tobacco", "Birth.prenatal",
                         "Birth.education", "Birth.marital", "Birth.sex"};
  std::vector<ColumnRef> columns;
  for (int i = 0; i < num_attrs; ++i) {
    columns.push_back(*db.ResolveColumn(names[i]));
  }
  std::vector<int> attr_indices(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    attr_indices[i] = static_cast<int>(i);
  }
  DnfPredicate where = DnfPredicate::True();
  if (race != nullptr) {
    auto parsed =
        ParseDnfPredicate(db, std::string("Birth.race = '") + race + "'");
    XPLAIN_CHECK(parsed.ok());
    where = *parsed;
    columns.push_back(*db.ResolveColumn("Birth.race"));
  }
  // The engine encodes a column once and retains it, so the encode stays
  // outside the timed loop: this measures the filter and the kernel.
  const ColumnCache cache = ColumnCache::Build(*u, columns);
  auto filter = CodedFilter::Compile(cache, where);
  XPLAIN_CHECK(filter.ok());
  for (auto _ : state) {
    std::vector<uint32_t> rows;
    if (race != nullptr) rows = filter->EvalRows(cache, nullptr);
    auto cube = DataCube::Compute(cache, attr_indices,
                                  AggregateKind::kCountStar, -1,
                                  race != nullptr ? &rows : nullptr);
    benchmark::DoNotOptimize(cube);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(u->NumRows()));
}

void BM_CubeNatality(benchmark::State& state) { CubeNatality(state, nullptr); }
BENCHMARK(BM_CubeNatality)->Arg(2)->Arg(4)->Arg(6);

void BM_CubeNatalityFiltered(benchmark::State& state) {
  CubeNatality(state, "White");
}
BENCHMARK(BM_CubeNatalityFiltered)->Arg(2)->Arg(4)->Arg(6);

void BM_InterventionFixpoint(benchmark::State& state) {
  const Database& db = DblpDb();
  const UniversalRelation& u = DblpUniversal();
  InterventionEngine engine(&u);
  auto phi = ParsePredicate(db, "Author.inst = 'ibm.com'");
  XPLAIN_CHECK(phi.ok());
  for (auto _ : state) {
    auto result = engine.Compute(*phi);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(u.NumRows()));
}
BENCHMARK(BM_InterventionFixpoint);

/// Times one ExplainEngine::RescoreCells call over a 50-cell pool, the
/// exact-rescore step of a non-additive question: DBLP scale 1, two
/// venue/year-window count(*) subqueries combined as q1 / (q2 + 1),
/// grouped by Author.name and Author.inst. The pool is the cube proxy's
/// top 50, as the hybrid path selects it; ComputeTableM runs once outside
/// the loop, so the columns the rescore reads are already encoded.
void BM_RescoreCells(benchmark::State& state) {
  static Database* db = [] {
    datagen::DblpOptions options;
    options.scale = 1.0;
    auto result = datagen::GenerateDblp(options);
    XPLAIN_CHECK(result.ok());
    return new Database(std::move(result).ValueOrDie());
  }();
  auto engine = ExplainEngine::Create(db);
  XPLAIN_CHECK(engine.ok());
  std::vector<AggregateQuery> subqueries;
  for (const char* venue : {"SIGMOD", "PODS"}) {
    AggregateQuery q;
    q.name = subqueries.empty() ? "q1" : "q2";
    auto where = ParseDnfPredicate(
        *db, std::string("Publication.venue = '") + venue +
                 "' AND Publication.year >= 2000 AND Publication.year <= "
                 "2004");
    XPLAIN_CHECK(where.ok());
    q.agg = AggregateSpec::CountStar();
    q.where = *where;
    subqueries.push_back(std::move(q));
  }
  auto expr = ParseExpression("q1 / (q2 + 1)", {"q1", "q2"});
  XPLAIN_CHECK(expr.ok());
  auto query = NumericalQuery::Create(std::move(subqueries),
                                      std::move(expr).ValueOrDie());
  XPLAIN_CHECK(query.ok());
  UserQuestion question;
  question.query = std::move(query).ValueOrDie();
  auto attrs = engine->ResolveAttributes({"Author.name", "Author.inst"});
  XPLAIN_CHECK(attrs.ok());
  TableMOptions table_options;
  auto table =
      ComputeTableM(engine->universal(), question, *attrs, table_options);
  XPLAIN_CHECK(table.ok());
  std::vector<Tuple> cells;
  for (const RankedExplanation& e :
       TopKExplanations(*table, DegreeKind::kIntervention, 50,
                        MinimalityStrategy::kSelfJoin, nullptr)) {
    cells.push_back(table->coords[e.m_row]);
  }
  XPLAIN_CHECK(cells.size() == 50);
  // Warm the engine's retained columns, as the served path's table-M
  // build does before its rescore.
  XPLAIN_CHECK(engine->RescoreCells(question, *attrs, cells).ok());
  for (auto _ : state) {
    auto values = engine->RescoreCells(question, *attrs, cells);
    benchmark::DoNotOptimize(values);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(cells.size()));
}
BENCHMARK(BM_RescoreCells)->Unit(benchmark::kMillisecond);

void BM_HashJoinAuthored(benchmark::State& state) {
  const Database& db = DblpDb();
  const Relation& authored = db.RelationByName("Authored");
  const Relation& author = db.RelationByName("Author");
  for (auto _ : state) {
    auto pairs = HashJoin(authored, author, JoinKeys{{0}, {0}});
    benchmark::DoNotOptimize(pairs);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(authored.NumRows()));
}
BENCHMARK(BM_HashJoinAuthored);

void BM_SortMergeJoinAuthored(benchmark::State& state) {
  const Database& db = DblpDb();
  const Relation& authored = db.RelationByName("Authored");
  const Relation& author = db.RelationByName("Author");
  for (auto _ : state) {
    auto pairs = SortMergeJoin(authored, author, JoinKeys{{0}, {0}});
    benchmark::DoNotOptimize(pairs);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(authored.NumRows()));
}
BENCHMARK(BM_SortMergeJoinAuthored);

void BM_HashIndexBuild(benchmark::State& state) {
  const Relation& authored = DblpDb().RelationByName("Authored");
  for (auto _ : state) {
    HashIndex index = HashIndex::Build(authored, {1});
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(authored.NumRows()));
}
BENCHMARK(BM_HashIndexBuild);

/// 400k natality rows, the size xbench's natality workloads serve.
const Database& LargeNatalityDb() {
  static Database* db = [] {
    datagen::NatalityOptions options;
    options.num_rows = 400000;
    auto result = datagen::GenerateNatality(options);
    XPLAIN_CHECK(result.ok());
    return new Database(std::move(result).ValueOrDie());
  }();
  return *db;
}

/// Times CubeWorkspace::PlanDelta for one 200-row Birth delta against a
/// workspace retaining the two cubes of `agg` (over race = 'White' and
/// race = 'Black'), grouped by marital, tobacco and education. Birth.id
/// equals the row position, so `rows` picks which ids die: `kSpread`
/// deletes every 2000th row, `kLowest` the 200 lowest ids (no cell's
/// maximum dies) and `kLowestAndTop` the 199 lowest plus the top id (the
/// apex maximum dies).
enum class DeltaRows { kSpread, kLowest, kLowestAndTop };

void BM_PlanDelta(benchmark::State& state, const char* agg, DeltaRows rows) {
  const Database& db = LargeNatalityDb();
  auto universal = UniversalRelation::Build(db);
  XPLAIN_CHECK(universal.ok());
  std::vector<AggregateQuery> subqueries;
  for (const char* race : {"White", "Black"}) {
    AggregateQuery q;
    q.name = subqueries.empty() ? "q1" : "q2";
    auto spec = ParseAggregate(db, agg);
    auto where =
        ParseDnfPredicate(db, std::string("Birth.race = '") + race + "'");
    XPLAIN_CHECK(spec.ok() && where.ok());
    q.agg = *spec;
    q.where = *where;
    subqueries.push_back(std::move(q));
  }
  auto expr = ParseExpression("q1 - q2", {"q1", "q2"});
  XPLAIN_CHECK(expr.ok());
  auto query = NumericalQuery::Create(std::move(subqueries),
                                      std::move(expr).ValueOrDie());
  XPLAIN_CHECK(query.ok());
  UserQuestion question;
  question.query = std::move(query).ValueOrDie();
  std::vector<ColumnRef> attrs;
  for (const char* name : {"Birth.marital", "Birth.tobacco",
                           "Birth.education"}) {
    attrs.push_back(*db.ResolveColumn(name));
  }
  CubeWorkspace workspace;
  TableMOptions options;
  options.workspace = &workspace;
  XPLAIN_CHECK(ComputeTableM(*universal, question, attrs, options).ok());
  XPLAIN_CHECK(workspace.GetStats().cube_entries == 2);

  const size_t birth = static_cast<size_t>(*db.RelationIndex("Birth"));
  const size_t n = db.relation(static_cast<int>(birth)).NumRows();
  DeltaSet delta = db.EmptyDelta();
  for (size_t i = 0; i < 200; ++i) {
    size_t row = i;
    if (rows == DeltaRows::kSpread) row = i * (n / 200);
    if (rows == DeltaRows::kLowestAndTop && i == 199) row = n - 1;
    delta[birth].Set(row);
  }
  const UniversalRemap remap = universal->PlanRemap(db.PlanDelta(delta));
  for (auto _ : state) {
    auto patch = workspace.PlanDelta(*universal, remap);
    benchmark::DoNotOptimize(patch);
  }
}
BENCHMARK_CAPTURE(BM_PlanDelta, count_star, "count(*)", DeltaRows::kSpread)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PlanDelta, count_distinct, "count(distinct Birth.id)",
                  DeltaRows::kSpread)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PlanDelta, sum, "sum(Birth.id)", DeltaRows::kSpread)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PlanDelta, avg, "avg(Birth.id)", DeltaRows::kSpread)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PlanDelta, max_extremum_death, "max(Birth.id)",
                  DeltaRows::kLowestAndTop)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PlanDelta, max_no_extremum_death, "max(Birth.id)",
                  DeltaRows::kLowest)
    ->Unit(benchmark::kMillisecond);

/// Console reporter that additionally records every finished run into the
/// repo-wide BENCH_<name>.json format (bench_util.h JsonReporter).
class JsonForwardingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonForwardingReporter(bench::JsonReporter* json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      // GetAdjustedRealTime is per-iteration real time expressed in the
      // run's time unit; normalize to milliseconds.
      const double ms = run.GetAdjustedRealTime() /
                        benchmark::GetTimeUnitMultiplier(run.time_unit) *
                        1000.0;
      json_->Add(run.benchmark_name(), run.threads, ms);
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::JsonReporter* json_;
};

}  // namespace
}  // namespace xplain

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  xplain::bench::JsonReporter json("micro_substrate");
  xplain::JsonForwardingReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
