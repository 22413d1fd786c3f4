// Micro-benchmarks (google-benchmark) for the relational substrate and the
// intervention engine: universal-relation assembly, semijoin reduction,
// cube computation, predicate scans, and the program-P fixpoint, on the
// synthetic DBLP workload.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/intervention.h"
#include "datagen/dblp.h"
#include "datagen/natality.h"
#include "relational/cube.h"
#include "relational/join.h"
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

void BM_CubeNatality(benchmark::State& state) {
  const Database& db = NatalityDb();
  static UniversalRelation* u = [] {
    auto result = UniversalRelation::Build(NatalityDb());
    XPLAIN_CHECK(result.ok());
    return new UniversalRelation(std::move(result).ValueOrDie());
  }();
  const int num_attrs = static_cast<int>(state.range(0));
  const char* names[] = {"Birth.age", "Birth.tobacco", "Birth.prenatal",
                         "Birth.education", "Birth.marital", "Birth.sex"};
  std::vector<ColumnRef> attrs;
  for (int i = 0; i < num_attrs; ++i) {
    attrs.push_back(*db.ResolveColumn(names[i]));
  }
  // The engine encodes a column once and retains it, so the encode stays
  // outside the timed loop: this measures the cube kernel alone.
  const ColumnCache cache = ColumnCache::Build(*u, attrs);
  std::vector<int> attr_indices(attrs.size());
  for (size_t i = 0; i < attrs.size(); ++i) {
    attr_indices[i] = static_cast<int>(i);
  }
  for (auto _ : state) {
    auto cube = DataCube::Compute(cache, attr_indices,
                                  AggregateKind::kCountStar, -1, nullptr);
    benchmark::DoNotOptimize(cube);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(u->NumRows()));
}
BENCHMARK(BM_CubeNatality)->Arg(2)->Arg(4)->Arg(6);

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
