#include "core/engine.h"

#include <algorithm>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace xplain {

namespace {

/// Milliseconds elapsed since `start_us` on the trace clock.
double PhaseMs(int64_t start_us) {
  return static_cast<double>(Trace::NowMicros() - start_us) / 1000.0;
}

/// The per-call worker pool of the parallel execution layer (DESIGN.md
/// §6), or null when `num_threads` resolves to one thread: the exact
/// sequential legacy path.
std::unique_ptr<ThreadPool> MakeWorkers(int num_threads) {
  if (num_threads == 0) num_threads = ThreadPool::DefaultNumThreads();
  return num_threads > 1 ? std::make_unique<ThreadPool>(num_threads)
                         : nullptr;
}

double DeltaOf(const std::map<std::string, double>& deltas,
               const std::string& name) {
  auto it = deltas.find(name);
  return it == deltas.end() ? 0.0 : it->second;
}

}  // namespace

std::string CanonicalOptionsKey(const ExplainOptions& options) {
  std::ostringstream key;
  key << "k=" << options.top_k
      << ";deg=" << DegreeKindToString(options.degree)
      << ";min=" << MinimalityStrategyToString(options.minimality)
      << ";sup=" << std::setprecision(17) << options.min_support
      << ";cube=" << (options.use_cube ? 1 : 0)
      << ";rescore=" << (options.exact_rescore_when_not_additive ? 1 : 0)
      << ";pool=" << options.exact_rescore_pool
      << ";maxattr=" << options.cube.max_attributes;
  return key.str();
}

std::vector<std::pair<std::string, double>> QueryStats::ToFlat() const {
  std::vector<std::pair<std::string, double>> out = {
      {"total_ms", total_ms},
      {"semijoin_ms", semijoin_ms},
      {"additivity_ms", additivity_ms},
      {"originals_ms", originals_ms},
      {"cube_build_ms", cube_build_ms},
      {"encode_ms", encode_ms},
      {"merge_ms", merge_ms},
      {"degree_ms", degree_ms},
      {"topk_ms", topk_ms},
      {"exact_rescore_ms", exact_rescore_ms},
      {"rescore_cells", static_cast<double>(rescore_cells)},
      {"table_rows", static_cast<double>(table_rows)},
      {"fixpoint_runs", static_cast<double>(fixpoint_runs)},
      {"fixpoint_rounds", static_cast<double>(fixpoint_rounds)},
      {"fixpoint_deleted_tuples",
       static_cast<double>(fixpoint_deleted_tuples)},
  };
  return out;
}

std::string QueryStats::ToString() const {
  std::ostringstream os;
  os << "QueryStats:\n";
  for (const auto& [key, value] : ToFlat()) {
    os << "  " << key << " = " << value << "\n";
  }
  for (const auto& [name, delta] : counter_deltas) {
    os << "  counter " << name << " += " << delta << "\n";
  }
  return os.str();
}

std::string ExplainReport::ToString(const Database& db) const {
  std::ostringstream os;
  os << "Q(D) = " << original_value << "  [" << (used_cube ? "cube" : "naive")
     << (exact_rescored ? ", exact-rescored" : "") << "; "
     << (cell_additivity.additive ? "cell-additive" : "not cell-additive")
     << ": " << cell_additivity.reason << "]\n";
  int rank = 1;
  for (const RankedExplanation& e : explanations) {
    os << "  " << rank++ << ". " << e.explanation.ToString(db)
       << "  degree=" << e.degree << "\n";
  }
  return os.str();
}

Result<std::vector<RankedExplanation>> RankOrSelectRescorePool(
    const ExplainOptions& options, ThreadPool* workers,
    ExplainReport* report) {
  const bool need_exact = options.degree == DegreeKind::kIntervention &&
                          !report->cell_additivity.additive;
  if (!need_exact) {
    XPLAIN_TRACE_SPAN("engine.topk");
    report->explanations =
        TopKExplanations(report->table, options.degree, options.top_k,
                         options.minimality, workers);
    return std::vector<RankedExplanation>();
  }
  if (!options.exact_rescore_when_not_additive) {
    return Status::InvalidArgument(
        "question is not cell-exact intervention-additive (" +
        report->cell_additivity.reason +
        "); enable exact_rescore_when_not_additive or rank by aggravation");
  }
  // Hybrid path: the cube's mu_interv column is only a proxy here, so it
  // selects a candidate pool; the caller rescores each candidate exactly
  // with program P and ranks (and applies minimality) on the exact
  // degrees.
  XPLAIN_TRACE_SPAN("engine.rescore_select");
  report->exact_rescored = true;
  return TopKExplanations(
      report->table, DegreeKind::kIntervention,
      std::max(options.exact_rescore_pool, options.top_k),
      options.minimality == MinimalityStrategy::kNone
          ? MinimalityStrategy::kNone
          : MinimalityStrategy::kSelfJoin,
      workers);
}

void RankByExactResiduals(const UserQuestion& question, size_t top_k,
                          const std::vector<std::vector<double>>& residuals,
                          std::vector<RankedExplanation> pool,
                          ExplainReport* report) {
  XPLAIN_CHECK(residuals.size() == pool.size())
      << residuals.size() << " residual rows for " << pool.size()
      << " candidates";
  const double sign = InterventionSign(question.direction);
  for (size_t i = 0; i < pool.size(); ++i) {
    pool[i].degree = sign * question.query.Combine(residuals[i]);
    report->table.mu_interv[pool[i].m_row] = pool[i].degree;
  }
  std::stable_sort(pool.begin(), pool.end(),
                   [](const RankedExplanation& a, const RankedExplanation& b) {
                     return a.degree > b.degree;
                   });
  if (pool.size() > top_k) pool.resize(top_k);
  report->explanations = std::move(pool);
}

Result<ExplainEngine> ExplainEngine::Create(const Database* db) {
  if (db == nullptr) {
    return Status::InvalidArgument("null database");
  }
  XPLAIN_RETURN_IF_ERROR(db->CheckReferentialIntegrity());
  ExplainEngine engine;
  engine.db_ = db;
  XPLAIN_ASSIGN_OR_RETURN(UniversalRelation universal,
                          UniversalRelation::Build(*db));
  engine.universal_ =
      std::make_unique<UniversalRelation>(std::move(universal));
  engine.intervention_ =
      std::make_unique<InterventionEngine>(engine.universal_.get());
  engine.workspace_ = std::make_unique<CubeWorkspace>();
  engine.unique_core_ = UniqueCoreBits(*engine.universal_);
  return engine;
}

EngineDeltaPlan ExplainEngine::PlanDelta(const DeltaSet& delta) const {
  XPLAIN_TRACE_SPAN("engine.plan_delta");
  workspace_->BeginDelta();
  EngineDeltaPlan plan;
  plan.db_plan = db_->PlanDelta(delta);
  plan.rows_removed = plan.db_plan.rows_removed;
  plan.remap = universal_->PlanRemap(plan.db_plan);
  plan.workspace_patch = workspace_->PlanDelta(*universal_, plan.remap);
  // Unique-core bits over the post-delta universal rows: a relation is a
  // unique core iff no compacted base row appears in two surviving
  // universal rows. Deletions can only flip bits false -> true.
  const int k = db_->num_relations();
  plan.new_unique_core.assign(static_cast<size_t>(k), 1);
  const size_t new_rows = k == 0 ? 0 : plan.remap.rows.size() / k;
  for (int r = 0; r < k; ++r) {
    std::vector<uint8_t> seen(db_->relation(r).NumRows(), 0);
    for (size_t u = 0; u < new_rows; ++u) {
      uint32_t base = plan.remap.rows[u * k + r];
      if (seen[base]) {
        plan.new_unique_core[r] = 0;
        break;
      }
      seen[base] = 1;
    }
  }
  plan.signature_changed = plan.new_unique_core != unique_core_;
  return plan;
}

void ExplainEngine::CommitDelta(EngineDeltaPlan&& plan) {
  XPLAIN_TRACE_SPAN("engine.commit_delta");
  workspace_->CommitDelta(std::move(plan.workspace_patch), plan.remap);
  universal_->AdoptRows(std::move(plan.remap));
  intervention_ = std::make_unique<InterventionEngine>(universal_.get());
  unique_core_ = std::move(plan.new_unique_core);
  XPLAIN_COUNTER_ADD("engine.delta_commits", 1);
}

void ExplainEngine::AbortDelta() { workspace_->AbortDelta(); }

Result<std::vector<ColumnRef>> ExplainEngine::ResolveAttributes(
    const std::vector<std::string>& names) const {
  std::vector<ColumnRef> attrs;
  attrs.reserve(names.size());
  for (const std::string& name : names) {
    XPLAIN_ASSIGN_OR_RETURN(ColumnRef ref, db_->ResolveColumn(name));
    attrs.push_back(ref);
  }
  return attrs;
}

Result<ExplainReport> ExplainEngine::Explain(
    const UserQuestion& question, const std::vector<std::string>& attributes,
    const ExplainOptions& options) const {
  XPLAIN_ASSIGN_OR_RETURN(std::vector<ColumnRef> attrs,
                          ResolveAttributes(attributes));
  return ExplainResolved(question, attrs, options);
}

Result<PartialExplainReport> ExplainEngine::ExplainPartialResolved(
    const UserQuestion& question, const std::vector<ColumnRef>& attributes,
    const ExplainOptions& options) const {
  XPLAIN_TRACE_SPAN("engine.explain_partial");
  if (!options.use_cube) {
    return Status::InvalidArgument(
        "partial EXPLAIN requires the cube path (the naive table carries no "
        "per-cube supports to merge)");
  }
  PartialExplainReport report;
  report.additivity =
      CheckQueryAdditivity(*db_, question.query, unique_core_);
  report.cell_additivity = CheckCellAdditivity(
      *db_, question.query, report.additivity, unique_core_);
  const std::unique_ptr<ThreadPool> workers = MakeWorkers(options.num_threads);
  TableMOptions table_options;
  table_options.cube = options.cube;
  table_options.cube.pool = workers.get();
  // Never prune locally: a cell below min_support on this shard can clear
  // it once merged with its siblings. The coordinator prunes the merged
  // values.
  table_options.min_support = 0.0;
  table_options.workspace = workspace_.get();
  XPLAIN_ASSIGN_OR_RETURN(
      report.table,
      ComputeTableM(*universal_, question, attributes, table_options));
  return report;
}

Result<std::vector<std::vector<double>>> ExplainEngine::RescoreCells(
    const UserQuestion& question, const std::vector<ColumnRef>& attributes,
    const std::vector<Tuple>& cells, ThreadPool* workers) const {
  XPLAIN_TRACE_SPAN("engine.rescore_cells");
  for (const Tuple& cell : cells) {
    if (cell.size() != attributes.size()) {
      return Status::InvalidArgument(
          "rescore cell has " + std::to_string(cell.size()) +
          " coordinates but " + std::to_string(attributes.size()) +
          " attributes were given");
    }
  }
  // The question's coded columns, retained since the table-M build or the
  // partial round: the candidate attributes, then what each subquery reads.
  std::vector<ColumnRef> columns = attributes;
  for (const AggregateQuery& q : question.query.subqueries()) {
    AppendQueryColumns(q, &columns);
  }
  const ColumnCache cache = workspace_->Columns(*universal_, columns);
  // Each subquery's filter-passing rows and measure column, once per call.
  struct Subquery {
    std::vector<uint32_t> rows;
    AggregateKind kind;
    int measure_index;
  };
  std::vector<Subquery> subqueries;
  for (const AggregateQuery& q : question.query.subqueries()) {
    XPLAIN_ASSIGN_OR_RETURN(CodedFilter filter,
                            CodedFilter::Compile(cache, q.where));
    subqueries.push_back(
        {filter.EvalRows(cache, nullptr), q.agg.kind,
         q.agg.kind == AggregateKind::kCountStar
             ? -1
             : cache.FindColumn(q.agg.column)});
  }
  // Each cell's program-P run is independent; shards write disjoint slots
  // of `values`, so the result matches the sequential path bit for bit.
  std::vector<std::vector<double>> values(cells.size());
  XPLAIN_RETURN_IF_ERROR(ParallelShards(
      workers, cells.size(), [&](int, size_t begin, size_t end) -> Status {
        XPLAIN_TRACE_SPAN("engine.rescore_shard");
        for (size_t i = begin; i < end; ++i) {
          const ConjunctivePredicate phi =
              Explanation::FromCell(attributes, cells[i]).predicate();
          XPLAIN_ASSIGN_OR_RETURN(CodedFilter phi_filter,
                                  CodedFilter::Compile(cache, phi));
          XPLAIN_ASSIGN_OR_RETURN(
              InterventionResult result,
              intervention_->ComputeOnRows(phi_filter.EvalRows(cache, nullptr),
                                           phi.MaxMentionedRelation()));
          const RowSet live = intervention_->LiveUniversalRows(result.delta);
          // q_j(D - Delta^phi): the kernel's apex over the live rows that
          // pass q_j's filter.
          values[i].reserve(subqueries.size());
          for (const Subquery& q : subqueries) {
            std::vector<uint32_t> live_rows;
            live_rows.reserve(q.rows.size());
            for (uint32_t u : q.rows) {
              if (live.Test(u)) live_rows.push_back(u);
            }
            XPLAIN_ASSIGN_OR_RETURN(
                DataCube apex, DataCube::Compute(cache, {}, q.kind,
                                                 q.measure_index, &live_rows));
            values[i].push_back(apex.GrandTotal());
          }
        }
        return Status::OK();
      }));
  return values;
}

Result<ExplainReport> ExplainEngine::ExplainResolved(
    const UserQuestion& question, const std::vector<ColumnRef>& attributes,
    const ExplainOptions& options) const {
  XPLAIN_TRACE_SPAN("engine.explain");
  const int64_t explain_start_us = Trace::NowMicros();
  std::vector<std::pair<std::string, double>> counters_before;
  if (options.collect_stats) {
    counters_before = MetricsRegistry::Global().CounterSnapshot();
  }
  // Fills report.stats from the phase timers plus the per-call counter
  // deltas (semijoin time and fixpoint work are nested inside other phases,
  // so they are accounted by accumulation, not by an enclosing timer).
  auto finalize_stats = [&](ExplainReport& report) {
    if (!options.collect_stats) return;
    report.stats_collected = true;
    QueryStats& stats = report.stats;
    stats.total_ms = PhaseMs(explain_start_us);
    stats.originals_ms = report.table.build_stats.originals_ms;
    stats.cube_build_ms = report.table.build_stats.cube_build_ms;
    stats.encode_ms = report.table.build_stats.encode_ms;
    stats.merge_ms = report.table.build_stats.merge_ms;
    stats.degree_ms = report.table.build_stats.degree_ms;
    stats.table_rows = report.table.NumRows();
    std::map<std::string, double> deltas;
    for (const auto& [name, value] :
         MetricsRegistry::Global().CounterSnapshot()) {
      deltas[name] = value;
    }
    for (const auto& [name, value] : counters_before) {
      deltas[name] -= value;
    }
    for (const auto& [name, delta] : deltas) {
      if (delta != 0.0) stats.counter_deltas.emplace_back(name, delta);
    }
    stats.semijoin_ms = DeltaOf(deltas, "semijoin.micros") / 1000.0;
    stats.fixpoint_runs =
        static_cast<int64_t>(DeltaOf(deltas, "fixpoint.runs"));
    stats.fixpoint_rounds =
        static_cast<int64_t>(DeltaOf(deltas, "fixpoint.rounds"));
    stats.fixpoint_deleted_tuples =
        static_cast<int64_t>(DeltaOf(deltas, "fixpoint.deleted_tuples"));
  };

  ExplainReport report;
  const int64_t additivity_start_us = Trace::NowMicros();
  {
    XPLAIN_TRACE_SPAN("engine.additivity");
    report.additivity =
        CheckQueryAdditivity(*db_, question.query, unique_core_);
    report.cell_additivity = CheckCellAdditivity(
        *db_, question.query, report.additivity, unique_core_);
  }
  report.stats.additivity_ms = PhaseMs(additivity_start_us);
  report.used_cube = options.use_cube;

  // One pool per Explain call, shared by the cube shards, the top-K scans
  // and the exact rescoring.
  const std::unique_ptr<ThreadPool> workers = MakeWorkers(options.num_threads);

  if (options.use_cube) {
    TableMOptions table_options;
    table_options.cube = options.cube;
    table_options.cube.pool = workers.get();
    table_options.min_support = options.min_support;
    table_options.workspace = workspace_.get();
    XPLAIN_ASSIGN_OR_RETURN(
        report.table,
        ComputeTableM(*universal_, question, attributes, table_options));
  } else {
    NaiveOptions naive_options;
    naive_options.min_support = options.min_support;
    XPLAIN_ASSIGN_OR_RETURN(
        report.table,
        ComputeTableMNaive(*universal_, question, attributes, naive_options));
  }
  // Q(D) from the table's u_j, so it is evaluated once per question.
  report.original_value = question.query.Combine(report.table.original_values);

  const int64_t topk_start_us = Trace::NowMicros();
  XPLAIN_ASSIGN_OR_RETURN(
      std::vector<RankedExplanation> pool,
      RankOrSelectRescorePool(options, workers.get(), &report));
  report.stats.topk_ms = PhaseMs(topk_start_us);
  if (report.exact_rescored) {
    const int64_t rescore_start_us = Trace::NowMicros();
    TraceSpan rescore_span("engine.exact_rescore");
    rescore_span.set_arg(static_cast<int64_t>(pool.size()));
    std::vector<Tuple> cells;
    cells.reserve(pool.size());
    for (const RankedExplanation& candidate : pool) {
      cells.push_back(report.table.coords[candidate.m_row]);
    }
    XPLAIN_ASSIGN_OR_RETURN(
        std::vector<std::vector<double>> residuals,
        RescoreCells(question, attributes, cells, workers.get()));
    RankByExactResiduals(question, options.top_k, residuals, std::move(pool),
                         &report);
    rescore_span.End();
    report.stats.exact_rescore_ms = PhaseMs(rescore_start_us);
    report.stats.rescore_cells = cells.size();
  }
  finalize_stats(report);
  return report;
}

}  // namespace xplain
