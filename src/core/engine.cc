#include "core/engine.h"

#include <algorithm>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>

#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace xplain {

namespace {

/// Milliseconds elapsed since `start_us` on the trace clock.
double PhaseMs(int64_t start_us) {
  return static_cast<double>(Trace::NowMicros() - start_us) / 1000.0;
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
  const int num_threads = options.num_threads == 0
                              ? ThreadPool::DefaultNumThreads()
                              : options.num_threads;
  std::unique_ptr<ThreadPool> workers;
  if (num_threads > 1) workers = std::make_unique<ThreadPool>(num_threads);
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
    const std::vector<Tuple>& cells) const {
  XPLAIN_TRACE_SPAN("engine.rescore_cells");
  for (const Tuple& cell : cells) {
    if (cell.size() != attributes.size()) {
      return Status::InvalidArgument(
          "rescore cell has " + std::to_string(cell.size()) +
          " coordinates but " + std::to_string(attributes.size()) +
          " attributes were given");
    }
  }
  std::vector<std::vector<double>> values;
  values.reserve(cells.size());
  for (const Tuple& cell : cells) {
    Explanation e = Explanation::FromCell(attributes, cell);
    XPLAIN_ASSIGN_OR_RETURN(InterventionResult result,
                            intervention_->Compute(e.predicate()));
    RowSet live = intervention_->LiveUniversalRows(result.delta);
    values.push_back(question.query.EvaluateSubqueries(*universal_, &live));
  }
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

  // The parallel execution layer (DESIGN.md §6): one pool per Explain
  // call, shared by the cube shards, the top-K scans, and the exact
  // rescoring. num_threads == 1 (or a single-core machine) keeps `workers`
  // null — the exact sequential legacy path.
  const int num_threads = options.num_threads == 0
                              ? ThreadPool::DefaultNumThreads()
                              : options.num_threads;
  std::unique_ptr<ThreadPool> workers;
  if (num_threads > 1) workers = std::make_unique<ThreadPool>(num_threads);

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

  const bool need_exact = options.degree == DegreeKind::kIntervention &&
                          !report.cell_additivity.additive;
  if (!need_exact) {
    const int64_t topk_start_us = Trace::NowMicros();
    XPLAIN_TRACE_SPAN("engine.topk");
    report.explanations =
        TopKExplanations(report.table, options.degree, options.top_k,
                         options.minimality, workers.get());
    report.stats.topk_ms = PhaseMs(topk_start_us);
    finalize_stats(report);
    return report;
  }

  if (!options.exact_rescore_when_not_additive) {
    return Status::InvalidArgument(
        "question is not cell-exact intervention-additive (" +
        report.cell_additivity.reason +
        "); enable exact_rescore_when_not_additive or rank by aggravation");
  }

  // Hybrid path: use the cube's mu_interv column as a proxy to select a
  // candidate pool, rescore each candidate exactly with program P, then
  // rank (and apply minimality) on the exact degrees.
  report.exact_rescored = true;
  size_t pool_size = std::max(options.exact_rescore_pool, options.top_k);
  const int64_t select_start_us = Trace::NowMicros();
  TraceSpan select_span("engine.rescore_select");
  std::vector<RankedExplanation> pool = TopKExplanations(
      report.table, DegreeKind::kIntervention, pool_size,
      options.minimality == MinimalityStrategy::kNone
          ? MinimalityStrategy::kNone
          : MinimalityStrategy::kSelfJoin,
      workers.get());
  select_span.End();
  report.stats.topk_ms = PhaseMs(select_start_us);
  const int64_t rescore_start_us = Trace::NowMicros();
  TraceSpan rescore_span("engine.exact_rescore");
  rescore_span.set_arg(static_cast<int64_t>(pool.size()));
  // Each candidate's program-P evaluation is independent; shards write
  // disjoint slots of `exact`, so the degrees (and the stable sort below)
  // match the sequential path bit for bit.
  std::vector<double> exact(pool.size(), 0.0);
  XPLAIN_RETURN_IF_ERROR(ParallelShards(
      workers.get(), pool.size(), [&](int, size_t begin, size_t end) {
        XPLAIN_TRACE_SPAN("engine.rescore_shard");
        for (size_t i = begin; i < end; ++i) {
          XPLAIN_ASSIGN_OR_RETURN(
              exact[i],
              InterventionDegreeExact(*intervention_, question,
                                      pool[i].explanation.predicate()));
        }
        return Status::OK();
      }));
  for (size_t i = 0; i < pool.size(); ++i) {
    pool[i].degree = exact[i];
    // Keep table M in sync so follow-up minimality sees exact values.
    report.table.mu_interv[pool[i].m_row] = exact[i];
  }
  std::stable_sort(pool.begin(), pool.end(),
                   [](const RankedExplanation& a, const RankedExplanation& b) {
                     return a.degree > b.degree;
                   });
  if (pool.size() > options.top_k) pool.resize(options.top_k);
  report.explanations = std::move(pool);
  rescore_span.End();
  report.stats.exact_rescore_ms = PhaseMs(rescore_start_us);
  finalize_stats(report);
  return report;
}

}  // namespace xplain
