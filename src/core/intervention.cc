#include "core/intervention.h"

#include <limits>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace xplain {

namespace {
constexpr uint32_t kNoParent = std::numeric_limits<uint32_t>::max();
}  // namespace

std::string ValidityReport::ToString() const {
  std::string out = "closed=";
  out += closed ? "yes" : "no";
  out += " semijoin_reduced=";
  out += semijoin_reduced ? "yes" : "no";
  out += " phi_free=";
  out += phi_free ? "yes" : "no";
  return out;
}

InterventionEngine::InterventionEngine(const UniversalRelation* universal)
    : universal_(universal) {
  const Database& db = universal_->db();
  for (const ResolvedForeignKey& fk : db.resolved_foreign_keys()) {
    if (fk.kind != ForeignKeyKind::kBackAndForth) continue;
    const Relation& child = db.relation(fk.child_relation);
    const Relation& parent = db.relation(fk.parent_relation);
    HashIndex parent_index = HashIndex::Build(parent, fk.parent_attrs);
    BackAndForthMap map;
    map.child_relation = fk.child_relation;
    map.parent_relation = fk.parent_relation;
    map.parent_of_child.assign(child.NumRows(), kNoParent);
    for (size_t i = 0; i < child.NumRows(); ++i) {
      const std::vector<size_t>& matches =
          parent_index.Lookup(ProjectTuple(child.row(i), fk.child_attrs));
      if (!matches.empty()) {
        // parent_attrs is the parent's primary key, so at most one match.
        map.parent_of_child[i] = static_cast<uint32_t>(matches.front());
      }
    }
    bf_maps_.push_back(std::move(map));
  }
}

RowSet InterventionEngine::LiveUniversalRows(const DeltaSet& delta) const {
  const size_t n = universal_->NumRows();
  const int k = db().num_relations();
  RowSet live(n);
  for (size_t u = 0; u < n; ++u) {
    bool alive = true;
    for (int r = 0; r < k; ++r) {
      if (delta[r].Test(universal_->BaseRow(u, r))) {
        alive = false;
        break;
      }
    }
    if (alive) live.Set(u);
  }
  return live;
}

size_t InterventionEngine::ApplyBackwardCascade(const DeltaSet& delta,
                                                DeltaSet* next) const {
  size_t added = 0;
  for (const BackAndForthMap& map : bf_maps_) {
    const RowSet& child_delta = delta[map.child_relation];
    RowSet& parent_next = (*next)[map.parent_relation];
    for (size_t i = 0; i < map.parent_of_child.size(); ++i) {
      if (!child_delta.Test(i)) continue;
      uint32_t parent = map.parent_of_child[i];
      if (parent != kNoParent && parent_next.Set(parent)) ++added;
    }
  }
  return added;
}

size_t InterventionEngine::ApplySemijoinReduction(const DeltaSet& delta,
                                                  DeltaSet* next) const {
  const Database& database = db();
  const int k = database.num_relations();
  const size_t n = universal_->NumRows();
  // Support of U(D - delta): base rows appearing in a fully-live join row.
  DeltaSet support = database.EmptyDelta();
  for (size_t u = 0; u < n; ++u) {
    bool alive = true;
    for (int r = 0; r < k; ++r) {
      if (delta[r].Test(universal_->BaseRow(u, r))) {
        alive = false;
        break;
      }
    }
    if (!alive) continue;
    for (int r = 0; r < k; ++r) {
      support[r].Set(universal_->BaseRow(u, r));
    }
  }
  size_t added = 0;
  for (int r = 0; r < k; ++r) {
    const size_t rows = database.relation(r).NumRows();
    for (size_t i = 0; i < rows; ++i) {
      if (!delta[r].Test(i) && !support[r].Test(i)) {
        if ((*next)[r].Set(i)) ++added;
      }
    }
  }
  return added;
}

Result<InterventionResult> InterventionEngine::ComputeOnRows(
    const std::vector<uint32_t>& phi_rows, int repair_relation,
    const InterventionOptions& options) const {
  XPLAIN_TRACE_SPAN("fixpoint.compute");
  const Database& database = db();
  const int k = database.num_relations();
  const size_t n = universal_->NumRows();

  InterventionResult result;
  result.delta = database.EmptyDelta();

  // --- Rule (i): Delta_i = R_i - Pi_{A_i} sigma_{!phi}(U(D)); the
  // !phi rows are the ones the ascending list skips. ---
  DeltaSet support = database.EmptyDelta();
  size_t next_phi = 0;
  for (size_t u = 0; u < n; ++u) {
    if (next_phi < phi_rows.size() && phi_rows[next_phi] == u) {
      ++next_phi;
      continue;
    }
    for (int r = 0; r < k; ++r) {
      support[r].Set(universal_->BaseRow(u, r));
    }
  }
  if (next_phi != phi_rows.size()) {
    return Status::InvalidArgument(
        "phi rows must be ascending universal row ids below " +
        std::to_string(n));
  }
  for (int r = 0; r < k; ++r) {
    const size_t rows = database.relation(r).NumRows();
    for (size_t i = 0; i < rows; ++i) {
      if (!support[r].Test(i)) result.delta[r].Set(i);
    }
  }
  result.seed_count = DeltaCount(result.delta);
  result.iterations = 1;
  XPLAIN_COUNTER_ADD("fixpoint.runs", 1);
  XPLAIN_COUNTER_ADD("fixpoint.seed_tuples",
                     static_cast<int64_t>(result.seed_count));

  // --- Recursive rounds: simultaneous Rules (ii) + (iii). ---
  const size_t max_iterations = options.max_iterations > 0
                                    ? options.max_iterations
                                    : database.TotalRows() + 2;
  while (result.iterations < max_iterations) {
    DeltaSet next = result.delta;
    size_t added = ApplyBackwardCascade(result.delta, &next);
    added += ApplySemijoinReduction(result.delta, &next);
    if (added > 0) {
      result.delta = std::move(next);
      ++result.iterations;
      XPLAIN_COUNTER_ADD("fixpoint.rounds", 1);
      XPLAIN_COUNTER_ADD("fixpoint.deleted_tuples",
                         static_cast<int64_t>(added));
      // Rate-limited progress line: the fixpoint can run thousands of
      // rounds on worst-case FK chains, so a plain XPLAIN_LOG would flood.
      XPLAIN_LOG_EVERY_N(kDebug, 1000)
          << "program P round " << result.iterations << ": " << added
          << " tuples deleted this pass";
      continue;
    }
    // Fixpoint of P reached. Check condition 3 of Definition 2.6.
    RowSet live = LiveUniversalRows(result.delta);
    size_t offending = 0;
    while (offending < phi_rows.size() && !live.Test(phi_rows[offending])) {
      ++offending;
    }
    const bool phi_free = offending == phi_rows.size();
    result.residual_phi_free = phi_free;
    if (phi_free || !options.repair) break;

    // Repair heuristic (extension; see DESIGN.md): the fixpoint is not
    // phi-free, which means every base tuple of some live phi-row also
    // appears in a live !phi-row, so re-seeding cannot help. Break the tie
    // by deleting, from each live phi-row, its base tuple in the
    // highest-indexed relation mentioned by phi, then continue the
    // fixpoint.
    if (repair_relation < 0) {
      // phi is TRUE: the only valid intervention is the whole database.
      for (int r = 0; r < k; ++r) {
        const size_t rows = database.relation(r).NumRows();
        for (size_t i = 0; i < rows; ++i) result.delta[r].Set(i);
      }
      result.residual_phi_free = true;
      break;
    }
    size_t repaired = 0;
    for (size_t i = offending; i < phi_rows.size(); ++i) {
      const uint32_t u = phi_rows[i];
      if (live.Test(u) &&
          result.delta[repair_relation].Set(
              universal_->BaseRow(u, repair_relation))) {
        ++repaired;
      }
    }
    XPLAIN_CHECK(repaired > 0) << "repair made no progress";
    ++result.repair_rounds;
    ++result.iterations;
  }

  if (result.iterations >= max_iterations) {
    return Status::Internal(
        "program P did not converge within " +
        std::to_string(max_iterations) +
        " iterations (bound violated; this is a bug)");
  }
  return result;
}

Result<InterventionResult> InterventionEngine::Compute(
    const DnfPredicate& phi, const InterventionOptions& options) const {
  std::vector<uint32_t> phi_rows;
  for (size_t u = 0; u < universal_->NumRows(); ++u) {
    if (phi.EvalUniversal(*universal_, u)) {
      phi_rows.push_back(static_cast<uint32_t>(u));
    }
  }
  return ComputeOnRows(phi_rows, phi.MaxMentionedRelation(), options);
}

ValidityReport VerifyIntervention(const Database& db,
                                  const DnfPredicate& phi,
                                  const DeltaSet& delta) {
  ValidityReport report;

  // Condition 1: closedness under cascade / backward cascade.
  report.closed = true;
  for (const ResolvedForeignKey& fk : db.resolved_foreign_keys()) {
    const Relation& child = db.relation(fk.child_relation);
    const Relation& parent = db.relation(fk.parent_relation);
    HashIndex parent_index = HashIndex::Build(parent, fk.parent_attrs);
    for (size_t i = 0; i < child.NumRows() && report.closed; ++i) {
      const std::vector<size_t>& matches =
          parent_index.Lookup(ProjectTuple(child.row(i), fk.child_attrs));
      if (matches.empty()) continue;
      size_t parent_row = matches.front();
      bool child_deleted = delta[fk.child_relation].Test(i);
      bool parent_deleted = delta[fk.parent_relation].Test(parent_row);
      if (parent_deleted && !child_deleted) report.closed = false;  // forth
      if (fk.kind == ForeignKeyKind::kBackAndForth && child_deleted &&
          !parent_deleted) {
        report.closed = false;  // back
      }
    }
  }

  // Conditions 2 and 3 need U(D - delta).
  auto universal = UniversalRelation::Build(db, delta);
  if (!universal.ok()) {
    return report;  // cannot evaluate; leave as not reduced / not phi-free
  }
  DeltaSet support = universal->SupportSets();
  report.semijoin_reduced = true;
  for (int r = 0; r < db.num_relations() && report.semijoin_reduced; ++r) {
    const size_t rows = db.relation(r).NumRows();
    for (size_t i = 0; i < rows; ++i) {
      if (!delta[r].Test(i) && !support[r].Test(i)) {
        report.semijoin_reduced = false;
        break;
      }
    }
  }

  report.phi_free = true;
  const size_t n = universal->NumRows();
  for (size_t u = 0; u < n; ++u) {
    if (phi.EvalUniversal(*universal, u)) {
      report.phi_free = false;
      break;
    }
  }
  return report;
}

}  // namespace xplain
