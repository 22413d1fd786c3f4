#include "core/additivity.h"

#include <algorithm>

namespace xplain {

bool RelationIsUniqueCore(const UniversalRelation& universal, int relation) {
  const size_t rows = universal.db().relation(relation).NumRows();
  std::vector<uint8_t> seen(rows, 0);
  const size_t n = universal.NumRows();
  for (size_t u = 0; u < n; ++u) {
    size_t base = universal.BaseRow(u, relation);
    if (seen[base]) return false;
    seen[base] = 1;
  }
  return true;
}

std::vector<uint8_t> UniqueCoreBits(const UniversalRelation& universal) {
  std::vector<uint8_t> bits(universal.db().num_relations());
  for (size_t r = 0; r < bits.size(); ++r) {
    bits[r] = RelationIsUniqueCore(universal, static_cast<int>(r)) ? 1 : 0;
  }
  return bits;
}

AdditivityReport CheckAggregateAdditivity(const UniversalRelation& universal,
                                          const AggregateSpec& agg) {
  return CheckAggregateAdditivity(universal.db(), agg,
                                  UniqueCoreBits(universal));
}

AdditivityReport CheckAggregateAdditivity(
    const Database& db, const AggregateSpec& agg,
    const std::vector<uint8_t>& unique_core) {
  const bool has_bf = db.HasBackAndForthKeys();

  if (agg.kind == AggregateKind::kCountStar) {
    if (!has_bf) {
      return {true,
              "count(*) with no back-and-forth foreign keys "
              "(Corollary 3.6)"};
    }
    return {false,
            "count(*) is not intervention-additive in the presence of "
            "back-and-forth foreign keys"};
  }

  if (agg.kind == AggregateKind::kCountDistinct) {
    // The counted column must be the (single-attribute) primary key of its
    // relation.
    const RelationSchema& schema = db.relation(agg.column.relation).schema();
    const std::vector<int>& pk = schema.primary_key();
    if (pk.size() != 1 || pk[0] != agg.column.attribute) {
      return {false, "count(distinct) additivity requires counting " +
                         schema.name() + "'s primary key"};
    }
    // Condition 2: some back-and-forth FK targets this relation and its
    // child is a unique core.
    for (const ResolvedForeignKey& fk : db.resolved_foreign_keys()) {
      if (fk.kind != ForeignKeyKind::kBackAndForth) continue;
      if (fk.parent_relation != agg.column.relation) continue;
      if (unique_core[fk.child_relation]) {
        return {true,
                "count(distinct " + db.ColumnName(agg.column) +
                    ") with back-and-forth FK from unique core " +
                    db.relation(fk.child_relation).name()};
      }
      return {false, "back-and-forth child " +
                         db.relation(fk.child_relation).name() +
                         " appears in multiple universal rows"};
    }
    // Condition 3: no back-and-forth keys and the counted relation itself
    // is a unique core.
    if (!has_bf && unique_core[agg.column.relation]) {
      return {true, "count(distinct " + db.ColumnName(agg.column) +
                        ") over a unique-core relation with no "
                        "back-and-forth foreign keys"};
    }
    return {false, "no sufficient condition applies to count(distinct " +
                       db.ColumnName(agg.column) + ")"};
  }

  return {false, std::string(AggregateKindToString(agg.kind)) +
                     " is not known to be intervention-additive"};
}

AdditivityReport CheckQueryAdditivity(const UniversalRelation& universal,
                                      const NumericalQuery& query) {
  return CheckQueryAdditivity(universal.db(), query,
                              UniqueCoreBits(universal));
}

AdditivityReport CheckQueryAdditivity(const Database& db,
                                      const NumericalQuery& query,
                                      const std::vector<uint8_t>& unique_core) {
  for (const AggregateQuery& q : query.subqueries()) {
    AdditivityReport report =
        CheckAggregateAdditivity(db, q.agg, unique_core);
    if (!report.additive) {
      report.reason = (q.name.empty() ? "subquery" : q.name) + ": " +
                      report.reason;
      return report;
    }
  }
  return {true, "all subqueries intervention-additive"};
}

namespace {

/// Cell-exactness check for one subquery; assumes CheckAggregateAdditivity
/// already succeeded for it.
AdditivityReport CheckSubqueryCellExact(
    const Database& db, const AggregateQuery& q,
    const std::vector<uint8_t>& unique_core) {
  if (q.agg.kind == AggregateKind::kCountStar) {
    // Exact iff Rule (i) is exact, i.e. a unique core exists; the WHERE is
    // then evaluated on exactly the rows that survive (Corollary 3.6).
    if (std::find(unique_core.begin(), unique_core.end(), 1) !=
        unique_core.end()) {
      return {true, "count(*) with a unique-core relation"};
    }
    return {false,
            "count(*): no unique-core relation, Rule (i) may be inexact"};
  }
  XPLAIN_CHECK(q.agg.kind == AggregateKind::kCountDistinct);
  const int counted = q.agg.column.relation;
  // Was additivity justified through a back-and-forth child core
  // (condition 2) or is the counted relation itself the core
  // (condition 3)?
  bool via_bf_child = false;
  for (const ResolvedForeignKey& fk : db.resolved_foreign_keys()) {
    if (fk.kind == ForeignKeyKind::kBackAndForth &&
        fk.parent_relation == counted && unique_core[fk.child_relation]) {
      via_bf_child = true;
      break;
    }
  }
  if (!via_bf_child) {
    // Condition 3: the counted relation is a unique core; the distinct
    // count degenerates to a row count and any WHERE is exact.
    return {true, "count(distinct) over a unique-core relation"};
  }
  // Condition 2: the counted parent is removed as soon as ANY of its member
  // rows satisfies phi, so WHERE atoms on sibling relations (whose value
  // varies across the parent's member rows) break exactness. Only atoms on
  // the counted parent itself are per-parent constants.
  for (const ConjunctivePredicate& disjunct : q.where.disjuncts()) {
    for (const AtomicPredicate& atom : disjunct.atoms()) {
      if (atom.column.relation != counted) {
        return {false,
                (q.name.empty() ? "subquery" : q.name) +
                    ": WHERE atom on " + db.ColumnName(atom.column) +
                    " is not an attribute of the counted relation " +
                    db.relation(counted).name() +
                    "; cube degree is only an approximation"};
      }
    }
  }
  return {true, "count(distinct parent.pk) with parent-only WHERE"};
}

}  // namespace

AdditivityReport CheckCellAdditivity(const UniversalRelation& universal,
                                     const NumericalQuery& query) {
  const std::vector<uint8_t> unique_core = UniqueCoreBits(universal);
  return CheckCellAdditivity(
      universal.db(), query,
      CheckQueryAdditivity(universal.db(), query, unique_core), unique_core);
}

AdditivityReport CheckCellAdditivity(const Database& db,
                                     const NumericalQuery& query,
                                     const AdditivityReport& query_report,
                                     const std::vector<uint8_t>& unique_core) {
  if (!query_report.additive) return query_report;
  for (const AggregateQuery& q : query.subqueries()) {
    AdditivityReport report = CheckSubqueryCellExact(db, q, unique_core);
    if (!report.additive) return report;
  }
  return {true, "cube degrees are exact for every equality explanation"};
}

}  // namespace xplain
