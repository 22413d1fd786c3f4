#include "relational/database.h"

#include <unordered_set>

#include "util/metrics.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace xplain {

Status Database::AddRelation(Relation relation) {
  const std::string& name = relation.name();
  if (relation_index_.count(name) != 0) {
    return Status::AlreadyExists("relation " + name + " already in database");
  }
  relation_index_[name] = static_cast<int>(relations_.size());
  relations_.push_back(std::move(relation));
  ++version_;
  return Status::OK();
}

Status Database::AddForeignKey(const ForeignKey& fk) {
  XPLAIN_ASSIGN_OR_RETURN(int child, RelationIndex(fk.child_relation));
  XPLAIN_ASSIGN_OR_RETURN(int parent, RelationIndex(fk.parent_relation));
  if (fk.child_attrs.empty() ||
      fk.child_attrs.size() != fk.parent_attrs.size()) {
    return Status::InvalidArgument("foreign key " + fk.ToString() +
                                   " has mismatched attribute lists");
  }
  ResolvedForeignKey resolved;
  resolved.child_relation = child;
  resolved.parent_relation = parent;
  resolved.kind = fk.kind;
  const RelationSchema& child_schema = relations_[child].schema();
  const RelationSchema& parent_schema = relations_[parent].schema();
  for (size_t i = 0; i < fk.child_attrs.size(); ++i) {
    XPLAIN_ASSIGN_OR_RETURN(int c_attr,
                            child_schema.AttributeIndex(fk.child_attrs[i]));
    XPLAIN_ASSIGN_OR_RETURN(int p_attr,
                            parent_schema.AttributeIndex(fk.parent_attrs[i]));
    if (child_schema.attribute(c_attr).type !=
        parent_schema.attribute(p_attr).type) {
      return Status::InvalidArgument(
          "foreign key " + fk.ToString() + ": type mismatch on attribute " +
          fk.child_attrs[i]);
    }
    resolved.child_attrs.push_back(c_attr);
    resolved.parent_attrs.push_back(p_attr);
  }
  // The referenced attributes must be exactly the parent's primary key
  // (order-insensitive), per the paper's R_j.fk -> R_i.pk formulation.
  std::vector<int> sorted_parent = resolved.parent_attrs;
  std::vector<int> sorted_pk = parent_schema.primary_key();
  std::sort(sorted_parent.begin(), sorted_parent.end());
  std::sort(sorted_pk.begin(), sorted_pk.end());
  if (sorted_parent != sorted_pk) {
    return Status::InvalidArgument(
        "foreign key " + fk.ToString() +
        " must reference the parent's primary key");
  }
  foreign_keys_.push_back(fk);
  resolved_fks_.push_back(std::move(resolved));
  ++version_;
  return Status::OK();
}

Result<int> Database::RelationIndex(const std::string& name) const {
  auto it = relation_index_.find(name);
  if (it == relation_index_.end()) {
    return Status::NotFound("relation " + name + " not in database");
  }
  return it->second;
}

const Relation& Database::RelationByName(const std::string& name) const {
  auto it = relation_index_.find(name);
  XPLAIN_CHECK(it != relation_index_.end()) << "no relation " << name;
  return relations_[it->second];
}

bool Database::HasBackAndForthKeys() const {
  for (const ForeignKey& fk : foreign_keys_) {
    if (fk.kind == ForeignKeyKind::kBackAndForth) return true;
  }
  return false;
}

Result<ColumnRef> Database::ResolveColumn(const std::string& qualified) const {
  size_t dot = qualified.find('.');
  if (dot == std::string::npos) {
    // Unqualified: unique attribute name across all relations.
    ColumnRef found;
    for (int r = 0; r < num_relations(); ++r) {
      int a = relations_[r].schema().FindAttribute(qualified);
      if (a >= 0) {
        if (found.relation >= 0) {
          return Status::InvalidArgument("ambiguous column name " + qualified);
        }
        found = ColumnRef{r, a};
      }
    }
    if (found.relation < 0) {
      return Status::NotFound("column " + qualified + " not found");
    }
    return found;
  }
  std::string rel = qualified.substr(0, dot);
  std::string attr = qualified.substr(dot + 1);
  XPLAIN_ASSIGN_OR_RETURN(int r, RelationIndex(rel));
  XPLAIN_ASSIGN_OR_RETURN(int a, relations_[r].schema().AttributeIndex(attr));
  return ColumnRef{r, a};
}

std::string Database::ColumnName(const ColumnRef& ref) const {
  return relations_[ref.relation].name() + "." +
         relations_[ref.relation].schema().attribute(ref.attribute).name;
}

DataType Database::ColumnType(const ColumnRef& ref) const {
  return relations_[ref.relation].schema().attribute(ref.attribute).type;
}

size_t Database::TotalRows() const {
  size_t n = 0;
  for (const Relation& r : relations_) n += r.NumRows();
  return n;
}

Status Database::CheckReferentialIntegrity() const {
  for (size_t f = 0; f < resolved_fks_.size(); ++f) {
    const ResolvedForeignKey& fk = resolved_fks_[f];
    const Relation& child = relations_[fk.child_relation];
    const Relation& parent = relations_[fk.parent_relation];
    std::unordered_set<Tuple, TupleHash, TupleEq> parent_keys;
    parent_keys.reserve(parent.NumRows());
    for (size_t i = 0; i < parent.NumRows(); ++i) {
      parent_keys.insert(ProjectTuple(parent.row(i), fk.parent_attrs));
    }
    for (size_t i = 0; i < child.NumRows(); ++i) {
      Tuple key = ProjectTuple(child.row(i), fk.child_attrs);
      for (const Value& v : key) {
        if (v.is_null()) {
          return Status::ConstraintViolation(
              "NULL foreign key value in " + child.name() + " row " +
              std::to_string(i) + " for " + foreign_keys_[f].ToString());
        }
      }
      if (parent_keys.count(key) == 0) {
        return Status::ConstraintViolation(
            "dangling foreign key " + TupleToString(key) + " in " +
            child.name() + " row " + std::to_string(i) + " for " +
            foreign_keys_[f].ToString());
      }
    }
  }
  return Status::OK();
}

size_t MarkDanglingRows(const Database& db, DeltaSet* dangling) {
  XPLAIN_CHECK(dangling->size() == static_cast<size_t>(db.num_relations()));
  TraceSpan span("semijoin.mark_dangling");
  const int64_t start_us = Trace::NowMicros();
  size_t total_added = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const ResolvedForeignKey& fk : db.resolved_foreign_keys()) {
      const Relation& child = db.relation(fk.child_relation);
      const Relation& parent = db.relation(fk.parent_relation);
      RowSet& child_del = (*dangling)[fk.child_relation];
      RowSet& parent_del = (*dangling)[fk.parent_relation];

      // Live parent keys -> mark children with no live parent.
      std::unordered_set<Tuple, TupleHash, TupleEq> parent_keys;
      parent_keys.reserve(parent.NumRows() - parent_del.count());
      for (size_t i = 0; i < parent.NumRows(); ++i) {
        if (!parent_del.Test(i)) {
          parent_keys.insert(ProjectTuple(parent.row(i), fk.parent_attrs));
        }
      }
      for (size_t i = 0; i < child.NumRows(); ++i) {
        if (child_del.Test(i)) continue;
        if (parent_keys.count(ProjectTuple(child.row(i), fk.child_attrs)) ==
            0) {
          child_del.Set(i);
          ++total_added;
          changed = true;
        }
      }

      // Live child keys -> mark parents referenced by no live child.
      std::unordered_set<Tuple, TupleHash, TupleEq> child_keys;
      child_keys.reserve(child.NumRows() - child_del.count());
      for (size_t i = 0; i < child.NumRows(); ++i) {
        if (!child_del.Test(i)) {
          child_keys.insert(ProjectTuple(child.row(i), fk.child_attrs));
        }
      }
      for (size_t i = 0; i < parent.NumRows(); ++i) {
        if (parent_del.Test(i)) continue;
        if (child_keys.count(ProjectTuple(parent.row(i), fk.parent_attrs)) ==
            0) {
          parent_del.Set(i);
          ++total_added;
          changed = true;
        }
      }
    }
  }
  // semijoin.micros feeds QueryStats::semijoin_ms: semijoin work is nested
  // inside other phases (the fixpoint), so it is accounted by accumulation
  // rather than by an enclosing phase timer.
  span.set_arg(static_cast<int64_t>(total_added));
  XPLAIN_COUNTER_ADD("semijoin.passes", 1);
  XPLAIN_COUNTER_ADD("semijoin.marked_rows",
                     static_cast<int64_t>(total_added));
  XPLAIN_COUNTER_ADD("semijoin.micros", Trace::NowMicros() - start_us);
  return total_added;
}

size_t Database::SemijoinReduce() {
  XPLAIN_TRACE_SPAN("semijoin.reduce");
  size_t removed = ApplyDeltaPlan(PlanDelta(EmptyDelta()));
  XPLAIN_COUNTER_ADD("semijoin.removed_rows", static_cast<int64_t>(removed));
  return removed;
}

DeltaPlan Database::PlanDelta(const DeltaSet& delta) const {
  XPLAIN_CHECK(delta.size() == static_cast<size_t>(num_relations()));
  XPLAIN_TRACE_SPAN("delta.plan");
  DeltaPlan plan;
  plan.removed = delta;
  MarkDanglingRows(*this, &plan.removed);
  plan.row_remap.resize(num_relations());
  for (int r = 0; r < num_relations(); ++r) {
    const RowSet& gone = plan.removed[r];
    if (gone.empty()) continue;  // identity remap, relation untouched
    plan.touched.push_back(r);
    plan.rows_removed += gone.count();
    std::vector<uint32_t>& remap = plan.row_remap[r];
    remap.resize(relations_[r].NumRows());
    uint32_t next = 0;
    for (size_t i = 0; i < remap.size(); ++i) {
      remap[i] = gone.Test(i) ? DeltaPlan::kNoRow : next++;
    }
  }
  return plan;
}

size_t Database::ApplyDeltaPlan(const DeltaPlan& plan) {
  XPLAIN_CHECK(plan.removed.size() == static_cast<size_t>(num_relations()));
  if (plan.rows_removed == 0) return 0;
  XPLAIN_TRACE_SPAN("delta.apply_in_place");
  for (int r : plan.touched) {
    size_t removed = relations_[r].CompactRows(plan.removed[r]);
    XPLAIN_CHECK(removed == plan.removed[r].count())
        << "stale DeltaPlan applied to relation " << relations_[r].name();
  }
  ++version_;
  return plan.rows_removed;
}

Database Database::ApplyDelta(const DeltaSet& delta) const {
  XPLAIN_CHECK(delta.size() == static_cast<size_t>(num_relations()));
  Database out;
  for (int r = 0; r < num_relations(); ++r) {
    Relation reduced(relations_[r].schema());
    reduced.Reserve(relations_[r].NumRows() - delta[r].count());
    for (size_t i = 0; i < relations_[r].NumRows(); ++i) {
      if (!delta[r].Test(i)) reduced.AppendUnchecked(relations_[r].row(i));
    }
    XPLAIN_CHECK(out.AddRelation(std::move(reduced)).ok());
  }
  for (const ForeignKey& fk : foreign_keys_) {
    Status st = out.AddForeignKey(fk);
    XPLAIN_CHECK(st.ok()) << st.ToString();
  }
  // The derived instance is one logical mutation (a tuple delta) away from
  // this one, whatever construction steps built it.
  out.version_ = version_ + 1;
  return out;
}

DeltaSet Database::EmptyDelta() const {
  DeltaSet delta;
  delta.reserve(relations_.size());
  for (const Relation& r : relations_) delta.emplace_back(r.NumRows());
  return delta;
}

std::string Database::ToString(size_t max_rows_per_relation) const {
  std::string out = "Database with " + std::to_string(num_relations()) +
                    " relations, " + std::to_string(foreign_keys_.size()) +
                    " foreign keys";
  for (const ForeignKey& fk : foreign_keys_) {
    out += "\n  " + fk.ToString();
  }
  for (const Relation& r : relations_) {
    out += '\n';
    out += r.ToString(max_rows_per_relation);
  }
  return out;
}

}  // namespace xplain
