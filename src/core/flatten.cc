#include "core/flatten.h"

#include <limits>
#include <unordered_map>

namespace xplain {

namespace {

/// A primary-key dummy value per type, chosen to avoid collisions with real
/// data in practice.
Value DummyKey(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return Value::Int(std::numeric_limits<int64_t>::min());
    case DataType::kDouble:
      return Value::Real(-std::numeric_limits<double>::infinity());
    case DataType::kString:
      return Value::Str("\x01__dummy__");
    case DataType::kBool:
    case DataType::kNull:
      return Value::Null();
  }
  return Value::Null();
}

}  // namespace

Result<FlattenResult> FlattenBackAndForth(const Database& db, int fanout) {
  if (fanout < 1) {
    return Status::InvalidArgument("fanout must be >= 1");
  }
  if (db.num_relations() != 3 || db.resolved_foreign_keys().size() != 2) {
    return Status::Unimplemented(
        "FlattenBackAndForth supports the 3-relation pattern "
        "A <- C <-> P (one standard, one back-and-forth FK)");
  }
  // Identify the pattern.
  const ResolvedForeignKey* standard = nullptr;
  const ResolvedForeignKey* bf = nullptr;
  for (const ResolvedForeignKey& fk : db.resolved_foreign_keys()) {
    if (fk.kind == ForeignKeyKind::kBackAndForth) {
      bf = &fk;
    } else {
      standard = &fk;
    }
  }
  if (standard == nullptr || bf == nullptr ||
      standard->child_relation != bf->child_relation) {
    return Status::Unimplemented(
        "expected one standard and one back-and-forth FK sharing the same "
        "child relation");
  }
  const int c_idx = bf->child_relation;
  const int p_idx = bf->parent_relation;
  const int a_idx = standard->parent_relation;
  if (a_idx == p_idx || a_idx == c_idx || p_idx == c_idx) {
    return Status::Unimplemented("degenerate relation pattern");
  }
  const Relation& a_rel = db.relation(a_idx);
  const Relation& c_rel = db.relation(c_idx);
  const Relation& p_rel = db.relation(p_idx);

  // Group members (C rows) by parent (P row).
  HashIndex p_index = HashIndex::Build(p_rel, bf->parent_attrs);
  std::vector<std::vector<size_t>> members(p_rel.NumRows());
  for (size_t i = 0; i < c_rel.NumRows(); ++i) {
    const std::vector<size_t>& match =
        p_index.Lookup(ProjectTuple(c_rel.row(i), bf->child_attrs));
    if (match.empty()) {
      return Status::ConstraintViolation(
          "dangling member row " + std::to_string(i) + " in " + c_rel.name());
    }
    members[match.front()].push_back(i);
    if (static_cast<int>(members[match.front()].size()) > fanout) {
      return Status::InvalidArgument(
          "parent " + TupleToString(p_rel.KeyOf(match.front())) + " has more "
          "than fanout=" + std::to_string(fanout) + " members");
    }
  }

  // Child -> dimension (A) row mapping.
  HashIndex a_index = HashIndex::Build(a_rel, standard->parent_attrs);
  std::vector<size_t> a_of_c(c_rel.NumRows());
  for (size_t i = 0; i < c_rel.NumRows(); ++i) {
    const std::vector<size_t>& match =
        a_index.Lookup(ProjectTuple(c_rel.row(i), standard->child_attrs));
    if (match.empty()) {
      return Status::ConstraintViolation("dangling dimension FK in " +
                                         c_rel.name());
    }
    a_of_c[i] = match.front();
  }

  FlattenResult out;
  out.fanout = fanout;

  const int64_t kDummyKad = -1;

  // Build A_i and C_i schemas: attributes renamed with an _i suffix; C_i
  // additionally gets a synthetic kad_i key.
  auto suffixed = [](const RelationSchema& schema, int copy) {
    std::vector<AttributeDef> attrs;
    for (const AttributeDef& a : schema.attributes()) {
      attrs.push_back(AttributeDef{a.name + "_" + std::to_string(copy),
                                   a.type});
    }
    return attrs;
  };

  for (int copy = 1; copy <= fanout; ++copy) {
    std::string suffix = "_";
    suffix += std::to_string(copy);

    // Which C rows occupy slot `copy`?
    std::vector<size_t> slot_rows;
    for (size_t p = 0; p < p_rel.NumRows(); ++p) {
      if (members[p].size() >= static_cast<size_t>(copy)) {
        slot_rows.push_back(members[p][copy - 1]);
      }
    }

    // A_copy: dimension rows used by this slot, plus a dummy.
    std::vector<std::string> a_keys;
    for (int pk : a_rel.schema().primary_key()) {
      a_keys.push_back(a_rel.schema().attribute(pk).name + suffix);
    }
    XPLAIN_ASSIGN_OR_RETURN(
        RelationSchema a_schema,
        RelationSchema::Create(a_rel.name() + suffix, suffixed(a_rel.schema(), copy),
                               a_keys));
    Relation a_copy(a_schema);
    std::unordered_map<size_t, bool> a_added;
    for (size_t c : slot_rows) {
      size_t a_row = a_of_c[c];
      if (a_added.emplace(a_row, true).second) {
        a_copy.AppendUnchecked(a_rel.row(a_row));
      }
    }
    // Dummy dimension row: dummy key, NULL elsewhere.
    {
      Tuple dummy(a_rel.schema().num_attributes(), Value::Null());
      for (int pk : a_rel.schema().primary_key()) {
        dummy[pk] = DummyKey(a_rel.schema().attribute(pk).type);
      }
      a_copy.AppendUnchecked(std::move(dummy));
    }
    XPLAIN_RETURN_IF_ERROR(out.db.AddRelation(std::move(a_copy)));
    out.dimension_copies.push_back(a_rel.name() + suffix);

    // C_copy: kad_copy plus the member attributes.
    std::vector<AttributeDef> c_attrs;
    c_attrs.push_back(AttributeDef{"kad" + suffix, DataType::kInt64});
    for (const AttributeDef& a : suffixed(c_rel.schema(), copy)) {
      c_attrs.push_back(a);
    }
    XPLAIN_ASSIGN_OR_RETURN(
        RelationSchema c_schema,
        RelationSchema::Create(c_rel.name() + suffix, c_attrs,
                               {"kad" + suffix}));
    Relation c_copy(c_schema);
    for (size_t c : slot_rows) {
      Tuple row;
      row.push_back(Value::Int(static_cast<int64_t>(c)));
      const Tuple& base = c_rel.row(c);
      row.insert(row.end(), base.begin(), base.end());
      c_copy.AppendUnchecked(std::move(row));
    }
    // Dummy member row referencing the dummy dimension row.
    {
      Tuple dummy(c_schema.num_attributes(), Value::Null());
      dummy[0] = Value::Int(kDummyKad);
      for (size_t j = 0; j < standard->child_attrs.size(); ++j) {
        int c_attr = standard->child_attrs[j];
        int a_attr = standard->parent_attrs[j];
        dummy[1 + c_attr] = DummyKey(a_rel.schema().attribute(a_attr).type);
      }
      c_copy.AppendUnchecked(std::move(dummy));
    }
    XPLAIN_RETURN_IF_ERROR(out.db.AddRelation(std::move(c_copy)));
    out.member_copies.push_back(c_rel.name() + suffix);
  }

  // P': kad_1..kad_f plus the parent attributes.
  std::vector<AttributeDef> p_attrs;
  for (int copy = 1; copy <= fanout; ++copy) {
    p_attrs.push_back(
        AttributeDef{"kad_" + std::to_string(copy), DataType::kInt64});
  }
  for (const AttributeDef& a : p_rel.schema().attributes()) {
    p_attrs.push_back(a);
  }
  std::vector<std::string> p_keys;
  for (int pk : p_rel.schema().primary_key()) {
    p_keys.push_back(p_rel.schema().attribute(pk).name);
  }
  XPLAIN_ASSIGN_OR_RETURN(
      RelationSchema p_schema,
      RelationSchema::Create(p_rel.name() + "_flat", p_attrs, p_keys));
  Relation p_flat(p_schema);
  for (size_t p = 0; p < p_rel.NumRows(); ++p) {
    Tuple row;
    for (int copy = 1; copy <= fanout; ++copy) {
      if (members[p].size() >= static_cast<size_t>(copy)) {
        row.push_back(Value::Int(static_cast<int64_t>(members[p][copy - 1])));
      } else {
        row.push_back(Value::Int(kDummyKad));
      }
    }
    const Tuple& base = p_rel.row(p);
    row.insert(row.end(), base.begin(), base.end());
    p_flat.AppendUnchecked(std::move(row));
  }
  XPLAIN_RETURN_IF_ERROR(out.db.AddRelation(std::move(p_flat)));
  out.fact_relation = p_rel.name() + "_flat";

  // Foreign keys: C_i -> A_i and P'.kad_i -> C_i.kad_i, all standard.
  for (int copy = 1; copy <= fanout; ++copy) {
    std::string suffix = "_";
    suffix += std::to_string(copy);
    ForeignKey c_to_a;
    c_to_a.child_relation = c_rel.name() + suffix;
    c_to_a.parent_relation = a_rel.name() + suffix;
    for (size_t j = 0; j < standard->child_attrs.size(); ++j) {
      c_to_a.child_attrs.push_back(
          c_rel.schema().attribute(standard->child_attrs[j]).name + suffix);
      c_to_a.parent_attrs.push_back(
          a_rel.schema().attribute(standard->parent_attrs[j]).name + suffix);
    }
    c_to_a.kind = ForeignKeyKind::kStandard;
    XPLAIN_RETURN_IF_ERROR(out.db.AddForeignKey(c_to_a));

    ForeignKey p_to_c;
    p_to_c.child_relation = out.fact_relation;
    p_to_c.parent_relation = c_rel.name() + suffix;
    p_to_c.child_attrs = {"kad" + suffix};
    p_to_c.parent_attrs = {"kad" + suffix};
    p_to_c.kind = ForeignKeyKind::kStandard;
    XPLAIN_RETURN_IF_ERROR(out.db.AddForeignKey(p_to_c));
  }
  return out;
}

}  // namespace xplain
