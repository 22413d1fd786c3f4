#include "datalog/program_p.h"

#include <numeric>
#include <unordered_map>

namespace xplain {
namespace datalog {

namespace {

/// Union-find over (relation, attribute) pairs so FK-linked attributes
/// share one datalog variable, mirroring the paper's "all x_i use the same
/// variable for the same attribute".
class VariableAssigner {
 public:
  explicit VariableAssigner(const Database& db) : db_(&db) {
    offsets_.assign(db.num_relations() + 1, 0);
    for (int r = 0; r < db.num_relations(); ++r) {
      offsets_[r + 1] =
          offsets_[r] + db.relation(r).schema().num_attributes();
    }
    parent_.resize(offsets_.back());
    std::iota(parent_.begin(), parent_.end(), 0);
    for (const ResolvedForeignKey& fk : db.resolved_foreign_keys()) {
      for (size_t i = 0; i < fk.child_attrs.size(); ++i) {
        Union(Id(fk.child_relation, fk.child_attrs[i]),
              Id(fk.parent_relation, fk.parent_attrs[i]));
      }
    }
  }

  std::string VariableFor(int relation, int attribute) {
    std::string name = "v";
    name += std::to_string(Find(Id(relation, attribute)));
    return name;
  }

  /// The full variable vector x_i of relation i.
  std::vector<Term> TermsFor(int relation) {
    std::vector<Term> terms;
    const int n = db_->relation(relation).schema().num_attributes();
    terms.reserve(n);
    for (int a = 0; a < n; ++a) {
      terms.push_back(Term::Var(VariableFor(relation, a)));
    }
    return terms;
  }

 private:
  int Id(int relation, int attribute) const {
    return offsets_[relation] + attribute;
  }
  int Find(int x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(int a, int b) { parent_[Find(a)] = Find(b); }

  const Database* db_;
  std::vector<int> offsets_;
  std::vector<int> parent_;
};

}  // namespace

Result<DeltaSet> RunProgramPDatalog(const Database& db,
                                    const ConjunctivePredicate& phi,
                                    size_t* rounds_out) {
  const int k = db.num_relations();
  Program program;
  VariableAssigner vars(db);

  // Declare R_i (EDB), S_i / T_i (transient IDBs), Delta_i (persistent).
  for (int r = 0; r < k; ++r) {
    const std::string name = db.relation(r).name();
    const int arity = db.relation(r).schema().num_attributes();
    XPLAIN_RETURN_IF_ERROR(program.DeclareRelation(name, arity));
    XPLAIN_RETURN_IF_ERROR(
        program.DeclareRelation("S_" + name, arity, /*transient=*/true));
    XPLAIN_RETURN_IF_ERROR(
        program.DeclareRelation("T_" + name, arity, /*transient=*/true));
    XPLAIN_RETURN_IF_ERROR(program.DeclareRelation("Delta_" + name, arity));
    for (size_t row = 0; row < db.relation(r).NumRows(); ++row) {
      XPLAIN_RETURN_IF_ERROR(program.AddFact(name, db.relation(r).row(row)));
    }
  }

  // The !phi builtin over the variables phi mentions.
  Builtin not_phi;
  {
    std::vector<const AtomicPredicate*> atoms;
    for (const AtomicPredicate& atom : phi.atoms()) {
      atoms.push_back(&atom);
      not_phi.variables.push_back(
          vars.VariableFor(atom.column.relation, atom.column.attribute));
    }
    not_phi.predicate = [atoms](const std::vector<Value>& args) {
      for (size_t i = 0; i < atoms.size(); ++i) {
        if (!atoms[i]->Eval(args[i])) return true;  // phi fails -> !phi
      }
      return false;  // phi holds
    };
  }

  // The universal-join body R_1(x_1), ..., R_k(x_k).
  std::vector<Atom> universal_body;
  for (int r = 0; r < k; ++r) {
    universal_body.push_back(
        Atom::Positive(db.relation(r).name(), vars.TermsFor(r)));
  }

  for (int r = 0; r < k; ++r) {
    const std::string name = db.relation(r).name();
    std::vector<Term> x_i = vars.TermsFor(r);

    // S_i(x_i) :- R_1(x_1), ..., R_k(x_k), !phi(x).
    Rule s_rule;
    s_rule.head = Atom::Positive("S_" + name, x_i);
    s_rule.body = universal_body;
    s_rule.builtins.push_back(not_phi);
    XPLAIN_RETURN_IF_ERROR(program.AddRule(std::move(s_rule)));

    // Delta_i(x_i) :- R_i(x_i), !S_i(x_i).        (Rule (i))
    Rule seed_rule;
    seed_rule.head = Atom::Positive("Delta_" + name, x_i);
    seed_rule.body = {Atom::Positive(name, x_i),
                      Atom::Negative("S_" + name, x_i)};
    XPLAIN_RETURN_IF_ERROR(program.AddRule(std::move(seed_rule)));

    // T_i(x_i) :- R_1(x_1), !Delta_1(x_1), ..., R_k(x_k), !Delta_k(x_k).
    Rule t_rule;
    t_rule.head = Atom::Positive("T_" + name, x_i);
    for (int j = 0; j < k; ++j) {
      std::vector<Term> x_j = vars.TermsFor(j);
      t_rule.body.push_back(
          Atom::Positive(db.relation(j).name(), x_j));
      t_rule.body.push_back(
          Atom::Negative("Delta_" + db.relation(j).name(), x_j));
    }
    XPLAIN_RETURN_IF_ERROR(program.AddRule(std::move(t_rule)));

    // Delta_i(x_i) :- R_i(x_i), !T_i(x_i).        (Rule (ii))
    Rule reduce_rule;
    reduce_rule.head = Atom::Positive("Delta_" + name, x_i);
    reduce_rule.body = {Atom::Positive(name, x_i),
                        Atom::Negative("T_" + name, x_i)};
    XPLAIN_RETURN_IF_ERROR(program.AddRule(std::move(reduce_rule)));
  }

  // Delta_i(x_i) :- R_i(x_i), Delta_j(x_j) per back-and-forth FK (Rule
  // (iii)); the shared pk/fk variables make the join implicit.
  for (const ResolvedForeignKey& fk : db.resolved_foreign_keys()) {
    if (fk.kind != ForeignKeyKind::kBackAndForth) continue;
    const std::string parent = db.relation(fk.parent_relation).name();
    const std::string child = db.relation(fk.child_relation).name();
    Rule back_rule;
    back_rule.head =
        Atom::Positive("Delta_" + parent, vars.TermsFor(fk.parent_relation));
    back_rule.body = {
        Atom::Positive(parent, vars.TermsFor(fk.parent_relation)),
        Atom::Positive("Delta_" + child, vars.TermsFor(fk.child_relation))};
    XPLAIN_RETURN_IF_ERROR(program.AddRule(std::move(back_rule)));
  }

  XPLAIN_ASSIGN_OR_RETURN(size_t rounds, program.Evaluate());
  if (rounds_out != nullptr) *rounds_out = rounds;

  // Translate Delta facts back to row indices.
  DeltaSet delta = db.EmptyDelta();
  for (int r = 0; r < k; ++r) {
    const Relation& rel = db.relation(r);
    std::unordered_map<Tuple, size_t, TupleHash, TupleEq> row_of;
    row_of.reserve(rel.NumRows());
    for (size_t row = 0; row < rel.NumRows(); ++row) {
      row_of.emplace(rel.row(row), row);
    }
    for (const Tuple& fact : program.Facts("Delta_" + rel.name())) {
      auto it = row_of.find(fact);
      if (it == row_of.end()) {
        return Status::Internal("derived Delta fact not found in " +
                                rel.name());
      }
      delta[r].Set(it->second);
    }
  }
  return delta;
}

}  // namespace datalog
}  // namespace xplain
