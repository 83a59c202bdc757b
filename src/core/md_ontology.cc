#include "core/md_ontology.h"

#include <algorithm>
#include <unordered_set>

#include "datalog/parser.h"

namespace mdqa::core {

using datalog::Atom;
using datalog::Program;
using datalog::Rule;
using datalog::RuleKind;
using datalog::Term;

const char* NavigationToString(Navigation n) {
  switch (n) {
    case Navigation::kNone:
      return "none";
    case Navigation::kUpward:
      return "upward";
    case Navigation::kDownward:
      return "downward";
    case Navigation::kMixed:
      return "mixed";
  }
  return "?";
}

MdOntology::MdOntology()
    : vocab_(std::make_shared<datalog::Vocabulary>()), raw_(vocab_) {}

const MdOntology::PredInfo* MdOntology::FindPred(uint32_t pred_id) const {
  auto it = pred_info_.find(pred_id);
  return it == pred_info_.end() ? nullptr : &it->second;
}

Status MdOntology::AddDimension(md::Dimension dimension) {
  const std::string& name = dimension.name();
  if (dimension_index_.count(name) > 0) {
    return Status::AlreadyExists("dimension '" + name + "' already added");
  }
  const md::DimensionSchema& schema = dimension.schema();

  // Intern category predicates (unary) and edge predicates (binary),
  // rejecting name collisions with anything already declared.
  std::vector<std::pair<uint32_t, PredInfo>> pending;
  for (const std::string& category : schema.categories()) {
    MDQA_ASSIGN_OR_RETURN(uint32_t id,
                          vocab_->InternPredicate(category, /*arity=*/1));
    if (pred_info_.count(id) > 0) {
      return Status::AlreadyExists("category predicate '" + category +
                                   "' collides with an existing predicate");
    }
    PredInfo info;
    info.kind = PredKind::kCategory;
    info.dimension = name;
    pending.emplace_back(id, std::move(info));
  }
  for (const std::string& child : schema.categories()) {
    for (const std::string& parent : schema.Parents(child)) {
      std::string edge_name = md::Dimension::EdgePredicate(parent, child);
      MDQA_ASSIGN_OR_RETURN(uint32_t id,
                            vocab_->InternPredicate(edge_name, /*arity=*/2));
      if (pred_info_.count(id) > 0) {
        return Status::AlreadyExists("edge predicate '" + edge_name +
                                     "' collides with an existing predicate");
      }
      PredInfo info;
      info.kind = PredKind::kEdge;
      info.dimension = name;
      info.parent_cat = parent;
      info.child_cat = child;
      pending.emplace_back(id, std::move(info));
    }
  }
  for (auto& [id, info] : pending) pred_info_.emplace(id, std::move(info));
  dimension_index_.emplace(name, dimensions_.size());
  dimensions_.push_back(std::move(dimension));
  return Status::Ok();
}

Status MdOntology::AddCategoricalRelation(md::CategoricalRelation relation) {
  const std::string& name = relation.name();
  if (relation_index_.count(name) > 0) {
    return Status::AlreadyExists("categorical relation '" + name +
                                 "' already added");
  }
  for (const md::CategoricalAttribute& a : relation.attributes()) {
    if (!a.is_categorical) continue;
    const md::Dimension* dim = FindDimension(a.dimension);
    if (dim == nullptr) {
      return Status::NotFound("attribute '" + a.name + "' of " + name +
                              " references unknown dimension '" + a.dimension +
                              "'");
    }
    if (!dim->schema().HasCategory(a.category)) {
      return Status::NotFound("attribute '" + a.name + "' of " + name +
                              " references unknown category '" + a.category +
                              "'");
    }
  }
  MDQA_ASSIGN_OR_RETURN(uint32_t id,
                        vocab_->InternPredicate(name, relation.arity()));
  if (pred_info_.count(id) > 0) {
    return Status::AlreadyExists("categorical relation '" + name +
                                 "' collides with an existing predicate");
  }
  PredInfo info;
  info.kind = PredKind::kCategoricalRelation;
  info.relation_index = static_cast<int>(relations_.size());
  pred_info_.emplace(id, std::move(info));
  relation_index_.emplace(name, relations_.size());
  relations_.push_back(std::move(relation));
  return Status::Ok();
}

bool MdOntology::HasPredicate(const std::string& name) const {
  uint32_t id = vocab_->FindPredicate(name);
  return id != StringPool::kNotFound && pred_info_.count(id) > 0;
}

const md::Dimension* MdOntology::FindDimension(const std::string& name) const {
  auto it = dimension_index_.find(name);
  return it == dimension_index_.end() ? nullptr : &dimensions_[it->second];
}

const md::CategoricalRelation* MdOntology::FindCategoricalRelation(
    const std::string& name) const {
  auto it = relation_index_.find(name);
  return it == relation_index_.end() ? nullptr : &relations_[it->second];
}

std::vector<std::string> MdOntology::DimensionNames() const {
  std::vector<std::string> out;
  for (const md::Dimension& d : dimensions_) out.push_back(d.name());
  return out;
}

std::vector<std::string> MdOntology::CategoricalRelationNames() const {
  std::vector<std::string> out;
  for (const md::CategoricalRelation& r : relations_) out.push_back(r.name());
  return out;
}

std::string MdOntology::CategoryAt(uint32_t pred, size_t idx) const {
  const PredInfo* info = FindPred(pred);
  if (info == nullptr) return "";
  switch (info->kind) {
    case PredKind::kCategory:
      return idx == 0 ? vocab_->PredicateName(pred) : "";
    case PredKind::kEdge:
      if (idx == 0) return info->parent_cat;
      if (idx == 1) return info->child_cat;
      return "";
    case PredKind::kCategoricalRelation: {
      const md::CategoricalRelation& rel =
          relations_[static_cast<size_t>(info->relation_index)];
      if (idx >= rel.arity()) return "";
      const md::CategoricalAttribute& a = rel.attributes()[idx];
      return a.is_categorical ? a.category : "";
    }
    case PredKind::kOther:
      return "";
  }
  return "";
}

bool MdOntology::CategoryAbove(const std::string& a,
                               const std::string& b) const {
  if (a.empty() || b.empty()) return false;
  for (const md::Dimension& d : dimensions_) {
    if (d.schema().HasCategory(a) && d.schema().HasCategory(b)) {
      return d.schema().IsAncestor(/*low=*/b, /*high=*/a);
    }
  }
  return false;
}

namespace {

// Parses `text` expecting exactly one statement (a rule), sharing `vocab`.
Result<Rule> ParseSingleRule(const std::string& text,
                             const std::shared_ptr<datalog::Vocabulary>& vocab) {
  Program scratch(vocab);
  MDQA_RETURN_IF_ERROR(datalog::Parser::ParseInto(text, &scratch));
  if (scratch.rules().size() != 1 || !scratch.facts().empty()) {
    return Status::InvalidArgument(
        "expected exactly one rule statement, got " +
        std::to_string(scratch.rules().size()) + " rules and " +
        std::to_string(scratch.facts().size()) + " facts");
  }
  return scratch.rules()[0];
}

bool OccursIn(const std::vector<Atom>& atoms, uint32_t var) {
  for (const Atom& a : atoms) {
    for (Term t : a.terms) {
      if (t.IsVariable() && t.id() == var) return true;
    }
  }
  return false;
}

}  // namespace

Result<DimensionalRule> MdOntology::ClassifyRule(const Rule& rule) const {
  if (!rule.IsTgd()) {
    return Status::InvalidArgument("dimensional rules must be TGDs");
  }
  if (rule.HasNegation()) {
    return Status::InvalidArgument(
        "dimensional rules (forms (4)/(10)) are negation-free; use "
        "AddDimensionalConstraint or AddRawStatements for negation");
  }
  // Body: only dimensional predicates.
  for (const Atom& a : rule.body) {
    const PredInfo* info = FindPred(a.predicate);
    if (info == nullptr) {
      return Status::InvalidArgument(
          "body predicate '" + vocab_->PredicateName(a.predicate) +
          "' is not a dimensional predicate (category, parent-child, or "
          "categorical relation); use AddRawStatements for contextual rules");
    }
  }
  // Head: categorical relation atoms, plus edge atoms (form (10) only).
  size_t head_catrel_atoms = 0;
  size_t head_edge_atoms = 0;
  for (const Atom& a : rule.head) {
    const PredInfo* info = FindPred(a.predicate);
    if (info == nullptr) {
      return Status::InvalidArgument(
          "head predicate '" + vocab_->PredicateName(a.predicate) +
          "' is not a dimensional predicate");
    }
    if (info->kind == PredKind::kCategoricalRelation) {
      ++head_catrel_atoms;
    } else if (info->kind == PredKind::kEdge) {
      ++head_edge_atoms;
    } else {
      return Status::InvalidArgument(
          "head atoms must be categorical relations or parent-child "
          "predicates, not category predicates");
    }
  }
  if (head_catrel_atoms != 1) {
    return Status::InvalidArgument(
        "a dimensional rule must have exactly one categorical-relation head "
        "atom (split conjunctive heads per the paper's footnote 2)");
  }

  const std::vector<uint32_t> existential = rule.ExistentialVariables();
  const std::unordered_set<uint32_t> exist_set(existential.begin(),
                                               existential.end());

  // Does any existential variable sit at a categorical position?
  bool existential_categorical = false;
  for (const Atom& a : rule.head) {
    for (size_t i = 0; i < a.terms.size(); ++i) {
      Term t = a.terms[i];
      if (t.IsVariable() && exist_set.count(t.id()) > 0 &&
          !CategoryAt(a.predicate, i).empty()) {
        existential_categorical = true;
      }
    }
  }

  DimensionalRule out;
  out.rule = rule;
  out.form = (head_edge_atoms > 0 || existential_categorical)
                 ? RuleForm::kForm10
                 : RuleForm::kForm4;

  if (out.form == RuleForm::kForm4) {
    // Paper's side condition: variables shared between body atoms occur
    // only at categorical positions of categorical relations.
    for (uint32_t v : rule.BodyVariables()) {
      size_t atom_count = 0;
      bool at_plain_catrel_pos = false;
      for (const Atom& a : rule.body) {
        bool in_atom = false;
        for (size_t i = 0; i < a.terms.size(); ++i) {
          Term t = a.terms[i];
          if (!t.IsVariable() || t.id() != v) continue;
          in_atom = true;
          const PredInfo* info = FindPred(a.predicate);
          if (info->kind == PredKind::kCategoricalRelation &&
              CategoryAt(a.predicate, i).empty()) {
            at_plain_catrel_pos = true;
          }
        }
        if (in_atom) ++atom_count;
      }
      if (atom_count >= 2 && at_plain_catrel_pos) {
        return Status::InvalidArgument(
            "form (4) violation: join variable '" + vocab_->VariableName(v) +
            "' occurs at a non-categorical attribute; shared body variables "
            "must be categorical");
      }
    }
  } else {
    // Form (10) level condition: body categorical attributes must refer to
    // categories at the same or a higher level than the head's, per
    // dimension.
    for (const Atom& ha : rule.head) {
      const PredInfo* hinfo = FindPred(ha.predicate);
      if (hinfo->kind != PredKind::kCategoricalRelation) continue;
      for (size_t i = 0; i < ha.terms.size(); ++i) {
        std::string c_head = CategoryAt(ha.predicate, i);
        if (c_head.empty()) continue;
        for (const Atom& ba : rule.body) {
          const PredInfo* binfo = FindPred(ba.predicate);
          if (binfo->kind != PredKind::kCategoricalRelation) continue;
          for (size_t j = 0; j < ba.terms.size(); ++j) {
            std::string c_body = CategoryAt(ba.predicate, j);
            if (c_body.empty()) continue;
            // Only compare within the same dimension.
            bool same_dim = false;
            for (const md::Dimension& d : dimensions_) {
              if (d.schema().HasCategory(c_head) &&
                  d.schema().HasCategory(c_body)) {
                same_dim = true;
                break;
              }
            }
            if (!same_dim) continue;
            if (c_body != c_head && !CategoryAbove(c_body, c_head)) {
              return Status::InvalidArgument(
                  "form (10) violation: body category " + c_body +
                  " is below head category " + c_head +
                  "; downward rules must navigate from higher levels");
            }
          }
        }
      }
    }
  }

  // Navigation classification via the paper's join criterion: for a body
  // parent-child atom D(p, c), upward navigation when the child joins a
  // body categorical atom and the parent flows to the head, downward when
  // the parent joins the body and the child flows to the head.
  bool up = false;
  bool down = false;
  auto at_body_categorical_position = [&](Term t) {
    if (!t.IsVariable()) return false;
    for (const Atom& a : rule.body) {
      const PredInfo* info = FindPred(a.predicate);
      if (info->kind != PredKind::kCategoricalRelation) continue;
      for (size_t i = 0; i < a.terms.size(); ++i) {
        if (a.terms[i] == t && !CategoryAt(a.predicate, i).empty()) {
          return true;
        }
      }
    }
    return false;
  };
  for (const Atom& a : rule.body) {
    const PredInfo* info = FindPred(a.predicate);
    if (info->kind != PredKind::kEdge || a.terms.size() != 2) continue;
    Term parent = a.terms[0];
    Term child = a.terms[1];
    bool parent_in_head =
        parent.IsVariable() && OccursIn(rule.head, parent.id());
    bool child_in_head = child.IsVariable() && OccursIn(rule.head, child.id());
    if (at_body_categorical_position(child) && parent_in_head) up = true;
    if (at_body_categorical_position(parent) && child_in_head) down = true;
  }
  if (head_edge_atoms > 0 || existential_categorical) down = true;
  out.navigation = up && down ? Navigation::kMixed
                   : up       ? Navigation::kUpward
                   : down     ? Navigation::kDownward
                              : Navigation::kNone;
  return out;
}

Status MdOntology::AddDimensionalRule(const std::string& text) {
  MDQA_ASSIGN_OR_RETURN(Rule rule, ParseSingleRule(text, vocab_));
  MDQA_ASSIGN_OR_RETURN(DimensionalRule classified, ClassifyRule(rule));
  dimensional_rules_.push_back(std::move(classified));
  return Status::Ok();
}

Status MdOntology::ValidateConstraintBody(const Rule& rule) const {
  for (const Atom& a : rule.body) {
    if (FindPred(a.predicate) == nullptr) {
      return Status::InvalidArgument(
          "constraint body predicate '" + vocab_->PredicateName(a.predicate) +
          "' is not a dimensional predicate");
    }
  }
  for (const Atom& a : rule.negated) {
    if (FindPred(a.predicate) == nullptr) {
      return Status::InvalidArgument(
          "negated constraint predicate '" +
          vocab_->PredicateName(a.predicate) +
          "' is not a dimensional predicate");
    }
  }
  return Status::Ok();
}

Status MdOntology::EmitReferentialConstraints(datalog::Program* program) const {
  // The paper's form (1), literally: `⊥ ← R(ē; ā), ¬K(e)` for every
  // categorical attribute. Evaluate these against *extensional* data:
  // form-(10) rules intentionally invent child members as labeled nulls,
  // which closed-world negation would flag (the paper notes these rules
  // "may generate new members"). ValidateReferential() is the fast path
  // with the same semantics.
  for (const md::CategoricalRelation& rel : relations_) {
    uint32_t rel_pred = vocab_->FindPredicate(rel.name());
    for (size_t i : rel.CategoricalPositions()) {
      const md::CategoricalAttribute& attr = rel.attributes()[i];
      uint32_t cat_pred = vocab_->FindPredicate(attr.category);
      if (rel_pred == StringPool::kNotFound ||
          cat_pred == StringPool::kNotFound) {
        return Status::Internal("referential constraint on unknown predicate");
      }
      Rule nc;
      nc.kind = RuleKind::kConstraint;
      nc.label = "form(1) " + rel.name() + "." + attr.name;
      std::vector<Term> vars;
      for (size_t j = 0; j < rel.arity(); ++j) {
        vars.push_back(vocab_->Var("$ref" + std::to_string(j)));
      }
      nc.body.push_back(Atom(rel_pred, vars));
      nc.negated.push_back(Atom(cat_pred, {vars[i]}));
      MDQA_RETURN_IF_ERROR(program->AddRule(std::move(nc)));
    }
  }
  return Status::Ok();
}

Status MdOntology::AddDimensionalConstraint(const std::string& text) {
  MDQA_ASSIGN_OR_RETURN(Rule rule, ParseSingleRule(text, vocab_));
  if (!rule.IsEgd() && !rule.IsConstraint()) {
    return Status::InvalidArgument(
        "dimensional constraints must be EGDs (form (2)) or negative "
        "constraints (form (3))");
  }
  MDQA_RETURN_IF_ERROR(ValidateConstraintBody(rule));
  constraints_.push_back(std::move(rule));
  return Status::Ok();
}

Status MdOntology::AddRawStatements(const std::string& text) {
  return datalog::Parser::ParseInto(text, &raw_);
}

Status MdOntology::ValidateReferential() const {
  std::map<std::string, const md::Dimension*> dims;
  for (const md::Dimension& d : dimensions_) dims.emplace(d.name(), &d);
  for (const md::CategoricalRelation& r : relations_) {
    MDQA_RETURN_IF_ERROR(r.ValidateReferential(dims));
  }
  return Status::Ok();
}

Status MdOntology::AddRules(Program* program) const {
  for (const DimensionalRule& dr : dimensional_rules_) {
    MDQA_RETURN_IF_ERROR(program->AddRule(dr.rule));
  }
  for (const Rule& c : constraints_) {
    MDQA_RETURN_IF_ERROR(program->AddRule(c));
  }
  for (const Rule& r : raw_.rules()) {
    MDQA_RETURN_IF_ERROR(program->AddRule(r));
  }
  return Status::Ok();
}

Result<Program> MdOntology::Compile() const {
  Program program(vocab_);
  for (const md::Dimension& d : dimensions_) {
    MDQA_RETURN_IF_ERROR(d.EmitFacts(&program));
  }
  for (const md::CategoricalRelation& r : relations_) {
    MDQA_RETURN_IF_ERROR(r.EmitFacts(&program));
  }
  MDQA_RETURN_IF_ERROR(AddRules(&program));
  for (const Atom& f : raw_.facts()) {
    MDQA_RETURN_IF_ERROR(program.AddFact(f));
  }
  return program;
}

Result<OntologyProperties> MdOntology::Analyze() const {
  Program program(vocab_);
  MDQA_RETURN_IF_ERROR(AddRules(&program));
  datalog::ProgramAnalysis analysis(program);
  OntologyProperties props;
  props.weakly_sticky = analysis.IsWeaklySticky();
  props.sticky = analysis.IsSticky();
  props.weakly_acyclic = analysis.IsWeaklyAcyclic();
  props.class_name = analysis.ClassName();
  props.has_form10 = std::any_of(
      dimensional_rules_.begin(), dimensional_rules_.end(),
      [](const DimensionalRule& r) { return r.form == RuleForm::kForm10; });
  props.upward_only =
      !props.has_form10 &&
      std::all_of(dimensional_rules_.begin(), dimensional_rules_.end(),
                  [](const DimensionalRule& r) {
                    return r.navigation == Navigation::kUpward ||
                           r.navigation == Navigation::kNone;
                  });

  // Separability (paper §III): EGD head variables occur only at
  // categorical positions, and no form-(10) rules.
  props.separable_egds = !props.has_form10;
  for (const Rule& c : constraints_) {
    if (!c.IsEgd()) continue;
    for (uint32_t v : {c.egd_lhs.id(), c.egd_rhs.id()}) {
      for (const Atom& a : c.body) {
        for (size_t i = 0; i < a.terms.size(); ++i) {
          Term t = a.terms[i];
          if (t.IsVariable() && t.id() == v &&
              CategoryAt(a.predicate, i).empty()) {
            props.separable_egds = false;
          }
        }
      }
    }
  }
  return props;
}

std::string MdOntology::ToString() const {
  std::string out;
  for (const md::Dimension& d : dimensions_) out += d.ToString();
  for (const md::CategoricalRelation& r : relations_) {
    out += r.data().ToTable();
  }
  for (const DimensionalRule& dr : dimensional_rules_) {
    out += vocab_->RuleToString(dr.rule);
    out += "   % form(";
    out += dr.form == RuleForm::kForm4 ? "4" : "10";
    out += "), ";
    out += NavigationToString(dr.navigation);
    out += "\n";
  }
  for (const Rule& c : constraints_) {
    out += vocab_->RuleToString(c);
    out += "\n";
  }
  return out;
}

}  // namespace mdqa::core
