#ifndef MDQA_CORE_MD_ONTOLOGY_H_
#define MDQA_CORE_MD_ONTOLOGY_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/result.h"
#include "datalog/analysis.h"
#include "datalog/program.h"
#include "md/categorical.h"
#include "md/dimension.h"

namespace mdqa::core {

/// Direction of dimensional navigation a rule performs (paper §I, §III).
enum class Navigation {
  kNone,      ///< lateral copy, no level change
  kUpward,    ///< child-level data generates parent-level data (rule (7))
  kDownward,  ///< parent-level data generates child-level data (rule (8))
  kMixed,     ///< both within one rule
};

const char* NavigationToString(Navigation n);

/// Which of the paper's syntactic shapes a dimensional rule matches.
enum class RuleForm {
  kForm4,   ///< existentials only on non-categorical attributes
  kForm10,  ///< existential categorical variables / multi-atom head
};

/// A validated dimensional rule with its classification.
struct DimensionalRule {
  datalog::Rule rule;
  RuleForm form = RuleForm::kForm4;
  Navigation navigation = Navigation::kNone;
};

/// Aggregate analysis of the ontology (paper §III–IV).
struct OntologyProperties {
  bool weakly_sticky = false;
  bool sticky = false;
  bool weakly_acyclic = false;
  std::string class_name;
  /// Paper's sufficient separability condition: every dimensional EGD
  /// equates variables occurring only at categorical positions, and no
  /// form-(10) rule is present.
  bool separable_egds = false;
  bool has_form10 = false;
  /// All dimensional rules navigate upward (or not at all) — the class
  /// with the FO/UCQ rewriting of §IV.
  bool upward_only = false;
};

/// The paper's multidimensional ontology `M = (S_M, D_M, Σ_M)`:
/// dimensions contribute the category predicates `K` and parent–child
/// predicates `O` (with their member facts), categorical relations
/// contribute `R` (with their data), and Σ_M holds the dimensional rules
/// (forms (4)/(10)) and dimensional constraints (EGDs of form (2),
/// negative constraints of form (3)). Referential constraints (form (1))
/// are enforced natively by `ValidateReferential`.
///
/// Rules and constraints are written in the parser's Datalog± syntax and
/// validated against the declared dimensional structure at add time.
class MdOntology {
 public:
  MdOntology();

  const std::shared_ptr<datalog::Vocabulary>& vocab() const { return vocab_; }

  /// Registers a dimension; its category and edge predicate names must be
  /// globally fresh.
  Status AddDimension(md::Dimension dimension);

  /// Registers a categorical relation; its categorical attributes must
  /// reference registered dimensions/categories.
  Status AddCategoricalRelation(md::CategoricalRelation relation);

  /// True if `name` is a dimensional predicate of this ontology (category,
  /// parent-child, or categorical relation).
  bool HasPredicate(const std::string& name) const;

  const md::Dimension* FindDimension(const std::string& name) const;
  const md::CategoricalRelation* FindCategoricalRelation(
      const std::string& name) const;
  std::vector<std::string> DimensionNames() const;
  std::vector<std::string> CategoricalRelationNames() const;

  /// Parses and adds a dimensional rule (a TGD over categorical, edge and
  /// category predicates), validating it against form (4) or (10) and
  /// classifying its navigation direction.
  Status AddDimensionalRule(const std::string& text);

  /// Parses and adds a dimensional constraint: an EGD (form (2)) or a
  /// negative constraint (form (3)).
  Status AddDimensionalConstraint(const std::string& text);

  /// Escape hatch: adds arbitrary Datalog± statements (rules or facts)
  /// without dimensional-form validation — used by the quality-context
  /// layer for contextual predicates.
  Status AddRawStatements(const std::string& text);

  const std::vector<DimensionalRule>& dimensional_rules() const {
    return dimensional_rules_;
  }
  const std::vector<datalog::Rule>& constraints() const {
    return constraints_;
  }
  const std::vector<md::Dimension>& dimensions() const { return dimensions_; }
  /// Statements added through the AddRawStatements escape hatch — the
  /// part of the ontology that bypassed dimensional-form validation and
  /// that mdqa_lint audits after the fact.
  const datalog::Program& raw_statements() const { return raw_; }

  /// True when position `idx` of predicate `pred` is bound to a category
  /// (a categorical attribute, a category predicate's argument, or a
  /// parent-child predicate's argument).
  bool IsCategoricalPosition(uint32_t pred, size_t idx) const {
    return !CategoryAt(pred, idx).empty();
  }
  /// True when `pred` is a dimensional predicate of this ontology.
  bool IsDimensionalPredicate(uint32_t pred) const {
    return FindPred(pred) != nullptr;
  }

  /// Public entry to the form classifier, for the linter: which paper form
  /// a TGD matches (and its navigation), or kInvalidArgument explaining
  /// why it matches none.
  Result<DimensionalRule> ClassifyDimensionalRule(
      const datalog::Rule& rule) const {
    return ClassifyRule(rule);
  }

  /// Enforces the paper's form-(1) referential constraints on every
  /// categorical relation (fast native path).
  Status ValidateReferential() const;

  /// Emits the form-(1) constraints literally, as negative constraints
  /// with stratified negation (`! :- R(x̄), not K(x_i).`), into `program`.
  /// Check them against extensional data (see the .cc comment on
  /// form-(10) nulls).
  Status EmitReferentialConstraints(datalog::Program* program) const;

  /// Assembles the full Datalog± program: dimension facts, categorical
  /// data, dimensional rules, constraints, and raw statements, all over
  /// the shared vocabulary.
  Result<datalog::Program> Compile() const;

  /// Classifies the ontology's TGD set and checks the paper's claims
  /// (weak stickiness, separability, upward-only-ness). These are
  /// properties of the rules alone, so no fact is compiled for them.
  Result<OntologyProperties> Analyze() const;

  /// Multi-line dump: dimensions (Fig. 1 rendering), relations, rules.
  std::string ToString() const;

 private:
  // What a predicate name means within this ontology.
  enum class PredKind { kCategory, kEdge, kCategoricalRelation, kOther };
  struct PredInfo {
    PredKind kind = PredKind::kOther;
    std::string dimension;   // kCategory, kEdge
    std::string parent_cat;  // kEdge
    std::string child_cat;   // kEdge
    int relation_index = -1;  // kCategoricalRelation
  };

  const PredInfo* FindPred(uint32_t pred_id) const;
  // Adds the dimensional rules, the constraints and the raw rules to
  // `program`: the rule part of Compile, and all that Analyze reads.
  Status AddRules(datalog::Program* program) const;
  Result<DimensionalRule> ClassifyRule(const datalog::Rule& rule) const;
  Status ValidateConstraintBody(const datalog::Rule& rule) const;

  // Category binding of position `idx` of predicate `pred` (empty string
  // when non-categorical or unknown).
  std::string CategoryAt(uint32_t pred, size_t idx) const;

  // True if a's category is a (transitive) ancestor of b's in the same
  // dimension.
  bool CategoryAbove(const std::string& a, const std::string& b) const;

  std::shared_ptr<datalog::Vocabulary> vocab_;
  std::vector<md::Dimension> dimensions_;
  std::map<std::string, size_t> dimension_index_;
  std::vector<md::CategoricalRelation> relations_;
  std::map<std::string, size_t> relation_index_;
  std::map<uint32_t, PredInfo> pred_info_;
  std::vector<DimensionalRule> dimensional_rules_;
  std::vector<datalog::Rule> constraints_;
  datalog::Program raw_;  // contextual extras added via AddRawStatements
};

}  // namespace mdqa::core

#endif  // MDQA_CORE_MD_ONTOLOGY_H_
