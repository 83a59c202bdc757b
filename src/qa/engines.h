#ifndef MDQA_QA_ENGINES_H_
#define MDQA_QA_ENGINES_H_

#include <string>
#include <vector>

#include "analysis/cost_model.h"
#include "base/result.h"
#include "datalog/analysis.h"
#include "qa/chase_qa.h"
#include "qa/deterministic_ws.h"
#include "qa/rewriter.h"

namespace mdqa::qa {

/// The three query-answering strategies of the paper's §IV.
enum class Engine {
  kChase,            ///< materialize the chase, evaluate on it
  kDeterministicWs,  ///< top-down proof-schema search (DeterministicWSQAns)
  kRewriting,        ///< FO/UCQ rewriting, evaluated on the raw EDB
};

const char* EngineToString(Engine e);

/// Inputs to SelectEngine beyond the program's own syntax.
struct EngineSelectOptions {
  /// The ontology layer's verdict on the paper's EGD-separability
  /// condition (§III). When false and EGDs are present, only the chase
  /// enforces them soundly.
  bool egds_separable = false;
  /// Shared cost model (program shape + EDB statistics). When null,
  /// SelectEngine builds one locally from the program's own facts. Not
  /// owned.
  const analysis::CostModel* cost_model = nullptr;
};

/// One engine's entry in the planner's cost table.
struct EngineCandidate {
  Engine engine = Engine::kChase;
  bool sound = false;
  uint64_t predicted_cost = 0;
  std::string note;  ///< why the engine is unsound; empty when sound
};

/// What the cost-based planner picked, and why — recorded verbatim in
/// the assessment report, together with the predicted cost of the
/// winner and the full candidate table.
struct EngineSelection {
  Engine engine = Engine::kChase;
  std::string reason;
  uint64_t predicted_cost = 0;
  /// Always in the order chase, deterministic-ws, rewriting.
  std::vector<EngineCandidate> candidates;
};

/// Cost-based planner over the three engines. Soundness guards run
/// first and are unchanged from the syntactic gate: stratified negation
/// and non-separable EGDs force the chase (the other engines reject or
/// ignore them); the rewriter additionally needs stickiness and
/// single-atom heads; DeterministicWS needs weak stickiness. Among the
/// sound engines the planner picks the minimum `analysis::CostModel`
/// predicted cost (ties prefer rewriting, then WS, then chase — the
/// engines with the smaller memory footprint). The decision is a pure
/// function of (rules, EDB statistics), so it is byte-stable across
/// serial/parallel and incremental/from-scratch runs.
EngineSelection SelectEngine(const datalog::Program& program,
                             const datalog::ProgramAnalysis& analysis,
                             const EngineSelectOptions& options);

/// Per-call controls for `Answer`/`CrossCheck`.
struct AnswerOptions {
  /// When non-null, threaded through the chosen engine (chase rounds,
  /// WS proof steps, rewrite iterations, and every row of query
  /// evaluation). A budget trip yields a *partial but sound* AnswerSet
  /// tagged `kTruncated` instead of an error. Not owned.
  ExecutionBudget* budget = nullptr;
  /// When non-null, the rewriting engine evaluates its UCQ disjuncts
  /// concurrently on this pool (`RewriteOptions::pool`); the chase and WS
  /// engines run serially. Answer sets are canonical, so results are
  /// identical with or without a pool (see docs/parallelism.md). Not
  /// owned.
  ThreadPool* pool = nullptr;
};

/// A set of certain-answer tuples in canonical (sorted, deduplicated)
/// form, so answer sets from different engines compare with ==.
struct AnswerSet {
  std::vector<std::vector<datalog::Term>> tuples;
  /// kTruncated when a budget cut the producing run short; the tuples
  /// are then a sound under-approximation of the certain answers.
  /// Not part of ==: equality compares tuples only.
  Completeness completeness = Completeness::kComplete;
  /// The budget status that interrupted the run (OK when complete).
  Status interruption;

  static AnswerSet Of(std::vector<std::vector<datalog::Term>> raw);

  size_t size() const { return tuples.size(); }
  bool empty() const { return tuples.empty(); }
  bool Contains(const std::vector<datalog::Term>& t) const;
  /// True iff every tuple of this set occurs in `other`.
  bool IsSubsetOf(const AnswerSet& other) const;

  friend bool operator==(const AnswerSet& a, const AnswerSet& b) {
    return a.tuples == b.tuples;
  }
  friend bool operator!=(const AnswerSet& a, const AnswerSet& b) {
    return !(a == b);
  }

  /// `{(a, b), (c, d)}` rendered through `vocab`.
  std::string ToString(const datalog::Vocabulary& vocab) const;

  /// Materializes the answers as a relation named `name` with the given
  /// attribute names (a0..aN-1 when empty). Labeled nulls render as
  /// their display strings.
  Result<Relation> ToRelation(const datalog::Vocabulary& vocab,
                              const std::string& name,
                              std::vector<std::string> attr_names) const;
};

/// Uniform entry point over the three engines (certain answers).
Result<AnswerSet> Answer(Engine engine, const datalog::Program& program,
                         const datalog::ConjunctiveQuery& query,
                         const AnswerOptions& options);

Result<AnswerSet> Answer(Engine engine, const datalog::Program& program,
                         const datalog::ConjunctiveQuery& query);

/// Runs `query` through every engine in `engines` and fails with
/// kInternal (showing both answer sets) on the first disagreement —
/// the property-test harness for engine agreement. Truncation-aware:
/// a truncated set is only required to be a *subset* of a complete one
/// (two truncated sets are not compared), and the returned set prefers
/// a complete engine's answers when any engine completed.
Result<AnswerSet> CrossCheck(const datalog::Program& program,
                             const datalog::ConjunctiveQuery& query,
                             const std::vector<Engine>& engines,
                             const AnswerOptions& options);

Result<AnswerSet> CrossCheck(const datalog::Program& program,
                             const datalog::ConjunctiveQuery& query,
                             const std::vector<Engine>& engines);

}  // namespace mdqa::qa

#endif  // MDQA_QA_ENGINES_H_
