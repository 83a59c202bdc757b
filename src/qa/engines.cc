#include "qa/engines.h"

#include <algorithm>
#include <optional>

namespace mdqa::qa {

using datalog::ConjunctiveQuery;
using datalog::Instance;
using datalog::Program;
using datalog::Term;
using datalog::Vocabulary;

const char* EngineToString(Engine e) {
  switch (e) {
    case Engine::kChase:
      return "chase";
    case Engine::kDeterministicWs:
      return "deterministic-ws";
    case Engine::kRewriting:
      return "rewriting";
  }
  return "?";
}

EngineSelection SelectEngine(const Program& program,
                             const datalog::ProgramAnalysis& analysis,
                             const EngineSelectOptions& options) {
  bool has_negation = false;
  bool has_egds = false;
  bool multi_atom_head = false;
  for (const datalog::Rule& r : program.rules()) {
    if (r.HasNegation()) has_negation = true;
    if (r.IsEgd()) has_egds = true;
    if (r.IsTgd() && r.head.size() > 1) multi_atom_head = true;
  }
  const bool egds_blocked = has_egds && !options.egds_separable;

  std::optional<analysis::CostModel> local_model;
  const analysis::CostModel* model = options.cost_model;
  if (model == nullptr) {
    local_model.emplace(program, analysis,
                        analysis::CostModel::CollectEdbStats(program));
    model = &*local_model;
  }

  EngineSelection out;
  out.candidates.push_back(
      {Engine::kChase, true, model->PredictedChaseCost(), ""});
  {
    std::string note;
    if (has_negation) {
      note = "does not evaluate stratified negation";
    } else if (egds_blocked) {
      note = "ignores EGDs, unsound without separability";
    } else if (!analysis.IsWeaklySticky()) {
      note = "program is not weakly sticky";
    }
    out.candidates.push_back(
        {Engine::kDeterministicWs, note.empty(), model->PredictedWsCost(),
         std::move(note)});
  }
  {
    std::string note;
    if (has_negation) {
      note = "does not evaluate stratified negation";
    } else if (egds_blocked) {
      note = "ignores EGDs, unsound without separability";
    } else if (!analysis.IsSticky()) {
      note = "program is not sticky";
    } else if (multi_atom_head) {
      note = "multi-atom heads are not UCQ-rewritable";
    }
    out.candidates.push_back(
        {Engine::kRewriting, note.empty(), model->PredictedRewritingCost(),
         std::move(note)});
  }

  // Minimum predicted cost among the sound candidates; on ties prefer
  // the engines with the smaller memory footprint (rewriting, then WS,
  // then chase).
  auto rank = [](Engine e) {
    switch (e) {
      case Engine::kRewriting:
        return 0;
      case Engine::kDeterministicWs:
        return 1;
      case Engine::kChase:
        return 2;
    }
    return 3;
  };
  const EngineCandidate* best = &out.candidates[0];
  for (const EngineCandidate& c : out.candidates) {
    if (!c.sound) continue;
    if (c.predicted_cost < best->predicted_cost ||
        (c.predicted_cost == best->predicted_cost &&
         rank(c.engine) < rank(best->engine))) {
      best = &c;
    }
  }
  out.engine = best->engine;
  out.predicted_cost = best->predicted_cost;

  // Guard-forced picks keep the syntactic gate's explanations; free
  // choices record the cost comparison.
  if (has_negation) {
    out.reason =
        "rules use stratified negation, which only the chase engine "
        "evaluates";
    return out;
  }
  if (egds_blocked) {
    out.reason =
        "EGDs present without the separability guarantee: the chase "
        "must enforce them";
    return out;
  }
  std::string table;
  for (const EngineCandidate& c : out.candidates) {
    if (!table.empty()) table += ", ";
    table += EngineToString(c.engine);
    table += c.sound ? "=" + std::to_string(c.predicted_cost)
                     : std::string("=unsound (") + c.note + ")";
  }
  out.reason = std::string("cost model picked ") + EngineToString(out.engine) +
               " (" + table + " work units)";
  return out;
}

AnswerSet AnswerSet::Of(std::vector<std::vector<Term>> raw) {
  std::sort(raw.begin(), raw.end());
  raw.erase(std::unique(raw.begin(), raw.end()), raw.end());
  return AnswerSet{std::move(raw)};
}

bool AnswerSet::Contains(const std::vector<Term>& t) const {
  return std::binary_search(tuples.begin(), tuples.end(), t);
}

bool AnswerSet::IsSubsetOf(const AnswerSet& other) const {
  for (const std::vector<Term>& t : tuples) {
    if (!other.Contains(t)) return false;
  }
  return true;
}

std::string AnswerSet::ToString(const Vocabulary& vocab) const {
  std::string out = "{";
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (i > 0) out += ", ";
    out += "(";
    for (size_t j = 0; j < tuples[i].size(); ++j) {
      if (j > 0) out += ", ";
      out += vocab.TermToString(tuples[i][j]);
    }
    out += ")";
  }
  out += "}";
  return out;
}

Result<Relation> AnswerSet::ToRelation(
    const Vocabulary& vocab, const std::string& name,
    std::vector<std::string> attr_names) const {
  const size_t arity = tuples.empty() ? attr_names.size() : tuples[0].size();
  if (attr_names.empty()) {
    for (size_t i = 0; i < arity; ++i) {
      attr_names.push_back("a" + std::to_string(i));
    }
  }
  if (attr_names.size() != arity && !tuples.empty()) {
    return Status::InvalidArgument(
        "attribute-name count does not match answer arity");
  }
  MDQA_ASSIGN_OR_RETURN(RelationSchema schema,
                        RelationSchema::Create(name, attr_names));
  Relation out(std::move(schema));
  for (const std::vector<Term>& t : tuples) {
    Tuple row;
    row.reserve(t.size());
    for (Term term : t) {
      row.push_back(term.IsConstant()
                        ? vocab.ConstantValue(term.id())
                        : Value::Str(vocab.TermToString(term)));
    }
    MDQA_RETURN_IF_ERROR(out.Insert(std::move(row)));
  }
  return out;
}

Result<AnswerSet> Answer(Engine engine, const Program& program,
                         const ConjunctiveQuery& query,
                         const AnswerOptions& aopts) {
  switch (engine) {
    case Engine::kChase: {
      // Pure query answering: negative constraints are a consistency
      // concern reported by quality::Assessor, and the other engines do
      // not evaluate them either.
      datalog::ChaseOptions options;
      options.check_constraints = false;
      options.budget = aopts.budget;
      MDQA_ASSIGN_OR_RETURN(ChaseQa qa, ChaseQa::Create(program, options));
      Status interruption;
      MDQA_ASSIGN_OR_RETURN(std::vector<std::vector<Term>> tuples,
                            qa.Answers(query, aopts.budget, &interruption));
      AnswerSet out = AnswerSet::Of(std::move(tuples));
      if (qa.stats().completeness == Completeness::kTruncated) {
        out.completeness = Completeness::kTruncated;
        out.interruption = qa.stats().interruption;
      } else if (!interruption.ok()) {
        out.completeness = Completeness::kTruncated;
        out.interruption = std::move(interruption);
      }
      return out;
    }
    case Engine::kDeterministicWs: {
      WsQaOptions options;
      options.budget = aopts.budget;
      DeterministicWsQa qa(program, options);
      MDQA_ASSIGN_OR_RETURN(std::vector<std::vector<Term>> tuples,
                            qa.Answers(query));
      AnswerSet out = AnswerSet::Of(std::move(tuples));
      out.completeness = qa.stats().completeness;
      out.interruption = qa.stats().interruption;
      return out;
    }
    case Engine::kRewriting: {
      Instance edb = Instance::FromProgram(program);
      RewriteOptions options;
      options.budget = aopts.budget;
      options.pool = aopts.pool;
      RewriteStats stats;
      MDQA_ASSIGN_OR_RETURN(
          std::vector<std::vector<Term>> tuples,
          UcqRewriter::Answers(program, edb, query, options, &stats));
      AnswerSet out = AnswerSet::Of(std::move(tuples));
      out.completeness = stats.completeness;
      out.interruption = stats.interruption;
      return out;
    }
  }
  return Status::InvalidArgument("unknown engine");
}

Result<AnswerSet> Answer(Engine engine, const Program& program,
                         const ConjunctiveQuery& query) {
  return Answer(engine, program, query, AnswerOptions{});
}

Result<AnswerSet> CrossCheck(const Program& program,
                             const ConjunctiveQuery& query,
                             const std::vector<Engine>& engines,
                             const AnswerOptions& options) {
  if (engines.empty()) {
    return Status::InvalidArgument("CrossCheck needs at least one engine");
  }
  auto complete = [](const AnswerSet& s) {
    return s.completeness == Completeness::kComplete;
  };
  MDQA_ASSIGN_OR_RETURN(AnswerSet reference,
                        Answer(engines[0], program, query, options));
  size_t reference_engine = 0;
  for (size_t i = 1; i < engines.size(); ++i) {
    MDQA_ASSIGN_OR_RETURN(AnswerSet other,
                          Answer(engines[i], program, query, options));
    // Truncated runs only promise a sound subset, so: equal when both
    // complete, subset when exactly one is, unconstrained when neither.
    bool violation;
    if (complete(reference) && complete(other)) {
      violation = other != reference;
    } else if (complete(other)) {
      violation = !reference.IsSubsetOf(other);
    } else if (complete(reference)) {
      violation = !other.IsSubsetOf(reference);
    } else {
      violation = false;
    }
    if (violation) {
      const Vocabulary& vocab = *program.vocab();
      return Status::Internal(
          std::string("engine disagreement on query ") +
          vocab.QueryToString(query) + ": " +
          EngineToString(engines[reference_engine]) + " = " +
          reference.ToString(vocab) + " vs " + EngineToString(engines[i]) +
          " = " + other.ToString(vocab));
    }
    // Prefer reporting a complete engine's answers when available.
    if (!complete(reference) && complete(other)) {
      reference = std::move(other);
      reference_engine = i;
    }
  }
  return reference;
}

Result<AnswerSet> CrossCheck(const Program& program,
                             const ConjunctiveQuery& query,
                             const std::vector<Engine>& engines) {
  return CrossCheck(program, query, engines, AnswerOptions{});
}

}  // namespace mdqa::qa
