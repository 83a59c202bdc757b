#include "qa/chase_qa.h"

namespace mdqa::qa {

using datalog::Chase;
using datalog::ChaseOptions;
using datalog::ChaseStats;
using datalog::ConjunctiveQuery;
using datalog::CqEvaluator;
using datalog::Instance;
using datalog::Program;
using datalog::Term;

Result<ChaseQa> ChaseQa::Create(const Program& program,
                                const ChaseOptions& options) {
  Instance instance = Instance::FromProgram(program);
  MDQA_ASSIGN_OR_RETURN(ChaseStats stats,
                        Chase::Run(program, &instance, options));
  return ChaseQa(program, options, std::move(instance), stats);
}

Result<ChaseQa> ChaseQa::Adopt(Program program, const ChaseOptions& options,
                               Instance instance, ChaseStats stats) {
  if (instance.vocab().get() != program.vocab().get()) {
    return Status::InvalidArgument(
        "ChaseQa::Adopt: instance and program must share one vocabulary");
  }
  if (stats.frontier.valid &&
      stats.frontier.generation != instance.generation()) {
    return Status::FailedPrecondition(
        "ChaseQa::Adopt: frontier generation " +
        std::to_string(stats.frontier.generation) +
        " does not match instance generation " +
        std::to_string(instance.generation()));
  }
  return ChaseQa(std::move(program), options, std::move(instance), stats);
}

Result<ChaseStats> ChaseQa::Extend(const std::vector<datalog::Atom>& facts) {
  // Keep the program's extensional set in sync first: Chase::Extend's
  // fallback path (and any later one) rebuilds from program_.facts(). A
  // non-ground fact rejects the whole batch before any of it is added.
  for (const datalog::Atom& f : facts) {
    if (!f.IsGround()) {
      return Status::InvalidArgument("new facts must be ground");
    }
  }
  for (const datalog::Atom& f : facts) {
    MDQA_RETURN_IF_ERROR(program_.AddFact(f));
  }
  ChaseStats stats;
  MDQA_RETURN_IF_ERROR(Chase::Extend(program_, &instance_, stats_.frontier,
                                     facts, options_, &stats));
  stats_ = stats;
  return stats;
}

Result<ChaseStats> ChaseQa::Update(const std::vector<datalog::Atom>& inserts,
                                   const std::vector<datalog::Atom>& deletes) {
  if (deletes.empty()) return Extend(inserts);
  // Deletions are non-monotone: no frontier-seeded restart can retract
  // the consequences of a removed fact. Rebuild the extensional set and
  // re-chase from scratch — exact, and recorded as a fallback.
  std::vector<bool> removed(deletes.size(), false);
  Program next(program_.vocab());
  for (const datalog::Rule& r : program_.rules()) {
    MDQA_RETURN_IF_ERROR(next.AddRule(r));
  }
  for (const datalog::Atom& f : program_.facts()) {
    bool keep = true;
    for (size_t i = 0; i < deletes.size(); ++i) {
      if (f == deletes[i]) {
        removed[i] = true;
        keep = false;
        break;
      }
    }
    if (keep) MDQA_RETURN_IF_ERROR(next.AddFact(f));
  }
  for (size_t i = 0; i < deletes.size(); ++i) {
    if (!removed[i]) {
      return Status::NotFound("cannot delete " +
                              program_.vocab()->AtomToString(deletes[i]) +
                              ": not an extensional fact");
    }
  }
  for (const datalog::Atom& f : inserts) {
    MDQA_RETURN_IF_ERROR(next.AddFact(f));
  }
  Instance instance = Instance::FromProgram(next);
  ChaseStats stats;
  MDQA_RETURN_IF_ERROR(Chase::Run(next, &instance, options_, &stats));
  stats.incremental = true;
  stats.extend_fallback = true;
  stats.fallback_reason = "deletions require a full re-chase";
  program_ = std::move(next);
  instance_ = std::move(instance);
  stats_ = stats;
  return stats;
}

Result<std::vector<std::vector<Term>>> ChaseQa::Answers(
    const ConjunctiveQuery& query, ExecutionBudget* budget,
    Status* interruption) const {
  CqEvaluator eval(instance_, nullptr, budget);
  MDQA_ASSIGN_OR_RETURN(std::vector<std::vector<Term>> all,
                        eval.Answers(query, interruption));
  std::vector<std::vector<Term>> certain;
  for (std::vector<Term>& t : all) {
    if (!CqEvaluator::HasNull(t)) certain.push_back(std::move(t));
  }
  return certain;
}

Result<std::vector<std::vector<Term>>> ChaseQa::PossibleAnswers(
    const ConjunctiveQuery& query, ExecutionBudget* budget,
    Status* interruption) const {
  CqEvaluator eval(instance_, nullptr, budget);
  return eval.Answers(query, interruption);
}

Result<bool> ChaseQa::AnswerBoolean(const ConjunctiveQuery& query,
                                    ExecutionBudget* budget,
                                    Status* interruption) const {
  CqEvaluator eval(instance_, nullptr, budget);
  return eval.AnswerBoolean(query, interruption);
}

}  // namespace mdqa::qa
