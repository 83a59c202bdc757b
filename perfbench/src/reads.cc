#include "reads.h"

#include "datalog/cq_eval.h"

namespace mdqa::perfbench {

std::string ReadQuery(ReadKind kind, const std::string& relation,
                      const std::string& entity) {
  const std::string e = "\"" + entity + "\"";
  switch (kind) {
    case ReadKind::kLookup:
      return "Q(T, V) :- " + relation + "(T, " + e + ", V).";
    case ReadKind::kProjection:
      return "Q(E) :- " + relation + "(T, E, V).";
    case ReadKind::kJoin:
      return "Q(W, V) :- " + relation + "(T, " + e + ", V), GAssign(W, D, " +
             e + ").";
  }
  return "";
}

ExpectedReads::ExpectedReads(const Relation& quality_version) {
  for (const Tuple& row : quality_version.rows()) {
    by_entity_[row[1].ToString()].emplace(row[0].ToString(),
                                          row[2].ToString());
  }
}

std::string ExpectedReads::Check(ReadKind kind, const std::string& entity,
                                 const qa::AnswerSet& answers,
                                 const datalog::Vocabulary& vocab) const {
  if (answers.completeness != Completeness::kComplete) {
    return "read answered partially: " + answers.interruption.ToString();
  }
  std::set<std::pair<std::string, std::string>> pairs;
  std::set<std::string> singles;
  for (const auto& tuple : answers.tuples) {
    if (tuple.size() != (kind == ReadKind::kProjection ? 1u : 2u)) {
      return "read answer of the wrong arity";
    }
    if (kind == ReadKind::kProjection) {
      singles.insert(vocab.TermToDisplayString(tuple[0]));
    } else {
      pairs.emplace(vocab.TermToDisplayString(tuple[0]),
                    vocab.TermToDisplayString(tuple[1]));
    }
  }
  static const std::set<std::pair<std::string, std::string>> kNone;
  auto it = by_entity_.find(entity);
  const auto& rows = it == by_entity_.end() ? kNone : it->second;
  switch (kind) {
    case ReadKind::kLookup:
      if (pairs != rows) return "lookup of " + entity + " disagrees with S^q";
      break;
    case ReadKind::kProjection: {
      std::set<std::string> expected;
      for (const auto& [e, unused] : by_entity_) expected.insert(e);
      if (singles != expected) return "projection disagrees with S^q";
      break;
    }
    case ReadKind::kJoin: {
      // Every known entity has GAssign facts, so the join keeps exactly
      // the entity's quality values, each beside some ward.
      std::set<std::string> values, expected;
      for (const auto& [ward, value] : pairs) {
        if (ward.empty()) return "join answered an empty ward";
        values.insert(value);
      }
      for (const auto& [time, value] : rows) expected.insert(value);
      if (values != expected) return "join of " + entity + " disagrees";
      break;
    }
  }
  return "";
}

ReadResult RunRead(const quality::PreparedContext& session,
                   const std::string& text, Tracer* tracer) {
  ReadResult out;
  const Clock::time_point start = Clock::now();
  Result<datalog::ConjunctiveQuery> query = Status::Internal("unreached");
  {
    Tracer::Scope span(tracer, "quality.query_prepare");
    query = session.PrepareCleanQuery(text);
  }
  if (query.ok()) {
    Tracer::Scope span(tracer, "quality.query_answer");
    out.answers = session.Answer(*query);
  } else {
    out.answers = query.status();
  }
  out.us = Us(start, Clock::now());
  if (query.ok()) out.query = std::move(*query);
  return out;
}

void CountReadWork(const quality::PreparedContext& session,
                   const datalog::ConjunctiveQuery& query, LayerTally* tally) {
  datalog::EvalStats stats;
  datalog::CqEvaluator evaluator(session.instance(), &stats);
  Result<std::vector<std::vector<datalog::Term>>> answers =
      evaluator.Answers(query);
  tally->rows_tried += stats.rows_tried;
  if (answers.ok()) tally->answers += answers->size();
}

std::vector<std::string> KnownEntities(
    const testgen::GeneratedScenario& scenario) {
  std::set<std::string> known;
  for (const testgen::TupleVerdict& v : scenario.truth) {
    if (v.violation != testgen::ViolationKind::kCorruptAttribute) {
      known.insert(v.fields[1]);
    }
  }
  return {known.begin(), known.end()};
}

}  // namespace mdqa::perfbench
