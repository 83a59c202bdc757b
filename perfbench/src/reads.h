// The clean-read mix the assess and session workloads run against a
// prepared session: an entity lookup, a projection of the quality
// version, and a join with the GAssign categorical relation. Each read is
// PreparedContext::PrepareCleanQuery (Q -> Q^q) followed by Answer.
#ifndef MDQA_PERFBENCH_READS_H_
#define MDQA_PERFBENCH_READS_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/result.h"
#include "harness.h"
#include "qa/engines.h"
#include "quality/context.h"
#include "relational/relation.h"
#include "testgen/scenario.h"

namespace mdqa::perfbench {

enum class ReadKind { kLookup, kProjection, kJoin };
// The order the reads run in after each write or assessment. The first
// read pays the cache misses the op before it left behind; giving that to
// the projection, the slowest kind anyway, keeps the two point reads
// together, so read p50 falls inside their cluster and p90 inside the
// projections' instead of on the boundary between two kinds.
inline constexpr ReadKind kReadMix[] = {ReadKind::kProjection,
                                        ReadKind::kLookup, ReadKind::kJoin};

/// The read's query over `relation`, whose columns are (Time, Entity,
/// Value):
///   lookup      Q(T, V) :- relation(T, "e", V).
///   projection  Q(E) :- relation(T, E, V).
///   join        Q(W, V) :- relation(T, "e", V), GAssign(W, D, "e").
std::string ReadQuery(ReadKind kind, const std::string& relation,
                      const std::string& entity);

/// The answers each read must return, indexed from the quality version
/// an assessment report holds for the relation.
class ExpectedReads {
 public:
  explicit ExpectedReads(const Relation& quality_version);

  /// Empty when `answers` are right; otherwise what is wrong.
  std::string Check(ReadKind kind, const std::string& entity,
                    const qa::AnswerSet& answers,
                    const datalog::Vocabulary& vocab) const;

 private:
  /// entity -> {(time, value)} of its quality rows.
  std::map<std::string, std::set<std::pair<std::string, std::string>>>
      by_entity_;
};

struct ReadResult {
  Result<qa::AnswerSet> answers = Status::Internal("not run");
  datalog::ConjunctiveQuery query;
  double us = 0;
};

/// Runs one read, timed from prepare through answer; a non-null `tracer`
/// gets quality.query_prepare and quality.query_answer spans.
ReadResult RunRead(const quality::PreparedContext& session,
                   const std::string& text, Tracer* tracer);

/// Adds the rows a CqEvaluator over the session's instance tries for
/// `query` (EvalStats::rows_tried), and the answers it returns, to the
/// tally behind datalog.rows_per_answer.
void CountReadWork(const quality::PreparedContext& session,
                   const datalog::ConjunctiveQuery& query, LayerTally* tally);

/// Entities of the scenario's rows that the ground truth does not mark as
/// planted ghosts (corrupted attributes), sorted.
std::vector<std::string> KnownEntities(
    const testgen::GeneratedScenario& scenario);

}  // namespace mdqa::perfbench

#endif  // MDQA_PERFBENCH_READS_H_
