// The traced run's view of an assessment: `Assessor::Assess` and
// `Assessor::Reassess` re-composed from the public calls they are made
// of, with one span per call. The benchmark changes no engine code, so
// spans can only sit at public API boundaries; the replicas render
// byte-identical reports (the traced run gates on it), which is what
// makes their per-layer times an account of the real call.
#ifndef MDQA_PERFBENCH_REPLICA_H_
#define MDQA_PERFBENCH_REPLICA_H_

#include <cstdint>

#include "base/result.h"
#include "base/thread_pool.h"
#include "datalog/chase.h"
#include "harness.h"
#include "quality/assessor.h"
#include "quality/context.h"

namespace mdqa::perfbench {

/// `Assessor(&context).Assess(options)` with default options apart from
/// `pool`, one span per layer call: quality.build_program,
/// datalog.program_analysis, analysis.edb_stats, qa.planner,
/// analysis.lint, core.referential, quality.prepare, per assessed
/// relation quality.readoff and quality.measure, and
/// quality.release_session (dropping the prepared session, as Assess
/// does on return). Requires consistent data (the constraint check
/// passes), as every benchmark input has.
Result<quality::AssessmentReport> TracedAssess(
    const quality::QualityContext& context, ThreadPool* pool, Tracer* tracer);

/// `Assessor(&context).Reassess(session, previous)` with default
/// options: analysis.edb_stats (the session's first EdbStatistics call),
/// qa.planner, analysis.lint, core.referential, and quality.readoff /
/// quality.measure for each relation the update reaches.
Result<quality::AssessmentReport> TracedReassess(
    const quality::QualityContext& context,
    const quality::PreparedContext& session,
    const quality::AssessmentReport& previous, Tracer* tracer);

/// The split pass of quality.prepare, over a second copy of the context's
/// program: datalog.load (Instance::FromProgram), datalog.chase
/// (Chase::Run, constraints off), datalog.constraints
/// (Chase::CheckConstraints) and datalog.instance_stats
/// (Instance::CollectStatistics).
Result<ChaseCounts> SplitPrepare(const quality::QualityContext& context,
                                 ThreadPool* pool, Tracer* tracer);

}  // namespace mdqa::perfbench

#endif  // MDQA_PERFBENCH_REPLICA_H_
