// The benchmark's workloads. Each is a closed loop driven through the
// library's public API; README.md says why each exists and what it
// measures. A run alternates set-up and measured slices until the
// measured time reaches RunOptions::seconds, so set-up is sampled at
// several points of the run and every slice starts from the same state.
#ifndef MDQA_PERFBENCH_WORKLOADS_H_
#define MDQA_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace mdqa::perfbench {

/// assess-batch (no pool) and assess-pooled (a 2-worker ThreadPool).
WorkloadResult RunAssess(const RunOptions& options, bool pooled);

/// session-updates: insert-only DeltaBatches through ApplyUpdate +
/// Reassess, with clean reads after every write.
WorkloadResult RunSession(const RunOptions& options);

/// serve-mixed: one closed-loop HTTP client against AssessmentServer, the
/// whole process pinned to one CPU.
WorkloadResult RunServe(const RunOptions& options);

}  // namespace mdqa::perfbench

#endif  // MDQA_PERFBENCH_WORKLOADS_H_
