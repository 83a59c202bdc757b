#ifndef MDQA_STORAGE_SESSION_IMAGE_H_
#define MDQA_STORAGE_SESSION_IMAGE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "base/result.h"
#include "quality/context.h"
#include "storage/checkpoint.h"

namespace mdqa::storage {

/// Bridge between live quality sessions and the checkpoint image: capture
/// serializes a PreparedContext's database + materialized instance into a
/// vocabulary-independent KbImage; restore rebuilds both against a fresh
/// context so the session resumes at the committed generation WITHOUT
/// re-running the chase (the expensive part of Prepare).

/// Snapshots `session` into an image committed at `generation` after
/// `applied_updates` batches. `scenario` names the program that produced
/// the session; recovery refuses to marry the image to a different one.
/// Fails with kFailedPrecondition when the session's chase was truncated
/// (no usable frontier — checkpointing it would persist an
/// under-approximation as if it were the fixpoint).
Result<KbImage> CaptureSessionImage(const quality::PreparedContext& session,
                                    uint64_t generation,
                                    uint64_t applied_updates,
                                    const std::string& scenario);

/// Snapshots a bare chased instance (no extensional database section) —
/// the mdqa_shell `save-kb` path, where the program travels as text and
/// only the materialization is worth persisting. `frontier` must be
/// valid; its round/merge counters seed the restored ChaseStats.
Result<KbImage> CaptureInstanceImage(const datalog::Instance& instance,
                                     const datalog::ChaseFrontier& frontier,
                                     uint64_t generation,
                                     const std::string& scenario);

/// Rebuilds the extensional database of `image` (schemas + rows). Feed
/// this to `QualityContext::ReplaceDatabase` before `PrepareRestored` so
/// the compiled program's facts match the persisted generation.
Result<Database> DatabaseFromImage(const KbImage& image);

/// A MaterializationRebuilder that reconstructs the chased instance of
/// `image` over the restored program's vocabulary: constants re-interned
/// from the value table, labeled nulls reserved through the persisted
/// watermark, facts re-added in captured row order (preserving the
/// Facts() byte-identity contract), then frozen. The regenerated frontier
/// is valid, so subsequent ApplyUpdate batches resume incrementally.
quality::MaterializationRebuilder ImageRebuilder(
    std::shared_ptr<const KbImage> image);

}  // namespace mdqa::storage

#endif  // MDQA_STORAGE_SESSION_IMAGE_H_
