#include "quality/assessor.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include <memory>

#include "analysis/cost_model.h"
#include "analysis/lint.h"
#include "base/json.h"
#include "datalog/analysis.h"
#include "datalog/chase.h"

namespace mdqa::quality {

namespace {

// Index of `relation` in the report's parallel vectors, or -1.
int RelationIndex(const std::vector<QualityMeasures>& per_relation,
                  const std::string& relation) {
  for (size_t i = 0; i < per_relation.size(); ++i) {
    if (per_relation[i].relation == relation) return static_cast<int>(i);
  }
  return -1;
}

// The quality predicates of the assessed relations that define one.
std::vector<std::string> QualityPredicates(const QualityContext& context) {
  std::vector<std::string> preds;
  for (const std::string& rel : context.AssessedRelations()) {
    Result<std::string> q = context.QualityPredicateOf(rel);
    if (q.ok()) preds.push_back(*q);
  }
  return preds;
}

// The pre-run gate Assess and Reassess share, over the compiled
// `program`: records the planner's engine recommendation (costed on
// `edb_stats`) and the engine the run uses — `engine`, or the
// recommendation under `auto_engine` — then runs the lint gate and the
// form-(1) referential check. kFailedPrecondition when error-level lint
// findings refuse the run.
Status RunGate(const QualityContext& context, const datalog::Program& program,
               const datalog::ProgramAnalysis& analysis,
               datalog::InstanceStatistics edb_stats, qa::Engine engine,
               bool auto_engine, const AssessOptions& opts,
               AssessmentReport* report) {
  report->program_class = analysis.ClassName();
  MDQA_ASSIGN_OR_RETURN(core::OntologyProperties properties,
                        context.ontology().Analyze());
  qa::EngineSelectOptions select_options;
  select_options.egds_separable = properties.separable_egds;
  const analysis::CostModel cost_model(program, analysis,
                                       std::move(edb_stats));
  select_options.cost_model = &cost_model;
  qa::EngineSelection selection =
      qa::SelectEngine(program, analysis, select_options);
  report->engine_recommended = selection.engine;
  report->engine_reason = std::move(selection.reason);
  report->engine_used = auto_engine ? report->engine_recommended : engine;
  for (const qa::EngineCandidate& c : selection.candidates) {
    if (c.engine == report->engine_used) {
      report->predicted_cost = c.predicted_cost;
    }
  }

  if (opts.lint_gate) {
    analysis::DiagnosticBag bag;
    analysis::LintOptions lint_options;
    lint_options.min_severity = analysis::Severity::kWarning;
    lint_options.form_notes = false;
    lint_options.file = "<context>";
    lint_options.analysis = &analysis;
    lint_options.goal_predicates = QualityPredicates(context);
    analysis::LintProgram(program, lint_options, &bag);
    analysis::LintOntology(context.ontology(), lint_options, &bag);
    bag.Sort();
    report->lint_errors = bag.errors();
    report->lint_warnings = bag.warnings();
    report->lint_text = bag.ToText();
    if (bag.errors() > 0 && !opts.lint_warn_only) {
      return Status::FailedPrecondition(
          "lint gate: " + std::to_string(bag.errors()) +
          " error-level finding(s) in the contextual program/ontology "
          "(set lint_warn_only to proceed anyway):\n" +
          bag.ToText());
    }
  }

  report->referential_check = context.ontology().ValidateReferential();
  return Status::Ok();
}

}  // namespace

const Relation* AssessmentReport::QualityVersionOf(
    const std::string& relation) const {
  const int i = RelationIndex(per_relation, relation);
  if (i < 0 || static_cast<size_t>(i) >= quality_versions.size()) {
    return nullptr;
  }
  return &quality_versions[static_cast<size_t>(i)];
}

const Relation* AssessmentReport::DirtyOf(const std::string& relation) const {
  const int i = RelationIndex(per_relation, relation);
  if (i < 0 || static_cast<size_t>(i) >= dirty_tuples.size()) return nullptr;
  return &dirty_tuples[static_cast<size_t>(i)];
}

const QualityMeasures* AssessmentReport::MeasuresOf(
    const std::string& relation) const {
  const int i = RelationIndex(per_relation, relation);
  return i < 0 ? nullptr : &per_relation[static_cast<size_t>(i)];
}

std::string AssessmentReport::ToString() const {
  std::string out = "=== quality assessment report ===\n";
  if (!program_class.empty()) {
    out += "program class: " + program_class + "\n";
    out += std::string("engine: ") + qa::EngineToString(engine_used) +
           " (recommended: " + qa::EngineToString(engine_recommended) +
           " — " + engine_reason + ")\n";
    out += "cost: predicted " + std::to_string(predicted_cost) +
           " work units, actual " + std::to_string(actual_cost) +
           " facts materialized\n";
  }
  if (lint_errors + lint_warnings > 0) {
    out += "lint: " + std::to_string(lint_errors) + " error(s), " +
           std::to_string(lint_warnings) + " warning(s)\n";
    out += lint_text;
  }
  out += "referential (form (1)): " + referential_check.ToString() + "\n";
  out += "dimensional constraints: " + constraint_check.ToString() + "\n";
  for (const QualityMeasures& m : per_relation) {
    out += "  " + m.ToString() + "\n";
  }
  for (const RelationFailure& f : degraded) {
    out += "  DEGRADED " + f.relation + ": " + f.status.ToString() +
           " (after " + std::to_string(f.attempts) + " attempt" +
           (f.attempts == 1 ? "" : "s") + ")\n";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "overall precision: %.3f\n",
                overall_precision);
  out += buf;
  if (completeness == Completeness::kTruncated) {
    out += std::string("completeness: truncated (") +
           interruption.ToString() + ")\n";
  }
  return out;
}

std::string AssessmentReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("program_class").String(program_class);
  w.Key("engine_used").String(qa::EngineToString(engine_used));
  w.Key("engine_recommended").String(qa::EngineToString(engine_recommended));
  w.Key("engine_reason").String(engine_reason);
  w.Key("predicted_cost").Number(static_cast<size_t>(predicted_cost));
  w.Key("actual_cost").Number(static_cast<size_t>(actual_cost));
  w.Key("lint_errors").Number(lint_errors);
  w.Key("lint_warnings").Number(lint_warnings);
  w.Key("referential_check").String(referential_check.ToString());
  w.Key("constraint_check").String(constraint_check.ToString());
  w.Key("overall_precision").Number(overall_precision);
  w.Key("completeness").String(CompletenessToString(completeness));
  w.Key("interruption").String(interruption.ToString());
  w.Key("relations").BeginArray();
  for (size_t i = 0; i < per_relation.size(); ++i) {
    const QualityMeasures& m = per_relation[i];
    w.BeginObject();
    w.Key("relation").String(m.relation);
    w.Key("original_size").Number(m.original_size);
    w.Key("quality_size").Number(m.quality_size);
    w.Key("common").Number(m.common);
    w.Key("precision").Number(m.precision);
    w.Key("recall").Number(m.recall);
    w.Key("f1").Number(m.f1);
    w.Key("dirty_tuples").BeginArray();
    if (i < dirty_tuples.size()) {
      for (const Tuple& row : dirty_tuples[i].SortedRows()) {
        w.BeginArray();
        for (const Value& v : row) w.String(v.ToString());
        w.EndArray();
      }
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.Key("degraded").BeginArray();
  for (const RelationFailure& f : degraded) {
    w.BeginObject();
    w.Key("relation").String(f.relation);
    w.Key("status").String(f.status.ToString());
    w.Key("attempts").Number(static_cast<int64_t>(f.attempts));
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

Result<AssessmentReport> Assessor::Assess(qa::Engine engine) const {
  AssessOptions options;
  options.engine = engine;
  return Assess(options);
}

Result<AssessmentReport> Assessor::Assess(const AssessOptions& opts) const {
  AssessmentReport report;

  // Pre-run gate: compile and classify the contextual program ONCE —
  // the analysis is shared by the lint gate, the cost-based engine
  // planner, and (through the prepared session) the incremental chase.
  MDQA_ASSIGN_OR_RETURN(datalog::Program program, context_->BuildProgram());
  auto program_analysis =
      std::make_shared<const datalog::ProgramAnalysis>(program);
  MDQA_RETURN_IF_ERROR(RunGate(*context_, program, *program_analysis,
                               analysis::CostModel::CollectEdbStats(program),
                               opts.engine, opts.auto_engine, opts, &report));
  const qa::Engine engine = report.engine_used;

  auto note_truncated = [&report](const Status& why) {
    report.completeness = Completeness::kTruncated;
    if (report.interruption.ok()) report.interruption = why;
  };

  // One materialization serves both the constraint check and (when the
  // data is consistent and the default engine is in use) every quality
  // version below. An Inconsistent status is a finding, not a failure of
  // the assessment itself; a budget trip here leaves a partial (sound)
  // instance the per-relation read-offs below still work against.
  datalog::ChaseOptions chase_options;
  chase_options.budget = opts.budget;
  // Optional answer-preserving prune: TGDs that provably cannot reach a
  // quality predicate, EGD, constraint, or output predicate are dropped
  // from the *chased* program only — the gate above classified and
  // linted the program as written.
  datalog::Program chase_program = std::move(program);
  std::shared_ptr<const datalog::ProgramAnalysis> chase_analysis =
      program_analysis;
  if (opts.prune_dead_rules) {
    std::unordered_set<uint32_t> goals;
    const datalog::Vocabulary* vocab = chase_program.vocab().get();
    for (const std::string& q : QualityPredicates(*context_)) {
      const uint32_t pred = vocab->FindPredicate(q);
      if (pred != StringPool::kNotFound) goals.insert(pred);
    }
    chase_program = datalog::PruneDeadRules(chase_program, goals);
    chase_analysis =
        std::make_shared<const datalog::ProgramAnalysis>(chase_program);
  }
  Result<PreparedContext> prepared = context_->Prepare(
      chase_options, std::move(chase_program), std::move(chase_analysis));
  if (!prepared.ok() &&
      prepared.status().code() != StatusCode::kInconsistent) {
    return prepared.status();  // real failure (parse, validation, ...)
  }
  report.constraint_check =
      prepared.ok() ? Status::Ok() : prepared.status();
  report.actual_cost = prepared.ok() ? prepared->statistics().total_facts : 0;
  if (prepared.ok() && prepared->chase_stats().completeness ==
                           Completeness::kTruncated) {
    note_truncated(prepared->chase_stats().interruption);
  }

  const bool use_prepared = prepared.ok() && engine == qa::Engine::kChase;
  const std::vector<std::string> names = context_->AssessedRelations();

  // The outcome of one relation's assessment, produced by `assess_one`
  // without touching any shared report state — so relations can run
  // concurrently and merge deterministically in relation order below.
  struct RelationOutcome {
    Status hard_error;  // non-OK aborts the whole assessment at merge
    bool computed = false;
    Status failure;  // degradation status when !computed
    int attempts = 0;
    std::optional<QualityMeasures> measures;
    std::optional<Relation> quality;
    std::optional<Relation> dirty;
  };
  std::vector<RelationOutcome> outcomes(names.size());

  // Fault isolation: each relation computes under its own derived
  // budget, retrying with escalated counter caps on exhaustion, so a
  // single runaway quality version degrades to a RelationFailure
  // instead of sinking the whole report. The derived budget's counters
  // are private to the relation, which keeps counter-cap kTruncated
  // outcomes deterministic even when relations run concurrently.
  auto assess_one = [&](const std::string& name, RelationOutcome* out) {
    Result<const Relation*> orig = context_->database().GetRelation(name);
    if (!orig.ok()) {
      out->hard_error = orig.status();
      return;
    }
    const Relation* original = *orig;
    Status failure;
    double scale = 1.0;
    for (int attempt = 0; attempt <= opts.max_retries;
         ++attempt, scale *= opts.escalation_factor) {
      ++out->attempts;
      ExecutionBudget rb;
      if (opts.budget != nullptr) rb.InheritControlsFrom(*opts.budget);
      if (opts.fault_injector != nullptr) {
        rb.set_fault_injector(opts.fault_injector);
      }
      if (opts.per_relation_max_facts > 0) {
        rb.set_max_facts(static_cast<uint64_t>(
            static_cast<double>(opts.per_relation_max_facts) * scale));
      }
      if (opts.per_relation_max_steps > 0) {
        rb.set_max_steps(static_cast<uint64_t>(
            static_cast<double>(opts.per_relation_max_steps) * scale));
      }
      failure = rb.CheckNow("assessor:relation");
      if (failure.ok()) {
        Status interruption;
        Result<Relation> r =
            use_prepared
                ? prepared->QualityVersion(name, &rb, &interruption)
                : context_->ComputeQualityVersion(name, engine, &rb,
                                                  &interruption);
        if (r.ok() && interruption.ok()) {
          out->quality = std::move(r).value();
          out->computed = true;
          break;
        }
        // A truncated quality version is a budget trip for this
        // relation: partial measures would misreport, so retry bigger.
        failure = r.ok() ? std::move(interruption) : r.status();
      }
      if (!ExecutionBudget::IsTruncation(failure)) break;  // hard fault
      if (failure.code() == StatusCode::kCancelled) break;
    }
    if (!out->computed) {
      out->failure = std::move(failure);
      return;
    }
    Result<QualityMeasures> m = Measure(*original, *out->quality);
    if (!m.ok()) {
      out->hard_error = m.status();
      return;
    }
    Result<Relation> dirty = original->Minus(*out->quality);
    if (!dirty.ok()) {
      out->hard_error = dirty.status();
      return;
    }
    out->measures = std::move(*m);
    out->dirty = std::move(*dirty);
  };

  // Fan the relations out across the pool on the prepared path, where
  // QualityVersion only reads the shared materialized instance. The
  // other engines rebuild the contextual program per relation, which
  // mutates the shared Vocabulary — those stay serial.
  const bool parallel =
      opts.pool != nullptr && use_prepared && names.size() > 1;
  if (parallel) {
    opts.pool->ParallelFor(
        names.size(), [&](size_t i) { assess_one(names[i], &outcomes[i]); });
  }

  // Merge in relation order — the report is a pure function of the
  // per-relation outcomes, so serial and parallel runs render
  // identically (absent cancellation, see below).
  size_t total_original = 0;
  size_t total_common = 0;
  Status cancelled;  // non-OK once a kCancelled trip stops the run
  for (size_t i = 0; i < names.size(); ++i) {
    RelationOutcome& out = outcomes[i];
    if (!cancelled.ok()) {
      // Serial contract: relations after a cancellation are not
      // attempted. A parallel run may have finished some of them
      // already — completed work is kept, the rest report cancelled.
      if (!parallel || !out.computed) {
        report.degraded.push_back(RelationFailure{names[i], cancelled, 0});
        continue;
      }
    } else if (!parallel) {
      assess_one(names[i], &out);
    }
    MDQA_RETURN_IF_ERROR(out.hard_error);
    if (!out.computed) {
      note_truncated(out.failure);
      if (out.failure.code() == StatusCode::kCancelled) {
        cancelled = out.failure;
      }
      report.degraded.push_back(
          RelationFailure{names[i], std::move(out.failure), out.attempts});
      continue;
    }
    total_original += out.measures->original_size;
    total_common += out.measures->common;
    report.per_relation.push_back(std::move(*out.measures));
    report.quality_versions.push_back(std::move(*out.quality));
    report.dirty_tuples.push_back(std::move(*out.dirty));
  }
  report.overall_precision =
      total_original == 0 ? 1.0
                          : static_cast<double>(total_common) /
                                static_cast<double>(total_original);
  return report;
}

Result<AssessmentReport> Assessor::Reassess(const PreparedContext& session,
                                            const AssessmentReport& previous,
                                            const AssessOptions& opts) const {
  AssessmentReport report;
  const datalog::Program& program = session.program();

  // Same pre-run gate as Assess, over the session's (updated) program,
  // reusing the session's shared analysis (the rules never change across
  // updates) — the report renders byte-identically to a full assessment.
  // The incremental path always reads the session's materialized
  // instance, so the engine used is the chase regardless of
  // `auto_engine` (the recommendation is still recorded).
  MDQA_RETURN_IF_ERROR(RunGate(*context_, program, session.analysis(),
                               session.EdbStatistics(), qa::Engine::kChase,
                               /*auto_engine=*/false, opts, &report));
  // The session exists, so its (re-)chase passed the constraint check.
  report.constraint_check = Status::Ok();
  report.actual_cost = session.statistics().total_facts;

  auto note_truncated = [&report](const Status& why) {
    report.completeness = Completeness::kTruncated;
    if (report.interruption.ok()) report.interruption = why;
  };
  if (session.chase_stats().completeness == Completeness::kTruncated) {
    note_truncated(session.chase_stats().interruption);
  }

  const std::vector<std::string> names = context_->AssessedRelations();
  const std::vector<std::string>& updated = session.updated_relations();

  // Previous entries by relation name (per_relation, quality_versions and
  // dirty_tuples are parallel vectors).
  std::unordered_map<std::string, size_t> prev_index;
  for (size_t i = 0; i < previous.per_relation.size(); ++i) {
    prev_index.emplace(previous.per_relation[i].relation, i);
  }

  // Selective re-assessment: recompute a relation iff its own rows
  // changed, its quality predicate transitively depends on a changed
  // predicate, or `previous` has no (complete) entry to copy. EGD
  // programs recompute everything — a null merge can rewrite facts of
  // any predicate, which no body→head reachability captures.
  std::unordered_set<std::string> recompute;
  if (!program.Egds().empty()) {
    recompute.insert(names.begin(), names.end());
  } else {
    const datalog::Vocabulary* vocab = program.vocab().get();
    std::unordered_set<uint32_t> seeds;
    for (const std::string& rel : updated) {
      const uint32_t pred = vocab->FindPredicate(rel);
      if (pred != StringPool::kNotFound) seeds.insert(pred);
    }
    const std::unordered_set<uint32_t> closure =
        datalog::DependentPredicates(program, seeds);
    for (const std::string& name : names) {
      bool need = std::find(updated.begin(), updated.end(), name) !=
                  updated.end();
      if (!need) {
        Result<std::string> qpred_name = context_->QualityPredicateOf(name);
        const uint32_t qpred = qpred_name.ok()
                                   ? vocab->FindPredicate(*qpred_name)
                                   : StringPool::kNotFound;
        need = qpred == StringPool::kNotFound || closure.count(qpred) > 0;
      }
      if (need) recompute.insert(name);
    }
  }
  for (const std::string& name : names) {
    if (prev_index.find(name) == prev_index.end()) recompute.insert(name);
  }

  struct RelationOutcome {
    Status hard_error;
    bool computed = false;
    Status failure;
    int attempts = 0;
    std::optional<QualityMeasures> measures;
    std::optional<Relation> quality;
    std::optional<Relation> dirty;
  };
  std::vector<RelationOutcome> outcomes(names.size());

  // Identical fault-isolation scheme to Assess, reading the session's
  // database (the updated one) and materialized instance.
  auto assess_one = [&](const std::string& name, RelationOutcome* out) {
    Result<const Relation*> orig = session.database().GetRelation(name);
    if (!orig.ok()) {
      out->hard_error = orig.status();
      return;
    }
    const Relation* original = *orig;
    Status failure;
    double scale = 1.0;
    for (int attempt = 0; attempt <= opts.max_retries;
         ++attempt, scale *= opts.escalation_factor) {
      ++out->attempts;
      ExecutionBudget rb;
      if (opts.budget != nullptr) rb.InheritControlsFrom(*opts.budget);
      if (opts.fault_injector != nullptr) {
        rb.set_fault_injector(opts.fault_injector);
      }
      if (opts.per_relation_max_facts > 0) {
        rb.set_max_facts(static_cast<uint64_t>(
            static_cast<double>(opts.per_relation_max_facts) * scale));
      }
      if (opts.per_relation_max_steps > 0) {
        rb.set_max_steps(static_cast<uint64_t>(
            static_cast<double>(opts.per_relation_max_steps) * scale));
      }
      failure = rb.CheckNow("assessor:relation");
      if (failure.ok()) {
        Status interruption;
        Result<Relation> r = session.QualityVersion(name, &rb, &interruption);
        if (r.ok() && interruption.ok()) {
          out->quality = std::move(r).value();
          out->computed = true;
          break;
        }
        failure = r.ok() ? std::move(interruption) : r.status();
      }
      if (!ExecutionBudget::IsTruncation(failure)) break;
      if (failure.code() == StatusCode::kCancelled) break;
    }
    if (!out->computed) {
      out->failure = std::move(failure);
      return;
    }
    Result<QualityMeasures> m = Measure(*original, *out->quality);
    if (!m.ok()) {
      out->hard_error = m.status();
      return;
    }
    Result<Relation> dirty = original->Minus(*out->quality);
    if (!dirty.ok()) {
      out->hard_error = dirty.status();
      return;
    }
    out->measures = std::move(*m);
    out->dirty = std::move(*dirty);
  };

  std::vector<size_t> todo;
  for (size_t i = 0; i < names.size(); ++i) {
    if (recompute.count(names[i]) > 0) todo.push_back(i);
  }
  const bool parallel = opts.pool != nullptr && todo.size() > 1;
  if (parallel) {
    opts.pool->ParallelFor(
        todo.size(), [&](size_t k) {
          assess_one(names[todo[k]], &outcomes[todo[k]]);
        });
  }

  size_t total_original = 0;
  size_t total_common = 0;
  Status cancelled;
  for (size_t i = 0; i < names.size(); ++i) {
    if (recompute.count(names[i]) == 0) {
      // Untouched by the update: copy the previous entry verbatim.
      const size_t p = prev_index.at(names[i]);
      total_original += previous.per_relation[p].original_size;
      total_common += previous.per_relation[p].common;
      report.per_relation.push_back(previous.per_relation[p]);
      report.quality_versions.push_back(previous.quality_versions[p]);
      report.dirty_tuples.push_back(previous.dirty_tuples[p]);
      continue;
    }
    RelationOutcome& out = outcomes[i];
    if (!cancelled.ok()) {
      if (!parallel || !out.computed) {
        report.degraded.push_back(RelationFailure{names[i], cancelled, 0});
        continue;
      }
    } else if (!parallel) {
      assess_one(names[i], &out);
    }
    MDQA_RETURN_IF_ERROR(out.hard_error);
    if (!out.computed) {
      note_truncated(out.failure);
      if (out.failure.code() == StatusCode::kCancelled) {
        cancelled = out.failure;
      }
      report.degraded.push_back(
          RelationFailure{names[i], std::move(out.failure), out.attempts});
      continue;
    }
    total_original += out.measures->original_size;
    total_common += out.measures->common;
    report.per_relation.push_back(std::move(*out.measures));
    report.quality_versions.push_back(std::move(*out.quality));
    report.dirty_tuples.push_back(std::move(*out.dirty));
  }
  report.overall_precision =
      total_original == 0 ? 1.0
                          : static_cast<double>(total_common) /
                                static_cast<double>(total_original);
  return report;
}

}  // namespace mdqa::quality
