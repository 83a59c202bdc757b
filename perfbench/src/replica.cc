#include "replica.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/cost_model.h"
#include "analysis/lint.h"
#include "datalog/analysis.h"
#include "qa/engines.h"
#include "quality/measures.h"

namespace mdqa::perfbench {
namespace {

using quality::AssessmentReport;
using quality::PreparedContext;
using quality::QualityContext;
using Scope = Tracer::Scope;

std::vector<std::string> QualityPredicates(const QualityContext& context) {
  std::vector<std::string> out;
  for (const std::string& rel : context.AssessedRelations()) {
    Result<std::string> q = context.QualityPredicateOf(rel);
    if (q.ok()) out.push_back(*q);
  }
  return out;
}

// The planner and lint gate both Assess and Reassess run before any
// per-relation work, recorded into `report`.
Status PlanAndLint(const QualityContext& context,
                   const datalog::Program& program,
                   const datalog::ProgramAnalysis& analysis,
                   datalog::InstanceStatistics edb_stats, Tracer* tracer,
                   AssessmentReport* report) {
  report->program_class = analysis.ClassName();
  {
    Scope span(tracer, "qa.planner");
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
    report->engine_used = qa::Engine::kChase;
    for (const qa::EngineCandidate& c : selection.candidates) {
      if (c.engine == report->engine_used) {
        report->predicted_cost = c.predicted_cost;
      }
    }
  }
  {
    Scope span(tracer, "analysis.lint");
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
    if (bag.errors() > 0) {
      return Status::FailedPrecondition("lint gate refused the context:\n" +
                                        bag.ToText());
    }
  }
  {
    Scope span(tracer, "core.referential");
    report->referential_check = context.ontology().ValidateReferential();
  }
  return Status::Ok();
}

// One relation's quality version and measures, appended to `report` in
// the same order Assess merges them.
Status AssessRelation(const PreparedContext& session,
                      const Relation& original, const std::string& name,
                      Tracer* tracer, AssessmentReport* report,
                      size_t* total_original, size_t* total_common) {
  // Assess reads every relation under its own (uncapped) budget.
  ExecutionBudget budget;
  MDQA_RETURN_IF_ERROR(budget.CheckNow("assessor:relation"));
  Status interruption;
  Result<Relation> quality = Status::Internal("unreached");
  {
    Scope span(tracer, "quality.readoff");
    quality = session.QualityVersion(name, &budget, &interruption);
  }
  MDQA_RETURN_IF_ERROR(quality.status());
  MDQA_RETURN_IF_ERROR(interruption);
  Result<quality::QualityMeasures> measures = Status::Internal("unreached");
  Result<Relation> dirty = Status::Internal("unreached");
  {
    Scope span(tracer, "quality.measure");
    measures = quality::Measure(original, *quality);
    dirty = original.Minus(*quality);
  }
  MDQA_RETURN_IF_ERROR(measures.status());
  MDQA_RETURN_IF_ERROR(dirty.status());
  *total_original += measures->original_size;
  *total_common += measures->common;
  report->per_relation.push_back(std::move(*measures));
  report->quality_versions.push_back(std::move(*quality));
  report->dirty_tuples.push_back(std::move(*dirty));
  return Status::Ok();
}

double Precision(size_t total_original, size_t total_common) {
  return total_original == 0 ? 1.0
                             : static_cast<double>(total_common) /
                                   static_cast<double>(total_original);
}

}  // namespace

Result<AssessmentReport> TracedAssess(const QualityContext& context,
                                      ThreadPool* pool, Tracer* tracer) {
  AssessmentReport report;
  Result<datalog::Program> built = Status::Internal("unreached");
  {
    Scope span(tracer, "quality.build_program");
    built = context.BuildProgram();
  }
  MDQA_RETURN_IF_ERROR(built.status());
  datalog::Program program = std::move(*built);
  std::shared_ptr<const datalog::ProgramAnalysis> analysis;
  {
    Scope span(tracer, "datalog.program_analysis");
    analysis = std::make_shared<const datalog::ProgramAnalysis>(program);
  }
  datalog::InstanceStatistics edb_stats;
  {
    Scope span(tracer, "analysis.edb_stats");
    edb_stats = analysis::CostModel::CollectEdbStats(program);
  }
  MDQA_RETURN_IF_ERROR(PlanAndLint(context, program, *analysis,
                                   std::move(edb_stats), tracer, &report));

  datalog::ChaseOptions chase_options;
  chase_options.pool = pool;
  Result<PreparedContext> prepared = Status::Internal("unreached");
  {
    Scope span(tracer, "quality.prepare");
    prepared = context.Prepare(chase_options, std::move(program), analysis);
  }
  MDQA_RETURN_IF_ERROR(prepared.status());
  report.constraint_check = Status::Ok();
  report.actual_cost = prepared->statistics().total_facts;

  size_t total_original = 0;
  size_t total_common = 0;
  for (const std::string& name : context.AssessedRelations()) {
    MDQA_ASSIGN_OR_RETURN(const Relation* original,
                          context.database().GetRelation(name));
    MDQA_RETURN_IF_ERROR(AssessRelation(*prepared, *original, name, tracer,
                                        &report, &total_original,
                                        &total_common));
  }
  report.overall_precision = Precision(total_original, total_common);
  {
    // Assess drops its session on return; that teardown is part of it.
    Scope span(tracer, "quality.release_session");
    prepared = Status::Internal("released");
  }
  return report;
}

Result<AssessmentReport> TracedReassess(const QualityContext& context,
                                        const PreparedContext& session,
                                        const AssessmentReport& previous,
                                        Tracer* tracer) {
  AssessmentReport report;
  const datalog::Program& program = session.program();
  datalog::InstanceStatistics edb_stats;
  {
    Scope span(tracer, "analysis.edb_stats");
    edb_stats = session.EdbStatistics();
  }
  MDQA_RETURN_IF_ERROR(PlanAndLint(context, program, session.analysis(),
                                   std::move(edb_stats), tracer, &report));
  report.constraint_check = Status::Ok();
  report.actual_cost = session.statistics().total_facts;

  // Reassess recomputes a relation iff its rows changed or its quality
  // predicate depends on a changed predicate; EGD programs recompute all.
  const std::vector<std::string> names = context.AssessedRelations();
  const std::vector<std::string>& updated = session.updated_relations();
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
      bool need =
          std::find(updated.begin(), updated.end(), name) != updated.end();
      if (!need) {
        Result<std::string> q = context.QualityPredicateOf(name);
        const uint32_t pred =
            q.ok() ? vocab->FindPredicate(*q) : StringPool::kNotFound;
        need = pred == StringPool::kNotFound || closure.count(pred) > 0;
      }
      if (need) recompute.insert(name);
    }
  }
  std::unordered_map<std::string, size_t> prev_index;
  for (size_t i = 0; i < previous.per_relation.size(); ++i) {
    prev_index.emplace(previous.per_relation[i].relation, i);
  }

  size_t total_original = 0;
  size_t total_common = 0;
  for (const std::string& name : names) {
    auto prev = prev_index.find(name);
    if (recompute.count(name) == 0 && prev != prev_index.end()) {
      const size_t p = prev->second;
      total_original += previous.per_relation[p].original_size;
      total_common += previous.per_relation[p].common;
      report.per_relation.push_back(previous.per_relation[p]);
      report.quality_versions.push_back(previous.quality_versions[p]);
      report.dirty_tuples.push_back(previous.dirty_tuples[p]);
      continue;
    }
    MDQA_ASSIGN_OR_RETURN(const Relation* original,
                          session.database().GetRelation(name));
    MDQA_RETURN_IF_ERROR(AssessRelation(session, *original, name, tracer,
                                        &report, &total_original,
                                        &total_common));
  }
  report.overall_precision = Precision(total_original, total_common);
  return report;
}

Result<ChaseCounts> SplitPrepare(const QualityContext& context,
                                 ThreadPool* pool, Tracer* tracer) {
  MDQA_ASSIGN_OR_RETURN(datalog::Program program, context.BuildProgram());
  std::optional<datalog::Instance> instance;
  {
    Scope span(tracer, "datalog.load");
    instance.emplace(datalog::Instance::FromProgram(program));
  }
  datalog::ChaseOptions options;
  options.check_constraints = false;
  options.pool = pool;
  datalog::ChaseStats stats;
  Status chased;
  {
    Scope span(tracer, "datalog.chase");
    chased = datalog::Chase::Run(program, &*instance, options, &stats);
  }
  MDQA_RETURN_IF_ERROR(chased);
  Status constraints;
  {
    Scope span(tracer, "datalog.constraints");
    constraints = datalog::Chase::CheckConstraints(program, *instance);
  }
  MDQA_RETURN_IF_ERROR(constraints);
  {
    Scope span(tracer, "datalog.instance_stats");
    (void)instance->CollectStatistics();
  }
  ChaseCounts counts;
  counts.rounds = stats.rounds;
  counts.tgd_firings = stats.tgd_firings;
  counts.facts_added = stats.facts_added;
  counts.nulls_created = stats.nulls_created;
  counts.egd_merges = stats.egd_merges;
  counts.total_facts = instance->TotalFacts();
  return counts;
}

}  // namespace mdqa::perfbench
