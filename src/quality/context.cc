#include "quality/context.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "analysis/cost_model.h"
#include "datalog/chase.h"
#include "datalog/parser.h"
#include "datalog/provenance.h"
#include "datalog/whynot.h"

namespace mdqa::quality {

using datalog::Atom;
using datalog::ConjunctiveQuery;
using datalog::Parser;
using datalog::Program;
using datalog::Rule;
using datalog::Term;
using datalog::Vocabulary;

QualityContext::QualityContext(std::shared_ptr<core::MdOntology> ontology)
    : ontology_(std::move(ontology)) {}

Status QualityContext::SetDatabase(Database database) {
  for (const std::string& name : database.RelationNames()) {
    if (ontology_->HasPredicate(name)) {
      return Status::InvalidArgument(
          "relation '" + name +
          "' collides with a dimensional predicate of the ontology; map it "
          "under a different name");
    }
    MDQA_ASSIGN_OR_RETURN(const Relation* rel, database.GetRelation(name));
    database_.PutRelation(*rel);
  }
  return Status::Ok();
}

Status QualityContext::ReplaceDatabase(Database database) {
  // Same shape, different rows: the stored mappings, quality definitions
  // and contextual rules were all derived from the current schemas, so a
  // recovered database must agree on them exactly.
  std::vector<std::string> current = database_.RelationNames();
  std::vector<std::string> incoming = database.RelationNames();
  if (current != incoming) {
    return Status::InvalidArgument(
        "ReplaceDatabase: relation set mismatch (expected " +
        std::to_string(current.size()) + " relations, got " +
        std::to_string(incoming.size()) + " or a different name/order)");
  }
  for (const std::string& name : current) {
    MDQA_ASSIGN_OR_RETURN(const Relation* have, database_.GetRelation(name));
    MDQA_ASSIGN_OR_RETURN(const Relation* want, database.GetRelation(name));
    if (have->arity() != want->arity()) {
      return Status::InvalidArgument(
          "ReplaceDatabase: relation '" + name + "' arity mismatch (" +
          std::to_string(have->arity()) + " vs " +
          std::to_string(want->arity()) + ")");
    }
  }
  database_ = std::move(database);
  return Status::Ok();
}

Status QualityContext::MapRelationToContext(const std::string& original,
                                            const std::string& contextual) {
  MDQA_ASSIGN_OR_RETURN(const Relation* rel, database_.GetRelation(original));
  std::string head = contextual + "(";
  std::string body = original + "(";
  for (size_t i = 0; i < rel->arity(); ++i) {
    if (i > 0) {
      head += ", ";
      body += ", ";
    }
    head += "X" + std::to_string(i);
    body += "X" + std::to_string(i);
  }
  MDQA_RETURN_IF_ERROR(AddContextualRules(head + ") :- " + body + ")."));
  mappings_.emplace_back(original, contextual);
  return Status::Ok();
}

Status QualityContext::MapRelationAsFootprint(const std::string& original,
                                              const std::string& contextual,
                                              size_t extra_attributes) {
  MDQA_ASSIGN_OR_RETURN(const Relation* rel, database_.GetRelation(original));
  std::string head = contextual + "(";
  std::string body = original + "(";
  for (size_t i = 0; i < rel->arity(); ++i) {
    if (i > 0) {
      head += ", ";
      body += ", ";
    }
    head += "X" + std::to_string(i);
    body += "X" + std::to_string(i);
  }
  for (size_t i = 0; i < extra_attributes; ++i) {
    head += ", Z" + std::to_string(i);  // existential: not in the body
  }
  MDQA_RETURN_IF_ERROR(AddContextualRules(head + ") :- " + body + ")."));
  mappings_.emplace_back(original, contextual);
  return Status::Ok();
}

Status QualityContext::AddContextualRules(const std::string& text) {
  // Parse once, now: syntax errors surface at add time with their source
  // spans, and the stored ASTs (over the shared ontology vocabulary) are
  // composed — never re-parsed — by every BuildProgram call.
  Program scratch(ontology_->vocab());
  MDQA_RETURN_IF_ERROR(Parser::ParseInto(text, &scratch));
  for (const Rule& r : scratch.rules()) context_rules_.push_back(r);
  for (const Atom& f : scratch.facts()) context_facts_.push_back(f);
  return Status::Ok();
}

Status QualityContext::DefineQualityVersion(const std::string& original,
                                            const std::string& quality_pred,
                                            const std::string& rules_text) {
  if (!database_.HasRelation(original)) {
    return Status::NotFound("no relation '" + original +
                            "' in the database under assessment");
  }
  auto it = quality_of_.find(original);
  if (it != quality_of_.end()) {
    return Status::AlreadyExists("quality version of '" + original +
                                 "' already defined as '" + it->second + "'");
  }
  MDQA_RETURN_IF_ERROR(AddContextualRules(rules_text));
  quality_of_.emplace(original, quality_pred);
  return Status::Ok();
}

Result<std::string> QualityContext::QualityPredicateOf(
    const std::string& original) const {
  auto it = quality_of_.find(original);
  if (it == quality_of_.end()) {
    return Status::NotFound("no quality version defined for '" + original +
                            "'");
  }
  return it->second;
}

std::vector<std::string> QualityContext::AssessedRelations() const {
  std::vector<std::string> out;
  for (const auto& [original, _] : quality_of_) out.push_back(original);
  return out;
}

Result<Program> QualityContext::BuildProgram() const {
  MDQA_ASSIGN_OR_RETURN(Program program, ontology_->Compile());
  Vocabulary* vocab = program.mutable_vocab();
  // Original instance D, under its own relation names.
  for (const std::string& name : database_.RelationNames()) {
    MDQA_ASSIGN_OR_RETURN(const Relation* rel, database_.GetRelation(name));
    MDQA_ASSIGN_OR_RETURN(uint32_t pred,
                          vocab->InternPredicate(name, rel->arity()));
    for (const Tuple& row : rel->rows()) {
      std::vector<Term> terms;
      terms.reserve(row.size());
      for (const Value& v : row) terms.push_back(vocab->Const(v));
      MDQA_RETURN_IF_ERROR(program.AddFact(Atom(pred, std::move(terms))));
    }
  }
  // Mapping, contextual, and quality rules — stored ASTs, composed.
  for (const Rule& r : context_rules_) {
    MDQA_RETURN_IF_ERROR(program.AddRule(r));
  }
  for (const Atom& f : context_facts_) {
    MDQA_RETURN_IF_ERROR(program.AddFact(f));
  }
  return program;
}

Result<Relation> QualityContext::ComputeQualityVersion(
    const std::string& original, qa::Engine engine, ExecutionBudget* budget,
    Status* interruption) const {
  if (interruption != nullptr) *interruption = Status::Ok();
  MDQA_ASSIGN_OR_RETURN(const Relation* rel, database_.GetRelation(original));
  MDQA_ASSIGN_OR_RETURN(std::string quality_pred,
                        QualityPredicateOf(original));
  MDQA_ASSIGN_OR_RETURN(Program program, BuildProgram());
  Vocabulary* vocab = program.mutable_vocab();
  MDQA_ASSIGN_OR_RETURN(uint32_t pred,
                        vocab->InternPredicate(quality_pred, rel->arity()));

  ConjunctiveQuery query;
  query.name = quality_pred;
  std::vector<Term> vars;
  for (size_t i = 0; i < rel->arity(); ++i) {
    vars.push_back(vocab->Var("$q" + std::to_string(i)));
  }
  query.answer = vars;
  query.body.push_back(Atom(pred, vars));

  qa::AnswerOptions aopts;
  aopts.budget = budget;
  MDQA_ASSIGN_OR_RETURN(qa::AnswerSet answers,
                        qa::Answer(engine, program, query, aopts));
  if (answers.completeness == Completeness::kTruncated &&
      interruption != nullptr) {
    *interruption = answers.interruption;
  }

  // Same schema as the original, renamed to the quality predicate.
  std::vector<Attribute> attrs = rel->schema().attributes();
  MDQA_ASSIGN_OR_RETURN(RelationSchema schema,
                        RelationSchema::Create(quality_pred, attrs));
  Relation out(std::move(schema));
  for (const std::vector<Term>& t : answers.tuples) {
    Tuple row;
    row.reserve(t.size());
    for (Term term : t) row.push_back(vocab->ConstantValue(term.id()));
    MDQA_RETURN_IF_ERROR(out.Insert(std::move(row)));
  }
  return out;
}

Result<qa::AnswerSet> QualityContext::CleanAnswers(
    const std::string& query_text, qa::Engine engine) const {
  MDQA_ASSIGN_OR_RETURN(Program program, BuildProgram());
  Vocabulary* vocab = program.mutable_vocab();
  MDQA_ASSIGN_OR_RETURN(ConjunctiveQuery query,
                        Parser::ParseQuery(query_text, vocab));
  // Q -> Q^q: swap original predicates for their quality versions.
  for (Atom& a : query.body) {
    const std::string& pred_name = vocab->PredicateName(a.predicate);
    auto it = quality_of_.find(pred_name);
    if (it == quality_of_.end()) continue;
    MDQA_ASSIGN_OR_RETURN(uint32_t q_pred,
                          vocab->InternPredicate(it->second, a.arity()));
    a.predicate = q_pred;
  }
  return qa::Answer(engine, program, query);
}

Result<std::string> QualityContext::ExplainQualityTuple(
    const std::string& original, const Tuple& tuple) const {
  MDQA_ASSIGN_OR_RETURN(std::string quality_pred,
                        QualityPredicateOf(original));
  MDQA_ASSIGN_OR_RETURN(Program program, BuildProgram());
  Vocabulary* vocab = program.mutable_vocab();
  MDQA_ASSIGN_OR_RETURN(
      uint32_t pred, vocab->InternPredicate(quality_pred, tuple.size()));

  datalog::ProvenanceStore provenance;
  datalog::ChaseOptions options;
  options.provenance = &provenance;
  options.check_constraints = false;
  datalog::Instance instance = datalog::Instance::FromProgram(program);
  MDQA_RETURN_IF_ERROR(
      datalog::Chase::Run(program, &instance, options).status());

  std::vector<Term> terms;
  terms.reserve(tuple.size());
  for (const Value& v : tuple) terms.push_back(vocab->Const(v));
  Atom fact(pred, std::move(terms));
  if (!instance.Contains(fact)) {
    return Status::NotFound("tuple is not in the quality version " +
                            quality_pred);
  }
  return provenance.Explain(fact, *vocab);
}

Result<std::string> QualityContext::ExplainDirtyTuple(
    const std::string& original, const Tuple& tuple) const {
  MDQA_ASSIGN_OR_RETURN(std::string quality_pred,
                        QualityPredicateOf(original));
  MDQA_ASSIGN_OR_RETURN(Program program, BuildProgram());
  Vocabulary* vocab = program.mutable_vocab();
  MDQA_ASSIGN_OR_RETURN(
      uint32_t pred, vocab->InternPredicate(quality_pred, tuple.size()));

  datalog::ChaseOptions options;
  options.check_constraints = false;
  datalog::Instance instance = datalog::Instance::FromProgram(program);
  MDQA_RETURN_IF_ERROR(
      datalog::Chase::Run(program, &instance, options).status());

  std::vector<Term> terms;
  terms.reserve(tuple.size());
  for (const Value& v : tuple) terms.push_back(vocab->Const(v));
  Atom fact(pred, std::move(terms));
  MDQA_ASSIGN_OR_RETURN(datalog::WhyNotReport report,
                        datalog::ExplainAbsence(program, instance, fact));
  if (report.present) {
    return Status::FailedPrecondition(
        "tuple IS a quality tuple; use ExplainQualityTuple");
  }
  return vocab->AtomToString(fact) + " is not derivable:\n" +
         report.ToString();
}

Result<qa::AnswerSet> QualityContext::RawAnswers(const std::string& query_text,
                                                 qa::Engine engine) const {
  MDQA_ASSIGN_OR_RETURN(Program program, BuildProgram());
  MDQA_ASSIGN_OR_RETURN(
      ConjunctiveQuery query,
      Parser::ParseQuery(query_text, program.mutable_vocab()));
  return qa::Answer(engine, program, query);
}

Result<PreparedContext> QualityContext::Prepare() const {
  return Prepare(datalog::ChaseOptions{});
}

Result<PreparedContext> QualityContext::Prepare(
    const datalog::ChaseOptions& options) const {
  MDQA_ASSIGN_OR_RETURN(Program program, BuildProgram());
  auto analysis =
      std::make_shared<const datalog::ProgramAnalysis>(program);
  return Prepare(options, std::move(program), std::move(analysis));
}

Result<PreparedContext> QualityContext::Prepare(
    const datalog::ChaseOptions& options, Program program,
    std::shared_ptr<const datalog::ProgramAnalysis> analysis) const {
  return FinishPrepare(options, std::move(program), std::move(analysis),
                       /*rebuild=*/nullptr);
}

Result<PreparedContext> QualityContext::PrepareRestored(
    const datalog::ChaseOptions& options,
    const MaterializationRebuilder& rebuild) const {
  MDQA_ASSIGN_OR_RETURN(Program program, BuildProgram());
  auto analysis = std::make_shared<const datalog::ProgramAnalysis>(program);
  return FinishPrepare(options, std::move(program), std::move(analysis),
                       &rebuild);
}

Result<PreparedContext> QualityContext::FinishPrepare(
    const datalog::ChaseOptions& options, Program program,
    std::shared_ptr<const datalog::ProgramAnalysis> analysis,
    const MaterializationRebuilder* rebuild) const {
  // Thread the ontology's separability verdict into the chase options so
  // a later ApplyUpdate can maintain EGD programs incrementally when the
  // paper's §III sufficient condition holds, and the shared program
  // analysis so Chase::Extend can narrow its remaining fallbacks.
  datalog::ChaseOptions chase_options = options;
  MDQA_ASSIGN_OR_RETURN(core::OntologyProperties properties,
                        ontology_->Analyze());
  chase_options.egds_separable = properties.separable_egds;
  chase_options.analysis = analysis.get();
  // Pre-bind the per-relation S^q read-off queries while we are still
  // single-threaded: interning predicates and variables mutates the
  // shared Vocabulary, which concurrent QualityVersion calls must never
  // do (the parallel assessor fans out over relations).
  std::map<std::string, ConjunctiveQuery> queries;
  Vocabulary* vocab = program.mutable_vocab();
  for (const auto& [original, quality_pred] : quality_of_) {
    MDQA_ASSIGN_OR_RETURN(const Relation* rel,
                          database_.GetRelation(original));
    MDQA_ASSIGN_OR_RETURN(uint32_t pred,
                          vocab->InternPredicate(quality_pred, rel->arity()));
    ConjunctiveQuery query;
    query.name = quality_pred;
    std::vector<Term> vars;
    for (size_t i = 0; i < rel->arity(); ++i) {
      vars.push_back(vocab->Var("$q" + std::to_string(i)));
    }
    query.answer = vars;
    query.body.push_back(Atom(pred, vars));
    queries.emplace(original, std::move(query));
  }
  std::optional<qa::ChaseQa> chased;
  if (rebuild == nullptr) {
    MDQA_ASSIGN_OR_RETURN(qa::ChaseQa created,
                          qa::ChaseQa::Create(program, chase_options));
    chased.emplace(std::move(created));
  } else {
    // Checkpoint restore: the instance was rebuilt from a persisted image
    // of a completed chase over this very program — adopt it instead of
    // re-chasing (the whole point of durable resume).
    MDQA_ASSIGN_OR_RETURN(RestoredMaterialization mat, (*rebuild)(program));
    MDQA_ASSIGN_OR_RETURN(
        qa::ChaseQa adopted,
        qa::ChaseQa::Adopt(std::move(program), chase_options,
                           std::move(mat.instance), std::move(mat.stats)));
    chased.emplace(std::move(adopted));
  }
  PreparedContext out(quality_of_, std::move(queries), database_,
                      std::move(*chased));
  out.analysis_ = std::move(analysis);
  out.statistics_ = out.instance().CollectStatistics();
  return out;
}

std::vector<std::string> DeltaBatch::Relations() const {
  std::vector<std::string> out;
  out.reserve(deltas.size());
  for (const RelationDelta& d : deltas) out.push_back(d.relation);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

const datalog::InstanceStatistics& PreparedContext::EdbStatistics() const {
  std::lock_guard<std::mutex> lock(edb_stats_.mu);
  const uint64_t generation = program().generation();
  if (!edb_stats_.valid || edb_stats_.generation != generation) {
    edb_stats_.stats = analysis::CostModel::CollectEdbStats(program());
    edb_stats_.generation = generation;
    edb_stats_.valid = true;
  }
  // Safe to hand out by reference: the entry is only invalidated by a
  // program mutation, and a session's program is immutable once the
  // session is constructed (ApplyUpdate mutates its private copy before
  // returning it).
  return edb_stats_.stats;
}

Result<PreparedContext> PreparedContext::ApplyUpdate(
    const DeltaBatch& batch) const {
  // The copy shares every fact table with this session (copy-on-write
  // instances); only tables the update actually touches get cloned.
  PreparedContext next(*this);
  next.updated_relations_ = batch.Relations();
  Vocabulary* vocab = next.program().vocab().get();
  std::vector<Atom> inserts;
  std::vector<Atom> deletes;
  for (const RelationDelta& d : batch.deltas) {
    MDQA_ASSIGN_OR_RETURN(Relation * rel,
                          next.database_.GetMutableRelation(d.relation));
    MDQA_ASSIGN_OR_RETURN(uint32_t pred,
                          vocab->InternPredicate(d.relation, rel->arity()));
    if (!d.delete_rows.empty()) {
      std::unordered_set<Tuple, TupleHash> del;
      for (const Tuple& row : d.delete_rows) {
        if (row.size() != rel->arity()) {
          return Status::InvalidArgument(
              "delete row arity " + std::to_string(row.size()) +
              " does not match relation '" + d.relation + "'");
        }
        if (!rel->Contains(row)) {
          return Status::NotFound("cannot delete from '" + d.relation +
                                  "': row not present");
        }
        if (del.insert(row).second) {
          std::vector<Term> terms;
          terms.reserve(row.size());
          for (const Value& v : row) terms.push_back(vocab->Const(v));
          deletes.push_back(Atom(pred, std::move(terms)));
        }
      }
      *rel = rel->Select([&](const Tuple& t) { return del.count(t) == 0; });
    }
    for (const Tuple& row : d.insert_rows) {
      if (rel->Contains(row)) continue;  // set semantics: no-op insert
      MDQA_RETURN_IF_ERROR(rel->Insert(row));
      std::vector<Term> terms;
      terms.reserve(row.size());
      for (const Value& v : row) terms.push_back(vocab->Const(v));
      inserts.push_back(Atom(pred, std::move(terms)));
    }
  }
  MDQA_RETURN_IF_ERROR(next.chased_.Update(inserts, deletes).status());
  // New snapshot, new statistics — collected here, once, so concurrent
  // readers of the session never race on a lazily filled cache.
  next.statistics_ = next.instance().CollectStatistics();
  if (deletes.empty()) next.CarryEdbStatistics(*this, inserts);
  return next;
}

void PreparedContext::CarryEdbStatistics(const PreparedContext& parent,
                                         const std::vector<Atom>& inserts) {
  if (chase_stats().completeness != Completeness::kComplete) return;
  std::unordered_set<uint32_t> inserted;
  for (const Atom& f : inserts) inserted.insert(f.predicate);
  // A predicate no rule derives holds exactly its distinct extensional
  // facts in the instance: FromProgram dedups them, Extend inserts the
  // batch at level 0, and without EGDs nothing rewrites those rows. Its
  // table's row and distinct counts are then CollectEdbStats' numbers.
  for (const Rule& r : program().rules()) {
    if (r.IsEgd()) return;
    for (const Atom& h : r.head) {
      if (inserted.count(h.predicate) > 0) return;
    }
  }
  datalog::InstanceStatistics stats;
  {
    std::lock_guard<std::mutex> lock(parent.edb_stats_.mu);
    if (!parent.edb_stats_.valid ||
        parent.edb_stats_.generation != parent.program().generation()) {
      return;
    }
    stats = parent.edb_stats_.stats;
  }
  for (uint32_t pred : inserted) {
    auto table = statistics_.tables.find(pred);
    if (table == statistics_.tables.end()) return;
    stats.tables[pred] = table->second;
  }
  stats.total_facts = 0;
  stats.max_rows = 0;
  for (const auto& [pred, table] : stats.tables) {
    stats.total_facts += table.rows;
    stats.max_rows = std::max(stats.max_rows, table.rows);
  }
  edb_stats_.stats = std::move(stats);
  edb_stats_.generation = program().generation();
  edb_stats_.valid = true;
}

Result<qa::AnswerSet> PreparedContext::Evaluate(datalog::ConjunctiveQuery query,
                                                ExecutionBudget* budget) const {
  Status interruption;
  MDQA_ASSIGN_OR_RETURN(std::vector<std::vector<Term>> tuples,
                        chased_.Answers(query, budget, &interruption));
  qa::AnswerSet out = qa::AnswerSet::Of(std::move(tuples));
  if (!interruption.ok()) {
    out.completeness = Completeness::kTruncated;
    out.interruption = std::move(interruption);
  }
  return out;
}

Result<qa::AnswerSet> PreparedContext::RawAnswers(
    const std::string& query_text) const {
  MDQA_ASSIGN_OR_RETURN(
      ConjunctiveQuery query,
      Parser::ParseQuery(query_text, program().vocab().get()));
  return Evaluate(std::move(query));
}

Result<qa::AnswerSet> PreparedContext::CleanAnswers(
    const std::string& query_text) const {
  MDQA_ASSIGN_OR_RETURN(ConjunctiveQuery query,
                        PrepareCleanQuery(query_text));
  return Evaluate(std::move(query));
}

Result<ConjunctiveQuery> PreparedContext::PrepareCleanQuery(
    const std::string& query_text) const {
  Vocabulary* vocab = program().vocab().get();
  MDQA_ASSIGN_OR_RETURN(ConjunctiveQuery query,
                        Parser::ParseQuery(query_text, vocab));
  for (Atom& a : query.body) {
    const std::string& pred_name = vocab->PredicateName(a.predicate);
    auto it = quality_of_.find(pred_name);
    if (it == quality_of_.end()) continue;
    MDQA_ASSIGN_OR_RETURN(uint32_t q_pred,
                          vocab->InternPredicate(it->second, a.arity()));
    a.predicate = q_pred;
  }
  return query;
}

Result<ConjunctiveQuery> PreparedContext::PrepareRawQuery(
    const std::string& query_text) const {
  return Parser::ParseQuery(query_text, program().vocab().get());
}

Result<qa::AnswerSet> PreparedContext::Answer(const ConjunctiveQuery& query,
                                              ExecutionBudget* budget) const {
  return Evaluate(query, budget);
}

Result<Relation> PreparedContext::QualityVersion(const std::string& original,
                                                 ExecutionBudget* budget,
                                                 Status* interruption) const {
  if (interruption != nullptr) *interruption = Status::Ok();
  auto it = quality_of_.find(original);
  if (it == quality_of_.end()) {
    return Status::NotFound("no quality version defined for '" + original +
                            "'");
  }
  MDQA_ASSIGN_OR_RETURN(const Relation* rel, database_.GetRelation(original));
  const Vocabulary* vocab = program().vocab().get();
  // Pre-bound in Prepare: from here on this method only *reads* shared
  // state, which is what makes concurrent per-relation calls safe.
  auto qit = quality_queries_.find(original);
  if (qit == quality_queries_.end()) {
    return Status::Internal("quality query for '" + original +
                            "' was not prepared");
  }
  MDQA_ASSIGN_OR_RETURN(qa::AnswerSet answers, Evaluate(qit->second, budget));
  if (answers.completeness == Completeness::kTruncated &&
      interruption != nullptr) {
    *interruption = answers.interruption;
  }

  std::vector<Attribute> attrs = rel->schema().attributes();
  MDQA_ASSIGN_OR_RETURN(RelationSchema schema,
                        RelationSchema::Create(it->second, attrs));
  Relation out(std::move(schema));
  for (const std::vector<Term>& t : answers.tuples) {
    Tuple row;
    row.reserve(t.size());
    for (Term term : t) row.push_back(vocab->ConstantValue(term.id()));
    MDQA_RETURN_IF_ERROR(out.Insert(std::move(row)));
  }
  return out;
}

}  // namespace mdqa::quality
