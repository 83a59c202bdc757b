#include "tools/experiments.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "analysis/cost_model.h"
#include "base/budget.h"
#include "base/result.h"
#include "datalog/analysis.h"
#include "datalog/chase.h"
#include "datalog/cq_eval.h"
#include "datalog/instance.h"
#include "datalog/parser.h"
#include "md/aggregate.h"
#include "qa/chase_qa.h"
#include "qa/deterministic_ws.h"
#include "qa/engines.h"
#include "qa/rewriter.h"
#include "quality/assessor.h"
#include "quality/cqa.h"
#include "scenarios/hospital.h"
#include "scenarios/synthetic.h"

namespace mdqa::experiments {
namespace {

// printf into `out`, for the column-aligned series.
[[gnu::format(printf, 2, 3)]] void Printf(std::ostream& out,
                                          const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list size_args;
  va_copy(size_args, args);
  const int size = std::vsnprintf(nullptr, 0, format, size_args);
  va_end(size_args);
  std::string text(static_cast<size_t>(std::max(size, 0)) + 1, '\0');
  std::vsnprintf(text.data(), text.size(), format, args);
  va_end(args);
  text.pop_back();
  out << text;
}

unsigned long long U(uint64_t n) { return static_cast<unsigned long long>(n); }

// A budget that trips on nothing but counts what the engines charge:
// ExecutionBudget counts only against a limit, so both sit one below
// kUnlimited. Join rows are charged in blocks of 64.
void CountWork(ExecutionBudget* budget) {
  budget->set_max_steps(ExecutionBudget::kUnlimited - 1);
  budget->set_max_facts(ExecutionBudget::kUnlimited - 1);
}

Result<datalog::Program> HospitalProgram(
    const scenarios::HospitalOptions& options) {
  MDQA_ASSIGN_OR_RETURN(auto ontology,
                        scenarios::BuildHospitalOntology(options));
  return ontology->Compile();
}

Result<datalog::Program> SyntheticProgram(
    const scenarios::SyntheticSpec& spec) {
  MDQA_ASSIGN_OR_RETURN(auto ontology, scenarios::BuildSyntheticOntology(spec));
  return ontology->Compile();
}

// E1 / F2 — Table I -> Table II: the quality version Measurements^q and
// the doctor's clean query (Example 7). Paper expectation:
// Measurements^q = Table I rows 1-2, clean answer = row 1; the Fig. 2
// pipeline runs end to end.
Status RunE1(std::ostream& out) {
  MDQA_ASSIGN_OR_RETURN(
      quality::QualityContext context,
      scenarios::BuildHospitalContext(scenarios::HospitalOptions{}));
  MDQA_ASSIGN_OR_RETURN(const Relation* original,
                        context.database().GetRelation("Measurements"));
  out << "\n--- Table I (original Measurements) ---\n" << original->ToTable();
  MDQA_ASSIGN_OR_RETURN(Relation quality,
                        context.ComputeQualityVersion("Measurements"));
  out << "\n--- Table II (Measurements^q) ---\n" << quality.ToTable();
  MDQA_ASSIGN_OR_RETURN(
      auto clean,
      context.CleanAnswers(
          "Q(T, P, V) :- Measurements(T, P, V), P = \"Tom Waits\", "
          "T >= \"Sep/5-11:45\", T <= \"Sep/5-12:15\"."));
  out << "\n--- Clean answer to the doctor's query ---\n"
      << clean.ToString(*context.ontology().vocab()) << "\n";
  quality::Assessor assessor(&context);
  MDQA_ASSIGN_OR_RETURN(auto report, assessor.Assess());
  out << "\n" << report.ToString() << "\n";
  return Status::Ok();
}

// E2 — Tables III/IV, Examples 2 and 5: downward navigation completes
// Shifts from WorkingSchedules; the query "dates Mark works in W1/W2"
// must answer Sep/9 (with a fresh null for the shift attribute).
Status RunE2(std::ostream& out) {
  MDQA_ASSIGN_OR_RETURN(
      auto ontology,
      scenarios::BuildHospitalOntology(scenarios::HospitalOptions{}));
  MDQA_ASSIGN_OR_RETURN(auto program, ontology->Compile());
  auto vocab = program.vocab();
  out << "\n--- Table III (WorkingSchedules) ---\n"
      << ontology->FindCategoricalRelation("WorkingSchedules")
             ->data()
             .ToTable()
      << "\n--- Table IV (Shifts, extensional) ---\n"
      << ontology->FindCategoricalRelation("Shifts")->data().ToTable();

  datalog::Instance instance = datalog::Instance::FromProgram(program);
  MDQA_RETURN_IF_ERROR(
      datalog::Chase::Run(program, &instance, datalog::ChaseOptions())
          .status());
  MDQA_ASSIGN_OR_RETURN(
      Relation shifts,
      instance.ExportRelation(vocab->FindPredicate("Shifts"), "Shifts^+",
                              {"Ward", "Day", "Nurse", "Shift"}, true));
  out << "\n--- Shifts after rule (8) drill-down ---\n" << shifts.ToTable();
  for (const char* ward : {"W1", "W2"}) {
    MDQA_ASSIGN_OR_RETURN(
        auto q, datalog::Parser::ParseQuery(
                    std::string("Q(D) :- Shifts(\"") + ward +
                        "\", D, \"Mark\", S).",
                    vocab.get()));
    MDQA_ASSIGN_OR_RETURN(auto a, qa::Answer(qa::Engine::kChase, program, q));
    out << "dates Mark works in " << ward << " = " << a.ToString(*vocab)
        << "   (paper: Sep/9)\n";
  }
  return Status::Ok();
}

// E3 + E5 — dimensional constraints: the inter-dimensional negative
// constraint "no Intensive-care patient during August/2005" (Example 1)
// and EGD (6) "one thermometer type per unit" (Example 4). Paper
// expectation: the dirty variants are flagged with witnesses; the clean
// scenario passes; EGD separability is detected syntactically.
Status RunE3(std::ostream& out) {
  {
    MDQA_ASSIGN_OR_RETURN(
        auto clean,
        scenarios::BuildHospitalOntology(scenarios::HospitalOptions{}));
    MDQA_ASSIGN_OR_RETURN(auto program, clean->Compile());
    auto qa = qa::ChaseQa::Create(program);
    out << "\nclean scenario: "
        << (qa.ok() ? "consistent (as expected)" : qa.status().ToString())
        << "\n";
    MDQA_ASSIGN_OR_RETURN(auto props, clean->Analyze());
    out << "separability shortcut available: "
        << (props.separable_egds ? "yes" : "no (form-(10) present)") << "\n";
  }
  {
    scenarios::HospitalOptions options;
    options.include_violating_stay = true;
    MDQA_ASSIGN_OR_RETURN(auto program, HospitalProgram(options));
    auto qa = qa::ChaseQa::Create(program);
    out << "\nE3 (Intensive stay in August/2005):\n  " << qa.status() << "\n";
  }
  {
    scenarios::HospitalOptions options;
    options.include_therm_conflict = true;
    MDQA_ASSIGN_OR_RETURN(auto program, HospitalProgram(options));
    auto qa = qa::ChaseQa::Create(program);
    out << "\nE5 (EGD (6) thermometer-type clash):\n  " << qa.status()
        << "\n";
  }
  return Status::Ok();
}

// E4 — Table V / Example 6 / rule (9): form-(10) disjunctive downward
// navigation. Paper expectation: no certain unit for Elvis Costello, but
// "he was in some unit of H2" holds; patients already placed by rule (7)
// get no redundant nulls (restricted chase).
Status RunE4(std::ostream& out) {
  MDQA_ASSIGN_OR_RETURN(
      auto ontology,
      scenarios::BuildHospitalOntology(scenarios::HospitalOptions{}));
  MDQA_ASSIGN_OR_RETURN(auto program, ontology->Compile());
  auto vocab = program.vocab();
  out << "\n--- Table V (DischargePatients) ---\n"
      << ontology->FindCategoricalRelation("DischargePatients")
             ->data()
             .ToTable();
  MDQA_ASSIGN_OR_RETURN(auto chase, qa::ChaseQa::Create(program));
  MDQA_ASSIGN_OR_RETURN(
      Relation placed,
      chase.instance().ExportRelation(vocab->FindPredicate("PatientUnit"),
                                      "PatientUnit",
                                      {"Unit", "Day", "Patient"}, true));
  out << "\nPatientUnit after rules (7) + (9):\n" << placed.ToTable();
  MDQA_ASSIGN_OR_RETURN(
      auto open,
      datalog::Parser::ParseQuery(
          "Q(U) :- PatientUnit(U, \"Oct/5\", \"Elvis Costello\").",
          vocab.get()));
  MDQA_ASSIGN_OR_RETURN(auto certain, chase.Answers(open));
  out << "certain units for Elvis on Oct/5: " << certain.size()
      << "   (paper: none — disjunctive knowledge)\n";
  MDQA_ASSIGN_OR_RETURN(
      auto boolean,
      datalog::Parser::ParseQuery(
          "Q() :- InstitutionUnit(\"H2\", U), "
          "PatientUnit(U, \"Oct/5\", \"Elvis Costello\").",
          vocab.get()));
  MDQA_ASSIGN_OR_RETURN(bool in_h2, chase.AnswerBoolean(boolean));
  out << "\"Elvis in some unit of H2\" certain: " << (in_h2 ? "yes" : "no")
      << "   (paper: yes)\n";
  return Status::Ok();
}

// F1 — Fig. 1: the extended multidimensional model. Regenerates the
// Hospital/Time/Instrument hierarchies and the categorical-relation
// links textually, with the HM validity checks (strictness,
// homogeneity) and one roll-up and drill-down.
Status RunF1(std::ostream& out) {
  MDQA_ASSIGN_OR_RETURN(
      auto ontology,
      scenarios::BuildHospitalOntology(scenarios::HospitalOptions{}));
  for (const std::string& name : ontology->DimensionNames()) {
    out << "\n" << ontology->FindDimension(name)->ToString();
  }
  out << "\ncategorical relations and their category links:\n";
  for (const std::string& name : ontology->CategoricalRelationNames()) {
    const md::CategoricalRelation* rel =
        ontology->FindCategoricalRelation(name);
    out << "  " << name << "(";
    bool first = true;
    for (const md::CategoricalAttribute& a : rel->attributes()) {
      if (!first) out << ", ";
      first = false;
      out << a.name;
      if (a.is_categorical) {
        out << " -> " << a.dimension << "." << a.category;
      }
    }
    out << ")  [" << rel->data().size() << " rows]\n";
  }
  const md::Dimension* hospital = ontology->FindDimension("Hospital");
  MDQA_RETURN_IF_ERROR(hospital->instance().CheckStrict());
  out << "\nHM checks: Hospital is strict";
  MDQA_RETURN_IF_ERROR(hospital->instance().CheckHomogeneous());
  out << " and homogeneous.\n";
  MDQA_ASSIGN_OR_RETURN(auto rollup,
                        hospital->instance().RollUp("W1", "Institution"));
  out << "roll-up W1 -> Institution: " << rollup[0] << "\n";
  MDQA_ASSIGN_OR_RETURN(auto drill,
                        hospital->instance().DrillDown("H1", "Ward"));
  out << "drill-down H1 -> Ward: " << drill.size() << " wards\n";
  return Status::Ok();
}

// C1 — Section III claim: MD ontologies are weakly sticky (and typically
// not sticky, because dimensional joins repeat marked variables), shown
// for the hospital ontology and for literature witness programs.
void PrintClassRow(std::ostream& out, const std::string& name,
                   const datalog::ProgramAnalysis& a) {
  out << "  " << name << ": linear=" << (a.IsLinear() ? "y" : "n")
      << " guarded=" << (a.IsGuarded() ? "y" : "n")
      << " weakly-guarded=" << (a.IsWeaklyGuarded() ? "y" : "n")
      << " weakly-acyclic=" << (a.IsWeaklyAcyclic() ? "y" : "n")
      << " sticky=" << (a.IsSticky() ? "y" : "n")
      << " weakly-sticky=" << (a.IsWeaklySticky() ? "y" : "n") << "\n";
}

Status RunC1(std::ostream& out) {
  out << "\nclassification (paper claim: MD ontologies are "
         "weakly-sticky; sticky fails on dimensional joins):\n";
  {
    MDQA_ASSIGN_OR_RETURN(auto program,
                          HospitalProgram(scenarios::HospitalOptions{}));
    PrintClassRow(out, "hospital MD ontology",
                  datalog::ProgramAnalysis(program));
  }
  {
    scenarios::HospitalOptions up;
    up.include_downward_rules = false;
    MDQA_ASSIGN_OR_RETURN(auto program, HospitalProgram(up));
    PrintClassRow(out, "hospital (upward-only)",
                  datalog::ProgramAnalysis(program));
  }
  {
    MDQA_ASSIGN_OR_RETURN(
        auto p, datalog::Parser::ParseProgram("R(Y, Z) :- R(X, Y)."));
    PrintClassRow(out, "linear infinite chase ", datalog::ProgramAnalysis(p));
  }
  {
    MDQA_ASSIGN_OR_RETURN(
        auto p, datalog::Parser::ParseProgram(
                    "R(Y, Z) :- R(X, Y).\nQ(X) :- R(X, Y), R(Y, X2).\n"));
    PrintClassRow(out, "CGP non-WS witness   ", datalog::ProgramAnalysis(p));
  }
  return Status::Ok();
}

// C2 — Section IV claim: (boolean) conjunctive query answering over
// weakly-sticky MD ontologies is PTIME in data complexity. Synthetic
// hospital instances grow; both engines' work grows polynomially (here
// near-linearly) in the number of extensional facts, and they agree.
Status RunC2(std::ostream& out) {
  out << "\nQA work vs. extensional size (the paper's PTIME claim — expect "
         "polynomial growth):\n"
      << "  patients  EDB facts  chase rounds  firings  facts added  "
         "WS steps  WS facts  |answers|  agree\n";
  for (int patients : {20, 40, 80, 160, 320}) {
    scenarios::SyntheticSpec spec;
    spec.patients = patients;
    spec.days = 10;
    MDQA_ASSIGN_OR_RETURN(datalog::Program program, SyntheticProgram(spec));
    MDQA_ASSIGN_OR_RETURN(
        auto q,
        datalog::Parser::ParseQuery("Q(U, P) :- SPatientUnit(U, D, P).",
                                    program.vocab().get()));
    MDQA_ASSIGN_OR_RETURN(auto chase, qa::ChaseQa::Create(program));
    MDQA_ASSIGN_OR_RETURN(auto chase_answers, chase.Answers(q));
    qa::DeterministicWsQa ws(program);
    MDQA_ASSIGN_OR_RETURN(auto ws_answers, ws.Answers(q));
    const size_t answers = chase_answers.size();
    const bool agree = qa::AnswerSet::Of(std::move(chase_answers)) ==
                       qa::AnswerSet::Of(std::move(ws_answers));
    const datalog::ChaseStats& cs = chase.stats();
    Printf(out, "  %8d  %9zu  %12llu  %7llu  %11llu  %8llu  %8llu  %9zu  %s\n",
           patients, program.facts().size(), U(cs.rounds), U(cs.tgd_firings),
           U(cs.facts_added), U(ws.stats().resolution_steps),
           U(ws.stats().facts_materialized), answers, agree ? "yes" : "NO");
    if (!agree) {
      return Status::Internal("C2: chase and deterministic-ws disagree at " +
                              std::to_string(patients) + " patients");
    }
  }
  return Status::Ok();
}

// C3 — Section IV: for *upward-only* MD ontologies, conjunctive queries
// admit FO/UCQ rewritings evaluated directly on the extensional database.
// Paper expectation (shape): the rewriting is small, answers agree with
// the chase, and evaluating it on the EDB avoids the chase's
// materialization as the data grows.
Result<datalog::Program> UpwardProgram(int patients) {
  scenarios::SyntheticSpec spec;
  spec.patients = patients;
  spec.days = 10;
  spec.include_downward_rules = false;  // upward-only (Section IV class)
  MDQA_ASSIGN_OR_RETURN(auto ontology, scenarios::BuildSyntheticOntology(spec));
  MDQA_ASSIGN_OR_RETURN(auto props, ontology->Analyze());
  if (!props.upward_only) {
    return Status::Internal("C3: generator no longer upward-only");
  }
  return ontology->Compile();
}

Status RunC3(std::ostream& out) {
  constexpr const char* kQuery = "Q(P) :- SPatientUnit(\"su0\", D, P).";
  {
    MDQA_ASSIGN_OR_RETURN(datalog::Program program, UpwardProgram(40));
    MDQA_ASSIGN_OR_RETURN(
        auto q, datalog::Parser::ParseQuery(kQuery, program.vocab().get()));
    qa::RewriteStats stats;
    MDQA_ASSIGN_OR_RETURN(
        auto ucq,
        qa::UcqRewriter::Rewrite(program, q, qa::RewriteOptions{}, &stats));
    out << "\nrewriting of " << program.vocab()->QueryToString(q) << ":\n";
    for (const auto& cq : ucq) {
      out << "  " << program.vocab()->QueryToString(cq) << "\n";
    }
    out << "UCQ size " << stats.kept << " (generated " << stats.generated
        << " in " << stats.iterations << " iterations)\n";
  }

  out << "\nrewriting vs. chase, selective query, growing data (rows "
         "examined; the chase's are charged in whole blocks of 64 per "
         "join):\n"
      << "   facts   UCQ rows on EDB   chase facts   chase rows   agree\n";
  for (int patients : {20, 80, 320}) {
    MDQA_ASSIGN_OR_RETURN(datalog::Program p, UpwardProgram(patients));
    MDQA_ASSIGN_OR_RETURN(
        auto query, datalog::Parser::ParseQuery(kQuery, p.vocab().get()));
    datalog::Instance edb = datalog::Instance::FromProgram(p);
    MDQA_ASSIGN_OR_RETURN(auto via_rw,
                          qa::UcqRewriter::Answers(p, edb, query));
    MDQA_ASSIGN_OR_RETURN(auto ucq, qa::UcqRewriter::Rewrite(p, query));
    datalog::EvalStats ucq_rows;
    for (const auto& cq : ucq) {
      MDQA_RETURN_IF_ERROR(
          datalog::CqEvaluator(edb, &ucq_rows).Answers(cq).status());
    }

    ExecutionBudget chase_work;
    CountWork(&chase_work);
    datalog::ChaseOptions options;
    options.budget = &chase_work;
    MDQA_ASSIGN_OR_RETURN(auto chase, qa::ChaseQa::Create(p, options));
    Status interruption;
    MDQA_ASSIGN_OR_RETURN(auto via_chase,
                          chase.Answers(query, &chase_work, &interruption));
    MDQA_RETURN_IF_ERROR(interruption);

    const bool agree = qa::AnswerSet::Of(std::move(via_rw)) ==
                       qa::AnswerSet::Of(std::move(via_chase));
    Printf(out, "  %6zu   %15llu   %11llu   %10llu   %s\n", p.facts().size(),
           U(ucq_rows.rows_tried), U(chase.stats().facts_added),
           U(chase_work.steps()), agree ? "yes" : "NO");
    if (!agree) {
      return Status::Internal("C3: rewriting and chase disagree at " +
                              std::to_string(patients) + " patients");
    }
  }
  return Status::Ok();
}

// C4 — navigation-direction ablation (Examples 1-2): upward navigation
// collapses children into parents (tuple-preserving), downward
// navigation fans out one parent tuple into one tuple per child. The
// series shows derived-fact counts as the drill-down fan-out (wards per
// unit) grows, with the upward direction flat.
struct NavCounts {
  size_t edb = 0;
  size_t up = 0;    // SPatientUnit derived
  size_t down = 0;  // SShifts derived
};

Result<NavCounts> CountDerived(int wards_per_unit) {
  scenarios::SyntheticSpec spec;
  spec.patients = 30;
  spec.days = 5;
  spec.wards_per_unit = wards_per_unit;
  MDQA_ASSIGN_OR_RETURN(datalog::Program program, SyntheticProgram(spec));
  datalog::Instance instance = datalog::Instance::FromProgram(program);
  NavCounts counts;
  counts.edb = instance.TotalFacts();
  MDQA_RETURN_IF_ERROR(
      datalog::Chase::Run(program, &instance, datalog::ChaseOptions())
          .status());
  counts.up =
      instance.CountFacts(program.vocab()->FindPredicate("SPatientUnit"));
  counts.down =
      instance.CountFacts(program.vocab()->FindPredicate("SShifts"));
  return counts;
}

Status RunC4(std::ostream& out) {
  out << "\nfan-out ablation (patients and days fixed; wards/unit "
         "grows):\n"
      << "  wards/unit   EDB facts   upward-derived   "
         "downward-derived\n";
  for (int fanout : {1, 2, 4, 8, 16}) {
    MDQA_ASSIGN_OR_RETURN(NavCounts c, CountDerived(fanout));
    Printf(out, "  %10d   %9zu   %14zu   %16zu\n", fanout, c.edb, c.up,
           c.down);
  }
  out << "\n(paper shape: upward stays ~|SPatientWard| regardless of "
         "fan-out; downward grows linearly with wards/unit — one "
         "Shifts tuple per ward of the nurse's unit)\n";
  return Status::Ok();
}

// X1 — chase design choices called out in DESIGN.md: semi-naive vs.
// naive rounds, and interleaved vs. post EGD application (valid on
// separable programs, the paper's Section III condition). Expected
// shape: naive re-joins every fact every round, so its examined rows
// outgrow semi-naive's with recursion depth; post-mode EGDs give the
// interleaved instance on a separable program.
Result<datalog::Program> ChainClosure(int n) {
  std::string text;
  for (int i = 0; i < n; ++i) {
    text += "E(" + std::to_string(i) + ", " + std::to_string(i + 1) + ").\n";
  }
  text += "T(X, Y) :- E(X, Y).\n";
  text += "T(X, Z) :- T(X, Y), E(Y, Z).\n";
  return datalog::Parser::ParseProgram(text);
}

struct ChaseRun {
  datalog::ChaseStats stats;
  uint64_t rows = 0;  // join rows charged to the budget
  std::string instance;
};

Result<ChaseRun> CountedChase(const datalog::Program& program,
                              datalog::ChaseOptions options) {
  ExecutionBudget work;
  CountWork(&work);
  options.budget = &work;
  datalog::Instance instance = datalog::Instance::FromProgram(program);
  ChaseRun run;
  MDQA_RETURN_IF_ERROR(
      datalog::Chase::Run(program, &instance, options, &run.stats));
  run.rows = work.steps();
  run.instance = instance.ToString();
  return run;
}

Status RunX1(std::ostream& out) {
  out << "\nsemi-naive vs naive chase (chain transitive closure; join rows "
         "are charged in whole blocks of 64 per join):\n"
      << "  chain n   semi rounds  naive rounds   semi firings  naive "
         "firings   semi rows  naive rows\n";
  for (int n : {16, 32, 64}) {
    MDQA_ASSIGN_OR_RETURN(datalog::Program program, ChainClosure(n));
    datalog::ChaseOptions naive;
    naive.semi_naive = false;
    MDQA_ASSIGN_OR_RETURN(ChaseRun s,
                          CountedChase(program, datalog::ChaseOptions()));
    MDQA_ASSIGN_OR_RETURN(ChaseRun v, CountedChase(program, naive));
    Printf(out, "  %7d   %11llu  %12llu   %12llu  %13llu   %9llu  %10llu\n",
           n, U(s.stats.rounds), U(v.stats.rounds), U(s.stats.tgd_firings),
           U(v.stats.tgd_firings), U(s.rows), U(v.rows));
    if (s.instance != v.instance) {
      return Status::Internal("X1: naive and semi-naive chases differ at n=" +
                              std::to_string(n));
    }
  }

  out << "\nEGD modes on the (separable) synthetic ontology:\n";
  scenarios::SyntheticSpec spec;
  spec.patients = 100;
  spec.include_downward_rules = false;
  MDQA_ASSIGN_OR_RETURN(datalog::Program program, SyntheticProgram(spec));
  datalog::ChaseOptions post;
  post.egd_mode = datalog::EgdMode::kPost;
  MDQA_ASSIGN_OR_RETURN(ChaseRun interleaved,
                        CountedChase(program, datalog::ChaseOptions()));
  MDQA_ASSIGN_OR_RETURN(ChaseRun after, CountedChase(program, post));
  const bool identical = interleaved.instance == after.instance;
  Printf(out,
         "  interleaved: %llu merges   post: %llu merges   identical "
         "instances: %s\n",
         U(interleaved.stats.egd_merges), U(after.stats.egd_merges),
         identical ? "yes" : "NO");
  if (!identical) {
    return Status::Internal("X1: post-mode EGDs changed the instance");
  }
  return Status::Ok();
}

// X2 — beyond the paper's figures: OLAP roll-up aggregation over
// categorical relations with summarizability enforcement (the HM
// machinery the paper builds on), and CQA-style conflict detection.
Status RunX2(std::ostream& out) {
  // A synthetic receipts relation over the SynHospital dimension.
  scenarios::SyntheticSpec spec;
  spec.wards_per_unit = 3;
  MDQA_ASSIGN_OR_RETURN(auto ontology, scenarios::BuildSyntheticOntology(spec));
  MDQA_ASSIGN_OR_RETURN(
      auto receipts,
      md::CategoricalRelation::Create(
          "Receipts",
          {md::CategoricalAttribute::Categorical("Ward", "SynHospital",
                                                 "SWard"),
           md::CategoricalAttribute::Plain("Seq"),
           md::CategoricalAttribute::Plain("Amount")}));
  const md::Dimension* dim = ontology->FindDimension("SynHospital");
  int seq = 0;
  for (const std::string& ward : dim->instance().Members("SWard")) {
    for (int r = 0; r < 4; ++r) {
      // `r` is a shared group key (think: day index), so roll-ups
      // genuinely merge rows from sibling wards.
      MDQA_RETURN_IF_ERROR(receipts.Insert(
          {Value::Str(ward), Value::Int(r), Value::Int(10 + (seq * 7) % 90)}));
      ++seq;
    }
  }

  MDQA_ASSIGN_OR_RETURN(
      auto by_unit, md::RollUpAggregate(receipts, *dim, "Ward", "SUnit",
                                        "Amount", md::AggFn::kSum));
  out << "\nReceipts rolled up Ward -> Unit (sum), first rows:\n";
  std::string table = by_unit.ToTable();
  out << table.substr(0, 420) << "  ...\n";
  MDQA_ASSIGN_OR_RETURN(
      auto by_inst, md::RollUpAggregate(receipts, *dim, "Ward",
                                        "SInstitution", "Amount",
                                        md::AggFn::kSum));
  out << "groups at Unit level: " << by_unit.size()
      << ", at Institution level: " << by_inst.size() << "\n";

  // Summarizability guard in action.
  md::DimensionInstance dirty = dim->instance();
  MDQA_RETURN_IF_ERROR(dirty.AddChildParent("sw0", "su1"));
  MDQA_ASSIGN_OR_RETURN(auto dirty_dim, md::Dimension::Create(std::move(dirty)));
  auto refused = md::RollUpAggregate(receipts, dirty_dim, "Ward", "SUnit",
                                     "Amount", md::AggFn::kSum);
  out << "non-summarizable roll-up refused: " << refused.status() << "\n";

  // Conflict detection on the dirty hospital scenario.
  scenarios::HospitalOptions options;
  options.include_violating_stay = true;
  MDQA_ASSIGN_OR_RETURN(auto hospital,
                        scenarios::BuildHospitalOntology(options));
  MDQA_ASSIGN_OR_RETURN(auto program, hospital->Compile());
  quality::CqaEngine cqa(program);
  cqa.ProtectDimensionStructure(*hospital);
  MDQA_ASSIGN_OR_RETURN(auto conflicts, cqa.FindConflicts());
  MDQA_ASSIGN_OR_RETURN(auto suspects, cqa.SuspectFacts());
  out << "hospital dirty scenario: " << conflicts.size() << " conflict(s), "
      << suspects.size() << " suspect fact(s)\n";
  return Status::Ok();
}

// P1 — the cost-based planner over a sweep of programs spanning the
// engine space: its predicted chase size against the chased instance,
// each sound engine's predicted cost and the pick, and the
// materialize-vs-on-demand crossover, where UCQ rewriting's disjunct
// blow-up eventually outgrows one-shot chase materialization. The pick
// must be sound, and every sound engine must return the same answers.
struct PlannerCase {
  std::string name;
  datalog::Program program;
  datalog::ConjunctiveQuery query;
  bool egds_separable = false;
};

Result<PlannerCase> MakeCase(const std::string& name,
                             const std::string& program_text,
                             const std::string& query_text) {
  PlannerCase c;
  c.name = name;
  MDQA_ASSIGN_OR_RETURN(c.program, datalog::Parser::ParseProgram(program_text));
  MDQA_ASSIGN_OR_RETURN(
      c.query,
      datalog::Parser::ParseQuery(query_text, c.program.mutable_vocab()));
  return c;
}

// Sticky copy chain P0 -> P1 -> ... -> P<depth>, `rows` EDB facts.
// Rewriting folds the chain into one CQ over P0; the chase materializes
// every level.
Result<PlannerCase> MakeChain(size_t rows, size_t depth) {
  std::string text;
  for (size_t i = 0; i < rows; ++i) {
    text += "P0(\"k" + std::to_string(i) + "\", \"v" + std::to_string(i) +
            "\").\n";
  }
  for (size_t d = 1; d <= depth; ++d) {
    text += "P" + std::to_string(d) + "(X, Y) :- P" + std::to_string(d - 1) +
            "(X, Y).\n";
  }
  return MakeCase("sticky-chain-n" + std::to_string(rows), text,
                  "Out(X, Y) :- P" + std::to_string(depth) + "(X, Y).");
}

// `branch` alternative rules per level over `depth` levels: the UCQ
// rewriting of the goal expands into branch^depth disjuncts while the
// chase's materialized instance stays the same size — the
// materialize-vs-on-demand knob, VLog-style.
Result<PlannerCase> MakeBranchy(size_t rows, size_t depth, size_t branch) {
  std::string text;
  for (size_t i = 0; i < rows; ++i) {
    text += "P0(\"k" + std::to_string(i) + "\").\n";
  }
  for (size_t b = 0; b < branch; ++b) {
    for (size_t i = 0; i < rows; ++i) {
      text += "A" + std::to_string(b) + "(\"k" + std::to_string(i) + "\").\n";
    }
  }
  for (size_t d = 1; d <= depth; ++d) {
    for (size_t b = 0; b < branch; ++b) {
      text += "P" + std::to_string(d) + "(X) :- P" + std::to_string(d - 1) +
              "(X), A" + std::to_string(b) + "(X).\n";
    }
  }
  return MakeCase("branchy-b" + std::to_string(branch), text,
                  "Out(X) :- P" + std::to_string(depth) + "(X).");
}

Result<PlannerCase> MakeWeaklySticky(size_t rows) {
  std::string text;
  for (size_t i = 0; i < rows; ++i) {
    text += "S(\"k" + std::to_string(i) + "\", \"k" +
            std::to_string((i + 1) % rows) + "\").\n";
  }
  text += "R(Y, Z) :- S(X, Y).\n";
  text += "Q(X) :- S(X, Y), S(Y, X2).\n";
  return MakeCase("weakly-sticky", text, "Out(X) :- Q(X).");
}

Result<PlannerCase> MakeNegation(size_t rows) {
  std::string text;
  for (size_t i = 0; i < rows; ++i) {
    text += "P(\"k" + std::to_string(i) + "\").\n";
    if (i % 2 == 0) text += "Q(\"k" + std::to_string(i) + "\").\n";
  }
  text += "T(X) :- P(X), not Q(X).\n";
  return MakeCase("stratified-negation", text, "Out(X) :- T(X).");
}

Result<PlannerCase> MakeHospital() {
  scenarios::HospitalOptions options;
  options.include_downward_rules = false;
  MDQA_ASSIGN_OR_RETURN(auto context,
                        scenarios::BuildHospitalContext(options));
  PlannerCase c;
  c.name = "hospital-upward";
  MDQA_ASSIGN_OR_RETURN(c.program, context.BuildProgram());
  MDQA_ASSIGN_OR_RETURN(c.query, datalog::Parser::ParseQuery(
                                     "Out(T, P, V) :- Measurementsq(T, P, V).",
                                     c.program.mutable_vocab()));
  MDQA_ASSIGN_OR_RETURN(auto props, context.ontology().Analyze());
  c.egds_separable = props.separable_egds;
  return c;
}

// Prints one planner-sweep row and returns |predicted - actual| / actual
// chase facts; fails when the pick is unsound or two sound engines
// disagree.
Result<double> RunPlannerCase(const PlannerCase& c, std::ostream& out) {
  datalog::ProgramAnalysis analysis(c.program);
  analysis::CostModel model(c.program, analysis,
                            analysis::CostModel::CollectEdbStats(c.program));

  datalog::Instance instance = datalog::Instance::FromProgram(c.program);
  datalog::ChaseOptions chase_options;
  chase_options.egds_separable = c.egds_separable;
  MDQA_RETURN_IF_ERROR(
      datalog::Chase::Run(c.program, &instance, chase_options).status());
  const uint64_t actual = instance.CollectStatistics().total_facts;
  const uint64_t predicted = model.PredictedChaseFacts();

  qa::EngineSelectOptions select_options;
  select_options.egds_separable = c.egds_separable;
  select_options.cost_model = &model;
  const qa::EngineSelection selection =
      qa::SelectEngine(c.program, analysis, select_options);

  Printf(out, "  %-20s %8llu /%8llu ", c.name.c_str(), U(predicted),
         U(actual));
  bool pick_sound = false;
  std::optional<qa::AnswerSet> reference;
  bool identical = true;
  for (const qa::EngineCandidate& cand : selection.candidates) {
    if (!cand.sound) {
      Printf(out, "  %-10s", "-");
      continue;
    }
    Printf(out, "  %-10llu", U(cand.predicted_cost));
    if (cand.engine == selection.engine) pick_sound = true;
    MDQA_ASSIGN_OR_RETURN(qa::AnswerSet got,
                          qa::Answer(cand.engine, c.program, c.query));
    if (!reference.has_value()) {
      reference = std::move(got);
    } else if (got != *reference) {
      identical = false;
    }
  }
  Printf(out, "  %s\n", qa::EngineToString(selection.engine));
  if (!pick_sound) {
    return Status::Internal("P1: the planner picked an unsound engine for " +
                            c.name);
  }
  if (!identical) {
    return Status::Internal("P1: sound engines disagreed on " + c.name);
  }
  return actual == 0 ? 0.0
                     : std::abs(static_cast<double>(predicted) -
                                static_cast<double>(actual)) /
                           static_cast<double>(actual);
}

Status RunP1(std::ostream& out) {
  std::vector<Result<PlannerCase>> cases;
  cases.push_back(MakeChain(8, 4));
  cases.push_back(MakeChain(256, 4));
  cases.push_back(MakeWeaklySticky(64));
  cases.push_back(MakeNegation(64));
  cases.push_back(MakeBranchy(48, 4, 8));
  cases.push_back(MakeHospital());

  out << "\nplanner sweep (predicted cost per sound engine; - = unsound):\n"
      << "  case                 pred/actual facts    chase       "
         "det-ws      rewriting   picked\n";
  double error_sum = 0;
  for (Result<PlannerCase>& c : cases) {
    if (!c.ok()) return c.status();
    MDQA_ASSIGN_OR_RETURN(double error, RunPlannerCase(*c, out));
    error_sum += error;
  }
  Printf(out, "  mean chase-size prediction error: %.2f\n",
         error_sum / static_cast<double>(cases.size()));

  out << "\nmaterialize-vs-on-demand crossover (depth-4 branching family, "
         "48 rows):\n"
      << "  branch  pred(chase)  pred(rewrite)  model-prefers\n";
  int predicted_flip = -1;
  for (size_t branch :
       {size_t{1}, size_t{2}, size_t{4}, size_t{6}, size_t{8}}) {
    MDQA_ASSIGN_OR_RETURN(PlannerCase c, MakeBranchy(48, 4, branch));
    datalog::ProgramAnalysis analysis(c.program);
    analysis::CostModel model(c.program, analysis,
                              analysis::CostModel::CollectEdbStats(c.program));
    MDQA_ASSIGN_OR_RETURN(
        auto via_chase, qa::Answer(qa::Engine::kChase, c.program, c.query));
    MDQA_ASSIGN_OR_RETURN(
        auto via_rewrite,
        qa::Answer(qa::Engine::kRewriting, c.program, c.query));
    if (via_chase != via_rewrite) {
      return Status::Internal("P1: chase and rewriting disagree at branch " +
                              std::to_string(branch));
    }
    const bool model_chase =
        model.PredictedChaseCost() < model.PredictedRewritingCost();
    if (model_chase && predicted_flip < 0) {
      predicted_flip = static_cast<int>(branch);
    }
    Printf(out, "  %6zu  %11llu  %13llu  %s\n", branch,
           U(model.PredictedChaseCost()), U(model.PredictedRewritingCost()),
           model_chase ? "chase" : "rewriting");
  }
  out << "  predicted crossover branch factor: "
      << (predicted_flip < 0 ? std::string("none")
                             : std::to_string(predicted_flip))
      << "\n";
  return Status::Ok();
}

}  // namespace

const std::vector<Experiment>& All() {
  static const std::vector<Experiment> kAll = {
      {"E1", "Table I -> Table II quality version and clean query answering",
       RunE1},
      {"E2", "Tables III/IV: drill-down shift completion and Example 5's query",
       RunE2},
      {"E3", "dimensional constraints: NC violation and EGD clash detection",
       RunE3},
      {"E4", "Table V: form-(10) disjunctive downward navigation", RunE4},
      {"F1", "Fig. 1: dimensions, categorical relations, HM model checks",
       RunF1},
      {"C1", "Section III: weak-stickiness classification of MD ontologies",
       RunC1},
      {"C2", "Section IV: PTIME data-complexity scaling of BCQ answering",
       RunC2},
      {"C3", "Section IV: FO/UCQ rewriting for upward-only MD ontologies",
       RunC3},
      {"C4", "upward vs. downward navigation and drill-down fan-out", RunC4},
      {"X1", "semi-naive vs naive chase; interleaved vs post EGD application",
       RunX1},
      {"X2",
       "OLAP roll-up aggregation, summarizability, CQA conflict detection",
       RunX2},
      {"P1",
       "planner: predicted chase size and engine costs, and the "
       "materialize-vs-on-demand crossover",
       RunP1},
  };
  return kAll;
}

const Experiment* Find(std::string_view id) {
  for (const Experiment& e : All()) {
    if (id == e.id) return &e;
  }
  return nullptr;
}

Status Run(const Experiment& experiment, std::ostream& out) {
  out << "==================================================\n"
      << "experiment " << experiment.id << ": " << experiment.title << "\n"
      << "==================================================\n";
  return experiment.run(out);
}

}  // namespace mdqa::experiments
