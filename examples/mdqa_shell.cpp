// An interactive Datalog± shell over the mdqa engine: load programs and
// CSV data, inspect the Datalog± classification, materialize the chase,
// ask queries with any of the three engines, and explain derived facts
// (provenance trees).
//
// Run:  ./build/examples/mdqa_shell            # interactive
//       ./build/examples/mdqa_shell script.txt # replay commands
//
// Flags:
//   --deadline-ms=N   budget every command with an N-millisecond wall-clock
//                     deadline; chase/ask return partial (sound) results
//                     tagged "truncated" when it expires. Ctrl-C likewise
//                     cancels the running command instead of killing the
//                     shell (exit with 'quit' or Ctrl-D).
//   --threads=N       evaluate `ask`'s UCQ rewriting disjuncts on an
//                     N-worker thread pool (results are identical to
//                     serial execution; see docs/parallelism.md). The
//                     chase always runs serially. Default: serial.
//
// Commands:
//   load <file>            parse a Datalog± program file into the session
//   parse <statements.>    parse statements given inline
//   csv <file> [name]      load a CSV file as facts (header = attributes)
//   rules | facts [pred]   show the program / current instance
//   analyze                Datalog± classification + stratification
//   chase                  (re)materialize the chase, with provenance
//   ask <query>            e.g. ask Q(X) :- P(X, Y), Y > 3.
//   insert <ground atom>   stage a new fact, e.g. insert P(1, 2)
//   refresh                fold staged facts into the chased instance
//                          incrementally (Chase::Extend; falls back to a
//                          full re-chase when that would be unsound)
//   engine chase|ws|rewrite
//   explain <ground atom>  derivation tree, e.g. explain T(1, 3)
//   whynot <ground atom>   why a fact is NOT derivable
//   save <file>            serialize rules + chased facts (re-loadable)
//   save-kb <dir>          checkpoint the chased instance into a durable
//                          KB directory (binary, checksummed; see
//                          docs/durability.md)
//   load-kb <dir>          restore a checkpointed instance over the
//                          current program WITHOUT re-chasing
//   demo hospital|finance|synthetic   load a built-in scenario
//   reset | help | quit

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/lint.h"
#include "base/budget.h"
#include "base/fs.h"
#include "base/thread_pool.h"
#include "datalog/analysis.h"
#include "datalog/chase.h"
#include "datalog/parser.h"
#include "datalog/provenance.h"
#include "datalog/whynot.h"
#include "qa/engines.h"
#include "relational/csv.h"
#include "scenarios/finance.h"
#include "scenarios/hospital.h"
#include "scenarios/synthetic.h"
#include "storage/env.h"
#include "storage/kb_store.h"
#include "storage/session_image.h"

namespace mdqa {
namespace {

// SIGINT flips this token: the running command's budget sees it at its
// next check and winds down with a partial result.
CancellationToken g_interrupt;

extern "C" void HandleSigint(int) { g_interrupt.Cancel(); }

class Shell {
 public:
  explicit Shell(int deadline_ms = 0, int threads = 0)
      : deadline_ms_(deadline_ms) {
    budget_.set_cancellation(&g_interrupt);
    if (threads > 0) pool_ = std::make_unique<ThreadPool>(threads);
    Reset();
  }

  // Returns false when the session should end.
  bool Handle(const std::string& line) {
    // Every command starts with a fresh budget window: counters and any
    // pending Ctrl-C from the previous command are cleared, the deadline
    // (when configured) restarts.
    budget_.ResetUsage();
    g_interrupt.Reset();
    if (deadline_ms_ > 0) {
      budget_.SetDeadlineAfter(std::chrono::milliseconds(deadline_ms_));
    }

    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    std::string rest;
    std::getline(in, rest);
    while (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);

    if (cmd.empty()) return true;
    if (cmd == "quit" || cmd == "exit") return false;
    if (cmd == "help") {
      Help();
    } else if (cmd == "reset") {
      Reset();
      std::cout << "session cleared\n";
    } else if (cmd == "load") {
      Load(rest);
    } else if (cmd == "parse") {
      Report(datalog::Parser::ParseInto(rest, &program_), "parsed");
      chased_ = false;
    } else if (cmd == "csv") {
      Csv(rest);
    } else if (cmd == "rules") {
      std::cout << program_.ToString();
    } else if (cmd == "facts") {
      Facts(rest);
    } else if (cmd == "analyze") {
      Analyze();
    } else if (cmd == "check") {
      CheckProgram();
    } else if (cmd == "chase") {
      RunChase();
    } else if (cmd == "ask") {
      Ask(rest);
    } else if (cmd == "insert") {
      Insert(rest);
    } else if (cmd == "refresh") {
      Refresh();
    } else if (cmd == "engine") {
      SetEngine(rest);
    } else if (cmd == "explain") {
      Explain(rest);
    } else if (cmd == "whynot") {
      WhyNot(rest);
    } else if (cmd == "save") {
      Save(rest);
    } else if (cmd == "save-kb") {
      SaveKb(rest);
    } else if (cmd == "load-kb") {
      LoadKb(rest);
    } else if (cmd == "demo") {
      Demo(rest);
    } else {
      std::cout << "unknown command '" << cmd << "' (try: help)\n";
    }
    return true;
  }

 private:
  void Reset() {
    program_ = datalog::Program();
    instance_ =
        std::make_unique<datalog::Instance>(program_.vocab());
    provenance_ = datalog::ProvenanceStore();
    chased_ = false;
    frontier_ = datalog::ChaseFrontier{};
    pending_.clear();
  }

  void Help() {
    std::cout <<
        "  load <file> | parse <stmts.> | csv <file> [name]\n"
        "  rules | facts [pred] | analyze | check | chase\n"
        "  ask <query>   e.g. ask Q(X) :- P(X, Y), Y > 3.\n"
        "  insert <ground atom>   stage a fact, e.g. insert P(1, 2)\n"
        "  refresh       fold staged facts into the chased instance\n"
        "                incrementally (full re-chase when unsound)\n"
        "  engine chase|ws|rewrite   (current: "
              << qa::EngineToString(engine_) << ")\n"
        "  explain <ground atom>   derivation tree (after chase)\n"
        "  whynot <ground atom>    why a fact is NOT derivable\n"
        "  save <file>   write rules + chased facts (re-loadable;\n"
        "                labeled nulls serialize as _nK)\n"
        "  save-kb <dir> checkpoint the chased instance (binary, crc'd)\n"
        "  load-kb <dir> restore a checkpoint without re-chasing\n"
        "  demo hospital|finance|synthetic   load a built-in scenario\n"
        "  reset | quit\n";
  }

  void Report(const Status& s, const char* ok_msg) {
    if (s.ok()) {
      std::cout << ok_msg << "\n";
    } else {
      std::cout << s << "\n";
    }
  }

  void Load(const std::string& path) {
    // Capped read: a fat-fingered path to a huge binary must fail with a
    // Status, not swallow the machine (docs/robustness.md).
    auto text = fs::ReadFileToString(path);
    if (!text.ok()) {
      std::cout << text.status() << "\n";
      return;
    }
    Report(datalog::Parser::ParseInto(*text, &program_), "loaded");
    chased_ = false;
  }

  void Csv(const std::string& args) {
    std::istringstream in(args);
    std::string path, name;
    in >> path >> name;
    auto rel = ReadCsvFile(path, name);
    if (!rel.ok()) {
      std::cout << rel.status() << "\n";
      return;
    }
    datalog::Instance scratch(program_.vocab());
    Status s = scratch.LoadRelation(*rel);
    if (!s.ok()) {
      std::cout << s << "\n";
      return;
    }
    uint32_t pred = program_.vocab()->FindPredicate(rel->name());
    size_t added = 0;
    for (const datalog::Atom& f : scratch.Facts(pred)) {
      if (program_.AddFact(f).ok()) ++added;
    }
    std::cout << "loaded " << added << " facts into " << rel->name() << "\n";
    chased_ = false;
  }

  void Facts(const std::string& pred_name) {
    EnsureChased();
    if (pred_name.empty()) {
      std::cout << instance_->ToString();
      return;
    }
    uint32_t pred = program_.vocab()->FindPredicate(pred_name);
    if (pred == StringPool::kNotFound) {
      std::cout << "unknown predicate '" << pred_name << "'\n";
      return;
    }
    for (const datalog::Atom& f : instance_->Facts(pred)) {
      std::cout << program_.vocab()->AtomToString(f) << ".\n";
    }
  }

  void Analyze() {
    datalog::ProgramAnalysis analysis(program_);
    std::cout << analysis.Report(*program_.vocab());
    auto strata = datalog::StratifyProgram(program_);
    if (!strata.ok()) {
      std::cout << strata.status() << "\n";
    }
  }

  // `check`: lint the session program and report which engine the
  // classification-driven gate would pick.
  void CheckProgram() {
    analysis::DiagnosticBag bag;
    analysis::LintOptions options;
    options.file = "<session>";
    analysis::LintProgram(program_, options, &bag);
    bag.Sort();
    if (bag.empty()) {
      std::cout << "no findings\n";
    } else {
      std::cout << bag.ToText();
      std::cout << bag.errors() << " error(s), " << bag.warnings()
                << " warning(s)\n";
    }
    datalog::ProgramAnalysis analysis(program_);
    qa::EngineSelection selection =
        qa::SelectEngine(program_, analysis, qa::EngineSelectOptions{});
    std::cout << "class: " << analysis.ClassName() << "\n"
              << "recommended engine: " << qa::EngineToString(selection.engine)
              << " — " << selection.reason << "\n";
  }

  void RunChase() {
    instance_ =
        std::make_unique<datalog::Instance>(
            datalog::Instance::FromProgram(program_));
    provenance_ = datalog::ProvenanceStore();
    frontier_ = datalog::ChaseFrontier{};  // old resume point is void
    datalog::ChaseOptions options;
    options.provenance = &provenance_;
    options.budget = &budget_;
    datalog::ChaseStats stats;
    Status s = datalog::Chase::Run(program_, instance_.get(), options, &stats);
    if (!s.ok()) {
      std::cout << s << "\n";
      chased_ = s.code() == StatusCode::kInconsistent;
      return;
    }
    std::cout << stats.ToString() << "; instance now holds "
              << instance_->TotalFacts() << " facts\n";
    // A truncated chase still leaves a sound partial instance behind —
    // facts/explain work against it; re-run `chase` for the full one.
    chased_ = true;
    // A full chase subsumes anything staged (the facts already joined
    // the program at insert time) and renews the resume point.
    frontier_ = stats.frontier;
    pending_.clear();
  }

  void EnsureChased() {
    if (!chased_) RunChase();
  }

  // `insert`: stage a ground fact for an incremental refresh. The fact
  // joins the program immediately (so a later full `chase` also sees
  // it); `refresh` folds all staged facts into the already-chased
  // instance via Chase::Extend instead of re-chasing from scratch.
  void Insert(std::string text) {
    while (!text.empty() && (text.back() == '.' || text.back() == ' ')) {
      text.pop_back();
    }
    auto atom =
        datalog::Parser::ParseGroundAtom(text, program_.mutable_vocab());
    if (!atom.ok()) {
      std::cout << atom.status() << "\n";
      return;
    }
    Status s = program_.AddFact(*atom);
    if (!s.ok()) {
      std::cout << s << "\n";
      return;
    }
    pending_.push_back(*atom);
    std::cout << "staged " << program_.vocab()->AtomToString(*atom) << " ("
              << pending_.size() << " pending; apply with: refresh)\n";
  }

  void Refresh() {
    if (!chased_ || !frontier_.valid) {
      // Nothing materialized to extend (or the last chase was truncated
      // and left no resume point) — a full chase covers the staged facts.
      RunChase();
      return;
    }
    if (pending_.empty()) {
      std::cout << "nothing staged (use: insert <ground atom>)\n";
      return;
    }
    datalog::ChaseOptions options;
    options.provenance = &provenance_;
    options.budget = &budget_;
    datalog::ChaseStats stats;
    Status s = datalog::Chase::Extend(program_, instance_.get(), frontier_,
                                      pending_, options, &stats);
    if (!s.ok()) {
      std::cout << s << "\n";
      chased_ = s.code() == StatusCode::kInconsistent;
      return;
    }
    std::cout << stats.ToString() << "; instance now holds "
              << instance_->TotalFacts() << " facts\n";
    frontier_ = stats.frontier;
    pending_.clear();
  }

  void SetEngine(const std::string& name) {
    if (name == "chase") {
      engine_ = qa::Engine::kChase;
    } else if (name == "ws") {
      engine_ = qa::Engine::kDeterministicWs;
    } else if (name == "rewrite" || name == "rewriting") {
      engine_ = qa::Engine::kRewriting;
    } else {
      std::cout << "engines: chase | ws | rewrite\n";
      return;
    }
    std::cout << "engine = " << qa::EngineToString(engine_) << "\n";
  }

  void Ask(const std::string& text) {
    auto query = datalog::Parser::ParseQuery(text, program_.mutable_vocab());
    if (!query.ok()) {
      std::cout << query.status() << "\n";
      return;
    }
    qa::AnswerOptions aopts;
    aopts.budget = &budget_;
    aopts.pool = pool_.get();
    auto answers = qa::Answer(engine_, program_, *query, aopts);
    if (!answers.ok()) {
      std::cout << answers.status() << "\n";
      return;
    }
    std::cout << answers->size() << " answer(s): "
              << answers->ToString(*program_.vocab()) << "\n";
    if (answers->completeness == Completeness::kTruncated) {
      std::cout << "  (truncated: " << answers->interruption
                << " — the answers above are a sound subset)\n";
    }
  }

  void WhyNot(const std::string& text) {
    EnsureChased();
    auto atom =
        datalog::Parser::ParseGroundAtom(text, program_.mutable_vocab());
    if (!atom.ok()) {
      std::cout << atom.status() << "\n";
      return;
    }
    auto report = datalog::ExplainAbsence(program_, *instance_, *atom);
    if (!report.ok()) {
      std::cout << report.status() << "\n";
      return;
    }
    std::cout << report->ToString();
  }

  void Demo(const std::string& which) {
    Result<datalog::Program> program = [&]() -> Result<datalog::Program> {
      if (which == "hospital") {
        MDQA_ASSIGN_OR_RETURN(
            auto context,
            scenarios::BuildHospitalContext(scenarios::HospitalOptions{}));
        return context.BuildProgram();  // ontology + Table I + quality rules
      }
      if (which == "finance") {
        MDQA_ASSIGN_OR_RETURN(
            auto context,
            scenarios::BuildFinanceContext(scenarios::FinanceOptions{}));
        return context.BuildProgram();
      }
      if (which == "synthetic") {
        MDQA_ASSIGN_OR_RETURN(
            auto ontology,
            scenarios::BuildSyntheticOntology(scenarios::SyntheticSpec{}));
        return ontology->Compile();
      }
      return Status::InvalidArgument(
          "demos: hospital | finance | synthetic");
    }();
    if (!program.ok()) {
      std::cout << program.status() << "\n";
      return;
    }
    Reset();
    program_ = std::move(program).value();
    chased_ = false;
    std::cout << "loaded demo '" << which << "': "
              << program_.rules().size() << " rules, "
              << program_.facts().size()
              << " facts (try: analyze, chase, ask ...)\n";
  }

  void Save(const std::string& path) {
    EnsureChased();
    std::ofstream out(path);
    if (!out) {
      std::cout << "cannot write '" << path << "'\n";
      return;
    }
    for (const datalog::Rule& r : program_.rules()) {
      out << program_.vocab()->RuleToString(r) << "\n";
    }
    out << instance_->ToString();
    std::cout << "saved " << program_.rules().size() << " rules and "
              << instance_->TotalFacts() << " facts to " << path << "\n";
  }

  // `save-kb`: checkpoint the chased instance into a durable KB
  // directory via the storage layer (same format mdqa_serve resumes
  // from). The program itself still travels as text (`save`).
  void SaveKb(const std::string& dir) {
    if (dir.empty()) {
      std::cout << "usage: save-kb <dir>\n";
      return;
    }
    EnsureChased();
    if (!chased_ || !frontier_.valid) {
      std::cout << "nothing checkpointable (chase first; truncated chases "
                   "have no resume point)\n";
      return;
    }
    auto image = storage::CaptureInstanceImage(*instance_, frontier_,
                                               /*generation=*/1, "shell");
    if (!image.ok()) {
      std::cout << image.status() << "\n";
      return;
    }
    auto store = storage::OpenDiskKbStore(storage::Env::Posix(), dir);
    if (!store.ok()) {
      std::cout << store.status() << "\n";
      return;
    }
    Status s = (*store)->WriteCheckpoint(*image);
    if (!s.ok()) {
      std::cout << s << "\n";
      return;
    }
    std::cout << "checkpointed " << instance_->TotalFacts() << " facts to "
              << dir << "\n";
  }

  // `load-kb`: rebuild the chased instance from a checkpoint over the
  // CURRENT program's vocabulary — no re-chase. The rules must already
  // be loaded (load/parse/demo); only the materialization is restored.
  void LoadKb(const std::string& dir) {
    if (dir.empty()) {
      std::cout << "usage: load-kb <dir>\n";
      return;
    }
    auto store = storage::OpenDiskKbStore(storage::Env::Posix(), dir);
    if (!store.ok()) {
      std::cout << store.status() << "\n";
      return;
    }
    auto recovered = (*store)->Recover();
    if (!recovered.ok()) {
      std::cout << recovered.status() << "\n";
      return;
    }
    for (const std::string& line : recovered->degradations) {
      std::cout << "recovery: " << line << "\n";
    }
    if (!recovered->has_checkpoint) {
      std::cout << "no checkpoint in '" << dir << "'\n";
      return;
    }
    auto image =
        std::make_shared<storage::KbImage>(std::move(recovered->image));
    auto restored = storage::ImageRebuilder(image)(program_);
    if (!restored.ok()) {
      std::cout << restored.status() << "\n";
      return;
    }
    instance_ = std::make_unique<datalog::Instance>(
        std::move(restored->instance));
    frontier_ = restored->stats.frontier;
    provenance_ = datalog::ProvenanceStore();  // not persisted
    pending_.clear();
    chased_ = true;
    std::cout << "restored " << instance_->TotalFacts() << " facts from "
              << dir << " (scenario '" << image->meta.scenario
              << "', no re-chase; provenance empty — explain needs a "
                 "fresh chase)\n";
  }

  void Explain(const std::string& text) {
    EnsureChased();
    auto atom =
        datalog::Parser::ParseGroundAtom(text, program_.mutable_vocab());
    if (!atom.ok()) {
      std::cout << atom.status() << "\n";
      return;
    }
    if (!instance_->Contains(*atom)) {
      std::cout << "fact not in the chased instance\n";
      return;
    }
    std::cout << provenance_.Explain(*atom, *program_.vocab());
  }

  datalog::Program program_;
  std::unique_ptr<datalog::Instance> instance_;
  datalog::ProvenanceStore provenance_;
  qa::Engine engine_ = qa::Engine::kChase;
  bool chased_ = false;
  datalog::ChaseFrontier frontier_;       // resume point for `refresh`
  std::vector<datalog::Atom> pending_;    // facts staged by `insert`
  ExecutionBudget budget_;
  int deadline_ms_ = 0;
  std::unique_ptr<ThreadPool> pool_;  // null = serial execution
};

}  // namespace
}  // namespace mdqa

int main(int argc, char** argv) {
  int deadline_ms = 0;
  int threads = 0;
  const char* script_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string kDeadline = "--deadline-ms=";
    const std::string kThreads = "--threads=";
    if (arg.rfind(kDeadline, 0) == 0) {
      deadline_ms = std::atoi(arg.c_str() + kDeadline.size());
      if (deadline_ms <= 0) {
        std::cerr << "bad value in '" << arg << "' (want a positive int)\n";
        return 1;
      }
    } else if (arg.rfind(kThreads, 0) == 0) {
      threads = std::atoi(arg.c_str() + kThreads.size());
      if (threads <= 0) {
        std::cerr << "bad value in '" << arg << "' (want a positive int)\n";
        return 1;
      }
    } else if (script_path == nullptr) {
      script_path = argv[i];
    } else {
      std::cerr << "usage: mdqa_shell [--deadline-ms=N] [--threads=N] "
                   "[script]\n";
      return 1;
    }
  }

  std::signal(SIGINT, mdqa::HandleSigint);
  mdqa::Shell shell(deadline_ms, threads);
  std::istream* in = &std::cin;
  std::ifstream script;
  const bool interactive = script_path == nullptr;
  if (!interactive) {
    script.open(script_path);
    if (!script) {
      std::cerr << "cannot open script '" << script_path << "'\n";
      return 1;
    }
    in = &script;
  }
  if (interactive) {
    std::cout << "mdqa shell — 'help' for commands\n";
  }
  std::string line;
  while (true) {
    if (interactive) std::cout << "> " << std::flush;
    if (!std::getline(*in, line)) break;
    if (!interactive) std::cout << "> " << line << "\n";
    if (!shell.Handle(line)) break;
  }
  return 0;
}
