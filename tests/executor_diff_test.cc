// The executor differential: CqEvaluator::Enumerate, the block-at-a-time
// join executor, against a backtracking reference evaluator kept here,
// on the same instance. The two must agree solution for solution: the
// same substitutions in the same order, the same status, and the same
// EvalStats counters but for rows_tried, which the executor's batch hash
// probe can only lower. The chase's trigger collection, the EGD merge
// order and the first-derived order of CqEvaluator::Answers all rest on
// that order (see the CqEvaluator class comment in datalog/cq_eval.h).
//
// Every rule body is enumerated unseeded, with no level windows and, for
// TGDs, under every level window of the chase's semi-naive passes. The
// seeded lookups are enumerated in the shapes their callers use: each
// TGD's head (the chase's and the WS engine's head check) and body (the
// chase's provenance witness search) under the frontier bindings of the
// rule's first body matches, and why-not's body-prefix enumerations
// under the mgu of a head atom against facts of its predicate. The
// inputs:
//   - Matrix/ColumnarDiff: every scenario family × seed.
//     FullAssessByteIdentical checks the chased context a full
//     assessment reads; IncrementalReassessByteIdentical checks every
//     session of the update stream, whose tables hold a sealed base plus
//     an overlay and levels above the frontier. Both also enumerate the
//     quality read-off queries.
//   - Seeds/HierarchyDiff and Seeds/ClosureDiff: the random program
//     generators, their rule bodies and their generated queries.
//   - RowColumnarEquivalence: hand-built join shapes.
// The scenarios' ground truth is checked by scenario_matrix_test.
//
// Reproducing a failing cell: a Matrix test name carries (family, seed),
// e.g. Matrix/ColumnarDiff.FullAssessByteIdentical/deep_homogeneous_s2 is
// SpecFor(kDeepHomogeneous, 2). MDQA_SCENARIO_SEED=<n> pins the matrix to
// one seed; MDQA_SCENARIO_REDUCED=1 runs one seed per family (the TSan
// configuration of scripts/check.sh --columnar). See docs/testing.md.

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datalog/chase.h"
#include "datalog/cq_eval.h"
#include "datalog/instance.h"
#include "datalog/parser.h"
#include "datalog/unify.h"
#include "testgen/generators.h"
#include "testgen/scenario.h"

namespace mdqa::testgen {
namespace {

using datalog::Atom;
using datalog::AtomLevelWindow;
using datalog::Chase;
using datalog::Comparison;
using datalog::CqEvaluator;
using datalog::EvalStats;
using datalog::FactTable;
using datalog::Instance;
using datalog::Parser;
using datalog::Program;
using datalog::Resolve;
using datalog::Rule;
using datalog::Subst;
using datalog::Term;

// ------------------------------------------------ the reference evaluator

// A backtracking evaluator, the reference the executor is checked
// against. At every node it re-derives the greedy atom choice — the
// unused atom with the most bound positions, ties by the smaller table,
// then the lower index — walks that atom's candidate rows in ascending
// order (the postings of its most selective bound position, else every
// row), and prunes on each comparison and negated atom as soon as it is
// ground. It runs without a budget.
class ReferenceEvaluator {
 public:
  ReferenceEvaluator(const Instance& instance, EvalStats* stats)
      : instance_(instance), stats_(stats) {}

  Status Enumerate(const std::vector<Atom>& atoms,
                   const std::vector<Atom>& negated,
                   const std::vector<Comparison>& comparisons,
                   const Subst& initial,
                   const std::vector<AtomLevelWindow>& windows,
                   const std::function<bool(const Subst&)>& on_match) {
    if (!windows.empty() && windows.size() != atoms.size()) {
      return Status::InvalidArgument(
          "level-window count must match atom count");
    }
    atoms_ = &atoms;
    negated_ = &negated;
    comparisons_ = &comparisons;
    windows_ = windows.empty() ? nullptr : &windows;
    on_match_ = &on_match;
    subst_ = initial;
    used_.assign(atoms.size(), false);
    if (GroundChecksHold()) Recurse(atoms.size());
    return error_;
  }

 private:
  // Every comparison and negated atom that is ground under the current
  // substitution holds; the others pass for now.
  bool GroundChecksHold() const {
    const datalog::Vocabulary& vocab = *instance_.vocab();
    for (const Comparison& c : *comparisons_) {
      const Term lhs = Resolve(subst_, c.lhs);
      const Term rhs = Resolve(subst_, c.rhs);
      if (lhs.IsGround() && rhs.IsGround() &&
          !datalog::EvalComparison(vocab, c.op, lhs, rhs)) {
        return false;
      }
    }
    for (const Atom& a : *negated_) {
      const Atom inst = datalog::SubstAtom(subst_, a);
      if (inst.IsGround() && instance_.Contains(inst)) return false;
    }
    return true;
  }

  size_t PickAtom() const {
    size_t best = atoms_->size();
    size_t best_bound = 0;
    size_t best_size = 0;
    for (size_t i = 0; i < atoms_->size(); ++i) {
      if (used_[i]) continue;
      const Atom& atom = (*atoms_)[i];
      size_t bound = 0;
      for (Term t : atom.terms) bound += Resolve(subst_, t).IsGround();
      const FactTable* table = instance_.Table(atom.predicate);
      const size_t size = table == nullptr ? 0 : table->size();
      if (best == atoms_->size() || bound > best_bound ||
          (bound == best_bound && size < best_size)) {
        best = i;
        best_bound = bound;
        best_size = size;
      }
    }
    return best;
  }

  void Emit() {
    for (const Comparison& c : *comparisons_) {
      if (!Resolve(subst_, c.lhs).IsGround() ||
          !Resolve(subst_, c.rhs).IsGround()) {
        error_ = Status::InvalidArgument(
            "comparison variable not bound by any relational atom");
        return;
      }
    }
    for (const Atom& a : *negated_) {
      if (!datalog::SubstAtom(subst_, a).IsGround()) {
        error_ = Status::InvalidArgument(
            "negated-atom variable not bound by any positive atom");
        return;
      }
    }
    if (stats_ != nullptr) ++stats_->solutions;
    if (!(*on_match_)(subst_)) stop_ = true;
  }

  void Recurse(size_t remaining) {
    if (remaining == 0) {
      Emit();
      return;
    }
    const size_t idx = PickAtom();
    const Atom& atom = (*atoms_)[idx];
    const FactTable* table = instance_.Table(atom.predicate);
    if (table == nullptr) return;
    AtomLevelWindow window;
    if (windows_ != nullptr) window = (*windows_)[idx];

    int probe_pos = -1;
    size_t probe_size = 0;
    Term probe_term;
    for (size_t p = 0; p < atom.terms.size(); ++p) {
      const Term t = Resolve(subst_, atom.terms[p]);
      if (!t.IsGround()) continue;
      const size_t count = table->ProbeCount(p, t);
      if (probe_pos < 0 || count < probe_size) {
        probe_pos = static_cast<int>(p);
        probe_size = count;
        probe_term = t;
      }
    }
    std::vector<uint32_t> rows;
    if (probe_pos >= 0) {
      if (stats_ != nullptr) ++stats_->index_probes;
      rows = table->Probe(static_cast<size_t>(probe_pos), probe_term);
    } else {
      if (stats_ != nullptr) ++stats_->full_scans;
      rows.resize(table->size());
      std::iota(rows.begin(), rows.end(), 0u);
    }
    for (uint32_t r : rows) {
      if (stop_ || !error_.ok()) return;
      const uint32_t level = table->Level(r);
      if (level < window.min_level || level > window.max_level) continue;
      if (stats_ != nullptr) ++stats_->rows_tried;
      const size_t mark = trail_.size();
      if (datalog::MatchAtom(atom, table->Row(r), &subst_, &trail_) &&
          GroundChecksHold()) {
        if (stats_ != nullptr) ++stats_->atoms_matched;
        used_[idx] = true;
        Recurse(remaining - 1);
        used_[idx] = false;
      }
      datalog::UndoTrail(&subst_, &trail_, mark);
    }
  }

  const Instance& instance_;
  EvalStats* stats_;  // may be null
  const std::vector<Atom>* atoms_ = nullptr;
  const std::vector<Atom>* negated_ = nullptr;
  const std::vector<Comparison>* comparisons_ = nullptr;
  const std::vector<AtomLevelWindow>* windows_ = nullptr;  // may be null
  const std::function<bool(const Subst&)>* on_match_ = nullptr;
  Subst subst_;
  std::vector<uint32_t> trail_;
  std::vector<bool> used_;  // per atom
  bool stop_ = false;       // on_match asked to stop
  Status error_;            // first error
};

// --------------------------------------------------------- the harness

// What one enumeration shows: its solutions in emission order (each
// substitution sorted by variable), its counters and its status.
struct Trace {
  std::vector<std::vector<std::pair<uint32_t, Term>>> solutions;
  EvalStats stats;
  std::string status;
};

std::function<bool(const Subst&)> Collector(Trace* trace) {
  return [trace](const Subst& subst) {
    std::vector<std::pair<uint32_t, Term>> row(subst.begin(), subst.end());
    std::sort(row.begin(), row.end());
    trace->solutions.push_back(std::move(row));
    return true;
  };
}

// Enumerates one body through the executor and the reference under
// `seed` and expects identical traces; returns the solution count.
size_t ExpectExecutorsAgree(const Instance& instance,
                            const std::vector<Atom>& atoms,
                            const std::vector<Atom>& negated,
                            const std::vector<Comparison>& comparisons,
                            const Subst& seed,
                            const std::vector<AtomLevelWindow>& windows,
                            const std::string& what) {
  Trace executor;
  executor.status = CqEvaluator(instance, &executor.stats, nullptr)
                        .Enumerate(atoms, negated, comparisons, seed, windows,
                                   Collector(&executor))
                        .ToString();
  Trace reference;
  reference.status = ReferenceEvaluator(instance, &reference.stats)
                         .Enumerate(atoms, negated, comparisons, seed,
                                    windows, Collector(&reference))
                         .ToString();

  EXPECT_EQ(executor.status, reference.status) << what;
  EXPECT_EQ(executor.solutions, reference.solutions) << what;
  // Scans and postings probes examine the same rows on both paths. The
  // executor's batch hash probe examines only its bound key's chain,
  // where the reference walks every row of its most selective bound
  // position: never more rows (see datalog/cq_eval.h).
  EXPECT_LE(executor.stats.rows_tried, reference.stats.rows_tried) << what;
  EXPECT_EQ(executor.stats.atoms_matched, reference.stats.atoms_matched)
      << what;
  EXPECT_EQ(executor.stats.index_probes, reference.stats.index_probes)
      << what;
  EXPECT_EQ(executor.stats.full_scans, reference.stats.full_scans) << what;
  EXPECT_EQ(executor.stats.solutions, reference.stats.solutions) << what;
  return reference.solutions.size();
}

uint32_t MaxLevel(const Instance& instance) {
  uint32_t max_level = 0;
  for (uint32_t pred : instance.Predicates()) {
    const FactTable* table = instance.Table(pred);
    for (uint32_t r = 0; r < table->size(); ++r) {
      max_level = std::max(max_level, table->Level(r));
    }
  }
  return max_level;
}

// Body matches of a TGD whose frontier bindings seed the head check and
// the witness search, and facts per head atom that seed why-not.
constexpr size_t kSeededMatches = 64;
constexpr uint32_t kWhyNotFacts = 8;

// The lookups the chase (Apply) and the WS engine (Fire) seed with a body
// match's frontier bindings: the head check Satisfiable(head, {}, seed)
// and the provenance witness search over the body. Each is enumerated in
// full, which also fixes the first witness.
void ExpectFrontierLookupsAgree(const Instance& instance, const Rule& rule,
                                const std::string& text) {
  const std::vector<uint32_t> frontier = rule.FrontierVariables();
  std::vector<Subst> seeds;
  const Status matched = CqEvaluator(instance).Enumerate(
      rule.body, rule.negated, rule.comparisons, Subst{}, {},
      [&](const Subst& theta) {
        Subst seed;
        for (uint32_t v : frontier) {
          seed[v] = Resolve(theta, Term::Variable(v));
        }
        seeds.push_back(std::move(seed));
        return seeds.size() < kSeededMatches;
      });
  ASSERT_TRUE(matched.ok()) << matched << " " << text;
  for (size_t i = 0; i < seeds.size(); ++i) {
    const std::string what = text + " match=" + std::to_string(i);
    const size_t heads = ExpectExecutorsAgree(instance, rule.head, {}, {},
                                              seeds[i], {}, what + " head");
    const Result<bool> satisfied =
        CqEvaluator(instance).Satisfiable(rule.head, {}, seeds[i]);
    ASSERT_TRUE(satisfied.ok()) << satisfied.status() << " " << what;
    EXPECT_EQ(*satisfied, heads > 0) << what;
    ExpectExecutorsAgree(instance, rule.body, rule.negated, rule.comparisons,
                         seeds[i], {}, what + " witness");
  }
}

// Why-not's filter for the comparisons a body prefix can decide: each
// variable occurs in the prefix or is bound by the mgu.
bool PrefixDecides(const Comparison& c, const std::vector<Atom>& prefix,
                   const Subst& mgu) {
  for (Term t : {c.lhs, c.rhs}) {
    if (!t.IsVariable() || Resolve(mgu, t).IsGround()) continue;
    bool found = false;
    for (const Atom& a : prefix) {
      found = found || std::find(a.terms.begin(), a.terms.end(), t) !=
                           a.terms.end();
    }
    if (!found) return false;
  }
  return true;
}

// Why-not's lookups (ExplainAbsence): each head atom unified with the
// first facts of its predicate, and under that mgu every body prefix, once
// with the comparisons it decides (the satisfiability check) and once
// without (the blocking atom's witness search).
void ExpectWhyNotPrefixesAgree(const Instance& instance, const Rule& rule,
                               const std::string& text) {
  for (const Atom& head : rule.head) {
    const FactTable* table = instance.Table(head.predicate);
    if (table == nullptr) continue;
    const uint32_t facts =
        std::min(static_cast<uint32_t>(table->size()), kWhyNotFacts);
    for (uint32_t r = 0; r < facts; ++r) {
      const Term* row = table->Row(r);
      const Atom fact(head.predicate,
                      std::vector<Term>(row, row + head.arity()));
      const std::optional<Subst> mgu = datalog::UnifyAtoms(head, fact);
      if (!mgu.has_value()) continue;
      for (size_t k = 1; k <= rule.body.size(); ++k) {
        const std::vector<Atom> prefix(rule.body.begin(),
                                       rule.body.begin() + k);
        std::vector<Comparison> decided;
        for (const Comparison& c : rule.comparisons) {
          if (PrefixDecides(c, prefix, *mgu)) decided.push_back(c);
        }
        const std::string what = text + " fact=" + std::to_string(r) +
                                 " prefix=" + std::to_string(k);
        ExpectExecutorsAgree(instance, prefix, {}, decided, *mgu, {}, what);
        ExpectExecutorsAgree(instance, prefix, {}, {}, *mgu, {},
                             what + " witness");
      }
    }
  }
}

// Every rule body of `program`, unwindowed, and each TGD body under the
// windows of every semi-naive delta pass the chase could run over
// `instance` (delta atom d pinned to level `prev`, the atoms before it to
// strictly older levels, as in ChaseLoop::Round), then each TGD's seeded
// lookups.
void ExpectRuleBodiesAgree(const Instance& instance, const Program& program) {
  const datalog::Vocabulary& vocab = *program.vocab();
  const uint32_t max_level = MaxLevel(instance);
  for (const Rule& rule : program.rules()) {
    const std::string text = vocab.RuleToString(rule);
    ExpectExecutorsAgree(instance, rule.body, rule.negated, rule.comparisons,
                         Subst{}, {}, text);
    if (!rule.IsTgd()) continue;
    for (uint32_t prev = 0; prev <= max_level; ++prev) {
      for (size_t d = 0; d < rule.body.size(); ++d) {
        std::vector<AtomLevelWindow> windows(rule.body.size());
        for (size_t j = 0; j < d; ++j) {
          windows[j].max_level = prev > 0 ? prev - 1 : 0;
          if (prev == 0) windows[j].min_level = 1;  // empty window
        }
        windows[d].min_level = prev;
        windows[d].max_level = prev;
        ExpectExecutorsAgree(instance, rule.body, rule.negated,
                             rule.comparisons, Subst{}, windows,
                             text + " delta=" + std::to_string(d) +
                                 " prev=" + std::to_string(prev));
      }
    }
    ExpectFrontierLookupsAgree(instance, rule, text);
    ExpectWhyNotPrefixesAgree(instance, rule, text);
  }
}

void ExpectQueryAgrees(const Instance& instance, const Program& program,
                       const datalog::ConjunctiveQuery& query) {
  ExpectExecutorsAgree(instance, query.body, query.negated, query.comparisons,
                       Subst{}, {}, program.vocab()->QueryToString(query));
}

// --------------------------------------------------- scenario matrix

std::vector<uint32_t> MatrixSeeds() {
  if (const char* s = std::getenv("MDQA_SCENARIO_SEED")) {
    return {static_cast<uint32_t>(std::strtoul(s, nullptr, 10))};
  }
  if (std::getenv("MDQA_SCENARIO_REDUCED") != nullptr) return {1};
  return {1, 2, 3};
}

using Cell = std::tuple<ScenarioFamily, uint32_t>;

std::string CellName(const ::testing::TestParamInfo<Cell>& info) {
  std::string name = ScenarioFamilyToString(std::get<0>(info.param));
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_s" + std::to_string(std::get<1>(info.param));
}

// Rule bodies and the quality read-off queries over one session.
void ExpectSessionAgrees(const GeneratedScenario& scenario,
                         const quality::PreparedContext& session) {
  const Program& program = session.program();
  ExpectRuleBodiesAgree(session.instance(), program);
  for (const std::string& rel : scenario.context.AssessedRelations()) {
    auto qpred = scenario.context.QualityPredicateOf(rel);
    ASSERT_TRUE(qpred.ok()) << qpred.status();
    auto original = session.database().GetRelation(rel);
    ASSERT_TRUE(original.ok()) << original.status();
    std::string vars;
    for (size_t i = 0; i < (*original)->arity(); ++i) {
      vars += (i > 0 ? ", X" : "X") + std::to_string(i);
    }
    auto query = session.PrepareRawQuery("Ans(" + vars + ") :- " + *qpred +
                                         "(" + vars + ").");
    ASSERT_TRUE(query.ok()) << query.status();
    ExpectQueryAgrees(session.instance(), program, *query);
  }
}

class ColumnarDiff : public ::testing::TestWithParam<Cell> {
 protected:
  ScenarioSpec Spec() const {
    return SpecFor(std::get<0>(GetParam()), std::get<1>(GetParam()));
  }
};

// The chased context a full assessment reads.
TEST_P(ColumnarDiff, FullAssessByteIdentical) {
  auto scenario = ScenarioGenerator::Generate(Spec());
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  auto prepared = scenario->context.Prepare();
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  ExpectSessionAgrees(*scenario, *prepared);
}

// Every session of the update stream, as incremental reassessment reads
// it: frozen tables extended by overlays, levels above the frontier.
TEST_P(ColumnarDiff, IncrementalReassessByteIdentical) {
  auto scenario = ScenarioGenerator::Generate(Spec());
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  ASSERT_FALSE(scenario->updates.empty());
  auto prepared = scenario->context.Prepare();
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  quality::PreparedContext session = std::move(*prepared);
  for (size_t b = 0; b < scenario->updates.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    auto next = session.ApplyUpdate(scenario->updates[b].batch);
    ASSERT_TRUE(next.ok()) << next.status();
    session = std::move(*next);
    ExpectSessionAgrees(*scenario, session);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ColumnarDiff,
    ::testing::Combine(::testing::ValuesIn(kAllScenarioFamilies),
                       ::testing::ValuesIn(MatrixSeeds())),
    CellName);

// ------------------------------------------------ program generators

struct Chased {
  Program program;
  Instance instance;
};

// Parses and chases `text`; a parse failure yields an empty program.
Chased ChaseText(const std::string& text) {
  auto p = Parser::ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status() << "\n" << text;
  Program program = p.ok() ? std::move(*p) : Program();
  Instance instance = Instance::FromProgram(program);
  EXPECT_TRUE(Chase::Run(program, &instance).ok()) << text;
  return {std::move(program), std::move(instance)};
}

void ExpectGeneratedRulesAgree(const GeneratedCase& c) {
  Chased run = ChaseText(c.program_text);
  ExpectRuleBodiesAgree(run.instance, run.program);
}

void ExpectGeneratedQueriesAgree(const GeneratedCase& c) {
  Chased run = ChaseText(c.program_text);
  for (const std::string& text : c.queries) {
    auto q = Parser::ParseQuery(text, run.program.mutable_vocab());
    ASSERT_TRUE(q.ok()) << q.status();
    ExpectQueryAgrees(run.instance, run.program, *q);
  }
}

class HierarchyDiff : public ::testing::TestWithParam<uint32_t> {};

TEST_P(HierarchyDiff, ChaseInstanceAndStatsBitIdentical) {
  ExpectGeneratedRulesAgree(GenerateHierarchy(GetParam()));
}

TEST_P(HierarchyDiff, CertainAnswersIdentical) {
  ExpectGeneratedQueriesAgree(GenerateHierarchy(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, HierarchyDiff, ::testing::Range(0u, 110u));

class ClosureDiff : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ClosureDiff, ChaseInstanceAndStatsBitIdentical) {
  ExpectGeneratedRulesAgree(GenerateClosure(GetParam()));
}

TEST_P(ClosureDiff, CertainAnswersIdentical) {
  ExpectGeneratedQueriesAgree(GenerateClosure(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosureDiff, ::testing::Range(0u, 60u));

// ------------------------------------------------- hand-built shapes

constexpr char kProgram[] = R"(
  Edge("a", "b"). Edge("b", "c"). Edge("c", "d"). Edge("a", "c").
  Label("a", "x"). Label("b", "y"). Label("c", "x"). Label("d", "y").
  Path(u, v) :- Edge(u, v).
  Path(u, w) :- Path(u, v), Edge(v, w).
  Same(u, v) :- Label(u, l), Label(v, l).
)";

TEST(RowColumnarEquivalence, ChaseAndAnswersAgree) {
  Chased run = ChaseText(kProgram);
  ExpectRuleBodiesAgree(run.instance, run.program);
  auto q = Parser::ParseQuery("Ans(u, v) :- Path(u, v), Same(u, v).",
                              run.program.mutable_vocab());
  ASSERT_TRUE(q.ok());
  ExpectQueryAgrees(run.instance, run.program, *q);
}

TEST(RowColumnarEquivalence, NegationAndComparisonsAgree) {
  Chased run = ChaseText(kProgram);
  auto q = Parser::ParseQuery(
      "Ans(u, v) :- Path(u, v), not Edge(u, v), u != v.",
      run.program.mutable_vocab());
  ASSERT_TRUE(q.ok());
  ExpectQueryAgrees(run.instance, run.program, *q);
}

// A chase over a frozen (sealed) EDB probes across a segment chain: its
// result must match a never-frozen run row for row, and the executors
// must agree on the chained tables.
TEST(RowColumnarEquivalence, ChaseOverSealedBaseAgrees) {
  auto p = Parser::ParseProgram(kProgram);
  ASSERT_TRUE(p.ok());
  Instance sealed = Instance::FromProgram(*p);
  sealed.Freeze();  // EDB becomes a sealed segment; chase appends overlay
  Instance plain = Instance::FromProgram(*p);
  ASSERT_TRUE(Chase::Run(*p, &sealed).ok());
  ASSERT_TRUE(Chase::Run(*p, &plain).ok());
  ASSERT_EQ(sealed.TotalFacts(), plain.TotalFacts());
  for (uint32_t pred : plain.Predicates()) {
    std::vector<Atom> a = sealed.Facts(pred);
    std::vector<Atom> b = plain.Facts(pred);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
  ExpectRuleBodiesAgree(sealed, *p);
}

// Regression: the block executor's batch-hash probe must survive a chunk
// flush in the middle of a bucket. The shape below forces the middle atom
// onto the hash path (low-distinct bound position, incoming chunk of 8)
// with buckets wider than one output chunk, so the recursive flush into
// the third atom runs — and historically clobbered the shared scratch
// buffer the bucket verification read from, silently dropping the rest of
// the bucket (2 facts per chase pass in the wild).
TEST(RowColumnarEquivalence, HashProbeSurvivesMidBucketFlush) {
  std::string text;
  for (int i = 0; i < 10; ++i) {
    text += "R(\"x" + std::to_string(i) + "\", \"" +
            (i % 2 == 0 ? std::string("a") : std::string("b")) + "\").\n";
  }
  for (const char* y : {"a", "b"}) {
    for (int k = 0; k < 10; ++k) {
      text += "S(\"" + std::string(y) + "\", \"z" + std::to_string(k) +
              "\").\n";
    }
  }
  for (int k = 0; k < 10; ++k) {
    for (int j = 0; j < 3; ++j) {
      text += "T(\"z" + std::to_string(k) + "\", \"w" + std::to_string(k) +
              "_" + std::to_string(j) + "\").\n";
    }
  }
  auto p = Parser::ParseProgram(text);
  ASSERT_TRUE(p.ok());
  auto q = Parser::ParseQuery("Ans(X, Y, Z, W) :- R(X, Y), S(Y, Z), T(Z, W).",
                              p->mutable_vocab());
  ASSERT_TRUE(q.ok());
  Instance instance = Instance::FromProgram(*p);
  // Every R row joins 10 S rows on y, each of which joins 3 T rows on z.
  EXPECT_EQ(ExpectExecutorsAgree(instance, q->body, q->negated,
                                 q->comparisons, Subst{}, {},
                                 "three-way join"),
            300u);
}

// The postings path verifies a candidate's other bound positions against
// its row, with each expected term taken from the parent block: a chunk
// flush in the middle of the driver's postings recurses into the T atom,
// whose own probe overwrites the shared target buffer. The seed Y = "a"
// makes S the first atom with a block of one binding, below the hash
// path's threshold. S's bound positions are Y (60 rows) and the constant
// "c" (40 rows), so "c" drives and Y is verified; the decoys fail one or
// the other. 20 S rows match, each joining 3 T rows.
TEST(RowColumnarEquivalence, PostingsProbeSurvivesMidListFlush) {
  std::string text;
  for (int k = 0; k < 20; ++k) {
    const std::string z = "\"z" + std::to_string(k) + "\"";
    text += "S(\"a\", \"c\", " + z + "). S(\"b\", \"c\", " + z +
            "). S(\"a\", \"d\", " + z + "). S(\"a\", \"e\", " + z +
            ").\n";
    for (int j = 0; j < 3; ++j) {
      text += "T(" + z + ", \"w" + std::to_string(j) + "\").\n";
    }
  }
  auto p = Parser::ParseProgram(text);
  ASSERT_TRUE(p.ok());
  auto q = Parser::ParseQuery("Ans(Y, Z, W) :- S(Y, \"c\", Z), T(Z, W).",
                              p->mutable_vocab());
  ASSERT_TRUE(q.ok());
  Subst seed;
  seed[q->answer[0].id()] = p->mutable_vocab()->Str("a");
  Instance instance = Instance::FromProgram(*p);
  EXPECT_EQ(ExpectExecutorsAgree(instance, q->body, q->negated,
                                 q->comparisons, seed, {}, "postings join"),
            60u);
}

// The batch hash index keys rows under the probed table's test mask, so
// mask 0 puts every in-window S row into one chain, and only the term
// verification of each chain hit keeps the join exact. R's 8 rows make
// an incoming block of 8, enough for the hash path. S's window (level 1)
// holds ("k", b_i); its level-0 rows ("o_m", b_i) give each b_i as many
// rows as "k" has, so the reference walks the 8 rows of "k" per binding:
// exactly the chain the hash path walks.
TEST(RowColumnarEquivalence, HashProbeVerifiesCollidingKeys) {
  std::string text;
  for (int i = 0; i < 8; ++i) {
    text += "R(\"k\", \"b" + std::to_string(i) + "\").\n";
  }
  auto p = Parser::ParseProgram(text);
  ASSERT_TRUE(p.ok());
  auto q = Parser::ParseQuery("Ans(K, Y) :- R(K, Y), S(K, Y).",
                              p->mutable_vocab());
  ASSERT_TRUE(q.ok());
  datalog::Vocabulary* vocab = p->mutable_vocab();
  const uint32_t s = vocab->FindPredicate("S");
  Instance instance = Instance::FromProgram(*p);
  instance.MutableTable(s, 2)->set_hash_mask_for_test(0);
  for (int i = 0; i < 8; ++i) {
    const Term b = vocab->Str("b" + std::to_string(i));
    instance.AddFact(Atom(s, {vocab->Str("k"), b}), 1);
    for (int m = 0; m < 7; ++m) {
      instance.AddFact(Atom(s, {vocab->Str("o" + std::to_string(m)), b}), 0);
    }
  }
  const std::vector<AtomLevelWindow> windows = {{}, {1, 1}};
  EXPECT_EQ(ExpectExecutorsAgree(instance, q->body, q->negated,
                                 q->comparisons, Subst{}, windows,
                                 "masked hash join"),
            8u);
  // Each of the 8 bindings walked all 8 in-window S rows: one chain.
  EvalStats stats;
  ASSERT_TRUE(CqEvaluator(instance, &stats, nullptr)
                  .Enumerate(q->body, q->negated, q->comparisons, Subst{},
                             windows, [](const Subst&) { return true; })
                  .ok());
  EXPECT_EQ(stats.rows_tried, 8u + 8u * 8u);
}

}  // namespace
}  // namespace mdqa::testgen
