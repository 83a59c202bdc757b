// The executor differential: the vectorized block executor (BlockJoin)
// against the backtracking evaluator, on the same instance.
// CqEvaluator::Enumerate sends every whole-relation body (empty initial
// substitution) to BlockJoin and every seeded one to the backtracking
// path, and the two must agree solution for solution: the same
// substitutions in the same order, the same status, and the same
// EvalStats counters but for rows_tried, which BlockJoin's batch hash
// probe can only lower. The chase's trigger collection, the EGD merge
// order and the first-derived order of CqEvaluator::Answers all rest on
// that order (see datalog/join.h).
//
// Both executors run under one initial substitution that binds a
// variable no body mentions: it constrains nothing, and it routes
// CqEvaluator::Enumerate onto the backtracking path. Every rule body is
// enumerated with no level windows and, for TGDs, under every level
// window of the chase's semi-naive passes. The inputs:
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
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datalog/chase.h"
#include "datalog/cq_eval.h"
#include "datalog/instance.h"
#include "datalog/join.h"
#include "datalog/parser.h"
#include "testgen/generators.h"
#include "testgen/scenario.h"

namespace mdqa::testgen {
namespace {

using datalog::Atom;
using datalog::AtomLevelWindow;
using datalog::BlockJoin;
using datalog::Chase;
using datalog::Comparison;
using datalog::CqEvaluator;
using datalog::EvalStats;
using datalog::Instance;
using datalog::Parser;
using datalog::Program;
using datalog::Rule;
using datalog::Subst;
using datalog::Term;

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

// A binding of a variable no parsed body uses, to seed both executors.
Subst UnusedBinding(const Program& program) {
  datalog::Vocabulary* vocab = program.vocab().get();
  Subst seed;
  seed[vocab->FreshVariable().id()] = vocab->Str("executor-diff");
  return seed;
}

// Enumerates one body through both executors under `seed` and expects
// identical traces; returns the solution count.
size_t ExpectExecutorsAgree(const Instance& instance,
                            const std::vector<Atom>& atoms,
                            const std::vector<Atom>& negated,
                            const std::vector<Comparison>& comparisons,
                            const Subst& seed,
                            const std::vector<AtomLevelWindow>& windows,
                            const std::string& what) {
  Trace block;
  BlockJoin join(instance, &block.stats, nullptr);
  block.status = join.Run(atoms, negated, comparisons, seed, windows,
                          Collector(&block))
                     .ToString();
  Trace backtracking;
  CqEvaluator eval(instance, &backtracking.stats, nullptr);
  backtracking.status = eval.Enumerate(atoms, negated, comparisons, seed,
                                       windows, Collector(&backtracking))
                            .ToString();

  EXPECT_EQ(block.status, backtracking.status) << what;
  EXPECT_EQ(block.solutions, backtracking.solutions) << what;
  // Scans and postings probes examine the same rows on both paths.
  // BlockJoin's batch hash probe examines only its bound key's bucket,
  // where the backtracking path walks every row of its most selective
  // bound position: never more rows (see datalog/join.h).
  EXPECT_LE(block.stats.rows_tried, backtracking.stats.rows_tried) << what;
  EXPECT_EQ(block.stats.atoms_matched, backtracking.stats.atoms_matched)
      << what;
  EXPECT_EQ(block.stats.index_probes, backtracking.stats.index_probes)
      << what;
  EXPECT_EQ(block.stats.full_scans, backtracking.stats.full_scans) << what;
  EXPECT_EQ(block.stats.solutions, backtracking.stats.solutions) << what;
  return backtracking.solutions.size();
}

uint32_t MaxLevel(const Instance& instance) {
  uint32_t max_level = 0;
  for (uint32_t pred : instance.Predicates()) {
    const datalog::FactTable* table = instance.Table(pred);
    for (uint32_t r = 0; r < table->size(); ++r) {
      max_level = std::max(max_level, table->Level(r));
    }
  }
  return max_level;
}

// Every rule body of `program`, unwindowed, and each TGD body under the
// windows of every semi-naive delta pass the chase could run over
// `instance`: delta atom d pinned to level `prev`, the atoms before it to
// strictly older levels (as in ChaseLoop::Round).
void ExpectRuleBodiesAgree(const Instance& instance, const Program& program) {
  const Subst seed = UnusedBinding(program);
  const datalog::Vocabulary& vocab = *program.vocab();
  const uint32_t max_level = MaxLevel(instance);
  for (const Rule& rule : program.rules()) {
    const std::string text = vocab.RuleToString(rule);
    ExpectExecutorsAgree(instance, rule.body, rule.negated, rule.comparisons,
                         seed, {}, text);
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
                             rule.comparisons, seed, windows,
                             text + " delta=" + std::to_string(d) +
                                 " prev=" + std::to_string(prev));
      }
    }
  }
}

void ExpectQueryAgrees(const Instance& instance, const Program& program,
                       const datalog::ConjunctiveQuery& query) {
  ExpectExecutorsAgree(instance, query.body, query.negated, query.comparisons,
                       UnusedBinding(program), {},
                       program.vocab()->QueryToString(query));
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
                                 q->comparisons, UnusedBinding(*p), {},
                                 "three-way join"),
            300u);
}

// The batch hash index keys rows under the probed table's test mask, so
// mask 0 puts every in-window S row into one chain, and only the term
// verification of each chain hit keeps the join exact. R's 8 rows make
// an incoming block of 8, enough for the hash path. S's window (level 1)
// holds ("k", b_i); its level-0 rows ("o_m", b_i) give each b_i as many
// rows as "k" has, so the backtracking path walks the 8 rows of "k" per
// binding: exactly the chain the hash path walks.
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
                                 q->comparisons, UnusedBinding(*p), windows,
                                 "masked hash join"),
            8u);
  // Each of the 8 bindings walked all 8 in-window S rows: one chain.
  EvalStats stats;
  ASSERT_TRUE(BlockJoin(instance, &stats, nullptr)
                  .Run(q->body, q->negated, q->comparisons, UnusedBinding(*p),
                       windows, [](const Subst&) { return true; })
                  .ok());
  EXPECT_EQ(stats.rows_tried, 8u + 8u * 8u);
}

}  // namespace
}  // namespace mdqa::testgen
