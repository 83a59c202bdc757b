// Why-provenance: derivation trees for chase- and WS-derived facts (the
// paper's resolution proof schemas, made inspectable).

#include "datalog/provenance.h"

#include <gtest/gtest.h>

#include "datalog/chase.h"
#include "datalog/parser.h"
#include "qa/deterministic_ws.h"
#include "scenarios/hospital.h"

namespace mdqa::datalog {
namespace {

TEST(Provenance, RecordsAndFinds) {
  auto p = Parser::ParseProgram(
      "E(1, 2).\n"
      "T(X, Y) :- E(X, Y).\n");
  ASSERT_TRUE(p.ok());
  ProvenanceStore store;
  ChaseOptions options;
  options.provenance = &store;
  Instance inst = Instance::FromProgram(*p);
  ASSERT_TRUE(Chase::Run(*p, &inst, options).ok());
  EXPECT_EQ(store.size(), 1u);
  Atom derived = inst.Facts(p->vocab()->FindPredicate("T"))[0];
  const auto* d = store.Find(derived);
  ASSERT_NE(d, nullptr);
  ASSERT_EQ(d->body.size(), 1u);
  EXPECT_EQ(p->vocab()->AtomToString(d->body[0]), "E(1, 2)");
  // Extensional facts have no derivation.
  Atom edb = inst.Facts(p->vocab()->FindPredicate("E"))[0];
  EXPECT_EQ(store.Find(edb), nullptr);
}

TEST(Provenance, ExplainRendersTree) {
  auto p = Parser::ParseProgram(
      "E(1, 2). E(2, 3).\n"
      "T(X, Y) :- E(X, Y).\n"
      "T(X, Z) :- T(X, Y), E(Y, Z).\n");
  ASSERT_TRUE(p.ok());
  ProvenanceStore store;
  ChaseOptions options;
  options.provenance = &store;
  Instance inst = Instance::FromProgram(*p);
  ASSERT_TRUE(Chase::Run(*p, &inst, options).ok());

  Atom goal = Parser::ParseGroundAtom("T(1, 3)", p->mutable_vocab()).value();
  ASSERT_TRUE(inst.Contains(goal));
  std::string tree = store.Explain(goal, *p->vocab());
  EXPECT_NE(tree.find("T(1, 3)"), std::string::npos);
  EXPECT_NE(tree.find("via T(X, Z) :- T(X, Y), E(Y, Z)."), std::string::npos);
  EXPECT_NE(tree.find("T(1, 2)"), std::string::npos);
  EXPECT_NE(tree.find("E(2, 3)  [edb]"), std::string::npos);
  // The inner T(1,2) expands one level deeper to its E leaf.
  EXPECT_NE(tree.find("E(1, 2)  [edb]"), std::string::npos);
}

TEST(Provenance, FirstDerivationWins) {
  auto p = Parser::ParseProgram(
      "A(1). B(1).\n"
      "C(X) :- A(X).\n"
      "C(X) :- B(X).\n");
  ASSERT_TRUE(p.ok());
  ProvenanceStore store;
  ChaseOptions options;
  options.provenance = &store;
  Instance inst = Instance::FromProgram(*p);
  ASSERT_TRUE(Chase::Run(*p, &inst, options).ok());
  Atom c = Parser::ParseGroundAtom("C(1)", p->mutable_vocab()).value();
  const auto* d = store.Find(c);
  ASSERT_NE(d, nullptr);
  // Exactly one derivation kept, from the first firing rule (A-rule).
  EXPECT_EQ(p->vocab()->AtomToString(d->body[0]), "A(1)");
}

// An existential-free head is checked by probing its instantiated row in
// provenance runs too; each firing's witness must still be seeded with
// that trigger's frontier bindings, not found from scratch.
TEST(Provenance, ProbedHeadWitnessesFollowTheirTrigger) {
  auto p = Parser::ParseProgram(
      "E(1, 2). E(3, 4). E(5, 6). F(2). F(4). F(6). R(5).\n"
      "R(X) :- E(X, Y), F(Y).\n");
  ASSERT_TRUE(p.ok());
  ProvenanceStore store;
  ChaseOptions options;
  options.provenance = &store;
  Instance inst = Instance::FromProgram(*p);
  ChaseStats stats;
  ASSERT_TRUE(Chase::Run(*p, &inst, options, &stats).ok());
  EXPECT_EQ(stats.tgd_firings, 2u);  // R(5) was already a fact
  EXPECT_EQ(stats.facts_added, 2u);
  EXPECT_EQ(store.size(), 2u);
  for (const char* fact : {"R(1)", "R(3)"}) {
    Atom goal = Parser::ParseGroundAtom(fact, p->mutable_vocab()).value();
    const auto* d = store.Find(goal);
    ASSERT_NE(d, nullptr) << fact;
    ASSERT_EQ(d->body.size(), 2u);
    const std::string x(1, fact[2]);
    const std::string y(1, static_cast<char>(fact[2] + 1));
    EXPECT_EQ(p->vocab()->AtomToString(d->body[0]), "E(" + x + ", " + y + ")");
    EXPECT_EQ(p->vocab()->AtomToString(d->body[1]), "F(" + y + ")");
  }
  Atom edb = Parser::ParseGroundAtom("R(5)", p->mutable_vocab()).value();
  EXPECT_EQ(store.Find(edb), nullptr);
}

TEST(Provenance, ExistentialNullsInHeads) {
  auto p = Parser::ParseProgram(
      "Person(\"ann\").\n"
      "HasParent(X, Z) :- Person(X).\n");
  ASSERT_TRUE(p.ok());
  ProvenanceStore store;
  ChaseOptions options;
  options.provenance = &store;
  Instance inst = Instance::FromProgram(*p);
  ASSERT_TRUE(Chase::Run(*p, &inst, options).ok());
  Atom derived = inst.Facts(p->vocab()->FindPredicate("HasParent"))[0];
  ASSERT_TRUE(derived.terms[1].IsNull());
  std::string tree = store.Explain(derived, *p->vocab());
  EXPECT_NE(tree.find("_n0"), std::string::npos);
  EXPECT_NE(tree.find("Person(\"ann\")  [edb]"), std::string::npos);
}

TEST(Provenance, DepthCapStopsRendering) {
  auto p = Parser::ParseProgram(
      "E(0, 1). E(1, 2). E(2, 3). E(3, 4). E(4, 5).\n"
      "T(X, Y) :- E(X, Y).\n"
      "T(X, Z) :- T(X, Y), E(Y, Z).\n");
  ASSERT_TRUE(p.ok());
  ProvenanceStore store;
  ChaseOptions options;
  options.provenance = &store;
  Instance inst = Instance::FromProgram(*p);
  ASSERT_TRUE(Chase::Run(*p, &inst, options).ok());
  Atom goal = Parser::ParseGroundAtom("T(0, 5)", p->mutable_vocab()).value();
  std::string tree = store.Explain(goal, *p->vocab(), /*max_depth=*/2);
  EXPECT_NE(tree.find("depth cap"), std::string::npos);
}

TEST(Provenance, WsEngineRecordsToo) {
  auto p = Parser::ParseProgram(
      "E(1, 2).\n"
      "T(X, Y) :- E(X, Y).\n");
  ASSERT_TRUE(p.ok());
  ProvenanceStore store;
  qa::WsQaOptions options;
  options.provenance = &store;
  qa::DeterministicWsQa qa(*p, options);
  auto q = Parser::ParseQuery("Q(X, Y) :- T(X, Y).", p->mutable_vocab());
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(qa.Answers(*q)->size(), 1u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(Provenance, HospitalShiftExplanation) {
  // "Why does Mark have a shift in W2 on Sep/9?" — the paper's Example 5
  // derivation, as a tree.
  auto ontology = scenarios::BuildHospitalOntology(scenarios::HospitalOptions{});
  ASSERT_TRUE(ontology.ok());
  auto program = (*ontology)->Compile();
  ASSERT_TRUE(program.ok());
  ProvenanceStore store;
  ChaseOptions options;
  options.provenance = &store;
  Instance inst = Instance::FromProgram(*program);
  ASSERT_TRUE(Chase::Run(*program, &inst, options).ok());

  // Find the derived Shifts fact for Mark in W2.
  uint32_t shifts = program->vocab()->FindPredicate("Shifts");
  Atom mark_shift;
  bool found = false;
  for (const Atom& f : inst.Facts(shifts)) {
    const Vocabulary& v = *program->vocab();
    if (v.ConstantValue(f.terms[0].id()) == Value::Str("W2") &&
        f.terms[2].IsConstant() &&
        v.ConstantValue(f.terms[2].id()) == Value::Str("Mark")) {
      mark_shift = f;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  std::string tree = store.Explain(mark_shift, *program->vocab());
  EXPECT_NE(tree.find("WorkingSchedules(\"Standard\", \"Sep/9\", \"Mark\""),
            std::string::npos);
  EXPECT_NE(tree.find("UnitWard(\"Standard\", \"W2\")  [edb]"),
            std::string::npos);
}

}  // namespace
}  // namespace mdqa::datalog
