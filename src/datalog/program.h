#ifndef MDQA_DATALOG_PROGRAM_H_
#define MDQA_DATALOG_PROGRAM_H_

#include <limits>
#include <memory>
#include <string>
#include <vector>

#ifndef NDEBUG
#include <cassert>
#include <thread>
#endif

#include "base/intern.h"
#include "base/result.h"
#include "datalog/rule.h"
#include "relational/value.h"

namespace mdqa::datalog {

/// Owns the symbol spaces of a Datalog± program and everything derived from
/// it: predicate names (with fixed arities), variable names, interned
/// constants, and the labeled-null counter. `Program`, `Instance`, queries
/// and engines share one vocabulary via `std::shared_ptr`.
///
/// Thread contract (docs/parallelism.md): during pooled phases, worker
/// threads only *read* the vocabulary — all interning and null minting
/// happens on the coordinating thread. Debug builds enforce this: the
/// vocabulary binds to the first thread that mutates it and every later
/// mutation asserts it runs on that thread. A deliberate ownership
/// hand-off (rare) calls `BindToCurrentThread()` first.
class Vocabulary {
 public:
  Vocabulary() = default;

  /// Interns predicate `name` with `arity`. Re-interning with a different
  /// arity is an error.
  Result<uint32_t> InternPredicate(std::string_view name, size_t arity);

  /// Id of `name`, or kNotFound.
  uint32_t FindPredicate(std::string_view name) const {
    return predicates_.Find(name);
  }
  const std::string& PredicateName(uint32_t id) const {
    return predicates_.Get(id);
  }
  size_t PredicateArity(uint32_t id) const { return arities_[id]; }
  size_t NumPredicates() const { return predicates_.size(); }

  /// Interns a variable name ("X", "Day", ...), returning its id.
  uint32_t InternVariable(std::string_view name) {
    AssertOwnerThread();
    return variables_.Intern(name);
  }
  const std::string& VariableName(uint32_t id) const {
    return variables_.Get(id);
  }
  size_t NumVariables() const { return variables_.size(); }

  /// A variable guaranteed distinct from all parsed ones (for renaming
  /// rules apart in resolution/rewriting).
  Term FreshVariable();

  uint32_t InternConstant(const Value& v) {
    AssertOwnerThread();
    return constants_.Intern(v);
  }
  uint32_t FindConstant(const Value& v) const { return constants_.Find(v); }
  const Value& ConstantValue(uint32_t id) const { return constants_.Get(id); }
  size_t NumConstants() const { return constants_.size(); }

  /// Convenience builders used pervasively by tests and the MD layer.
  Term Const(const Value& v) { return Term::Constant(InternConstant(v)); }
  Term Str(std::string_view s) { return Const(Value::Str(s)); }
  Term Int(int64_t v) { return Const(Value::Int(v)); }
  Term Var(std::string_view name) {
    return Term::Variable(InternVariable(name));
  }

  /// Mints a fresh labeled null ⊥_k. Ids stay below UINT32_MAX (the
  /// parser's `_n<k>` range), so minting never wraps onto an existing
  /// null: once they run out it fails with kResourceExhausted.
  Result<Term> FreshNull() {
    AssertOwnerThread();
    if (next_null_ == std::numeric_limits<uint32_t>::max()) {
      return Status::ResourceExhausted(
          "labeled null ids exhausted: every id below " +
          std::to_string(next_null_) + " is taken");
    }
    return Term::Null(next_null_++);
  }
  uint32_t NumNulls() const { return next_null_; }

  /// Ensures future FreshNull() ids exceed `id` — used when parsing the
  /// `_n<k>` null literals of a serialized instance. Saturates instead of
  /// wrapping: no id exceeds UINT32_MAX, so reserving it leaves the
  /// counter there (the parser rejects that spelling).
  void ReserveNullsThrough(uint32_t id) {
    AssertOwnerThread();
    constexpr uint32_t kMax = std::numeric_limits<uint32_t>::max();
    if (next_null_ <= id) next_null_ = id == kMax ? kMax : id + 1;
  }

  /// Re-binds the debug owner-thread check to the calling thread: the
  /// escape hatch for a deliberate, externally synchronized ownership
  /// hand-off. No-op in release builds.
  void BindToCurrentThread() {
#ifndef NDEBUG
    owner_thread_ = std::this_thread::get_id();
#endif
  }

  std::string TermToString(Term t) const;
  /// Like TermToString but strings are unquoted ("Tom Waits", not
  /// "\"Tom Waits\"") — for rendering answers and table rows.
  std::string TermToDisplayString(Term t) const;
  std::string AtomToString(const Atom& a) const;
  std::string ComparisonToString(const Comparison& c) const;
  std::string RuleToString(const Rule& r) const;
  std::string QueryToString(const ConjunctiveQuery& q) const;

 private:
  // Debug builds: bind to the first mutating thread, assert every later
  // mutation runs there (see the class comment). Lazy binding keeps the
  // common construct-on-A / use-on-B serial pattern legal. The check is
  // best-effort — genuinely concurrent first mutations are already a data
  // race — but it trips loudly on the realistic bug: a pool worker
  // interning through a shared vocabulary mid-phase.
  void AssertOwnerThread() {
#ifndef NDEBUG
    const std::thread::id self = std::this_thread::get_id();
    if (owner_thread_ == std::thread::id{}) {
      owner_thread_ = self;
      return;
    }
    assert(owner_thread_ == self &&
           "Vocabulary mutated from a non-owner thread: pooled workers "
           "must never intern symbols or mint nulls (docs/parallelism.md); "
           "call BindToCurrentThread() for a deliberate hand-off");
#endif
  }

  StringPool predicates_;
  std::vector<size_t> arities_;
  StringPool variables_;
  ValuePool constants_;
  uint32_t next_null_ = 0;
  uint32_t next_fresh_var_ = 0;
#ifndef NDEBUG
  std::thread::id owner_thread_{};
#endif
};

/// A Datalog± program: a shared vocabulary, a set of dependencies (TGDs,
/// EGDs, negative constraints), and extensional facts. The MD ontology
/// layer compiles into this representation; the chase and all query
/// answering engines consume it.
class Program {
 public:
  Program() : vocab_(std::make_shared<Vocabulary>()) {}
  explicit Program(std::shared_ptr<Vocabulary> vocab)
      : vocab_(std::move(vocab)) {}

  const std::shared_ptr<Vocabulary>& vocab() const { return vocab_; }
  Vocabulary* mutable_vocab() { return vocab_.get(); }

  /// Validates and appends a rule.
  Status AddRule(Rule rule);

  /// Appends a ground fact (extensional atom).
  Status AddFact(Atom fact);

  const std::vector<Rule>& rules() const { return rules_; }
  const std::vector<Atom>& facts() const { return facts_; }

  /// Subsets by kind (copies; programs are small relative to data).
  std::vector<Rule> Tgds() const;
  std::vector<Rule> Egds() const;
  std::vector<Rule> Constraints() const;

  /// Re-parseable listing of rules then facts.
  std::string ToString() const;

  /// Mutation counter: bumped by every successful AddRule/AddFact.
  /// Caches keyed on a program's content (e.g. PreparedContext's lazy
  /// EDB statistics) validate against this instead of re-hashing the
  /// fact list. Counts mutations of THIS object only — a copied program
  /// starts from the source's current value and the two then diverge.
  uint64_t generation() const { return generation_; }

 private:
  std::shared_ptr<Vocabulary> vocab_;
  std::vector<Rule> rules_;
  std::vector<Atom> facts_;
  uint64_t generation_ = 0;
};

}  // namespace mdqa::datalog

#endif  // MDQA_DATALOG_PROGRAM_H_
