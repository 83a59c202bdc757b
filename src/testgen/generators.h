// Seeded random program/query/workload generators shared by the
// property-test harnesses (engines_property_test, parallel_diff_test,
// incremental_diff_test, serve_soak_test) and perfbench.
// Everything here is a pure function of its seed — no wall-clock
// randomness — so any failing case reproduces from its test parameter
// alone. Compiled once into the mdqa_testgen library (the definitions
// used to live header-only in tests/generators.h and were re-codegen'd
// into every test binary).
#ifndef MDQA_TESTGEN_GENERATORS_H_
#define MDQA_TESTGEN_GENERATORS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace mdqa::testgen {

/// A generated Datalog± program plus a batch of queries over it.
struct GeneratedCase {
  std::string program_text;
  std::vector<std::string> queries;
  /// True when the program includes the existential (downward) rule —
  /// such programs are outside the rewriter's upward-only guarantee.
  bool downward = false;
};

/// Random two-level hierarchy program in the MD ontology's shape: base
/// facts PW(ward, patient), UW(unit, ward), WS(unit, nurse), an upward
/// rule PU, and (on even seeds) a downward rule SH with an existential.
/// Weakly acyclic, so every engine terminates on it.
GeneratedCase GenerateHierarchy(uint32_t seed);

/// Random directed graph with transitive-closure rules — plain recursive
/// Datalog, the multi-round semi-naive stress case. Seed scrambling
/// (`seed * 7919 + 3`) keeps the graph family decorrelated from the
/// hierarchy family at equal seeds.
GeneratedCase GenerateClosure(uint32_t seed);

/// A base case plus a sequence of update batches for the incremental-chase
/// differential harness (tests/incremental_diff_test.cc): each batch is a
/// list of ground atoms (rendered WITHOUT the trailing period, ready for
/// `Parser::ParseGroundAtom`). Batches mix constants already present in
/// the base program with fresh ones, so extensions both lengthen existing
/// join frontiers and open brand-new ones.
struct UpdateSequence {
  GeneratedCase base;
  std::vector<std::vector<std::string>> batches;
};

UpdateSequence GenerateUpdateSequence(uint32_t seed);

/// One client action in a serve workload. Rows are triples for the
/// hospital Measurements schema (Time, Patient, Value), rendered as the
/// JSON bodies mdqa_serve's /query and /update endpoints accept.
struct ServeOp {
  enum class Kind { kQuery, kReport, kInsert, kDelete };
  Kind kind = Kind::kQuery;
  /// Tenant id, drawn from a skewed distribution so one hot tenant
  /// exercises the rate limiter while the cold ones sail through.
  std::string tenant;
  /// Request body for POST /query or /update ("" for GET /report).
  std::string body;
  /// For kInsert: the time keys of the batch's rows; for kDelete: the one
  /// row being deleted. Clients track which inserts the server actually
  /// acknowledged (200/202, not shed) and skip deletes of unacknowledged
  /// rows — the server rejects deleting absent rows with 404.
  std::vector<std::string> row_times;
};

/// A seeded mixed serve workload: mostly queries, a stream of insert
/// bursts, and deletes drawn only from this stream's own earlier inserts
/// (rendered in emit order, so replaying ops[0..i] in order keeps every
/// delete valid once its insert was acknowledged). Tenant choice is
/// skewed: ~half the ops come from "hot", the rest spread over
/// `tenants - 1` cold tenants. Pure function of the seed — shared by
/// tests/serve_soak_test.cc and perfbench's serve-mixed workload, so a
/// soak failure reproduces from (seed, op index) alone.
struct ServeWorkload {
  std::vector<ServeOp> ops;
};

ServeWorkload GenerateServeWorkload(uint32_t seed, size_t n_ops,
                                    int tenants = 4);

}  // namespace mdqa::testgen

#endif  // MDQA_TESTGEN_GENERATORS_H_
