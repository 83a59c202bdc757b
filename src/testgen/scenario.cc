#include "testgen/scenario.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <utility>

#include "md/categorical.h"
#include "md/dimension.h"
#include "relational/value.h"

namespace mdqa::testgen {

using md::CategoricalAttribute;
using md::CategoricalRelation;
using md::Dimension;
using md::DimensionBuilder;
using quality::DeltaBatch;
using quality::QualityContext;
using quality::RelationDelta;

namespace {

// --- naming -----------------------------------------------------------
// Everything is prefixed "G" (generated) so scenario predicates never
// collide with the hospital/sales/finance/synthetic families when linked
// into the same binary.

std::string Cat(int level) { return "GL" + std::to_string(level); }
std::string Mem(int level, int i) {
  return "g" + std::to_string(level) + "m" + std::to_string(i);
}
std::string DayName(int d) { return "gd" + std::to_string(d); }
std::string TimeName(int d) { return "gt" + std::to_string(d); }
std::string EntityName(int i) { return "ge" + std::to_string(i); }
std::string NurseName(int i) { return "gn" + std::to_string(i); }
std::string GhostName(int i) { return "ghost" + std::to_string(i); }
std::string PhantomName(int i) { return "gx" + std::to_string(i); }
std::string KindName(int i) { return "gk" + std::to_string(i); }
std::string AssignAt(int level) { return "GAssignL" + std::to_string(level); }
std::string EdgeAt(int upper, int lower) {
  return Dimension::EdgePredicate(Cat(upper), Cat(lower));
}

// The instrument kind whose grade rolls up to "gbad" (see the GInstr
// dimension below); wards holding it produce organically dirty rows in
// the multi-dimensional family.
constexpr int kBadKind = 1;

// --- family shape -----------------------------------------------------

struct Shape {
  int cert_level = 1;     ///< level whose members carry certification
  bool ragged = false;    ///< skip edge GL0 -> GL2, some wards use it
  bool disjunctive = false;  ///< GDischarge + the form-(10) rule
  bool multidim = false;     ///< instrument dimension + GDevice
  bool strict_homogeneous = true;
};

Shape ShapeFor(const ScenarioSpec& spec) {
  Shape s;
  switch (spec.family) {
    case ScenarioFamily::kDeepHomogeneous:
      s.cert_level = spec.depth - 2;
      break;
    case ScenarioFamily::kRaggedHeterogeneous:
      s.cert_level = 2;
      s.ragged = true;
      s.strict_homogeneous = false;
      break;
    case ScenarioFamily::kDisjunctiveDownward:
      s.cert_level = 1;
      s.disjunctive = true;
      break;
    case ScenarioFamily::kMultiDimensional:
      s.cert_level = 1;
      s.multidim = true;
      break;
    case ScenarioFamily::kSkewedTenants:
      s.cert_level = 1;
      break;
  }
  return s;
}

// Zipf picker over {0..n-1}: weight(i) = 1/(i+1)^s, so index 0 is the hot
// element. s == 0 degenerates to uniform. Draws consume exactly one rng
// word, keeping the generator's draw sequence easy to reason about.
class ZipfPicker {
 public:
  ZipfPicker(int n, double s) {
    double total = 0;
    cumulative_.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cumulative_.push_back(total);
    }
  }

  int Pick(std::mt19937& rng) {
    const double u = static_cast<double>(rng() % (1u << 24)) /
                     static_cast<double>(1u << 24) * cumulative_.back();
    auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
    if (it == cumulative_.end()) --it;
    return static_cast<int>(it - cumulative_.begin());
  }

 private:
  std::vector<double> cumulative_;
};

// One measurement row as the generator tracks it: enough to re-derive its
// expected verdict from the hierarchy/schedule state at any point.
struct RowInfo {
  int day = 0;
  std::string entity;
  std::string value;
};

// The generator's private world model — an independent re-implementation
// of the dimensional navigation the chase performs, used as the
// differential oracle that produces ground truth.
struct World {
  ScenarioSpec spec;
  Shape shape;
  std::vector<int> counts;  ///< members per hierarchy level
  /// Parent link of each level-0 ward: (level, index). Levels >= 1 are a
  /// regular tree (parent index = index / fanout); only wards get ragged
  /// or misplaced links.
  std::vector<std::pair<int, int>> ward_parent;
  std::vector<bool> certified;       ///< per cert-level member
  std::map<std::string, int> entity_ward;
  std::vector<int> kind_of_ward;     ///< multidim only
  std::set<int> misplaced_wards;
  std::set<std::pair<int, int>> missing_schedule;  ///< (cert member, day)
  std::set<std::string> discharge_entities;  ///< phantoms with form-(10) support

  int CertOf(int ward) const {
    auto [level, index] = ward_parent[static_cast<size_t>(ward)];
    while (level < shape.cert_level) {
      index /= spec.fanout;
      ++level;
    }
    return index;
  }

  /// Certification member a level-1 parent rolls up to.
  int CertOfLevel1(int u) const {
    int index = u, level = 1;
    while (level < shape.cert_level) {
      index /= spec.fanout;
      ++level;
    }
    return index;
  }

  ViolationKind Expected(const RowInfo& row) const {
    auto it = entity_ward.find(row.entity);
    if (it == entity_ward.end()) {
      // Unknown entity: either a phantom whose only support is the
      // disjunctive (possible-world) navigation, or a planted ghost.
      return discharge_entities.count(row.entity)
                 ? ViolationKind::kPossibleOnly
                 : ViolationKind::kCorruptAttribute;
    }
    const int ward = it->second;
    const int cert = CertOf(ward);
    if (missing_schedule.count({cert, row.day})) {
      return ViolationKind::kMissingContext;
    }
    if (!certified[static_cast<size_t>(cert)]) {
      return misplaced_wards.count(ward) ? ViolationKind::kMisplacedMember
                                         : ViolationKind::kUncertified;
    }
    if (shape.multidim &&
        kind_of_ward[static_cast<size_t>(ward)] == kBadKind) {
      return ViolationKind::kWrongInstrument;
    }
    return ViolationKind::kNone;
  }

  std::vector<TupleVerdict> Verdicts(const std::vector<RowInfo>& rows) const {
    std::vector<TupleVerdict> out;
    out.reserve(rows.size());
    for (const RowInfo& row : rows) {
      TupleVerdict v;
      v.fields = {TimeName(row.day), row.entity, row.value};
      v.violation = Expected(row);
      v.clean = v.violation == ViolationKind::kNone;
      out.push_back(std::move(v));
    }
    return out;
  }
};

Tuple TupleOf(const std::vector<std::string>& fields) {
  Tuple t;
  t.reserve(fields.size());
  for (const std::string& f : fields) t.push_back(Value::FromText(f));
  return t;
}

Result<std::shared_ptr<core::MdOntology>> BuildOntology(const World& world) {
  const ScenarioSpec& spec = world.spec;
  const Shape& shape = world.shape;
  auto ontology = std::make_shared<core::MdOntology>();

  {
    DimensionBuilder b("GArea");
    for (int l = 0; l < spec.depth; ++l) b.Category(Cat(l));
    for (int l = 0; l + 1 < spec.depth; ++l) b.Edge(Cat(l), Cat(l + 1));
    if (shape.ragged) b.Edge(Cat(0), Cat(2));
    b.Member(Cat(spec.depth - 1), Mem(spec.depth - 1, 0));
    for (int l = spec.depth - 2; l >= 1; --l) {
      for (int i = 0; i < world.counts[static_cast<size_t>(l)]; ++i) {
        b.Member(Cat(l), Mem(l, i)).Link(Mem(l, i), Mem(l + 1, i / spec.fanout));
      }
    }
    for (int w = 0; w < world.counts[0]; ++w) {
      auto [pl, pi] = world.ward_parent[static_cast<size_t>(w)];
      b.Member(Cat(0), Mem(0, w)).Link(Mem(0, w), Mem(pl, pi));
    }
    Dimension::Options opts;
    opts.require_strict = shape.strict_homogeneous;
    opts.require_homogeneous = shape.strict_homogeneous;
    MDQA_ASSIGN_OR_RETURN(Dimension d, b.Build(opts));
    MDQA_RETURN_IF_ERROR(ontology->AddDimension(std::move(d)));
  }
  {
    DimensionBuilder b("GTime");
    b.Category("GTim").Category("GDay").Category("GAllT");
    b.Edge("GTim", "GDay").Edge("GDay", "GAllT");
    b.Member("GAllT", "gallt");
    for (int d = 0; d < spec.days; ++d) {
      b.Member("GDay", DayName(d)).Link(DayName(d), "gallt");
      b.Member("GTim", TimeName(d)).Link(TimeName(d), DayName(d));
    }
    Dimension::Options opts;
    opts.require_strict = true;
    opts.require_homogeneous = true;
    MDQA_ASSIGN_OR_RETURN(Dimension d, b.Build(opts));
    MDQA_RETURN_IF_ERROR(ontology->AddDimension(std::move(d)));
  }
  if (shape.multidim) {
    DimensionBuilder b("GInstr");
    b.Category("GKind").Category("GGrade").Category("GAllI");
    b.Edge("GKind", "GGrade").Edge("GGrade", "GAllI");
    b.Member("GAllI", "galli");
    b.Member("GGrade", "ggood").Link("ggood", "galli");
    b.Member("GGrade", "gbad").Link("gbad", "galli");
    for (int k = 0; k < 3; ++k) {
      b.Member("GKind", KindName(k))
          .Link(KindName(k), k == kBadKind ? "gbad" : "ggood");
    }
    Dimension::Options opts;
    opts.require_strict = true;
    opts.require_homogeneous = true;
    MDQA_ASSIGN_OR_RETURN(Dimension d, b.Build(opts));
    MDQA_RETURN_IF_ERROR(ontology->AddDimension(std::move(d)));
  }

  {
    MDQA_ASSIGN_OR_RETURN(
        CategoricalRelation rel,
        CategoricalRelation::Create(
            "GAssign",
            {CategoricalAttribute::Categorical("Ward", "GArea", Cat(0)),
             CategoricalAttribute::Categorical("Day", "GTime", "GDay"),
             CategoricalAttribute::Plain("Entity")}));
    for (const auto& [entity, ward] : world.entity_ward) {
      for (int d = 0; d < spec.days; ++d) {
        MDQA_RETURN_IF_ERROR(
            rel.InsertText({Mem(0, ward), DayName(d), entity}));
      }
    }
    MDQA_RETURN_IF_ERROR(ontology->AddCategoricalRelation(std::move(rel)));
  }
  // Virtual roll-ups of GAssign, one per level up to the certification
  // level — populated only by the dimensional rules below.
  for (int l = 1; l <= shape.cert_level; ++l) {
    MDQA_ASSIGN_OR_RETURN(
        CategoricalRelation rel,
        CategoricalRelation::Create(
            AssignAt(l),
            {CategoricalAttribute::Categorical("Member", "GArea", Cat(l)),
             CategoricalAttribute::Categorical("Day", "GTime", "GDay"),
             CategoricalAttribute::Plain("Entity")}));
    MDQA_RETURN_IF_ERROR(ontology->AddCategoricalRelation(std::move(rel)));
  }
  {
    MDQA_ASSIGN_OR_RETURN(
        CategoricalRelation rel,
        CategoricalRelation::Create(
            "GSchedule",
            {CategoricalAttribute::Categorical("Unit", "GArea",
                                               Cat(shape.cert_level)),
             CategoricalAttribute::Categorical("Day", "GTime", "GDay"),
             CategoricalAttribute::Plain("Nurse"),
             CategoricalAttribute::Plain("Type")}));
    const int cert_members =
        world.counts[static_cast<size_t>(shape.cert_level)];
    for (int c = 0; c < cert_members; ++c) {
      for (int d = 0; d < spec.days; ++d) {
        if (world.missing_schedule.count({c, d})) continue;
        const char* type =
            world.certified[static_cast<size_t>(c)] ? "cert." : "non-c.";
        MDQA_RETURN_IF_ERROR(
            rel.InsertText({Mem(shape.cert_level, c), DayName(d),
                            NurseName(c), type}));
      }
    }
    MDQA_RETURN_IF_ERROR(ontology->AddCategoricalRelation(std::move(rel)));
  }
  if (shape.disjunctive) {
    // GDischarge places entities in *some* unit of a region (one level
    // above certification) — the paper's DischargePatients.
    MDQA_ASSIGN_OR_RETURN(
        CategoricalRelation rel,
        CategoricalRelation::Create(
            "GDischarge",
            {CategoricalAttribute::Categorical(
                 "Region", "GArea", Cat(shape.cert_level + 1)),
             CategoricalAttribute::Categorical("Day", "GTime", "GDay"),
             CategoricalAttribute::Plain("Entity")}));
    for (const std::string& phantom : world.discharge_entities) {
      for (int d = 0; d < spec.days; ++d) {
        MDQA_RETURN_IF_ERROR(rel.InsertText(
            {Mem(shape.cert_level + 1, 0), DayName(d), phantom}));
      }
    }
    // Redundant discharge facts for a couple of real entities: their
    // certain support must keep winning over the possible-world one.
    int added = 0;
    for (const auto& [entity, ward] : world.entity_ward) {
      if (added++ == 2) break;
      const int region = world.CertOf(ward) / spec.fanout;
      for (int d = 0; d < spec.days; ++d) {
        MDQA_RETURN_IF_ERROR(rel.InsertText(
            {Mem(shape.cert_level + 1, region), DayName(d), entity}));
      }
    }
    MDQA_RETURN_IF_ERROR(ontology->AddCategoricalRelation(std::move(rel)));
  }
  if (shape.multidim) {
    MDQA_ASSIGN_OR_RETURN(
        CategoricalRelation rel,
        CategoricalRelation::Create(
            "GDevice",
            {CategoricalAttribute::Categorical("Ward", "GArea", Cat(0)),
             CategoricalAttribute::Categorical("Kind", "GInstr", "GKind")}));
    for (int w = 0; w < world.counts[0]; ++w) {
      MDQA_RETURN_IF_ERROR(rel.InsertText(
          {Mem(0, w), KindName(world.kind_of_ward[static_cast<size_t>(w)])}));
    }
    MDQA_RETURN_IF_ERROR(ontology->AddCategoricalRelation(std::move(rel)));
  }

  // Upward navigation chain — rule (7) iterated once per level.
  MDQA_RETURN_IF_ERROR(ontology->AddDimensionalRule(
      AssignAt(1) + "(U, D, E) :- GAssign(W, D, E), " + EdgeAt(1, 0) +
      "(U, W)."));
  for (int l = 2; l <= shape.cert_level; ++l) {
    MDQA_RETURN_IF_ERROR(ontology->AddDimensionalRule(
        AssignAt(l) + "(X, D, E) :- " + AssignAt(l - 1) + "(U, D, E), " +
        EdgeAt(l, l - 1) + "(X, U)."));
  }
  if (shape.ragged) {
    // The skip edge: ragged wards roll up straight to the certification
    // level, bypassing GL1 entirely.
    MDQA_RETURN_IF_ERROR(ontology->AddDimensionalRule(
        AssignAt(2) + "(X, D, E) :- GAssign(W, D, E), " + EdgeAt(2, 0) +
        "(X, W)."));
  }
  if (shape.disjunctive) {
    // Form (10): existential categorical variable U — a discharged entity
    // was in *some* unit of the region (the paper's rule (9)).
    MDQA_RETURN_IF_ERROR(ontology->AddDimensionalRule(
        EdgeAt(shape.cert_level + 1, shape.cert_level) + "(R, U), " +
        AssignAt(shape.cert_level) +
        "(U, D, E) :- GDischarge(R, D, E)."));
  }
  return ontology;
}

Status BuildContextRules(const World& world, QualityContext* context) {
  const Shape& shape = world.shape;
  std::ostringstream rules;
  rules << "GTakenBy(T, E, N, Y) :- GSchedule(C, D, N, Y), GDayGTim(D, T), "
        << AssignAt(shape.cert_level) << "(C, D, E).\n";
  if (shape.multidim) {
    rules << "GWithDev(T, E, G) :- GAssign(W, D, E), GDevice(W, K), "
             "GGradeGKind(G, K), GDayGTim(D, T).\n";
    rules << "GMeasP(T, E, V, Y, G) :- GMeasC(T, E, V), "
             "GTakenBy(T, E, N, Y), GWithDev(T, E, G).\n";
  } else {
    rules << "GMeasP(T, E, V, Y) :- GMeasC(T, E, V), "
             "GTakenBy(T, E, N, Y).\n";
  }
  MDQA_RETURN_IF_ERROR(context->AddContextualRules(rules.str()));
  return context->DefineQualityVersion(
      "GMeasurements", "GMeasurementsq",
      shape.multidim
          ? "GMeasurementsq(T, E, V) :- "
            "GMeasP(T, E, V, \"cert.\", \"ggood\").\n"
          : "GMeasurementsq(T, E, V) :- GMeasP(T, E, V, \"cert.\").\n");
}

}  // namespace

const char* ScenarioFamilyToString(ScenarioFamily f) {
  switch (f) {
    case ScenarioFamily::kDeepHomogeneous:
      return "deep-homogeneous";
    case ScenarioFamily::kRaggedHeterogeneous:
      return "ragged-heterogeneous";
    case ScenarioFamily::kDisjunctiveDownward:
      return "disjunctive-downward";
    case ScenarioFamily::kMultiDimensional:
      return "multi-dimensional";
    case ScenarioFamily::kSkewedTenants:
      return "skewed-tenants";
  }
  return "unknown";
}

const char* ViolationKindToString(ViolationKind k) {
  switch (k) {
    case ViolationKind::kNone:
      return "none";
    case ViolationKind::kCorruptAttribute:
      return "corrupt-attribute";
    case ViolationKind::kMisplacedMember:
      return "misplaced-member";
    case ViolationKind::kMissingContext:
      return "missing-context";
    case ViolationKind::kUncertified:
      return "uncertified";
    case ViolationKind::kWrongInstrument:
      return "wrong-instrument";
    case ViolationKind::kPossibleOnly:
      return "possible-only";
  }
  return "unknown";
}

ScenarioSpec SpecFor(ScenarioFamily family, uint32_t seed) {
  ScenarioSpec s;
  s.family = family;
  s.seed = seed;
  s.entities = 8 + static_cast<int>(seed % 5);
  s.days = 2 + static_cast<int>(seed % 2);
  s.rows = s.entities * 3;
  s.corruptions = 1 + static_cast<int>(seed % 3);
  s.misplacements = 1;
  s.missing_facts = 1;
  s.update_batches = 2;
  s.updates_per_batch = 2 + static_cast<int>(seed % 3);
  switch (family) {
    case ScenarioFamily::kDeepHomogeneous:
      s.depth = 5;
      s.fanout = 2;
      break;
    case ScenarioFamily::kRaggedHeterogeneous:
      s.depth = 4;
      s.fanout = 2;
      break;
    case ScenarioFamily::kDisjunctiveDownward:
      s.depth = 3;
      s.fanout = 3;
      break;
    case ScenarioFamily::kMultiDimensional:
      s.depth = 3;
      s.fanout = 3;
      break;
    case ScenarioFamily::kSkewedTenants:
      s.depth = 3;
      s.fanout = 4;
      s.zipf_s = 0.9 + 0.2 * static_cast<double>(seed % 3);
      s.entities = 12 + static_cast<int>(seed % 5);
      s.rows = 48;
      break;
  }
  return s;
}

Result<GeneratedScenario> ScenarioGenerator::Generate(
    const ScenarioSpec& spec) {
  World world;
  world.spec = spec;
  world.shape = ShapeFor(spec);
  const Shape& shape = world.shape;
  if (spec.depth < 3 || spec.fanout < 2 || spec.days < 1 ||
      spec.entities < 2 || spec.rows < 1) {
    return Status(StatusCode::kInvalidArgument,
                  "scenario spec out of range (depth >= 3, fanout >= 2, "
                  "days/entities/rows >= 1 required)");
  }
  if (shape.cert_level < 1 ||
      shape.cert_level + (shape.disjunctive ? 1 : 0) >= spec.depth) {
    return Status(StatusCode::kInvalidArgument,
                  "hierarchy too shallow for the family's certification "
                  "level");
  }

  // Regular tree sizes, top down; level 0 holds the wards.
  world.counts.assign(static_cast<size_t>(spec.depth), 1);
  for (int l = spec.depth - 2; l >= 0; --l) {
    world.counts[static_cast<size_t>(l)] =
        world.counts[static_cast<size_t>(l + 1)] * spec.fanout;
  }
  if (world.counts[static_cast<size_t>(shape.cert_level)] < 2) {
    return Status(StatusCode::kInvalidArgument,
                  "certification level needs at least two members");
  }

  // Seed scrambling decorrelates the scenario stream from the other
  // testgen families at equal seeds; the family index joins in so sibling
  // cells of one matrix row differ structurally too.
  std::mt19937 rng(spec.seed * 2166136261u +
                   static_cast<uint32_t>(spec.family) * 97u + 7u);

  const int wards = world.counts[0];
  world.ward_parent.reserve(static_cast<size_t>(wards));
  for (int w = 0; w < wards; ++w) {
    if (shape.ragged && rng() % 4 == 0) {
      world.ward_parent.emplace_back(
          2, static_cast<int>(rng() % static_cast<uint32_t>(
                 world.counts[2])));
    } else {
      world.ward_parent.emplace_back(1, w / spec.fanout);
    }
  }

  const int cert_members = world.counts[static_cast<size_t>(shape.cert_level)];
  world.certified.resize(static_cast<size_t>(cert_members));
  for (int c = 0; c < cert_members; ++c) {
    world.certified[static_cast<size_t>(c)] = rng() % 10 < 6;
  }
  // Both planted-misplacement targets and clean rows must exist, so force
  // at least one certified and one uncertified member.
  if (std::none_of(world.certified.begin(), world.certified.end(),
                   [](bool b) { return b; })) {
    world.certified.front() = true;
  }
  if (std::all_of(world.certified.begin(), world.certified.end(),
                  [](bool b) { return b; })) {
    world.certified.back() = false;
  }

  if (shape.multidim) {
    world.kind_of_ward.resize(static_cast<size_t>(wards));
    for (int w = 0; w < wards; ++w) {
      world.kind_of_ward[static_cast<size_t>(w)] =
          static_cast<int>(rng() % 3);
    }
  }

  ZipfPicker ward_picker(wards, spec.zipf_s);
  for (int e = 0; e < spec.entities; ++e) {
    world.entity_ward[EntityName(e)] = ward_picker.Pick(rng);
  }

  // Measurement rows. Values are unique per row (a monotonic counter that
  // keeps running through the update stream), so set semantics never
  // collapses two rows and per-tuple ground truth stays per-row.
  int value_counter = 0;
  auto next_value = [&value_counter]() {
    const int v = value_counter++;
    return std::to_string(34 + v / 10) + "." + std::to_string(v % 10);
  };
  std::vector<RowInfo> rows;
  ZipfPicker entity_picker(spec.entities, spec.zipf_s);
  for (int r = 0; r < spec.rows; ++r) {
    RowInfo row;
    row.day = static_cast<int>(rng() % static_cast<uint32_t>(spec.days));
    row.entity = EntityName(entity_picker.Pick(rng));
    row.value = next_value();
    rows.push_back(std::move(row));
  }
  if (shape.disjunctive) {
    for (int j = 0; j < 2; ++j) {
      world.discharge_entities.insert(PhantomName(j));
      for (int k = 0; k < 2; ++k) {
        RowInfo row;
        row.day = static_cast<int>(rng() % static_cast<uint32_t>(spec.days));
        row.entity = PhantomName(j);
        row.value = next_value();
        rows.push_back(std::move(row));
      }
    }
  }

  // --- dirty injection, in a fixed order ------------------------------
  // 1) attribute corruption: overwrite a row's entity with a ghost.
  std::set<size_t> corrupted;
  for (int k = 0; k < spec.corruptions && corrupted.size() < rows.size();
       ++k) {
    size_t victim = rng() % rows.size();
    while (corrupted.count(victim)) victim = (victim + 1) % rows.size();
    corrupted.insert(victim);
    rows[victim].entity = GhostName(k);
  }
  // 2) hierarchy misplacement: re-link an occupied, currently-certified
  //    ward under a parent whose certification member is uncertified.
  {
    std::vector<int> candidates;
    for (const auto& [entity, ward] : world.entity_ward) {
      (void)entity;
      if (world.ward_parent[static_cast<size_t>(ward)].first != 1) continue;
      if (!world.certified[static_cast<size_t>(world.CertOf(ward))]) continue;
      if (std::find(candidates.begin(), candidates.end(), ward) ==
          candidates.end()) {
        candidates.push_back(ward);
      }
    }
    std::sort(candidates.begin(), candidates.end());
    for (int k = 0; k < spec.misplacements && !candidates.empty(); ++k) {
      const int ward =
          candidates[rng() % static_cast<uint32_t>(candidates.size())];
      if (world.misplaced_wards.count(ward)) continue;
      // Find a level-1 parent rolling up to an uncertified member.
      const int l1 = world.counts[1];
      int target = -1;
      const int start = static_cast<int>(rng() % static_cast<uint32_t>(l1));
      for (int i = 0; i < l1; ++i) {
        const int u = (start + i) % l1;
        if (!world.certified[static_cast<size_t>(world.CertOfLevel1(u))]) {
          target = u;
          break;
        }
      }
      if (target < 0) break;  // every chain certified; nothing to plant
      world.ward_parent[static_cast<size_t>(ward)] = {1, target};
      world.misplaced_wards.insert(ward);
    }
  }
  // Guarantee at least one certainly-clean row — the matrix cell is
  // vacuous without both verdict classes, and an unlucky certification
  // draw (or heavy skew onto an uncertified ward) can dirty everything.
  // Repair the first repairable row's navigation: re-link its ward under
  // a certified chain and (multi-dimensional) hand it a good instrument.
  {
    auto any_clean = [&world, &rows] {
      for (const RowInfo& row : rows) {
        if (world.Expected(row) == ViolationKind::kNone) return true;
      }
      return false;
    };
    if (!any_clean()) {
      for (const RowInfo& row : rows) {
        auto it = world.entity_ward.find(row.entity);
        if (it == world.entity_ward.end()) continue;
        const int ward = it->second;
        for (int u = 0; u < world.counts[1]; ++u) {
          if (world.certified[static_cast<size_t>(world.CertOfLevel1(u))]) {
            world.ward_parent[static_cast<size_t>(ward)] = {1, u};
            world.misplaced_wards.erase(ward);
            break;
          }
        }
        if (shape.multidim) {
          world.kind_of_ward[static_cast<size_t>(ward)] = 0;
        }
        break;
      }
    }
  }
  // 3) missing contextual fact: drop the schedule entry a clean row's
  //    navigation lands on.
  std::vector<std::pair<int, int>> dropped_schedules;
  for (int k = 0; k < spec.missing_facts; ++k) {
    bool planted = false;
    const size_t start = rng() % rows.size();
    for (size_t i = 0; i < rows.size() && !planted; ++i) {
      const RowInfo& row = rows[(start + i) % rows.size()];
      if (world.Expected(row) != ViolationKind::kNone) continue;
      const std::pair<int, int> pair = {
          world.CertOf(world.entity_ward.at(row.entity)), row.day};
      world.missing_schedule.insert(pair);
      dropped_schedules.push_back(pair);
      planted = true;
    }
    if (!planted) break;  // no clean row left to dirty
  }
  // Never let the missing-fact injection consume the last clean row.
  while (!dropped_schedules.empty() &&
         std::none_of(rows.begin(), rows.end(), [&world](const RowInfo& r) {
           return world.Expected(r) == ViolationKind::kNone;
         })) {
    world.missing_schedule.erase(dropped_schedules.back());
    dropped_schedules.pop_back();
  }

  // --- assemble the context -------------------------------------------
  MDQA_ASSIGN_OR_RETURN(std::shared_ptr<core::MdOntology> ontology,
                        BuildOntology(world));
  quality::QualityContext context(std::move(ontology));

  Database db;
  MDQA_ASSIGN_OR_RETURN(
      RelationSchema schema,
      RelationSchema::Create(
          "GMeasurements",
          std::vector<std::string>{"Time", "Entity", "Value"}));
  MDQA_RETURN_IF_ERROR(db.AddRelation(std::move(schema)));
  for (const RowInfo& row : rows) {
    MDQA_RETURN_IF_ERROR(db.InsertText(
        "GMeasurements", {TimeName(row.day), row.entity, row.value}));
  }
  MDQA_RETURN_IF_ERROR(context.SetDatabase(std::move(db)));
  MDQA_RETURN_IF_ERROR(
      context.MapRelationToContext("GMeasurements", "GMeasC"));
  MDQA_RETURN_IF_ERROR(BuildContextRules(world, &context));

  GeneratedScenario out{spec, std::move(context), "GMeasurements", {}, {}};
  out.truth = world.Verdicts(rows);
  for (const TupleVerdict& v : out.truth) {
    switch (v.violation) {
      case ViolationKind::kCorruptAttribute:
        ++out.planted_corrupt;
        break;
      case ViolationKind::kMisplacedMember:
        ++out.planted_misplaced;
        break;
      case ViolationKind::kMissingContext:
        ++out.planted_missing;
        break;
      default:
        break;
    }
  }

  // --- seeded update stream -------------------------------------------
  for (int b = 0; b < spec.update_batches; ++b) {
    ScenarioUpdate update;
    RelationDelta delta;
    delta.relation = "GMeasurements";
    const bool last = b + 1 == spec.update_batches;
    if (last && spec.delete_in_last_batch && !rows.empty()) {
      const size_t victim = rng() % rows.size();
      const RowInfo& row = rows[victim];
      delta.delete_rows.push_back(
          TupleOf({TimeName(row.day), row.entity, row.value}));
      rows.erase(rows.begin() + static_cast<long>(victim));
    }
    for (int i = 0; i < spec.updates_per_batch; ++i) {
      RowInfo row;
      row.day = static_cast<int>(rng() % static_cast<uint32_t>(spec.days));
      if (rng() % 5 == 0) {
        // A dirty insert: fresh ghost entity nothing in the ontology knows.
        row.entity =
            "ghu" + std::to_string(b) + "x" + std::to_string(i);
      } else {
        row.entity = EntityName(entity_picker.Pick(rng));
      }
      row.value = next_value();
      delta.insert_rows.push_back(
          TupleOf({TimeName(row.day), row.entity, row.value}));
      rows.push_back(std::move(row));
    }
    update.batch.deltas.push_back(std::move(delta));
    update.verdicts_after = world.Verdicts(rows);
    out.updates.push_back(std::move(update));
  }
  return out;
}

Result<std::string> ScenarioFingerprint(const GeneratedScenario& scenario) {
  std::ostringstream fp;
  fp << "#### spec " << ScenarioFamilyToString(scenario.spec.family)
     << " seed=" << scenario.spec.seed << "\n";
  MDQA_ASSIGN_OR_RETURN(datalog::Program program,
                        scenario.context.BuildProgram());
  fp << "#### program\n" << program.ToString();
  fp << "#### database\n" << scenario.context.database().ToString();
  fp << "#### truth\n";
  for (const TupleVerdict& v : scenario.truth) {
    for (const std::string& f : v.fields) fp << f << "|";
    fp << (v.clean ? "clean" : ViolationKindToString(v.violation)) << "\n";
  }
  for (size_t b = 0; b < scenario.updates.size(); ++b) {
    const ScenarioUpdate& u = scenario.updates[b];
    fp << "#### batch " << b << "\n";
    for (const RelationDelta& d : u.batch.deltas) {
      for (const Tuple& t : d.delete_rows) {
        fp << "-" << d.relation << "(";
        for (const Value& v : t) fp << v.ToString() << ",";
        fp << ")\n";
      }
      for (const Tuple& t : d.insert_rows) {
        fp << "+" << d.relation << "(";
        for (const Value& v : t) fp << v.ToString() << ",";
        fp << ")\n";
      }
    }
    for (const TupleVerdict& v : u.verdicts_after) {
      for (const std::string& f : v.fields) fp << f << "|";
      fp << (v.clean ? "clean" : ViolationKindToString(v.violation)) << "\n";
    }
  }
  return fp.str();
}

Result<VerdictScore> ScoreVerdicts(const quality::AssessmentReport& report,
                                   const std::string& relation,
                                   const std::vector<TupleVerdict>& truth) {
  const Relation* clean_rows = report.QualityVersionOf(relation);
  const Relation* dirty_rows = report.DirtyOf(relation);
  const quality::QualityMeasures* measures = report.MeasuresOf(relation);
  if (clean_rows == nullptr || dirty_rows == nullptr || measures == nullptr) {
    return Status(StatusCode::kNotFound,
                  "report carries no verdicts for '" + relation +
                      "' (degraded or unassessed)");
  }
  if (measures->original_size != truth.size()) {
    return Status(StatusCode::kFailedPrecondition,
                  "report covers " + std::to_string(measures->original_size) +
                      " rows of '" + relation + "' but ground truth has " +
                      std::to_string(truth.size()));
  }
  VerdictScore score;
  score.rows = truth.size();
  for (const TupleVerdict& v : truth) {
    const Tuple t = TupleOf(v.fields);
    const bool flagged = dirty_rows->Contains(t);
    const bool kept = clean_rows->Contains(t);
    std::ostringstream rendered;
    for (const std::string& f : v.fields) rendered << f << "|";
    if (flagged == kept) {
      // A stored row belongs to exactly one of D^q and D \ D^q.
      score.mismatches.push_back(rendered.str() +
                                 " absent from the report's partition");
      if (!v.clean) ++score.expected_dirty;
      continue;
    }
    if (!v.clean) ++score.expected_dirty;
    if (flagged) {
      ++score.flagged_dirty;
      if (!v.clean) {
        ++score.true_positives;
      } else {
        score.mismatches.push_back(
            rendered.str() + " expected clean, flagged dirty");
      }
    } else if (!v.clean) {
      score.mismatches.push_back(rendered.str() + " expected dirty (" +
                                 ViolationKindToString(v.violation) +
                                 "), reported clean");
    }
  }
  score.precision = score.flagged_dirty == 0
                        ? 1.0
                        : static_cast<double>(score.true_positives) /
                              static_cast<double>(score.flagged_dirty);
  score.recall = score.expected_dirty == 0
                     ? 1.0
                     : static_cast<double>(score.true_positives) /
                           static_cast<double>(score.expected_dirty);
  return score;
}

}  // namespace mdqa::testgen
