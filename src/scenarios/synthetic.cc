#include "scenarios/synthetic.h"

#include <string>

#include "md/categorical.h"
#include "md/dimension.h"

namespace mdqa::scenarios {

using md::CategoricalAttribute;
using md::CategoricalRelation;
using md::Dimension;
using md::DimensionBuilder;

namespace {

// Deterministic ward assignment; no global randomness (experiments must be
// reproducible run to run).
struct Lcg {
  uint64_t state;
  uint64_t Next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  }
};

std::string WardName(int i) { return "sw" + std::to_string(i); }
std::string UnitName(int i) { return "su" + std::to_string(i); }
std::string InstName(int i) { return "si" + std::to_string(i); }
std::string DayName(int i) { return "sd" + std::to_string(i); }
std::string TimeName(int i) { return "st" + std::to_string(i); }
std::string PatientName(int i) { return "sp" + std::to_string(i); }
std::string NurseName(int i) { return "sn" + std::to_string(i); }

}  // namespace

size_t EstimateFacts(const SyntheticSpec& spec) {
  const size_t wards = static_cast<size_t>(spec.institutions) *
                       spec.units_per_institution * spec.wards_per_unit;
  const size_t units =
      static_cast<size_t>(spec.institutions) * spec.units_per_institution;
  const size_t pd = static_cast<size_t>(spec.patients) * spec.days;
  return wards * 2 + units * 2 + pd /*SPatientWard*/ +
         units * spec.days /*SWorkingSchedules*/ + wards /*SThermometer*/ +
         spec.days * 2 /*time*/ + pd /*SMeasurements*/;
}

Result<std::shared_ptr<core::MdOntology>> BuildSyntheticOntology(
    const SyntheticSpec& spec) {
  auto ontology = std::make_shared<core::MdOntology>();
  const int units_total = spec.institutions * spec.units_per_institution;
  const int wards_total = units_total * spec.wards_per_unit;

  {
    DimensionBuilder b("SynHospital");
    b.Category("SWard").Category("SUnit").Category("SInstitution")
        .Category("SAllHospital");
    b.Edge("SWard", "SUnit").Edge("SUnit", "SInstitution")
        .Edge("SInstitution", "SAllHospital");
    b.Member("SAllHospital", "sall");
    for (int i = 0; i < spec.institutions; ++i) {
      b.Member("SInstitution", InstName(i)).Link(InstName(i), "sall");
    }
    for (int u = 0; u < units_total; ++u) {
      b.Member("SUnit", UnitName(u))
          .Link(UnitName(u), InstName(u / spec.units_per_institution));
    }
    for (int w = 0; w < wards_total; ++w) {
      b.Member("SWard", WardName(w))
          .Link(WardName(w), UnitName(w / spec.wards_per_unit));
    }
    Dimension::Options opts;
    opts.require_strict = true;
    opts.require_homogeneous = true;
    MDQA_ASSIGN_OR_RETURN(Dimension d, b.Build(opts));
    MDQA_RETURN_IF_ERROR(ontology->AddDimension(std::move(d)));
  }
  {
    DimensionBuilder b("SynTime");
    b.Category("STime").Category("SDay").Category("SAllTime");
    b.Edge("STime", "SDay").Edge("SDay", "SAllTime");
    b.Member("SAllTime", "sallt");
    for (int d = 0; d < spec.days; ++d) {
      b.Member("SDay", DayName(d)).Link(DayName(d), "sallt");
      b.Member("STime", TimeName(d)).Link(TimeName(d), DayName(d));
    }
    Dimension::Options opts;
    opts.require_strict = true;
    opts.require_homogeneous = true;
    MDQA_ASSIGN_OR_RETURN(Dimension d, b.Build(opts));
    MDQA_RETURN_IF_ERROR(ontology->AddDimension(std::move(d)));
  }
  {
    DimensionBuilder b("SynInstrument");
    b.Category("SType").Category("SBrand").Category("SAllInstrument");
    b.Edge("SType", "SBrand").Edge("SBrand", "SAllInstrument");
    b.Member("SAllInstrument", "salli");
    b.Member("SBrand", "B1").Member("SBrand", "B2");
    b.Link("B1", "salli").Link("B2", "salli");
    b.Member("SType", "T1").Member("SType", "T3");
    b.Link("T1", "B1").Link("T3", "B2");
    Dimension::Options opts;
    opts.require_strict = true;
    opts.require_homogeneous = true;
    MDQA_ASSIGN_OR_RETURN(Dimension d, b.Build(opts));
    MDQA_RETURN_IF_ERROR(ontology->AddDimension(std::move(d)));
  }

  Lcg rng{spec.seed};

  {
    MDQA_ASSIGN_OR_RETURN(
        CategoricalRelation rel,
        CategoricalRelation::Create(
            "SPatientWard",
            {CategoricalAttribute::Categorical("Ward", "SynHospital", "SWard"),
             CategoricalAttribute::Categorical("Day", "SynTime", "SDay"),
             CategoricalAttribute::Plain("Patient")}));
    for (int p = 0; p < spec.patients; ++p) {
      // A patient stays in one ward for the whole horizon — realistic and
      // keeps the quality fraction stable across scales.
      int ward = static_cast<int>(rng.Next() % wards_total);
      for (int d = 0; d < spec.days; ++d) {
        MDQA_RETURN_IF_ERROR(
            rel.InsertText({WardName(ward), DayName(d), PatientName(p)}));
      }
    }
    MDQA_RETURN_IF_ERROR(ontology->AddCategoricalRelation(std::move(rel)));
  }
  {
    MDQA_ASSIGN_OR_RETURN(
        CategoricalRelation rel,
        CategoricalRelation::Create(
            "SPatientUnit",
            {CategoricalAttribute::Categorical("Unit", "SynHospital", "SUnit"),
             CategoricalAttribute::Categorical("Day", "SynTime", "SDay"),
             CategoricalAttribute::Plain("Patient")}));
    MDQA_RETURN_IF_ERROR(ontology->AddCategoricalRelation(std::move(rel)));
  }
  {
    MDQA_ASSIGN_OR_RETURN(
        CategoricalRelation rel,
        CategoricalRelation::Create(
            "SWorkingSchedules",
            {CategoricalAttribute::Categorical("Unit", "SynHospital", "SUnit"),
             CategoricalAttribute::Categorical("Day", "SynTime", "SDay"),
             CategoricalAttribute::Plain("Nurse"),
             CategoricalAttribute::Plain("Type")}));
    for (int u = 0; u < units_total; ++u) {
      for (int d = 0; d < spec.days; ++d) {
        // Even units are staffed by certified nurses.
        const char* type = (u % 2 == 0) ? "cert." : "non-c.";
        MDQA_RETURN_IF_ERROR(rel.InsertText(
            {UnitName(u), DayName(d), NurseName(u), type}));
      }
    }
    MDQA_RETURN_IF_ERROR(ontology->AddCategoricalRelation(std::move(rel)));
  }
  {
    MDQA_ASSIGN_OR_RETURN(
        CategoricalRelation rel,
        CategoricalRelation::Create(
            "SShifts",
            {CategoricalAttribute::Categorical("Ward", "SynHospital", "SWard"),
             CategoricalAttribute::Categorical("Day", "SynTime", "SDay"),
             CategoricalAttribute::Plain("Nurse"),
             CategoricalAttribute::Plain("Shift")}));
    MDQA_RETURN_IF_ERROR(ontology->AddCategoricalRelation(std::move(rel)));
  }
  {
    MDQA_ASSIGN_OR_RETURN(
        CategoricalRelation rel,
        CategoricalRelation::Create(
            "SThermometer",
            {CategoricalAttribute::Categorical("Ward", "SynHospital", "SWard"),
             CategoricalAttribute::Categorical("Type", "SynInstrument",
                                               "SType"),
             CategoricalAttribute::Plain("Nurse")}));
    for (int w = 0; w < wards_total; ++w) {
      // Whole units share a type so EGD (6)'s analogue stays satisfiable.
      const char* type = ((w / spec.wards_per_unit) % 2 == 0) ? "T1" : "T3";
      MDQA_RETURN_IF_ERROR(rel.InsertText(
          {WardName(w), type, NurseName(w / spec.wards_per_unit)}));
    }
    MDQA_RETURN_IF_ERROR(ontology->AddCategoricalRelation(std::move(rel)));
  }

  MDQA_RETURN_IF_ERROR(ontology->AddDimensionalRule(
      "SPatientUnit(U, D, P) :- SPatientWard(W, D, P), SUnitSWard(U, W)."));
  if (spec.include_downward_rules) {
    MDQA_RETURN_IF_ERROR(ontology->AddDimensionalRule(
        "SShifts(W, D, N, Z) :- SWorkingSchedules(U, D, N, T), "
        "SUnitSWard(U, W)."));
  }
  // EGD analogue of (6): per-unit thermometer type uniqueness.
  MDQA_RETURN_IF_ERROR(ontology->AddDimensionalConstraint(
      "T = T2 :- SThermometer(W, T, N), SThermometer(W2, T2, N2), "
      "SUnitSWard(U, W), SUnitSWard(U, W2)."));
  return ontology;
}

Result<quality::QualityContext> BuildSyntheticContext(
    const SyntheticSpec& spec) {
  MDQA_ASSIGN_OR_RETURN(std::shared_ptr<core::MdOntology> ontology,
                        BuildSyntheticOntology(spec));
  quality::QualityContext context(ontology);

  Database db;
  MDQA_ASSIGN_OR_RETURN(
      RelationSchema schema,
      RelationSchema::Create("SMeasurements",
                             std::vector<std::string>{"Time", "Patient",
                                                      "Value"}));
  MDQA_RETURN_IF_ERROR(db.AddRelation(std::move(schema)));
  for (int p = 0; p < spec.patients; ++p) {
    for (int d = 0; d < spec.days; ++d) {
      double value = 36.0 + (p * 7 + d * 3) % 30 / 10.0;
      MDQA_RETURN_IF_ERROR(db.InsertText(
          "SMeasurements",
          {TimeName(d), PatientName(p), std::to_string(value)}));
    }
  }
  MDQA_RETURN_IF_ERROR(context.SetDatabase(std::move(db)));
  MDQA_RETURN_IF_ERROR(
      context.MapRelationToContext("SMeasurements", "SMeasurementc"));
  // Quality: certified nurse (via upward navigation into SPatientUnit)
  // and a brand-B1 thermometer (via roll-up through SynInstrument).
  MDQA_RETURN_IF_ERROR(context.AddContextualRules(
      "STakenByNurse(T, P, N, Y) :- SWorkingSchedules(U, D, N, Y), "
      "SDaySTime(D, T), SPatientUnit(U, D, P).\n"
      "STakenWithTherm(T, P, B) :- SPatientWard(W, D, P), "
      "SThermometer(W, Ty, N), SBrandSType(B, Ty), SDaySTime(D, T).\n"
      "SMeasurementp(T, P, V, Y, B) :- SMeasurementc(T, P, V), "
      "STakenByNurse(T, P, N, Y), STakenWithTherm(T, P, B).\n"));
  MDQA_RETURN_IF_ERROR(context.DefineQualityVersion(
      "SMeasurements", "SMeasurementsq",
      "SMeasurementsq(T, P, V) :- "
      "SMeasurementp(T, P, V, \"cert.\", \"B1\").\n"));
  return context;
}

}  // namespace mdqa::scenarios
