#include "storage/session_image.h"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "datalog/instance.h"

namespace mdqa::storage {

namespace {

/// First-appearance value interner: deterministic given a fixed visit
/// order (database rows in RelationNames order, then instance tables by
/// ascending predicate id).
class ValueInterner {
 public:
  explicit ValueInterner(std::vector<Value>* out) : out_(out) {}

  uint32_t Intern(const Value& v) {
    auto it = ids_.find(v);
    if (it != ids_.end()) return it->second;
    uint32_t id = static_cast<uint32_t>(out_->size());
    out_->push_back(v);
    ids_.emplace(v, id);
    return id;
  }

 private:
  std::vector<Value>* out_;
  std::map<Value, uint32_t> ids_;
};

Status CorruptImage(const std::string& why) {
  return Status::Internal("session image: " + why);
}

/// Serializes every table of `instance` into `image->tables`, by
/// ascending predicate id, rows in Facts() order (the byte-identity
/// contract). Constants intern through `interner`.
Status CaptureTables(const datalog::Instance& instance,
                     ValueInterner* interner, KbImage* image) {
  const auto& vocab = instance.vocab();
  std::vector<uint32_t> preds = instance.Predicates();
  std::sort(preds.begin(), preds.end());
  for (uint32_t pred : preds) {
    const datalog::FactTable* table = instance.Table(pred);
    if (table == nullptr) continue;
    KbTableImage timg;
    timg.predicate = vocab->PredicateName(pred);
    timg.arity = static_cast<uint32_t>(table->arity());
    timg.frozen_rows = table->frozen_rows();
    for (size_t k = 0; k < table->NumSegments(); ++k) {
      timg.segment_rows.push_back(table->SegmentAt(k).segment->rows());
    }
    uint32_t rows = static_cast<uint32_t>(table->size());
    timg.terms.reserve(static_cast<size_t>(rows) * timg.arity);
    timg.levels.reserve(rows);
    for (uint32_t i = 0; i < rows; ++i) {
      const datalog::Term* row = table->Row(i);
      for (uint32_t j = 0; j < timg.arity; ++j) {
        datalog::Term t = row[j];
        if (t.IsConstant()) {
          timg.terms.push_back(PackImageTerm(
              false, interner->Intern(vocab->ConstantValue(t.id()))));
        } else if (t.IsNull()) {
          timg.terms.push_back(PackImageTerm(true, t.id()));
        } else {
          return CorruptImage("variable term in ground fact of " +
                              timg.predicate);
        }
      }
      timg.levels.push_back(table->Level(i));
    }
    image->tables.push_back(std::move(timg));
  }
  return Status::Ok();
}

}  // namespace

Result<KbImage> CaptureSessionImage(const quality::PreparedContext& session,
                                    uint64_t generation,
                                    uint64_t applied_updates,
                                    const std::string& scenario) {
  const datalog::ChaseStats& stats = session.chase_stats();
  if (!stats.frontier.valid) {
    return Status::FailedPrecondition(
        "session image: cannot checkpoint a truncated session (chase did not "
        "reach its fixpoint; no usable frontier)");
  }
  const datalog::Instance& instance = session.instance();
  const auto& vocab = instance.vocab();

  KbImage image;
  image.meta.generation = generation;
  image.meta.applied_updates = applied_updates;
  image.meta.scenario = scenario;
  image.meta.reached_fixpoint = stats.reached_fixpoint;
  image.meta.rounds = stats.rounds;
  image.meta.tgd_firings = stats.tgd_firings;
  image.meta.facts_added = stats.facts_added;
  image.meta.nulls_created = stats.nulls_created;
  image.meta.egd_merges = stats.egd_merges;
  image.meta.null_watermark = vocab->NumNulls();

  ValueInterner interner(&image.values);

  // Extensional database, in relation insertion order.
  const Database& db = session.database();
  for (const std::string& name : db.RelationNames()) {
    MDQA_ASSIGN_OR_RETURN(const Relation* rel, db.GetRelation(name));
    KbRelationImage rimg;
    rimg.name = name;
    for (const Attribute& attr : rel->schema().attributes()) {
      rimg.attr_names.push_back(attr.name);
      rimg.attr_types.push_back(static_cast<uint8_t>(attr.type));
    }
    rimg.rows.reserve(rel->size());
    for (const Tuple& row : rel->rows()) {
      std::vector<uint32_t> encoded;
      encoded.reserve(row.size());
      for (const Value& v : row) encoded.push_back(interner.Intern(v));
      rimg.rows.push_back(std::move(encoded));
    }
    image.relations.push_back(std::move(rimg));
  }

  // Materialized instance, tables by ascending predicate id, rows in
  // Facts() order.
  MDQA_RETURN_IF_ERROR(CaptureTables(instance, &interner, &image));
  return image;
}

Result<KbImage> CaptureInstanceImage(const datalog::Instance& instance,
                                     const datalog::ChaseFrontier& frontier,
                                     uint64_t generation,
                                     const std::string& scenario) {
  if (!frontier.valid) {
    return Status::FailedPrecondition(
        "session image: cannot checkpoint a truncated materialization (no "
        "usable frontier)");
  }
  KbImage image;
  image.meta.generation = generation;
  image.meta.applied_updates = 0;
  image.meta.scenario = scenario;
  image.meta.reached_fixpoint = true;
  image.meta.rounds = frontier.round;
  image.meta.egd_merges = frontier.egd_merges;
  image.meta.null_watermark = instance.vocab()->NumNulls();
  ValueInterner interner(&image.values);
  MDQA_RETURN_IF_ERROR(CaptureTables(instance, &interner, &image));
  return image;
}

Result<Database> DatabaseFromImage(const KbImage& image) {
  Database db;
  for (const KbRelationImage& rimg : image.relations) {
    std::vector<Attribute> attrs;
    attrs.reserve(rimg.attr_names.size());
    for (size_t i = 0; i < rimg.attr_names.size(); ++i) {
      if (rimg.attr_types[i] > static_cast<uint8_t>(AttrType::kString)) {
        return CorruptImage("relation " + rimg.name +
                            ": unknown attribute type");
      }
      attrs.push_back(Attribute{rimg.attr_names[i],
                                static_cast<AttrType>(rimg.attr_types[i])});
    }
    MDQA_ASSIGN_OR_RETURN(RelationSchema schema,
                          RelationSchema::Create(rimg.name, std::move(attrs)));
    Relation rel(std::move(schema));
    for (const std::vector<uint32_t>& row : rimg.rows) {
      Tuple tuple;
      tuple.reserve(row.size());
      for (uint32_t idx : row) tuple.push_back(image.values[idx]);
      MDQA_RETURN_IF_ERROR(rel.Insert(std::move(tuple)));
    }
    db.PutRelation(std::move(rel));
  }
  return db;
}

quality::MaterializationRebuilder ImageRebuilder(
    std::shared_ptr<const KbImage> image) {
  return [image](datalog::Program& program)
             -> Result<quality::RestoredMaterialization> {
    const auto& vocab = program.vocab();
    datalog::Instance instance(vocab);

    // Re-intern the dictionary once; image rows then resolve by index.
    std::vector<datalog::Term> term_of_value;
    term_of_value.reserve(image->values.size());
    for (const Value& v : image->values) term_of_value.push_back(vocab->Const(v));

    // Reserve persisted null ids so replayed updates mint fresh ones and
    // the restored facts' nulls keep their captured identities.
    if (image->meta.null_watermark > 0) {
      vocab->ReserveNullsThrough(image->meta.null_watermark - 1);
    }

    for (const KbTableImage& timg : image->tables) {
      MDQA_ASSIGN_OR_RETURN(uint32_t pred,
                            vocab->InternPredicate(timg.predicate, timg.arity));
      uint32_t rows = static_cast<uint32_t>(timg.levels.size());
      for (uint32_t i = 0; i < rows; ++i) {
        std::vector<datalog::Term> terms;
        terms.reserve(timg.arity);
        for (uint32_t j = 0; j < timg.arity; ++j) {
          uint64_t packed = timg.terms[static_cast<size_t>(i) * timg.arity + j];
          if (ImageTermIsNull(packed)) {
            terms.push_back(datalog::Term::Null(ImageTermId(packed)));
          } else {
            terms.push_back(term_of_value[ImageTermId(packed)]);
          }
        }
        if (!instance.AddFact(datalog::Atom(pred, std::move(terms)),
                              timg.levels[i])) {
          return CorruptImage("duplicate row " + std::to_string(i) +
                              " in table " + timg.predicate);
        }
      }
    }
    instance.Freeze();

    quality::RestoredMaterialization mat{std::move(instance),
                                         datalog::ChaseStats{}};
    datalog::ChaseStats& stats = mat.stats;
    stats.reached_fixpoint = image->meta.reached_fixpoint;
    stats.rounds = image->meta.rounds;
    stats.tgd_firings = image->meta.tgd_firings;
    stats.facts_added = image->meta.facts_added;
    stats.nulls_created = image->meta.nulls_created;
    stats.egd_merges = image->meta.egd_merges;
    stats.completeness = Completeness::kComplete;
    stats.stop = datalog::ChaseStop::kNone;
    stats.interruption = Status::Ok();

    datalog::ChaseFrontier& frontier = stats.frontier;
    frontier.valid = true;
    frontier.round = image->meta.rounds;
    frontier.null_watermark = vocab->NumNulls();
    frontier.egd_merges = image->meta.egd_merges;
    frontier.generation = mat.instance.generation();
    for (uint32_t pred : mat.instance.Predicates()) {
      frontier.watermarks[pred] =
          static_cast<uint32_t>(mat.instance.CountFacts(pred));
    }
    return mat;
  };
}

}  // namespace mdqa::storage
