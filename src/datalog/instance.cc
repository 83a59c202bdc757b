#include "datalog/instance.h"

#include <algorithm>
#include <bit>

namespace mdqa::datalog {

size_t FactTable::HashRow(const Term* row) const {
  size_t seed = arity_;
  for (size_t i = 0; i < arity_; ++i) {
    HashCombine(&seed, TermHash{}(row[i]));
  }
  return seed & hash_mask_;
}

size_t FactTable::HomeSlot(const Term* row) const {
  return (HashRow(row) * 0x9e3779b97f4a7c15ull) >> dedup_shift_;
}

size_t FactTable::DedupSlot(const Term* row) const {
  const size_t mask = dedup_.size() - 1;
  size_t slot = HomeSlot(row);
  // Slots are keyed by a lossy hash: verify full-row equality before
  // trusting a candidate (two distinct rows must never alias).
  while (dedup_[slot] != kEmptySlot &&
         !std::equal(row, row + arity_, Row(dedup_[slot]))) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

int64_t FactTable::FindRow(const Term* row) const {
  if (dedup_.empty()) return -1;
  const uint32_t idx = dedup_[DedupSlot(row)];
  return idx == kEmptySlot ? int64_t{-1} : int64_t{idx};
}

void FactTable::RehashDedup(size_t capacity) {
  dedup_.assign(capacity, kEmptySlot);
  dedup_shift_ = 64 - std::countr_zero(capacity);
  // Rows are distinct, so each takes the first empty slot of its chain.
  for (uint32_t r = 0; r < size(); ++r) {
    size_t slot = HomeSlot(Row(r));
    while (dedup_[slot] != kEmptySlot) slot = (slot + 1) & (capacity - 1);
    dedup_[slot] = r;
  }
}

bool FactTable::InSealedDict(size_t pos, Term t) const {
  for (const auto& seg : sealed_) {
    if (seg->column(pos).CodeOf(t) != Column::kNoCode) return true;
  }
  return false;
}

bool FactTable::Insert(const Term* row, uint32_t level) {
  if (dedup_.empty()) RehashDedup(8);
  const size_t slot = DedupSlot(row);
  if (dedup_[slot] != kEmptySlot) {
    uint32_t& lvl = levels_[dedup_[slot]];
    lvl = std::min(lvl, level);
    return false;
  }
  uint32_t idx = static_cast<uint32_t>(size());
  data_.insert(data_.end(), row, row + arity_);
  levels_.push_back(level);
  if (2 * size() > dedup_.size()) {
    RehashDedup(2 * dedup_.size());  // places the new row too
  } else {
    dedup_[slot] = idx;
  }
  fresh_scratch_.assign(arity_, 0);
  overlay_.Append(row, fresh_scratch_.data());
  for (size_t pos = 0; pos < arity_; ++pos) {
    // New to the table iff new to the overlay dictionary and absent from
    // every sealed dictionary (checked only on overlay misses).
    if (fresh_scratch_[pos] != 0 && !InSealedDict(pos, row[pos])) {
      ++distinct_[pos];
    }
  }
  return true;
}

std::vector<uint32_t> FactTable::Probe(size_t pos, Term t) const {
  if (const std::vector<uint32_t>* rows = ProbeRef(pos, t)) return *rows;
  // Multi-segment gather: per-segment postings are ascending and segment
  // row ranges are disjoint in base order, so concatenation with the base
  // offset is globally ascending without a merge.
  std::vector<uint32_t> out;
  for (size_t k = 0; k < NumSegments(); ++k) {
    const SegmentView view = SegmentAt(k);
    const uint32_t code = view.segment->column(pos).CodeOf(t);
    if (code == Column::kNoCode) continue;
    for (uint32_t local : view.segment->column(pos).Postings(code)) {
      out.push_back(view.base + local);
    }
  }
  return out;
}

const std::vector<uint32_t>* FactTable::ProbeRef(size_t pos, Term t) const {
  static const std::vector<uint32_t> kEmpty;
  // The postings of a single segment based at row 0 are the global row
  // list verbatim; anything else needs an offset gather.
  const std::vector<uint32_t>* single = nullptr;
  for (size_t k = 0; k < NumSegments(); ++k) {
    const SegmentView view = SegmentAt(k);
    const uint32_t code = view.segment->column(pos).CodeOf(t);
    if (code == Column::kNoCode) continue;
    if (single != nullptr || view.base != 0) return nullptr;
    single = &view.segment->column(pos).Postings(code);
  }
  return single == nullptr ? &kEmpty : single;
}

size_t FactTable::ProbeCount(size_t pos, Term t) const {
  size_t n = 0;
  for (size_t k = 0; k < NumSegments(); ++k) {
    const SegmentView view = SegmentAt(k);
    const uint32_t code = view.segment->column(pos).CodeOf(t);
    if (code != Column::kNoCode) {
      n += view.segment->column(pos).Postings(code).size();
    }
  }
  return n;
}

void FactTable::SealOverlay() {
  if (overlay_.rows() == 0) return;
  sealed_base_.push_back(overlay_base_);
  overlay_base_ += overlay_.rows();
  sealed_.push_back(std::make_shared<const Segment>(std::move(overlay_)));
  overlay_ = Segment(arity_);
  if (hash_mask_ != ~0ull) overlay_.set_hash_mask_for_test(hash_mask_);
}

void FactTable::set_hash_mask_for_test(uint64_t mask) {
  hash_mask_ = mask;
  overlay_.set_hash_mask_for_test(mask);
}

uint64_t FactTable::MemoryEstimateBytes() const {
  uint64_t bytes = data_.capacity() * sizeof(Term) +
                   levels_.capacity() * sizeof(uint32_t);
  bytes += dedup_.capacity() * sizeof(uint32_t);
  for (const auto& seg : sealed_) bytes += seg->MemoryEstimateBytes();
  bytes += overlay_.MemoryEstimateBytes();
  return bytes;
}

Instance Instance::FromProgram(const Program& program) {
  Instance inst(program.vocab());
  for (const Atom& f : program.facts()) {
    inst.AddFact(f, /*level=*/0);
  }
  return inst;
}

FactTable* Instance::EnsureOwnedTable(uint32_t pred, size_t arity) {
  auto it = tables_.find(pred);
  if (it == tables_.end()) {
    it = tables_.emplace(pred, std::make_shared<FactTable>(arity)).first;
  } else if (it->second.use_count() > 1) {
    // Copy-on-write: the table is shared with a snapshot; clone before
    // the first mutation so the snapshot keeps its frozen view.
    it->second = std::make_shared<FactTable>(*it->second);
  }
  return it->second.get();
}

bool Instance::AddFact(const Atom& fact, uint32_t level) {
  return MutableTable(fact.predicate, fact.arity())
      ->Insert(fact.terms.data(), level);
}

bool Instance::Contains(const Atom& fact) const {
  const FactTable* table = Table(fact.predicate);
  return table != nullptr && table->Contains(fact.terms.data());
}

const FactTable* Instance::Table(uint32_t pred) const {
  auto it = tables_.find(pred);
  return it == tables_.end() ? nullptr : it->second.get();
}

FactTable* Instance::MutableTable(uint32_t pred, size_t arity) {
  ++generation_;
  return EnsureOwnedTable(pred, arity);
}

void Instance::Freeze() {
  // A pure watermark update on tables this view owns logically; it does
  // not count as a mutation of the fact set, but it must not write into
  // a table shared with a snapshot either — cloning would defeat the
  // point, so shared tables are frozen in place (the watermark is
  // monotone and both views agree on the rows it covers). Tables that
  // are NOT shared additionally seal their overlay into the immutable
  // segment chain, so later copy-on-write clones share the frozen base's
  // dictionaries and postings; a shared table's chain must stay
  // untouched — a concurrent snapshot reader may be probing it.
  for (auto& [_, table] : tables_) {
    table->MarkFrozen();
    if (table.use_count() == 1) table->SealOverlay();
  }
}

bool Instance::SharesTableWith(const Instance& other, uint32_t pred) const {
  auto a = tables_.find(pred);
  auto b = other.tables_.find(pred);
  if (a == tables_.end() || b == other.tables_.end()) return false;
  return a->second.get() == b->second.get();
}

std::vector<uint32_t> Instance::Predicates() const {
  std::vector<uint32_t> out;
  out.reserve(tables_.size());
  for (const auto& [pred, table] : tables_) {
    if (table->size() > 0) out.push_back(pred);
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t Instance::TotalFacts() const {
  size_t n = 0;
  for (const auto& [_, table] : tables_) n += table->size();
  return n;
}

uint64_t Instance::MemoryEstimateBytes() const {
  uint64_t bytes = 0;
  for (const auto& [_, table] : tables_) {
    bytes += table->MemoryEstimateBytes();
  }
  return bytes;
}

size_t Instance::CountFacts(uint32_t pred) const {
  const FactTable* table = Table(pred);
  return table == nullptr ? 0 : table->size();
}

InstanceStatistics Instance::CollectStatistics() const {
  InstanceStatistics stats;
  stats.tables.reserve(tables_.size());
  for (const auto& [pred, table] : tables_) {
    TableStatistics t;
    t.rows = table->size();
    t.distinct.reserve(table->arity());
    for (size_t i = 0; i < table->arity(); ++i) {
      t.distinct.push_back(table->DistinctAt(i));
    }
    stats.total_facts += t.rows;
    stats.max_rows = std::max(stats.max_rows, t.rows);
    stats.tables.emplace(pred, std::move(t));
  }
  return stats;
}

std::vector<Atom> Instance::Facts(uint32_t pred) const {
  std::vector<Atom> out;
  const FactTable* table = Table(pred);
  if (table == nullptr) return out;
  out.reserve(table->size());
  for (uint32_t i = 0; i < table->size(); ++i) {
    const Term* row = table->Row(i);
    out.emplace_back(pred, std::vector<Term>(row, row + table->arity()));
  }
  return out;
}

Status Instance::LoadRelation(const Relation& rel) {
  MDQA_ASSIGN_OR_RETURN(uint32_t pred,
                        vocab_->InternPredicate(rel.name(), rel.arity()));
  for (const Tuple& row : rel.rows()) {
    std::vector<Term> terms;
    terms.reserve(row.size());
    for (const Value& v : row) terms.push_back(vocab_->Const(v));
    AddFact(Atom(pred, std::move(terms)), /*level=*/0);
  }
  return Status::Ok();
}

Status Instance::LoadDatabase(const Database& db) {
  for (const std::string& name : db.RelationNames()) {
    MDQA_ASSIGN_OR_RETURN(const Relation* rel, db.GetRelation(name));
    MDQA_RETURN_IF_ERROR(LoadRelation(*rel));
  }
  return Status::Ok();
}

Result<Relation> Instance::ExportRelation(uint32_t pred,
                                          const std::string& name,
                                          std::vector<std::string> attr_names,
                                          bool keep_nulls) const {
  const size_t arity = vocab_->PredicateArity(pred);
  if (attr_names.empty()) {
    for (size_t i = 0; i < arity; ++i) {
      attr_names.push_back("a" + std::to_string(i));
    }
  }
  if (attr_names.size() != arity) {
    return Status::InvalidArgument("attribute-name count does not match arity of " +
                                   vocab_->PredicateName(pred));
  }
  MDQA_ASSIGN_OR_RETURN(RelationSchema schema,
                        RelationSchema::Create(name, std::move(attr_names)));
  Relation out(std::move(schema));
  const FactTable* table = Table(pred);
  if (table == nullptr) return out;
  for (uint32_t i = 0; i < table->size(); ++i) {
    const Term* row = table->Row(i);
    Tuple tuple;
    tuple.reserve(arity);
    bool has_null = false;
    for (size_t j = 0; j < arity; ++j) {
      if (row[j].IsNull()) {
        has_null = true;
        tuple.push_back(Value::Str(vocab_->TermToString(row[j])));
      } else {
        tuple.push_back(vocab_->ConstantValue(row[j].id()));
      }
    }
    if (has_null && !keep_nulls) continue;
    MDQA_RETURN_IF_ERROR(out.Insert(std::move(tuple)));
  }
  return out;
}

std::string Instance::ToString() const {
  std::vector<std::string> lines;
  for (uint32_t pred : Predicates()) {
    for (const Atom& a : Facts(pred)) {
      lines.push_back(vocab_->AtomToString(a) + ".");
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

std::string Instance::ToCanonicalString() const {
  // Collect facts once; renaming only touches null ids.
  std::vector<Atom> atoms;
  bool any_null = false;
  for (uint32_t pred : Predicates()) {
    for (Atom& a : Facts(pred)) {
      for (Term t : a.terms) any_null = any_null || t.IsNull();
      atoms.push_back(std::move(a));
    }
  }
  if (!any_null) return ToString();

  // Greedy canonical renaming: repeatedly render every fact with the
  // nulls assigned so far (unassigned ones as the placeholder "_?"),
  // and assign the next canonical id to the first unassigned null of
  // the lexicographically smallest line containing one. Deterministic
  // whenever co-occurring constants / already-named nulls distinguish
  // the nulls; automorphic groups tie-break by scan order.
  std::unordered_map<uint32_t, uint32_t> canon;  // null id -> canonical id
  auto render = [&](const Atom& a) {
    std::string s = vocab_->PredicateName(a.predicate) + "(";
    for (size_t i = 0; i < a.terms.size(); ++i) {
      if (i > 0) s += ", ";
      Term t = a.terms[i];
      if (t.IsNull()) {
        auto it = canon.find(t.id());
        s += it == canon.end() ? std::string("_?")
                               : "_n" + std::to_string(it->second);
      } else {
        s += vocab_->TermToString(t);
      }
    }
    s += ").";
    return s;
  };
  while (true) {
    const Atom* best = nullptr;
    std::string best_line;
    for (const Atom& a : atoms) {
      bool unassigned = false;
      for (Term t : a.terms) {
        if (t.IsNull() && canon.find(t.id()) == canon.end()) {
          unassigned = true;
          break;
        }
      }
      if (!unassigned) continue;
      std::string line = render(a);
      if (best == nullptr || line < best_line) {
        best = &a;
        best_line = std::move(line);
      }
    }
    if (best == nullptr) break;
    for (Term t : best->terms) {
      if (t.IsNull() && canon.find(t.id()) == canon.end()) {
        canon.emplace(t.id(), static_cast<uint32_t>(canon.size()));
        break;  // one assignment per pass: later lines may re-rank
      }
    }
  }
  std::vector<std::string> lines;
  lines.reserve(atoms.size());
  for (const Atom& a : atoms) lines.push_back(render(a));
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

}  // namespace mdqa::datalog
