#include "ontology/synonym_index.h"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "common/audit.h"
#include "common/check.h"

namespace fastofd {

SynonymIndex::SynonymIndex(const Ontology& ontology, const Dictionary& dict) {
  value_senses_.resize(dict.size());
  sense_values_.resize(static_cast<size_t>(ontology.num_senses()));
  for (SenseId s = 0; s < ontology.num_senses(); ++s) {
    for (const std::string& value : ontology.SenseValues(s)) {
      ValueId v = dict.Lookup(value);
      if (v == kInvalidValue) continue;
      value_senses_[static_cast<size_t>(v)].push_back(s);
      sense_values_[static_cast<size_t>(s)].push_back(v);
    }
  }
  for (auto& senses : value_senses_) std::sort(senses.begin(), senses.end());
}

Result<SynonymIndex> SynonymIndex::FromParts(
    std::vector<std::vector<SenseId>> value_senses,
    std::vector<std::vector<ValueId>> sense_values) {
  const size_t num_senses = sense_values.size();
  for (const std::vector<SenseId>& senses : value_senses) {
    if (!std::is_sorted(senses.begin(), senses.end())) {
      return Status::Error("synonym index parts: unsorted value postings");
    }
    if (std::adjacent_find(senses.begin(), senses.end()) != senses.end()) {
      return Status::Error("synonym index parts: duplicate value posting");
    }
    for (SenseId s : senses) {
      if (s < 0 || static_cast<size_t>(s) >= num_senses) {
        return Status::Error("synonym index parts: sense id out of range");
      }
    }
  }
  // The maps must mirror each other exactly; rebuild one direction from the
  // other and compare. O(total postings log k) — tiny next to a recompile.
  std::vector<std::vector<SenseId>> mirror(value_senses.size());
  for (size_t s = 0; s < num_senses; ++s) {
    for (ValueId v : sense_values[s]) {
      if (v < 0 || static_cast<size_t>(v) >= value_senses.size()) {
        return Status::Error("synonym index parts: value id out of range");
      }
      mirror[static_cast<size_t>(v)].push_back(static_cast<SenseId>(s));
    }
  }
  for (auto& senses : mirror) std::sort(senses.begin(), senses.end());
  if (mirror != value_senses) {
    return Status::Error(
        "synonym index parts: value->senses and sense->values disagree");
  }
  SynonymIndex index;
  index.value_senses_ = std::move(value_senses);
  index.sense_values_ = std::move(sense_values);
  return index;
}

bool SynonymIndex::SenseContains(SenseId s, ValueId v) const {
  const std::vector<SenseId>& senses = Senses(v);
  return std::binary_search(senses.begin(), senses.end(), s);
}

bool SynonymIndex::AddValue(SenseId s, ValueId v) {
  FASTOFD_CHECK(s >= 0 && static_cast<size_t>(s) < sense_values_.size());
  FASTOFD_CHECK(v >= 0);
  if (static_cast<size_t>(v) >= value_senses_.size()) {
    value_senses_.resize(static_cast<size_t>(v) + 1);
  }
  auto& senses = value_senses_[static_cast<size_t>(v)];
  auto it = std::lower_bound(senses.begin(), senses.end(), s);
  if (it != senses.end() && *it == s) return false;
  senses.insert(it, s);
  sense_values_[static_cast<size_t>(s)].push_back(v);
  return true;
}

void SynonymIndex::RemoveValue(SenseId s, ValueId v) {
  if (v < 0 || static_cast<size_t>(v) >= value_senses_.size()) return;
  auto& senses = value_senses_[static_cast<size_t>(v)];
  auto it = std::lower_bound(senses.begin(), senses.end(), s);
  if (it == senses.end() || *it != s) return;
  senses.erase(it);
  auto& values = sense_values_[static_cast<size_t>(s)];
  auto vit = std::find(values.begin(), values.end(), v);
  // The two maps mirror each other: a sense listed for v must list v back.
  FASTOFD_CHECK(vit != values.end());
  values.erase(vit);
}

namespace {

Status OntologyAuditError(const std::string& message) {
  return audit::internal::Counted(Status::Error("ontology audit: " + message));
}

}  // namespace

Status AuditOntologyIndex(const Ontology& ontology, const Dictionary& dict,
                          const SynonymIndex& index,
                          bool allow_unindexed_values) {
  // --- Is-a tree shape: parent/child agreement, ids in range, acyclic. ---
  for (ConceptId c = 0; c < ontology.num_concepts(); ++c) {
    ConceptId p = ontology.parent(c);
    if (p != kInvalidConcept) {
      if (p < 0 || p >= ontology.num_concepts()) {
        return OntologyAuditError("concept " + std::to_string(c) +
                                  " has out-of-range parent");
      }
      const std::vector<ConceptId>& siblings = ontology.children(p);
      if (std::count(siblings.begin(), siblings.end(), c) != 1) {
        return OntologyAuditError("concept " + std::to_string(c) +
                                  " not listed exactly once under its parent");
      }
    }
    for (ConceptId child : ontology.children(c)) {
      if (child < 0 || child >= ontology.num_concepts() ||
          ontology.parent(child) != c) {
        return OntologyAuditError("child list of concept " + std::to_string(c) +
                                  " disagrees with parent pointers");
      }
    }
    // Walking parents must reach a root within num_concepts steps.
    ConceptId cur = c;
    for (int steps = 0; cur != kInvalidConcept; ++steps) {
      if (steps > ontology.num_concepts()) {
        return OntologyAuditError("is-a cycle reachable from concept " +
                                  std::to_string(c));
      }
      cur = ontology.parent(cur);
    }
  }
  // Senses must reference valid concepts.
  for (SenseId s = 0; s < ontology.num_senses(); ++s) {
    ConceptId c = ontology.sense_concept(s);
    if (c != kInvalidConcept && (c < 0 || c >= ontology.num_concepts())) {
      return OntologyAuditError("sense " + std::to_string(s) +
                                " attached to out-of-range concept");
    }
  }

  // --- Index vs ontology, sense direction. ---
  if (index.num_senses() != ontology.num_senses()) {
    return OntologyAuditError("index has " + std::to_string(index.num_senses()) +
                              " senses, ontology has " +
                              std::to_string(ontology.num_senses()));
  }
  for (SenseId s = 0; s < index.num_senses(); ++s) {
    std::unordered_set<ValueId> members;
    for (ValueId v : index.SenseValues(s)) {
      if (v < 0 || static_cast<size_t>(v) >= dict.size()) {
        return OntologyAuditError("sense " + std::to_string(s) +
                                  " lists out-of-dictionary value id " +
                                  std::to_string(v));
      }
      if (!members.insert(v).second) {
        return OntologyAuditError("sense " + std::to_string(s) +
                                  " lists value id " + std::to_string(v) +
                                  " twice");
      }
      if (!ontology.SenseContains(s, dict.String(v))) {
        return OntologyAuditError("index puts '" + dict.String(v) +
                                  "' in sense " + std::to_string(s) +
                                  " but the ontology does not");
      }
      if (!index.SenseContains(s, v)) {
        return OntologyAuditError("sense_values/value_senses disagree for '" +
                                  dict.String(v) + "'");
      }
    }
    // Every dictionary-present ontology member must be indexed.
    size_t expected = 0;
    for (const std::string& value : ontology.SenseValues(s)) {
      if (dict.Lookup(value) != kInvalidValue) ++expected;
    }
    bool complete = allow_unindexed_values ? expected >= members.size()
                                           : expected == members.size();
    if (!complete) {
      return OntologyAuditError("sense " + std::to_string(s) + " indexes " +
                                std::to_string(members.size()) +
                                " values but the ontology has " +
                                std::to_string(expected) +
                                " dictionary-present members");
    }
  }

  // --- Index vs ontology, value direction: Senses(v) == sorted names(v). ---
  for (ValueId v = 0; static_cast<size_t>(v) < dict.size(); ++v) {
    const std::vector<SenseId>& senses = index.Senses(v);
    for (size_t i = 1; i < senses.size(); ++i) {
      if (senses[i - 1] >= senses[i]) {
        return OntologyAuditError("Senses('" + dict.String(v) +
                                  "') not strictly ascending");
      }
    }
    if (allow_unindexed_values && senses.empty()) continue;
    std::vector<SenseId> expected = ontology.NamesOf(dict.String(v));
    std::sort(expected.begin(), expected.end());
    if (senses != expected) {
      return OntologyAuditError("names('" + dict.String(v) +
                                "') disagree between index and ontology");
    }
  }
  return audit::internal::Counted(Status::Ok());
}

}  // namespace fastofd
