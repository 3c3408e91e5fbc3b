// SynonymIndex: the ontology compiled against a relation's dictionary.
//
// Discovery and cleaning touch names(v) for millions of cells; resolving
// strings each time would dominate runtime. The index snapshots
// ValueId -> sorted senses and SenseId -> interned values, realizing the
// paper's assumption that "values in the ontology are indexed and can be
// accessed in constant time".

#ifndef FASTOFD_ONTOLOGY_SYNONYM_INDEX_H_
#define FASTOFD_ONTOLOGY_SYNONYM_INDEX_H_

#include <vector>

#include "common/dictionary.h"
#include "common/status.h"
#include "ontology/ontology.h"

namespace fastofd {

/// Immutable-by-default compiled view of an ontology over a dictionary.
/// Rebuild (or apply AddValue) after repairing the ontology.
class SynonymIndex {
 public:
  /// Compiles `ontology` against `dict`. Only values present in the
  /// dictionary are indexed (others cannot occur in the relation).
  SynonymIndex(const Ontology& ontology, const Dictionary& dict);

  /// Reassembles an index from its stored posting lists (snapshot load),
  /// skipping the ontology walk. The two maps must mirror each other —
  /// value_senses[v] sorted ascending, and (s, v) present in one direction
  /// iff present in the other; anything else is rejected.
  static Result<SynonymIndex> FromParts(
      std::vector<std::vector<SenseId>> value_senses,
      std::vector<std::vector<ValueId>> sense_values);

  /// Senses containing the value, ascending — the paper's names(v).
  /// Empty for values outside the ontology.
  const std::vector<SenseId>& Senses(ValueId v) const {
    static const std::vector<SenseId> kEmpty;
    if (v < 0 || static_cast<size_t>(v) >= value_senses_.size()) return kEmpty;
    return value_senses_[static_cast<size_t>(v)];
  }

  /// True iff the value appears in at least one sense.
  bool InOntology(ValueId v) const { return !Senses(v).empty(); }

  /// True iff sense `s` contains value `v`.
  bool SenseContains(SenseId s, ValueId v) const;

  /// Interned values of sense `s` (restricted to the dictionary).
  const std::vector<ValueId>& SenseValues(SenseId s) const {
    return sense_values_[static_cast<size_t>(s)];
  }

  int num_senses() const { return static_cast<int>(sense_values_.size()); }

  /// Incrementally records that `v` now belongs to sense `s` (mirrors an
  /// Ontology::AddValue repair without a full rebuild). Idempotent; returns
  /// true iff the mapping was newly inserted. A caller that mutates and
  /// restores the index must only RemoveValue mappings it actually inserted,
  /// or it would delete a pre-existing ontology mapping.
  bool AddValue(SenseId s, ValueId v);

  /// Undoes AddValue(s, v) — used when materializing an ontology repair
  /// against a shared index. No-op if the mapping is absent.
  void RemoveValue(SenseId s, ValueId v);

 private:
  SynonymIndex() = default;  // For FromParts.

  // value id -> sorted senses containing it.
  std::vector<std::vector<SenseId>> value_senses_;
  // sense id -> interned member values.
  std::vector<std::vector<ValueId>> sense_values_;
};

/// Deep invariant audit (common/audit.h): the ontology's is-a tree is
/// well-formed (parent/child lists agree, no cycles) and the compiled index
/// agrees with the ontology in both directions — every posting in
/// value->senses is sorted and matches names(v), and every sense's member
/// list is exactly its dictionary-present ontology values. Returns the
/// first violation found.
///
/// `allow_unindexed_values` relaxes the equality checks to containment for
/// values the index does not cover: the service interns new dictionary
/// values on `update` without recompiling the session's index (a deliberate
/// snapshot semantics), so a post-load value may legitimately be known to
/// the ontology yet absent from the index.
Status AuditOntologyIndex(const Ontology& ontology, const Dictionary& dict,
                          const SynonymIndex& index,
                          bool allow_unindexed_values = false);

}  // namespace fastofd

#endif  // FASTOFD_ONTOLOGY_SYNONYM_INDEX_H_
