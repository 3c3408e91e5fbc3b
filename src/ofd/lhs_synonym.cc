#include "ofd/lhs_synonym.h"

#include <algorithm>
#include <map>
#include <vector>

#include "common/check.h"
#include "ofd/verifier.h"

namespace fastofd {

namespace {

// Canonical representative of v under sense s: the sense's smallest member
// when v belongs to s, v itself otherwise.
ValueId CanonicalUnder(const SynonymIndex& index, SenseId s, ValueId v) {
  if (!index.SenseContains(s, v)) return v;
  const std::vector<ValueId>& members = index.SenseValues(s);
  return *std::min_element(members.begin(), members.end());
}

}  // namespace

bool HoldsWithLhsSynonyms(const Relation& rel, const SynonymIndex& index,
                          const Ofd& ofd, LhsSynonymStats* stats) {
  FASTOFD_CHECK(ofd.kind == OfdKind::kSynonym);
  const OfdVerifier verifier(rel, index);
  std::vector<AttrId> lhs_attrs = ofd.lhs.ToVector();

  // Interpretation loop: the literal reading (sense = kInvalidSense) plus
  // every ontology sense. A sense merging no antecedent values degenerates
  // to the literal partition, so the literal case is subsumed — but senses
  // may not exist at all, hence the explicit first iteration.
  std::vector<SenseId> interpretations = {kInvalidSense};
  for (SenseId s = 0; s < index.num_senses(); ++s) interpretations.push_back(s);

  std::map<std::vector<ValueId>, std::vector<RowId>> classes;
  std::vector<ValueId> key(lhs_attrs.size());
  for (SenseId lambda : interpretations) {
    if (stats) ++stats->interpretations;
    classes.clear();
    for (RowId r = 0; r < rel.num_rows(); ++r) {
      for (size_t i = 0; i < lhs_attrs.size(); ++i) {
        ValueId v = rel.At(r, lhs_attrs[i]);
        if (lambda != kInvalidSense) v = CanonicalUnder(index, lambda, v);
        key[i] = v;
      }
      classes[key].push_back(r);
    }
    for (const auto& [_, rows] : classes) {
      if (rows.size() < 2) continue;
      if (stats) ++stats->classes_evaluated;
      if (!verifier.Tally(rows, ofd.rhs).holds()) return false;
    }
  }
  return true;
}

}  // namespace fastofd
