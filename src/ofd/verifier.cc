#include "ofd/verifier.h"

#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"

namespace fastofd {

namespace {

// Per-thread tally scratch: one class's value slots, and per-sense counters
// indexed by SenseId that `touched` resets, so a tally costs O(class size +
// senses hit), never O(num_senses).
struct TallyScratch {
  struct SenseCount {
    int64_t values = 0;  // Distinct class values in the sense.
    int64_t rows = 0;    // Class rows whose value is in the sense.
  };
  std::vector<ClassHistogram::Slot> slots;
  std::vector<SenseCount> senses;
  std::vector<SenseId> touched;
};

TallyScratch& ThreadTallyScratch() {
  static thread_local TallyScratch scratch;
  return scratch;
}

}  // namespace

OfdVerifier::Values OfdVerifier::ClassValues(RowSpan rows, AttrId rhs) const {
  std::vector<ClassHistogram::Slot>& slots = ThreadTallyScratch().slots;
  slots.clear();
  // Sized by the current dictionary: a service `update` may intern values
  // the index has never seen.
  StrippedPartition::HistogramClass(rows, rel_.Column(rhs), rel_.dict().size(),
                                    &StrippedPartition::ThreadLocalScratch(), &slots);
  return slots;
}

SenseTally OfdVerifier::TallyValues(Values values) const {
  TallyScratch& scratch = ThreadTallyScratch();
  if (scratch.senses.size() < static_cast<size_t>(index_.num_senses())) {
    scratch.senses.resize(static_cast<size_t>(index_.num_senses()));
  }
  SenseTally tally;
  tally.distinct = static_cast<int64_t>(values.size());
  for (const ClassHistogram::Slot& slot : values) {
    if (slot.count > tally.best_literal ||
        (slot.count == tally.best_literal && slot.value < tally.best_value)) {
      tally.best_value = slot.value;
      tally.best_literal = slot.count;
    }
    for (SenseId s : index_.Senses(slot.value)) {
      TallyScratch::SenseCount& count = scratch.senses[static_cast<size_t>(s)];
      if (count.values++ == 0) scratch.touched.push_back(s);
      count.rows += slot.count;
    }
  }
  // A sense holding every distinct value is a non-empty intersection of
  // names(v) over the class (Definition 2.1).
  for (SenseId s : scratch.touched) {
    TallyScratch::SenseCount& count = scratch.senses[static_cast<size_t>(s)];
    if (count.values == tally.distinct) tally.covered = true;
    if (count.rows > tally.best_sense_rows ||
        (count.rows == tally.best_sense_rows && s < tally.best_sense)) {
      tally.best_sense = s;
      tally.best_sense_rows = count.rows;
    }
    count = TallyScratch::SenseCount{};
  }
  scratch.touched.clear();
  return tally;
}

bool OfdVerifier::InheritanceClassHolds(Values values) const {
  if (values.size() <= 1) return true;
  FASTOFD_CHECK(ontology_ != nullptr);
  // Each value reaches the concepts of its senses plus up to theta ancestors;
  // the class satisfies iff some concept is reachable from every value.
  // concept -> (values reaching it, 1 + index of the last value counted), so
  // a concept one value reaches twice counts once.
  std::unordered_map<ConceptId, std::pair<size_t, size_t>> reach;
  for (size_t i = 0; i < values.size(); ++i) {
    const std::vector<SenseId>& senses = index_.Senses(values[i].value);
    if (senses.empty()) return false;
    for (SenseId s : senses) {
      ConceptId c = ontology_->sense_concept(s);
      for (int hop = 0; hop <= theta_ && c != kInvalidConcept; ++hop) {
        auto& [count, last] = reach[c];
        if (last != i + 1) {
          ++count;
          last = i + 1;
        }
        c = ontology_->parent(c);
      }
    }
  }
  for (const auto& [c, entry] : reach) {
    if (entry.first == values.size()) return true;
  }
  return false;
}

bool OfdVerifier::HoldsInClass(RowSpan rows, AttrId rhs, OfdKind kind) const {
  Values values = ClassValues(rows, rhs);
  return kind == OfdKind::kSynonym ? TallyValues(values).holds()
                                   : InheritanceClassHolds(values);
}

bool OfdVerifier::Holds(const Ofd& ofd) const {
  return Holds(ofd, StrippedPartition::BuildForSet(rel_, ofd.lhs));
}

bool OfdVerifier::Holds(const Ofd& ofd, const StrippedPartition& lhs_partition,
                        int64_t* rows_tallied) const {
  for (RowSpan cls : lhs_partition.classes()) {
    if (rows_tallied != nullptr) *rows_tallied += static_cast<int64_t>(cls.size());
    if (!HoldsInClass(cls, ofd.rhs, ofd.kind)) return false;
  }
  return true;
}

int64_t OfdVerifier::KeptRows(const Ofd& ofd, const StrippedPartition& lhs_partition,
                              double kappa, int64_t* rows_tallied) const {
  const double num_rows = static_cast<double>(rel_.num_rows());
  // Singleton classes (stripped away) are trivially satisfied.
  int64_t kept = lhs_partition.num_rows() - lhs_partition.sum_sizes();
  // Tuples in classes not yet scanned; even if every one of them were
  // satisfiable, support tops out at (kept + remaining) / |I|.
  int64_t remaining = lhs_partition.sum_sizes();
  for (RowSpan cls : lhs_partition.classes()) {
    if (rows_tallied != nullptr) *rows_tallied += static_cast<int64_t>(cls.size());
    kept += Tally(cls, ofd.rhs).kept();
    remaining -= static_cast<int64_t>(cls.size());
    if (static_cast<double>(kept + remaining) / num_rows < kappa) {
      return -1;  // Error budget exceeded: no later class can recover.
    }
  }
  return kept;
}

double OfdVerifier::Support(const Ofd& ofd,
                            const StrippedPartition& lhs_partition) const {
  FASTOFD_CHECK(ofd.kind == OfdKind::kSynonym);
  if (rel_.num_rows() == 0) return 1.0;
  // Support is never below 0, so kappa = 0 never exits early.
  return static_cast<double>(KeptRows(ofd, lhs_partition, 0.0, nullptr)) /
         static_cast<double>(rel_.num_rows());
}

bool OfdVerifier::SupportAtLeast(const Ofd& ofd,
                                 const StrippedPartition& lhs_partition,
                                 double kappa, int64_t* rows_tallied) const {
  FASTOFD_CHECK(ofd.kind == OfdKind::kSynonym);
  if (rel_.num_rows() == 0) return 1.0 >= kappa;
  const int64_t kept = KeptRows(ofd, lhs_partition, kappa, rows_tallied);
  // No early exit: identical comparison to Support(...) >= kappa.
  return kept >= 0 &&
         static_cast<double>(kept) / static_cast<double>(rel_.num_rows()) >= kappa;
}

SynonymSavings OfdVerifier::Savings(const Ofd& ofd,
                                    const StrippedPartition& lhs_partition) const {
  SynonymSavings stats;
  for (RowSpan cls : lhs_partition.classes()) {
    ++stats.classes;
    stats.class_tuples += static_cast<int64_t>(cls.size());
    Values values = ClassValues(cls, ofd.rhs);
    if (values.size() <= 1) continue;  // Syntactically clean class.
    bool holds = ofd.kind == OfdKind::kSynonym ? TallyValues(values).covered
                                               : InheritanceClassHolds(values);
    if (holds) {
      ++stats.synonym_classes;
      stats.saved_tuples += static_cast<int64_t>(cls.size());
    }
  }
  return stats;
}

}  // namespace fastofd
