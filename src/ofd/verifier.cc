#include "ofd/verifier.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"

namespace fastofd {

// Per-thread tally scratch: one class's value slots, the thread's partition
// scratch that counts them, and per-sense counters indexed by SenseId that
// `touched` resets, so a tally costs O(class size + senses hit), never
// O(num_senses).
struct OfdVerifier::Scratch {
  struct SenseCount {
    int64_t values = 0;  // Distinct class values in the sense.
    int64_t rows = 0;    // Class rows whose value is in the sense.
  };
  std::vector<ClassHistogram::Slot> slots;
  std::vector<SenseCount> senses;
  std::vector<SenseId> touched;
  PartitionScratch* partition = &StrippedPartition::ThreadLocalScratch();
};

OfdVerifier::Scratch& OfdVerifier::ThreadScratch() {
  static thread_local Scratch scratch;
  return scratch;
}

OfdVerifier::Values OfdVerifier::ClassValues(RowSpan rows,
                                             const std::vector<ValueId>& column,
                                             Scratch& scratch) const {
  scratch.slots.clear();
  // Sized by the current dictionary: a service `update` may intern values
  // the index has never seen.
  StrippedPartition::HistogramClass(rows, column, rel_.dict().size(), scratch.partition,
                                    &scratch.slots);
  return scratch.slots;
}

SenseTally OfdVerifier::Tally(RowSpan rows, AttrId rhs) const {
  return Tally(rows, rel_.Column(rhs), ThreadScratch());
}

SenseTally OfdVerifier::Tally(RowSpan rows, const std::vector<ValueId>& column,
                              Scratch& scratch) const {
  if (rows.size() == 2) {
    return TallyPair(column[static_cast<size_t>(rows[0])],
                     column[static_cast<size_t>(rows[1])]);
  }
  return TallyValues(ClassValues(rows, column, scratch), scratch);
}

SenseTally OfdVerifier::TallyPair(ValueId v0, ValueId v1) const {
  const std::vector<SenseId>& a = index_.Senses(v0);
  SenseTally tally;
  if (v0 == v1) {
    tally.distinct = 1;
    tally.best_value = v0;
    tally.best_literal = 2;
    if (!a.empty()) {
      tally.covered = true;
      tally.best_sense = a.front();
      tally.best_sense_rows = 2;
    }
    return tally;
  }
  tally.distinct = 2;
  tally.best_value = std::min(v0, v1);
  tally.best_literal = 1;
  const std::vector<SenseId>& b = index_.Senses(v1);
  // Both lists ascend, so the first common element is the lowest sense
  // holding both values: it keeps both rows.
  for (auto i = a.begin(), j = b.begin(); i != a.end() && j != b.end();) {
    if (*i < *j) {
      ++i;
    } else if (*j < *i) {
      ++j;
    } else {
      tally.covered = true;
      tally.best_sense = *i;
      tally.best_sense_rows = 2;
      return tally;
    }
  }
  // No shared sense: the lowest sense of either value keeps its one row.
  if (!a.empty() || !b.empty()) {
    tally.best_sense = a.empty()   ? b.front()
                       : b.empty() ? a.front()
                                   : std::min(a.front(), b.front());
    tally.best_sense_rows = 1;
  }
  return tally;
}

SenseTally OfdVerifier::TallyValues(Values values) const {
  return TallyValues(values, ThreadScratch());
}

SenseTally OfdVerifier::TallyValues(Values values, Scratch& scratch) const {
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
      Scratch::SenseCount& count = scratch.senses[static_cast<size_t>(s)];
      if (count.values++ == 0) scratch.touched.push_back(s);
      count.rows += slot.count;
    }
  }
  // A sense holding every distinct value is a non-empty intersection of
  // names(v) over the class (Definition 2.1).
  for (SenseId s : scratch.touched) {
    Scratch::SenseCount& count = scratch.senses[static_cast<size_t>(s)];
    if (count.values == tally.distinct) tally.covered = true;
    if (count.rows > tally.best_sense_rows ||
        (count.rows == tally.best_sense_rows && s < tally.best_sense)) {
      tally.best_sense = s;
      tally.best_sense_rows = count.rows;
    }
    count = Scratch::SenseCount{};
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
  return HoldsInClass(rows, rel_.Column(rhs), kind, ThreadScratch());
}

bool OfdVerifier::HoldsInClass(RowSpan rows, const std::vector<ValueId>& column,
                               OfdKind kind, Scratch& scratch) const {
  return kind == OfdKind::kSynonym
             ? Tally(rows, column, scratch).holds()
             : InheritanceClassHolds(ClassValues(rows, column, scratch));
}

bool OfdVerifier::Holds(const Ofd& ofd) const {
  return Holds(ofd, StrippedPartition::BuildForSet(rel_, ofd.lhs));
}

bool OfdVerifier::Holds(const Ofd& ofd, const StrippedPartition& lhs_partition,
                        int64_t* rows_tallied) const {
  Scratch& scratch = ThreadScratch();
  const std::vector<ValueId>& column = rel_.Column(ofd.rhs);
  for (RowSpan cls : lhs_partition.classes()) {
    if (rows_tallied != nullptr) *rows_tallied += static_cast<int64_t>(cls.size());
    if (!HoldsInClass(cls, column, ofd.kind, scratch)) return false;
  }
  return true;
}

namespace {

// The least row count m for which m / num_rows < kappa is false: support
// can still reach kappa iff some m >= this many rows are kept. Exact,
// because m / num_rows (a correctly rounded quotient) never decreases as m
// grows; a NaN kappa gives 0, as the floating-point test never fires then.
int64_t MinKeptRows(int64_t num_rows, double kappa) {
  const double n = static_cast<double>(num_rows);
  const double guess = std::ceil(kappa * n);
  int64_t m = guess > 0.0 ? static_cast<int64_t>(std::min(guess, n + 1.0)) : 0;
  while (m > 0 && !(static_cast<double>(m - 1) / n < kappa)) --m;
  while (m <= num_rows && static_cast<double>(m) / n < kappa) ++m;
  return m;
}

}  // namespace

int64_t OfdVerifier::KeptRows(const Ofd& ofd, const StrippedPartition& lhs_partition,
                              double kappa, int64_t* rows_tallied) const {
  Scratch& scratch = ThreadScratch();
  const std::vector<ValueId>& column = rel_.Column(ofd.rhs);
  const int64_t min_kept = MinKeptRows(rel_.num_rows(), kappa);
  // Singleton classes (stripped away) are trivially satisfied.
  int64_t kept = lhs_partition.num_rows() - lhs_partition.sum_sizes();
  // Tuples in classes not yet scanned; even if every one of them were
  // satisfiable, support tops out at (kept + remaining) / |I|.
  int64_t remaining = lhs_partition.sum_sizes();
  for (RowSpan cls : lhs_partition.classes()) {
    if (rows_tallied != nullptr) *rows_tallied += static_cast<int64_t>(cls.size());
    kept += Tally(cls, column, scratch).kept();
    remaining -= static_cast<int64_t>(cls.size());
    if (kept + remaining < min_kept) {
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
  Scratch& scratch = ThreadScratch();
  const std::vector<ValueId>& column = rel_.Column(ofd.rhs);
  for (RowSpan cls : lhs_partition.classes()) {
    ++stats.classes;
    stats.class_tuples += static_cast<int64_t>(cls.size());
    Values values = ClassValues(cls, column, scratch);
    if (values.size() <= 1) continue;  // Syntactically clean class.
    bool holds = ofd.kind == OfdKind::kSynonym ? TallyValues(values, scratch).covered
                                               : InheritanceClassHolds(values);
    if (holds) {
      ++stats.synonym_classes;
      stats.saved_tuples += static_cast<int64_t>(cls.size());
    }
  }
  return stats;
}

}  // namespace fastofd
