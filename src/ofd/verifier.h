// Data verification of OFDs (paper Definition 2.1 and §4.3).
//
// Unlike FDs, OFDs cannot be checked on tuple pairs: a class may satisfy the
// dependency pairwise while the intersection of all senses is empty (paper
// Table 2). Verification therefore scans each equivalence class of Π*_X and
// tallies it once (OfdVerifier::Tally): the partition kernel's column count
// yields the class's distinct consequent values with their row counts, and
// each value's senses are counted into dense per-sense counters reset
// through a touched list — linear in the class size under the
// indexed-ontology assumption. Most classes of a deep lattice node hold two
// rows, so the tally has a constant-time form for them: it reads the two
// values and merges their sorted sense lists, with the same output field for
// field. The exact check, approximate support, the Exp-5 statistic,
// discovery, LHS-synonym validation and the metric-FD comparison all read
// that one tally.

#ifndef FASTOFD_OFD_VERIFIER_H_
#define FASTOFD_OFD_VERIFIER_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "ofd/ofd.h"
#include "ontology/ontology.h"
#include "ontology/synonym_index.h"
#include "relation/partition.h"
#include "relation/relation.h"

namespace fastofd {

/// Statistics for the paper's Exp-5 ("eliminating false-positive errors"):
/// how many tuples satisfy an OFD only thanks to synonyms (a pure-FD cleaner
/// would flag them as errors).
struct SynonymSavings {
  /// Classes of Π*_X examined (non-singleton).
  int64_t classes = 0;
  /// Classes whose consequent values are NOT all syntactically equal but
  /// which still satisfy the OFD via a shared sense.
  int64_t synonym_classes = 0;
  /// Tuples inside those synonym_classes — the false positives saved.
  int64_t saved_tuples = 0;
  /// Tuples in all examined classes.
  int64_t class_tuples = 0;
};

/// One equivalence class's consequent values tallied against the senses
/// (OfdVerifier::Tally). Ties go to the lowest id.
struct SenseTally {
  /// Distinct consequent values in the class.
  int64_t distinct = 0;
  /// Some sense contains every distinct value (so all are in the ontology).
  bool covered = false;
  /// The most frequent value and its row count.
  ValueId best_value = kInvalidValue;
  int64_t best_literal = 0;
  /// The sense whose values cover the most rows and that row count;
  /// kInvalidSense when no value is in the ontology.
  SenseId best_sense = kInvalidSense;
  int64_t best_sense_rows = 0;

  /// Definition 2.1 for a synonym OFD: one value (FD reduction, Opt-4) or a
  /// sense covering them all.
  bool holds() const { return distinct <= 1 || covered; }
  /// Rows kept by the best single interpretation, a sense or a literal value
  /// (which covers values outside the ontology): the class's share of s(φ).
  int64_t kept() const { return std::max(best_literal, best_sense_rows); }
};

/// Verifies synonym (and, as an extension, inheritance) OFDs over a relation.
class OfdVerifier {
 public:
  /// `ontology` may be null; it is only needed for inheritance OFDs.
  /// `theta` bounds the ancestor distance for inheritance checks.
  OfdVerifier(const Relation& rel, const SynonymIndex& index,
              const Ontology* ontology = nullptr, int theta = 2)
      : rel_(rel), index_(index), ontology_(ontology), theta_(theta) {}

  /// Exact satisfaction check; computes Π*_lhs internally.
  bool Holds(const Ofd& ofd) const;

  /// Exact satisfaction check against a precomputed Π*_lhs (discovery path).
  /// Adds the rows of every class it tallies to `*rows_tallied` if non-null.
  bool Holds(const Ofd& ofd, const StrippedPartition& lhs_partition,
             int64_t* rows_tallied = nullptr) const;

  /// Satisfaction within one equivalence class (rows of the class).
  bool HoldsInClass(RowSpan rows, AttrId rhs, OfdKind kind) const;

  /// A class's distinct consequent values with their row counts.
  using Values = std::span<const ClassHistogram::Slot>;

  /// The one per-class tally every synonym check reads: the class's
  /// consequent values counted by the partition kernel, then their senses
  /// in dense per-thread counters; a 2-row class merges its two values'
  /// sense lists instead, with the same result. Thread-safe; allocation-free
  /// once the calling thread's counters are warm.
  SenseTally Tally(RowSpan rows, AttrId rhs) const;

  /// Tally over a class already counted into (value, rows) slots, e.g. a
  /// histogram kept up to date under updates. Slot order does not matter:
  /// ties go to the lowest id.
  SenseTally TallyValues(Values values) const;

  /// Inheritance satisfaction (θ ancestors) of a class given as slots; as
  /// order-free as TallyValues.
  bool InheritanceClassHolds(Values values) const;

  /// Approximate-OFD support s(φ)/|I| (paper §4): the max fraction of tuples
  /// retaining which the OFD holds, summed per class as SenseTally::kept.
  double Support(const Ofd& ofd, const StrippedPartition& lhs_partition) const;

  /// Early-exit form of Support for the discovery hot path: returns
  /// Support(...) >= kappa, but stops scanning classes as soon as the
  /// tuples already lost exceed the (1 - kappa) * |I| error budget — the
  /// e(X->A) > threshold cutoff for approximate verification, tested as an
  /// integer row count against the least count that still reaches kappa.
  /// Agrees with Support on the boundary (same final comparison when no
  /// early exit fires). Adds the rows of every class it tallies to
  /// `*rows_tallied` if non-null.
  bool SupportAtLeast(const Ofd& ofd, const StrippedPartition& lhs_partition,
                      double kappa, int64_t* rows_tallied = nullptr) const;

  /// Exp-5 statistic for a (presumably satisfied) OFD.
  SynonymSavings Savings(const Ofd& ofd, const StrippedPartition& lhs_partition) const;

  const Relation& relation() const { return rel_; }
  const SynonymIndex& index() const { return index_; }

 private:
  // The calling thread's tally scratch (verifier.cc); a loop over classes
  // fetches it once and passes it to the overloads below.
  struct Scratch;
  static Scratch& ThreadScratch();

  // The class's distinct `column` values with their row counts, in
  // first-row order, in `scratch` (valid until its next use).
  Values ClassValues(RowSpan rows, const std::vector<ValueId>& column,
                     Scratch& scratch) const;
  SenseTally Tally(RowSpan rows, const std::vector<ValueId>& column,
                   Scratch& scratch) const;
  SenseTally TallyValues(Values values, Scratch& scratch) const;
  // The 2-row class with consequent values `v0` and `v1`, tallied without
  // counters by merging the two sorted sense lists: exactly what
  // TallyValues returns for the class's slots.
  SenseTally TallyPair(ValueId v0, ValueId v1) const;
  bool HoldsInClass(RowSpan rows, const std::vector<ValueId>& column, OfdKind kind,
                    Scratch& scratch) const;
  // Support and SupportAtLeast: the rows kept class by class plus the
  // stripped singletons, or -1 once keeping every unscanned row could no
  // longer lift support to `kappa`.
  int64_t KeptRows(const Ofd& ofd, const StrippedPartition& lhs_partition,
                   double kappa, int64_t* rows_tallied) const;

  const Relation& rel_;
  const SynonymIndex& index_;
  const Ontology* ontology_;
  int theta_;
};

}  // namespace fastofd

#endif  // FASTOFD_OFD_VERIFIER_H_
