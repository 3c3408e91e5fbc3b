// Incremental OFD verification under cell updates.
//
// The paper motivates OFD maintenance with evolving data ("data naturally
// evolve due to updates...", §5). Re-verifying Σ from scratch after every
// update costs O(|I|) per OFD; this class maintains per-class satisfaction
// state and re-checks only the equivalence classes an update touches, making
// interactive cleaning loops and the `fastofd serve` update path cheap.
//
// Unlike the paper's OFDClean scope (§5.1, consequents only), updates may
// touch *any* attribute: classes are kept in a hash map from antecedent
// key to equivalence class, so an antecedent update moves the row between
// classes (re-checking the shrunken source and grown destination class) and
// Σ may freely overlap — one attribute can be an antecedent of one OFD and
// the consequent of another.
//
// Every verdict depends only on a class's multiset of consequent values, so
// each group is stored as exactly that: its histogram of (value, rows)
// slots plus its row count, never its rows. An update adjusts one slot by
// ±1 per group it touches and re-tallies the group's slots, so it costs
// O(distinct consequent values of the class × senses per value),
// independent of how many rows the class holds.
//
// Each group also keeps its share of the support s(φ) (SenseTally::kept),
// so a served session answers `verify` — satisfaction and support of every
// OFD — from this state alone, in O(|Σ|).

#ifndef FASTOFD_OFD_INCREMENTAL_H_
#define FASTOFD_OFD_INCREMENTAL_H_

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "ofd/ofd.h"
#include "ofd/verifier.h"
#include "ontology/ontology.h"
#include "ontology/synonym_index.h"
#include "relation/partition.h"
#include "relation/relation.h"

namespace fastofd {

/// Maintains the satisfaction state of a set of OFDs under cell updates.
/// Holds a reference to the relation; apply updates exclusively through
/// UpdateCell so the cached state stays coherent.
class IncrementalVerifier {
 public:
  /// Builds per-OFD class maps and initial per-class state. Each OFD's
  /// groups are the class histograms of Π*_lhs (StrippedPartition::
  /// BuildForSet, then HistogramInto on the consequent column) plus one
  /// singleton per uncovered row, so construction is linear in the rows and
  /// hashes one key per group, not per row. `ontology` may be null unless Σ
  /// holds inheritance OFDs (see OfdVerifier).
  IncrementalVerifier(Relation* rel, const SynonymIndex& index, SigmaSet sigma,
                      const Ontology* ontology = nullptr);

  /// True iff every OFD in Σ is satisfied.
  bool IsConsistent() const { return total_violating() == 0; }

  /// True iff Σ[ofd_index] is satisfied.
  bool Holds(size_t ofd_index) const {
    return states_[ofd_index].violating == 0;
  }

  /// Approximate-OFD support of Σ[ofd_index], the value
  /// OfdVerifier::Support computes from scratch: rows kept summed over the
  /// classes, divided by |I| (1.0 on an empty relation). Inheritance OFDs
  /// report 1.0 when they hold and 0.0 otherwise.
  double Support(size_t ofd_index) const;

  /// Number of violating classes of Σ[ofd_index].
  int violating_classes(size_t ofd_index) const {
    return states_[ofd_index].violating;
  }

  /// Total violating classes across Σ. Safe to read lock-free (relaxed
  /// atomic): the service's `list`/`stats` ops sample it while an exclusive
  /// writer of this session may be mid-update, so the value is a
  /// point-in-time snapshot, not a fence.
  int total_violating() const {
    return total_violating_.load(std::memory_order_relaxed);
  }

  /// Applies rel->SetId(row, attr, value) and re-checks only the classes
  /// containing `row`: for OFDs with consequent `attr` the row's class, for
  /// OFDs with `attr` in the antecedent the classes the row leaves and
  /// joins. A no-op when the cell already holds `value`. Each re-check
  /// tallies the class's histogram, not its rows.
  void UpdateCell(RowId row, AttrId attr, ValueId value);

  /// Classes re-checked since construction (the work a full re-verification
  /// would multiply by the class count). Lock-free snapshot, like
  /// total_violating().
  int64_t classes_rechecked() const {
    return classes_rechecked_.load(std::memory_order_relaxed);
  }

  const SigmaSet& sigma() const { return sigma_; }

  /// Deep invariant audit (common/audit.h). On relations at or below
  /// audit::kDeepAuditMaxRows rows, first cross-checks each OFD's Holds()
  /// and Support() against a full from-scratch re-verification. Then, at
  /// every size, recounts each row's consequent under its current
  /// antecedent key and compares the recount with every group's slots and
  /// size; checks that the key map reaches exactly the non-empty groups,
  /// that free-list entries are empty and unreferenced, that each group's
  /// satisfaction bit and kept rows match a tally of its slots, and that
  /// the violation counters and kept-row sums match the per-group fields.
  /// Returns the first violation found.
  Status AuditState() const;

 private:
  /// The dictionary-coded antecedent values of one row — the identity of its
  /// equivalence class.
  using LhsKey = std::vector<ValueId>;

  struct LhsKeyHash {
    size_t operator()(const LhsKey& key) const {
      uint64_t h = 0x9E3779B97F4A7C15ULL;
      for (ValueId v : key) {
        h ^= static_cast<uint64_t>(static_cast<uint32_t>(v)) + 0x9E3779B9U +
             (h << 6) + (h >> 2);
      }
      return static_cast<size_t>(h);
    }
  };

  /// One equivalence class of Π_lhs (singletons included, so rows can move
  /// in and out without rebuilding), kept as its consequent histogram.
  struct Group {
    // The class's distinct consequent values and their row counts, in no
    // particular order; every count is positive.
    std::vector<ClassHistogram::Slot> values;
    int32_t size = 0;     // Rows in the class: the sum of the counts.
    bool ok = true;       // Satisfaction; vacuously true for size < 2.
    bool counted = false; // Currently counted in `violating`.
    // Rows kept: SenseTally::kept for a synonym OFD's class of 2+ rows,
    // otherwise the group's size (inheritance support reads Holds alone).
    int64_t kept = 0;
  };

  struct OfdState {
    std::vector<AttrId> lhs_attrs;  // ofd.lhs in ascending order.
    std::unordered_map<LhsKey, int32_t, LhsKeyHash> key_to_group;
    std::vector<Group> groups;      // Indexed by the map; holes on free list.
    std::vector<int32_t> free_groups;
    int violating = 0;
    int64_t kept = 0;               // Sum of the groups' kept rows.
  };

  LhsKey KeyFor(const OfdState& state, RowId row) const;
  /// Adds one row with consequent `value` to `group`'s histogram.
  static void AddValue(Group& group, ValueId value);
  /// Removes one row with consequent `value`, swap-removing its slot at 0.
  static void RemoveValue(Group& group, ValueId value);
  /// Group satisfaction and kept rows, tallied from its slots.
  std::pair<bool, int64_t> Check(const Ofd& ofd, const Group& group) const;
  /// Re-checks group `g` (if it still has >= 2 rows) and updates the
  /// violating counters and kept-row sum.
  void RefreshGroup(OfdState& state, const Ofd& ofd, int32_t g);
  void SetCounted(OfdState& state, Group& group, bool counted);
  /// Moves `row` from its old group (keyed with `old_value` at `attr`) to
  /// the group matching its current antecedent values, carrying its
  /// consequent (`old_value` too when `attr` is also the consequent).
  void MoveRow(OfdState& state, const Ofd& ofd, RowId row, AttrId attr,
               ValueId old_value);

  Relation* rel_;
  const SynonymIndex& index_;
  SigmaSet sigma_;
  OfdVerifier verifier_;
  std::vector<OfdState> states_;
  // Atomic only so concurrent `list`/`stats` snapshots are race-free; all
  // *writes* stay serialized by the service's per-session write exclusivity
  // (UpdateCell is never concurrent with itself on one session).
  std::atomic<int> total_violating_{0};
  std::atomic<int64_t> classes_rechecked_{0};
};

}  // namespace fastofd

#endif  // FASTOFD_OFD_INCREMENTAL_H_
