// Incremental, side-effect-free scoring for the OFDClean ontology-repair
// beam search (paper §7.1), and the candidate set Cand(S) it scores over.
//
// A beam node is a set of candidate insertions (sense, value); its score is
// the sum of per-class minimum vertex covers (ClassTally::cover_size) with
// those insertions applied. Three observations make scoring cheap and
// parallel:
//
//   1. Per-class independence. With each OFD repairing its own consequent
//      column and classes of one partition disjoint, RepairData's change
//      count decomposes into that sum, each term a function of only the
//      class's consequent histogram, its assigned sense λ, and which of its
//      distinct values λ covers. OfdClean's minimal cover of Σ usually has
//      distinct consequents; where OFDs still share one, their repairs
//      interact and the score is an estimate, not RepairData's count.
//   2. Locality of insertions. Adding (λ, v) to the ontology can change the
//      cost of class x only when λ_x = λ and v occurs among x's consequent
//      values: it flips exactly one histogram slot of x from uncovered to
//      covered, and the covered set of any other class is untouched. (A
//      class's repair target is always one of its own values, so nothing
//      else about λ's other classes changes.) So CollectCandidates records
//      each candidate's (class, slot) flips while it walks the slots.
//   3. Memoize once, then flip slots. Construction builds one value
//      histogram per Σ partition (StrippedPartition::HistogramInto) and
//      summarizes each class once against the base index (ClassTally). A
//      node's score is the memoized base cost plus, for each class its picks
//      flip, the cost of that class's summary with the flipped slots moved
//      to covered. Nothing is shared mutably and the base index is never
//      consulted, so a level's expansions are scored concurrently with
//      ThreadPool::ParallelFor.
//
// The beam scores with ScoreIncremental only. ScoreFull (every class
// recomputed from its histogram slots) computes the same function from
// scratch and is the reference that audit mode, the tests and bench_clean
// compare against; audit mode additionally cross-checks both against a
// from-scratch RepairData on a materialized index copy.

#ifndef FASTOFD_CLEAN_BEAM_SCORER_H_
#define FASTOFD_CLEAN_BEAM_SCORER_H_

#include <compare>
#include <cstdint>
#include <vector>

#include "clean/repair.h"
#include "clean/sense_assignment.h"
#include "common/status.h"
#include "ofd/ofd.h"
#include "ontology/synonym_index.h"
#include "relation/partition.h"
#include "relation/relation.h"

namespace fastofd {

class ThreadPool;  // exec/thread_pool.h

/// Scores ontology-repair beam nodes against a fixed sense assignment.
/// Construction builds the per-OFD consequent histograms and memoizes every
/// class's base summary and cost, CollectCandidates fixes the candidate
/// set; const thereafter, so one instance is safely shared by concurrent
/// node evaluations.
class BeamScorer {
 public:
  /// One histogram slot a candidate insertion turns covered: `item` is the
  /// flattened class index (OFDs in Σ order, classes in partition order),
  /// `slot` an index into that OFD's histogram slots.
  struct Flip {
    uint32_t item = 0;
    uint32_t slot = 0;
    friend auto operator<=>(const Flip&, const Flip&) = default;
  };

  /// Builds the histograms and memoizes the base (no insertions) summaries
  /// (on `pool` when provided; the memo is byte-identical for any thread
  /// count).
  BeamScorer(const Relation& rel, const SynonymIndex& index, const SigmaSet& sigma,
             const SenseAssignmentResult& assignment, ThreadPool* pool = nullptr);

  /// Collects Cand(S) (paper §7.1), replacing any earlier set: every
  /// (assigned sense, value) pair of a class that the base index lacks, in
  /// first-occurrence order, with one flip per class holding it. Drops those
  /// in fewer than `min_classes` classes, then keeps the top
  /// `max_candidates` by occurrence count (ties in first-occurrence order).
  /// Returns the count before that cut.
  int64_t CollectCandidates(int min_classes, int max_candidates);

  /// The collected candidates; a node's picks index into them.
  const std::vector<OntologyAddition>& candidates() const { return candidates_; }

  /// The slots candidates()[c] turns covered, in ascending order.
  const std::vector<Flip>& flips(size_t c) const { return flips_[c]; }

  struct NodeScore {
    /// Data repairs still required with the node's insertions applied.
    int64_t data_changes = 0;
    /// Classes whose cost was recomputed for this node.
    int64_t classes_rescored = 0;
  };

  /// Reusable per-worker scoring state: the buffer a node's flips are
  /// gathered and grouped in. One instance per worker, reused across every
  /// node that worker scores in a batch, keeps the hot loop allocation-free.
  /// Scores are independent of which scratch (or how warm) is used.
  class ScoreScratch {
   private:
    friend class BeamScorer;
    std::vector<Flip> flips_;
  };

  /// Scores a node (indices into candidates()) by recomputing every class
  /// from its histogram slots, a value counting as covered when the base
  /// index or one of the picks holds it. The reference ScoreIncremental is
  /// checked against; the beam never calls it.
  NodeScore ScoreFull(const std::vector<int>& picks) const;

  /// Scores a node from the memoized base summaries plus the picks' slot
  /// flips, the beam's one scoring path; returns exactly ScoreFull's
  /// data_changes.
  NodeScore ScoreIncremental(const std::vector<int>& picks) const;
  NodeScore ScoreIncremental(const std::vector<int>& picks,
                             ScoreScratch* scratch) const;

  /// Σ of the memoized base per-class costs (== ScoreFull({})).
  int64_t base_cost() const { return base_cost_; }

  /// Flattened class count across all OFDs.
  size_t num_classes() const { return items_.size(); }

  /// Deep audit for one scored node: incremental and full scoring agree on
  /// `data_changes`, and — when the instance is small enough
  /// (audit::kDeepAuditMaxRows) and the OFDs' attribute sets are disjoint
  /// enough for per-class independence (distinct consequents, no
  /// antecedent/consequent overlap) — a from-scratch RepairData over a
  /// materialized index copy reports the same repair count.
  Status AuditNodeScore(const std::vector<int>& picks, int64_t data_changes) const;

 private:
  struct Item {
    int ofd = 0;
    int cls = 0;
    SenseId sense = kInvalidSense;
    ClassTally base;  // Against the base index.
    int64_t base_cost = 0;
  };

  const Relation& rel_;
  const SynonymIndex& index_;
  const SigmaSet& sigma_;
  const SenseAssignmentResult& assignment_;
  std::vector<ClassHistogram> histograms_;
  std::vector<Item> items_;
  int64_t base_cost_ = 0;
  std::vector<OntologyAddition> candidates_;
  std::vector<std::vector<Flip>> flips_;
};

}  // namespace fastofd

#endif  // FASTOFD_CLEAN_BEAM_SCORER_H_
