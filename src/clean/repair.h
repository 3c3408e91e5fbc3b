// OFDClean repairs (paper §5 and §7): ontology repair via beam search over
// the candidate-value lattice, and data repair by an exact minimum vertex
// cover of each class's conflict graph, producing a Pareto set of (S', I')
// repairs.
//
// Flow (Figure 3): Σ is first reduced to a minimal cover (paper §3,
// Definition 3.7): an OFD implied by the others, such as XY -> A next to
// X -> A, is dropped, since every repair that satisfies the cover satisfies
// it too. Sense assignment then fixes an interpretation λ_x per
// equivalence class of the reduced Σ; Cand(S) collects the (value, sense)
// pairs occurring in the data but missing from the ontology; the beam
// search explores size-k combinations of these insertions (top-b nodes per
// level, default b = ⌊|Cand(S)|/e⌋ by the secretary rule), and every
// candidate ontology repair is scored by the number of data repairs still
// required. Cand(S) and node scoring belong to clean/beam_scorer.h: nodes
// are scored side-effect-free and incrementally (each class's consequent
// histogram is summarized once against the shared index, and a node
// re-costs only the classes whose slots its insertions flip to covered),
// and in parallel (each level's expansions on the work-stealing pool,
// per-worker scoring scratch, byte-identical output for any thread count).
// Only the chosen repair is materialized with a full data repair, and its
// consistency is verified against the caller's Σ.
//
// Data repair (§7.2): under λ_x, a class's conflict graph (an edge between
// two tuples whose consequent values are neither equal nor co-covered by
// λ_x) is complete multipartite — the covered tuples form one part and each
// uncovered value its own. Its minimum vertex cover is therefore everything
// outside the largest part, of size `size − max(covered rows, largest
// uncovered value group)`, and no graph is built: each violating class keeps
// its larger part and rewrites the rest (to the most frequent covered value,
// or to the kept uncovered value). Ties keep the covered part. When the
// reduced Σ has distinct consequents one pass is exact and leaves every
// class consistent; OFDs that still share a consequent can rewrite each
// other's cells, so passes repeat until none changes a cell, up to a cap,
// and `consistent` reports whether Σ holds (it is verified, not assumed).
// Repairs are τ-constrained: at most τ · (consequent cells) may change;
// τ-infeasible nodes are kept in the beam (a deeper insertion can bring
// them back under budget) but never contribute Pareto points.

#ifndef FASTOFD_CLEAN_REPAIR_H_
#define FASTOFD_CLEAN_REPAIR_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "clean/sense_assignment.h"
#include "ofd/ofd.h"
#include "ontology/ontology.h"
#include "ontology/synonym_index.h"
#include "relation/relation.h"

namespace fastofd {

class MetricsRegistry;  // common/metrics.h
class ThreadPool;       // exec/thread_pool.h

/// Tunables for OFDClean (paper Table 6).
struct OfdCleanConfig {
  /// Beam size b; 0 selects the secretary-rule default ⌊|Cand(S)|/e⌋.
  int beam_size = 0;
  /// τ: maximum fraction of consequent cells the data repair may change.
  double tau = 0.65;
  /// EMD refinement threshold θ (forwarded to sense assignment).
  double theta = 5.0;
  /// Cap on the number of ontology insertions explored (lattice depth).
  int max_repair_size = 12;
  /// Cap on |Cand(S)|: candidates are ranked by their occurrence count in
  /// violating classes (an insertion can save at most that many data
  /// repairs) and only the top `max_candidates` are explored.
  int max_candidates = 24;
  /// Minimum number of distinct equivalence classes a candidate value must
  /// appear in. 1 admits every uncovered value (the paper's Table 4/5
  /// example has single-class candidates); 2+ filters localized erroneous
  /// values, which legitimately missing ontology values — occurring across
  /// many classes — easily pass.
  int min_candidate_classes = 1;
  /// Worker threads for sense assignment and beam-node scoring (1 =
  /// serial). The repair output is identical for any thread count.
  int num_threads = 1;
  /// Shared execution pool; when null, Run() creates its own
  /// `num_threads`-wide pool once and reuses it across all phases and every
  /// beam-search node. When set, `num_threads` is ignored.
  ThreadPool* pool = nullptr;
  /// Optional metrics sink (`clean.*` and `repair.*` counters and timers).
  MetricsRegistry* metrics = nullptr;
  /// Optional partition cache shared with the verify phase.
  PartitionCache* partitions = nullptr;
};

/// One ontology insertion: value added to a sense.
struct OntologyAddition {
  SenseId sense = kInvalidSense;
  ValueId value = kInvalidValue;

  friend bool operator==(const OntologyAddition& a, const OntologyAddition& b) {
    return a.sense == b.sense && a.value == b.value;
  }
};

/// One class's consequent histogram (ClassHistogram slots) summarized under
/// its assigned sense: the figures RepairData repairs a class by and the
/// beam scorer costs it by, through the same `cover_size()`. Ties break to
/// the minimum value id, so no figure depends on slot order.
struct ClassTally {
  int64_t size = 0;
  int64_t distinct = 0;
  int64_t covered_rows = 0;
  int64_t uncovered_slots = 0;
  ValueId best_covered = kInvalidValue;
  int64_t best_covered_count = 0;
  /// The largest uncovered value group. After a Cover() of this very value
  /// it is stale, but then `covered_rows` includes its count, so it can no
  /// longer win, and no remaining uncovered group is larger.
  ValueId top_uncovered = kInvalidValue;
  int64_t top_uncovered_count = 0;

  /// Folds in one slot: `count` rows holding `v`, covered by the sense or not.
  void Add(ValueId v, int64_t count, bool covered) {
    size += count;
    ++distinct;
    ++uncovered_slots;
    if (covered) {
      Cover(v, count);
    } else {
      Keep(v, count, &top_uncovered, &top_uncovered_count);
    }
  }

  /// Moves an uncovered slot to covered (an ontology insertion of `v`).
  void Cover(ValueId v, int64_t count) {
    --uncovered_slots;
    covered_rows += count;
    Keep(v, count, &best_covered, &best_covered_count);
  }

  /// The class violates its OFD: its values differ and are not all covered.
  bool violating() const { return distinct > 1 && uncovered_slots > 0; }

  /// Which part of the class's complete multipartite conflict graph a
  /// repair keeps: the covered rows, unless one uncovered value group is
  /// strictly larger. Meaningful for violating classes only.
  bool keeps_covered() const { return covered_rows >= top_uncovered_count; }

  /// The value rewritten cells take: the most frequent covered value, or
  /// the kept uncovered value.
  ValueId target() const { return keeps_covered() ? best_covered : top_uncovered; }

  /// Size of the exact minimum vertex cover of the class's conflict graph
  /// (paper §7.2): the rows outside the larger part, 0 when consistent.
  int64_t cover_size() const {
    return violating() ? size - std::max(covered_rows, top_uncovered_count) : 0;
  }

 private:
  static void Keep(ValueId v, int64_t count, ValueId* best, int64_t* best_count) {
    if (count > *best_count || (count == *best_count && v < *best)) {
      *best = v;
      *best_count = count;
    }
  }
};

/// A materialized repair.
struct RepairResult {
  Relation repaired;
  std::vector<OntologyAddition> ontology_additions;
  /// dist(I, I'): cells of `repaired` that differ from the input, each
  /// counted once however often it was rewritten.
  int64_t data_changes = 0;
  /// I' ⊨ Σ w.r.t. S' (verified, not assumed).
  bool consistent = false;
  /// dist(I, I') stayed within the τ budget.
  bool tau_feasible = true;
};

/// One point of the Pareto frontier over (dist(S,S'), dist(I,I')).
struct ParetoPoint {
  int64_t ontology_changes = 0;
  int64_t data_changes = 0;
  /// The ontology repair of this point (`ontology_changes` insertions).
  std::vector<OntologyAddition> ontology_additions;

  friend bool operator==(const ParetoPoint&, const ParetoPoint&) = default;
};

/// Full OFDClean output.
struct OfdCleanResult {
  /// The chosen repair (minimal ontology+data changes among feasible ones).
  RepairResult best;
  /// Per-k minima (k = number of ontology insertions), Pareto-filtered.
  std::vector<ParetoPoint> pareto;
  /// The sense assignment used, aligned with OfdClean::reduced_sigma().
  SenseAssignmentResult assignment;
  /// Number of ontology-repair candidates |Cand(S)|.
  int64_t num_candidates = 0;
  /// Beam-search nodes evaluated.
  int64_t nodes_evaluated = 0;
};

/// The OFDClean driver (Figure 3): reduction of Σ to a minimal cover, sense
/// assignment, then ontology+data repair. Antecedent attributes must not
/// appear as consequents of other OFDs (paper §5.1 scope assumption) —
/// violating Σ is rejected by CHECK.
class OfdClean {
 public:
  OfdClean(const Relation& rel, const Ontology& ontology, const SigmaSet& sigma,
           OfdCleanConfig config = {});

  /// Runs the full pipeline and returns the repair set.
  OfdCleanResult Run();

  /// The minimal cover of the caller's Σ that sense assignment, scoring and
  /// data repair run over.
  const SigmaSet& reduced_sigma() const { return reduced_; }

 private:
  const Relation& rel_;
  const Ontology& ontology_;
  const SigmaSet& sigma_;
  SigmaSet reduced_;
  OfdCleanConfig config_;
};

/// Data repair alone, given a fixed sense assignment and (possibly
/// repaired) synonym index: each violating class loses its exact minimum
/// vertex cover, passes repeating while OFDs sharing a consequent still
/// change cells. Returns the repaired relation, the number of cells that
/// differ from `rel`, and whether `sigma` holds on it; stops and flags
/// infeasibility as soon as more than `max_changes` cells differ (pass
/// INT64_MAX for unconstrained). `metrics` receives `repair.*` counters and
/// timers.
RepairResult RepairData(const Relation& rel, const SynonymIndex& index,
                        const SigmaSet& sigma, const SenseAssignmentResult& assignment,
                        int64_t max_changes, MetricsRegistry* metrics = nullptr);

}  // namespace fastofd

#endif  // FASTOFD_CLEAN_REPAIR_H_
