// OFDClean repairs (paper §5 and §7): ontology repair via beam search over
// the candidate-value lattice, and data repair via conflict graphs with a
// 2-approximate vertex cover, producing a Pareto set of (S', I') repairs.
//
// Flow (Figure 3): sense assignment fixes an interpretation λ_x per
// equivalence class; Cand(S) collects the (value, sense) pairs occurring in
// the data but missing from the ontology; the beam search explores size-k
// combinations of these insertions (top-b nodes per level, default
// b = ⌊|Cand(S)|/e⌋ by the secretary rule), and every candidate ontology
// repair is scored by the number of data repairs still required. Nodes are
// scored side-effect-free and incrementally (see clean/beam_scorer.h: each
// class's consequent histogram is summarized once against the shared index,
// and a node re-costs only the classes whose slots its insertions flip to
// covered), and in parallel (each level's expansions in candidate batches on the
// work-stealing pool, per-worker scoring scratch, byte-identical output for
// any thread count, grain, or scoring mode). Only the
// chosen repair is materialized with a full RepairData. Data repair builds
// per-class conflict graphs (edges between tuples whose consequent values
// are neither equal nor co-covered by the class's sense), takes a
// 2-approximate minimum vertex cover, rewrites covered tuples to the best
// sense-covered value, and finishes with a fix-up pass that guarantees
// consistency. Repairs are τ-constrained: at most τ · (consequent cells)
// may change; τ-infeasible nodes are kept in the beam (a deeper insertion
// can bring them back under budget) but never contribute Pareto points.

#ifndef FASTOFD_CLEAN_REPAIR_H_
#define FASTOFD_CLEAN_REPAIR_H_

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
  /// When true (default), beam nodes are re-scored only over the classes
  /// their insertions can affect, against memoized level-0 per-class costs;
  /// false re-costs every class per node (the reference path, kept for
  /// benchmarking and cross-validation). Output is byte-identical.
  bool incremental_scoring = true;
  /// Worker threads for sense assignment, beam-node scoring, and
  /// conflict-graph construction (1 = serial). The repair output is
  /// identical for any thread count.
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
/// its assigned sense: the figures RepairData picks a class's repair value
/// from and the beam scorer costs it from. Ties break to the minimum value
/// id, so no figure depends on slot order.
struct ClassTally {
  int64_t size = 0;
  int64_t distinct = 0;
  ValueId majority = kInvalidValue;
  int64_t majority_count = -1;
  ValueId best_covered = kInvalidValue;
  int64_t best_covered_count = -1;
  int64_t uncovered_occurrences = 0;
  int64_t uncovered_slots = 0;

  /// Folds in one slot: `count` rows holding `v`, covered by the sense or not.
  void Add(ValueId v, int64_t count, bool covered) {
    size += count;
    ++distinct;
    if (count > majority_count || (count == majority_count && v < majority)) {
      majority = v;
      majority_count = count;
    }
    ++uncovered_slots;
    uncovered_occurrences += count;
    if (covered) Cover(v, count);
  }

  /// Moves an uncovered slot to covered (an ontology insertion of `v`).
  void Cover(ValueId v, int64_t count) {
    --uncovered_slots;
    uncovered_occurrences -= count;
    if (count > best_covered_count ||
        (count == best_covered_count && v < best_covered)) {
      best_covered = v;
      best_covered_count = count;
    }
  }

  /// The class violates its OFD: its values differ and are not all covered.
  bool violating() const { return distinct > 1 && uncovered_slots > 0; }
};

/// A materialized repair.
struct RepairResult {
  Relation repaired;
  std::vector<OntologyAddition> ontology_additions;
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
};

/// Full OFDClean output.
struct OfdCleanResult {
  /// The chosen repair (minimal ontology+data changes among feasible ones).
  RepairResult best;
  /// Per-k minima (k = number of ontology insertions), Pareto-filtered.
  std::vector<ParetoPoint> pareto;
  /// The sense assignment used.
  SenseAssignmentResult assignment;
  /// Number of ontology-repair candidates |Cand(S)|.
  int64_t num_candidates = 0;
  /// Beam-search nodes evaluated.
  int64_t nodes_evaluated = 0;
};

/// The OFDClean driver (Figure 3): sense assignment, then ontology+data
/// repair. Antecedent attributes must not appear as consequents of other
/// OFDs (paper §5.1 scope assumption) — violating Σ is rejected by CHECK.
class OfdClean {
 public:
  OfdClean(const Relation& rel, const Ontology& ontology, const SigmaSet& sigma,
           OfdCleanConfig config = {});

  /// Runs the full pipeline and returns the repair set.
  OfdCleanResult Run();

 private:
  const Relation& rel_;
  const Ontology& ontology_;
  const SigmaSet& sigma_;
  OfdCleanConfig config_;
};

/// Data repair alone, given a fixed sense assignment and (possibly
/// repaired) synonym index: conflict graph + 2-approx vertex cover + fix-up.
/// Returns the repaired relation and the number of changed cells; stops and
/// flags infeasibility when the change budget `max_changes` is exceeded
/// (pass INT64_MAX for unconstrained). Conflict-graph construction runs on
/// `pool` when provided (per-class edge lists, concatenated in class order,
/// so the repair is identical for any thread count); `metrics` receives
/// `repair.*` counters and timers.
RepairResult RepairData(const Relation& rel, const SynonymIndex& index,
                        const SigmaSet& sigma, const SenseAssignmentResult& assignment,
                        int64_t max_changes, ThreadPool* pool = nullptr,
                        MetricsRegistry* metrics = nullptr);

}  // namespace fastofd

#endif  // FASTOFD_CLEAN_REPAIR_H_
