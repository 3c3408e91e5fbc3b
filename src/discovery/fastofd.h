// FastOFD: discovery of a complete, minimal set of OFDs (paper §4).
//
// Level-wise traversal of the set-containment lattice (Algorithm 2). At a
// node X the candidates are (X \ A) -> A for A ∈ X, kept minimal via the
// candidate sets C+(X) (Definition 4.2, Lemma 4.3) — the paper's Opt-2
// (Augmentation pruning), which also prunes nodes with empty candidate sets
// from the lattice. Opt-1 (Reflexivity) is structural: trivial candidates
// are never generated. Opt-3 exploits superkeys: a superset of a superkey is
// a superkey, so its partition is never computed, and a candidate with a
// superkey antecedent is valid without touching the ontology. Opt-4 (FD
// reduction) skips sense-intersection work for equivalence classes whose
// consequent values are syntactically equal.
//
// Each lattice child X∪{a,b} is built from its siblings X∪{a} and X∪{b} by
// StrippedPartition::LatticeChild: the smaller parent refined by the other
// parent's column.
//
// Setting min_support < 1 discovers approximate OFDs (support s(φ) ≥ κ·|I|):
// per equivalence class the best interpretation covers the most tuples, and
// support is monotone under antecedent augmentation, so the same pruning
// applies.

#ifndef FASTOFD_DISCOVERY_FASTOFD_H_
#define FASTOFD_DISCOVERY_FASTOFD_H_

#include <cstdint>
#include <vector>

#include "ofd/ofd.h"
#include "ofd/verifier.h"
#include "ontology/synonym_index.h"
#include "relation/partition.h"
#include "relation/relation.h"

namespace fastofd {

class MetricsRegistry;  // common/metrics.h
class ThreadPool;       // exec/thread_pool.h

/// Tunables for FastOFD; defaults reproduce the paper's configuration.
struct FastOfdConfig {
  /// Opt-2: prune candidates via C+(X) (augmentation) and drop nodes whose
  /// candidate set is empty from the lattice. Disabling verifies every
  /// candidate, keeps every node, and filters non-minimal results post hoc
  /// (identical output, slower) — used by the Exp-3 ablation.
  bool opt_augmentation = true;
  /// Opt-3: superkey shortcut — a child of a superkey node is a superkey,
  /// so its partition is never computed.
  bool opt_keys = true;
  /// Opt-4: skip ontology verification for syntactically-equal classes.
  bool opt_fd_reduction = true;
  /// Stop after this lattice level (Exp-4: compact OFDs live near the top).
  int max_level = 64;
  /// Minimum support κ ∈ (0, 1]; 1.0 discovers exact OFDs.
  double min_support = 1.0;
  /// Kind of OFD to discover (synonym is the paper's focus).
  OfdKind kind = OfdKind::kSynonym;
  /// Ancestor-distance bound for inheritance OFDs.
  int theta = 2;
  /// Worker threads for candidate validation and lattice children
  /// (1 = serial). Output is identical regardless of thread count
  /// (validation results are applied in a deterministic order).
  int num_threads = 1;
  /// Shared execution pool. When null, Discover() creates its own
  /// `num_threads`-wide pool once and reuses it across all levels and
  /// phases; when set, `num_threads` is ignored and this pool is used.
  ThreadPool* pool = nullptr;
  /// Optional metrics sink (`discover.*` counters and timers). When null,
  /// an internal registry still feeds the FastOfdResult telemetry fields.
  MetricsRegistry* metrics = nullptr;
  /// Optional shared cache for the base (≤1-attribute) partitions, so a
  /// later verify/clean phase over the same relation reuses them.
  PartitionCache* partitions = nullptr;
};

/// Per-level telemetry (Exp-4: OFDs found / time per lattice level).
struct LevelStats {
  int level = 0;
  int64_t nodes = 0;
  int64_t candidates_checked = 0;
  int64_t ofds_found = 0;
  double seconds = 0.0;
};

/// Discovery output.
struct FastOfdResult {
  /// Complete, minimal set of OFDs satisfied by the instance.
  SigmaSet ofds;
  std::vector<LevelStats> level_stats;
  int64_t candidates_checked = 0;
  /// Cells touched by sense-intersection verification (work Opt-4 avoids).
  int64_t values_scanned = 0;
  /// Lattice-child partitions computed (work Opt-3 avoids).
  int64_t partition_products = 0;
};

/// The FastOFD discovery algorithm.
class FastOfd {
 public:
  FastOfd(const Relation& rel, const SynonymIndex& index,
          FastOfdConfig config = {}, const Ontology* ontology = nullptr);

  /// Runs the level-wise search and returns the minimal OFD set.
  FastOfdResult Discover();

 private:
  const Relation& rel_;
  FastOfdConfig config_;
  OfdVerifier verifier_;
};

}  // namespace fastofd

#endif  // FASTOFD_DISCOVERY_FASTOFD_H_
