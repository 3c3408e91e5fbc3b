#include "clean/repair.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "clean/beam_scorer.h"
#include "common/audit.h"
#include "common/check.h"
#include "common/metrics.h"
#include "exec/thread_pool.h"
#include "ofd/inference.h"
#include "ofd/verifier.h"

namespace fastofd {

namespace {

// Cap on repair passes over Σ. One pass is exact when consequents are
// distinct; OFDs sharing a consequent may need more, and may never settle.
constexpr int kMaxRepairPasses = 8;

// Rewrites every violating class's minimum vertex cover (see ClassTally),
// without verifying the result. Each OFD's histogram is retaken from `out`
// first, since an OFD with the same consequent may have rewritten the
// column. `data_changes` stays the exact count of cells that differ from
// `rel`, so the budget exit describes the relation it returns; with
// distinct consequents each cell is written at most once and the count only
// grows, so the completed repair would exceed the budget as well.
RepairResult RepairCells(const Relation& rel, const SynonymIndex& index,
                         const SigmaSet& sigma, const SenseAssignmentResult& assignment,
                         int64_t max_changes, MetricsRegistry* metrics) {
  RepairResult result{rel, {}, 0, false, true};
  Relation& out = result.repaired;
  AttrSet rhs_attrs;
  bool shared_rhs = false;
  for (const Ofd& ofd : sigma) {
    shared_rhs |= rhs_attrs.Contains(ofd.rhs);
    rhs_attrs = rhs_attrs.With(ofd.rhs);
  }
  ClassHistogram histogram;
  int64_t cover_tuples = 0;
  // One pass over Σ; false once the budget is exceeded.
  auto repair_pass = [&] {
    for (size_t i = 0; i < sigma.size(); ++i) {
      const AttrId rhs = sigma[i].rhs;
      const auto& classes = assignment.partitions[i].classes();
      StrippedPartition::HistogramInto(assignment.partitions[i], out.Column(rhs),
                                       out.dict().size(),
                                       &StrippedPartition::ThreadLocalScratch(), &histogram);
      for (size_t c = 0; c < classes.size(); ++c) {
        const SenseId sense = assignment.senses[i][c];
        auto covered = [&](ValueId v) {
          return sense != kInvalidSense && index.SenseContains(sense, v);
        };
        ClassTally tally;
        for (const ClassHistogram::Slot& slot : histogram.Class(c)) {
          tally.Add(slot.value, slot.count, covered(slot.value));
        }
        if (!tally.violating()) continue;
        const bool keep_covered = tally.keeps_covered();
        const ValueId target = tally.target();
        cover_tuples += tally.cover_size();
        for (RowId r : classes[c]) {
          const ValueId v = out.At(r, rhs);
          if (v == target || (keep_covered && covered(v))) continue;
          const ValueId original = rel.At(r, rhs);
          if (v == original) {
            ++result.data_changes;
          } else if (target == original) {
            --result.data_changes;
          }
          out.SetId(r, rhs, target);
          if (result.data_changes > max_changes) return false;
        }
      }
    }
    return true;
  };
  for (int pass = 0; pass < kMaxRepairPasses; ++pass) {
    const int64_t pass_start = cover_tuples;
    if (!repair_pass()) {
      result.tau_feasible = false;
      break;
    }
    if (!shared_rhs || cover_tuples == pass_start) break;
  }
  if (metrics != nullptr) metrics->Add("repair.cover_tuples", cover_tuples);
  return result;
}

}  // namespace

RepairResult RepairData(const Relation& rel, const SynonymIndex& index,
                        const SigmaSet& sigma, const SenseAssignmentResult& assignment,
                        int64_t max_changes, MetricsRegistry* metrics) {
  ScopedTimer repair_timer(metrics, "repair.seconds");
  RepairResult result = RepairCells(rel, index, sigma, assignment, max_changes, metrics);
  OfdVerifier verifier(result.repaired, index);
  result.consistent = true;
  for (size_t i = 0; i < sigma.size() && result.consistent; ++i) {
    result.consistent = verifier.Holds(sigma[i], assignment.partitions[i]);
  }
  return result;
}

OfdClean::OfdClean(const Relation& rel, const Ontology& ontology,
                   const SigmaSet& sigma, OfdCleanConfig config)
    : rel_(rel), ontology_(ontology), sigma_(sigma), config_(config) {
  // Scope assumption (paper §5.1): no attribute is both an antecedent of one
  // OFD and the consequent of another — equivalence classes stay fixed.
  AttrSet lhs_attrs, rhs_attrs;
  for (const Ofd& ofd : sigma_) {
    lhs_attrs = lhs_attrs.Union(ofd.lhs);
    rhs_attrs = rhs_attrs.With(ofd.rhs);
  }
  FASTOFD_CHECK(!lhs_attrs.Intersects(rhs_attrs));
  // An OFD the others imply (XY -> A next to X -> A) holds on every repair
  // of the rest, so cleaning runs over a minimal cover. The cover is
  // computed kind-blind and may keep either kind of a duplicate; nothing in
  // src/clean/ reads the kind (classes are repaired under synonym
  // semantics), and Run() verifies the caller's Σ with its own kinds.
  reduced_ = MinimalCover(sigma_);
}

OfdCleanResult OfdClean::Run() {
  OfdCleanResult result{RepairResult{rel_, {}, 0, false, true}, {}, {}, 0, 0};

  // One pool and one metrics registry for the whole pipeline: sense
  // assignment, beam scoring and the final materialization all share them.
  MetricsRegistry local_metrics;
  MetricsRegistry& metrics =
      config_.metrics != nullptr ? *config_.metrics : local_metrics;
  std::optional<ThreadPool> owned_pool;
  ThreadPool* pool = config_.pool;
  if (pool == nullptr) {
    owned_pool.emplace(config_.num_threads);
    pool = &*owned_pool;
  }
  ScopedTimer clean_timer(&metrics, "clean.seconds");

  SynonymIndex index(ontology_, rel_.dict());
  // The freshly compiled index must agree with the ontology exactly. The
  // beam search only reads it; only the final materialization mutates (and
  // restores) the index.
  FASTOFD_AUDIT_OK(AuditOntologyIndex(ontology_, rel_.dict(), index));
  SenseAssignConfig assign_config{config_.theta};
  assign_config.pool = pool;
  assign_config.metrics = &metrics;
  assign_config.partitions = config_.partitions;
  SenseSelector selector(rel_, index, reduced_, assign_config);
  result.assignment = selector.Run();

  // τ budget: fraction of consequent cells.
  AttrSet rhs_attrs;
  for (const Ofd& ofd : reduced_) rhs_attrs = rhs_attrs.With(ofd.rhs);
  int64_t budget = static_cast<int64_t>(
      config_.tau * static_cast<double>(rhs_attrs.size()) *
      static_cast<double>(rel_.num_rows()));

  // Node scoring: side-effect-free and incremental (only the classes whose
  // histogram slots a node's insertions flip are re-costed). Scores are
  // exact repair counts — never truncated by the τ budget — so feasibility
  // is simply `score <= budget`. `clean.beam.seconds` covers the scorer's
  // histograms and base memo, candidate collection from those histograms,
  // every level's scoring, and the sorts — not the final materialization.
  ScopedTimer beam_timer(&metrics, "clean.beam.seconds");
  BeamScorer scorer(rel_, index, reduced_, result.assignment, pool);

  // Cand(S) (paper §7.1): (value, sense) pairs where the value occurs in a
  // class but is not in S under the class's assigned sense (values known to
  // other senses count, as Table 5's "ASA (FDA)"), filtered by class support
  // and cut to the top max_candidates by occurrence count.
  result.num_candidates = scorer.CollectCandidates(config_.min_candidate_classes,
                                                   config_.max_candidates);
  const std::vector<OntologyAddition>& candidates = scorer.candidates();

  // Beam size: secretary rule ⌊w/e⌋, at least 1.
  auto additions = [&](const std::vector<int>& picks) {
    std::vector<OntologyAddition> adds;
    for (int p : picks) adds.push_back(candidates[static_cast<size_t>(p)]);
    return adds;
  };

  int beam = config_.beam_size > 0
                 ? config_.beam_size
                 : std::max<int>(1, static_cast<int>(std::floor(
                                        static_cast<double>(candidates.size()) /
                                        std::exp(1.0))));

  struct Node {
    std::vector<int> picks;
    int64_t data_changes = 0;
    int64_t classes_rescored = 0;
  };
  int64_t classes_rescored = 0;
  // One scoring scratch (flip buffer) per worker, warm across every node of
  // every level: batch-grained dispatch below hands each worker a run of
  // nodes, so the hot loop allocates nothing per node.
  std::vector<BeamScorer::ScoreScratch> scratches(
      static_cast<size_t>(pool->num_threads()));
  auto score_node = [&](std::vector<int> picks, BeamScorer::ScoreScratch* scratch) {
    BeamScorer::NodeScore s = scorer.ScoreIncremental(picks, scratch);
    FASTOFD_AUDIT_OK(scorer.AuditNodeScore(picks, s.data_changes));
    return Node{std::move(picks), s.data_changes, s.classes_rescored};
  };

  // Level 0: no ontology repair. τ-infeasible nodes never contribute Pareto
  // points: their scores exceed the budget by definition, and the old
  // truncated-count accounting both polluted the frontier and let the
  // diminishing-returns exit fire on bogus values. They do stay in the beam
  // — a deeper insertion can bring a node back under budget.
  Node zero = score_node({}, &scratches[0]);
  classes_rescored += zero.classes_rescored;
  ++result.nodes_evaluated;
  const bool zero_feasible = zero.data_changes <= budget;
  if (zero_feasible) result.pareto.push_back(ParetoPoint{0, zero.data_changes, {}});
  Node best_node = zero;
  int64_t best_cost =
      zero_feasible ? zero.data_changes : std::numeric_limits<int64_t>::max();
  int64_t prev_pareto_cost = zero.data_changes;
  bool have_prev_pareto = zero_feasible;

  std::vector<Node> frontier = {std::move(zero)};
  int max_k = std::min<int>(config_.max_repair_size,
                            static_cast<int>(candidates.size()));
  for (int k = 1; k <= max_k; ++k) {
    // Expansions of this level, evaluated into pre-sized slots so the pool
    // writes race-free and the level is byte-identical for any thread count.
    std::vector<std::pair<size_t, int>> expansions;  // (frontier index, pick)
    for (size_t f = 0; f < frontier.size(); ++f) {
      int start = frontier[f].picks.empty() ? 0 : frontier[f].picks.back() + 1;
      for (int p = start; p < static_cast<int>(candidates.size()); ++p) {
        expansions.emplace_back(f, p);
      }
    }
    if (expansions.empty()) break;
    std::vector<Node> level_nodes(expansions.size());
    auto eval_expansion = [&](size_t e, int worker) {
      auto [f, p] = expansions[e];
      std::vector<int> picks = frontier[f].picks;
      picks.push_back(p);
      level_nodes[e] =
          score_node(std::move(picks), &scratches[static_cast<size_t>(worker)]);
    };
    // ParallelFor's automatic grain batches ~8 runs of expansions per
    // worker, so scheduling cost amortizes over a batch and per-worker
    // scoring scratch stays warm, while work stealing still rebalances the
    // uneven tail (nodes with long flip lists). The slots are sorted below,
    // so the level is byte-identical for any thread count.
    pool->ParallelFor(expansions.size(), eval_expansion);
    result.nodes_evaluated += static_cast<int64_t>(expansions.size());
    for (const Node& node : level_nodes) classes_rescored += node.classes_rescored;

    std::sort(level_nodes.begin(), level_nodes.end(),
              [](const Node& a, const Node& b) {
                if (a.data_changes != b.data_changes) {
                  return a.data_changes < b.data_changes;
                }
                return a.picks < b.picks;
              });
    // Scores are exact, so the level's minimum-cost node is feasible iff any
    // node is; only feasible levels yield Pareto points or drive the exits.
    const Node& top = level_nodes.front();
    if (top.data_changes <= budget) {
      result.pareto.push_back(ParetoPoint{k, top.data_changes, additions(top.picks)});
      // Track the globally best (k + data changes) feasible repair.
      if (k + top.data_changes < best_cost) {
        best_cost = k + top.data_changes;
        best_node = top;
      }
      if (top.data_changes == 0) break;  // Cannot improve further.
      // Diminishing returns: stop once a level fails to reduce data repairs
      // below the previous feasible level's minimum (the deeper lattice is
      // dominated in the Pareto sense).
      if (k >= 2 && have_prev_pareto && top.data_changes >= prev_pareto_cost) {
        break;
      }
      prev_pareto_cost = top.data_changes;
      have_prev_pareto = true;
    }
    // Keep the top-b nodes for expansion.
    if (static_cast<int>(level_nodes.size()) > beam) level_nodes.resize(beam);
    frontier = std::move(level_nodes);
  }

  beam_timer.Stop();

  // Materialize the best repair against the shared index: apply the picks
  // (recording which insertions were real, so a pre-existing mapping is
  // never deleted on restore), repair, verify the caller's Σ — Π* of an OFD
  // the cover dropped is built on the way, antecedents are never rewritten —
  // and restore.
  std::vector<OntologyAddition> applied;
  for (const OntologyAddition& add : additions(best_node.picks)) {
    if (index.AddValue(add.sense, add.value)) applied.push_back(add);
  }
  {
    ScopedTimer repair_timer(&metrics, "repair.seconds");
    result.best = RepairCells(rel_, index, reduced_, result.assignment, budget, &metrics);
    OfdVerifier verifier(result.best.repaired, index, &ontology_);
    result.best.consistent = true;
    for (size_t i = 0; i < sigma_.size() && result.best.consistent; ++i) {
      const Ofd& ofd = sigma_[i];
      auto same_lhs = std::find_if(reduced_.begin(), reduced_.end(),
                                   [&](const Ofd& kept) { return kept.lhs == ofd.lhs; });
      result.best.consistent =
          same_lhs == reduced_.end()
              ? verifier.Holds(ofd)
              : verifier.Holds(ofd, result.assignment.partitions[static_cast<size_t>(
                                        same_lhs - reduced_.begin())]);
    }
  }
  for (const OntologyAddition& add : applied) {
    index.RemoveValue(add.sense, add.value);
  }
  result.best.ontology_additions = additions(best_node.picks);
  // The restored index must again agree with the ontology exactly.
  FASTOFD_AUDIT_OK(AuditOntologyIndex(ontology_, rel_.dict(), index));

  // Pareto-filter the per-k minima (dominated points removed).
  std::vector<ParetoPoint> filtered;
  int64_t best_data = std::numeric_limits<int64_t>::max();
  for (const ParetoPoint& p : result.pareto) {
    if (p.data_changes < best_data) {
      filtered.push_back(p);
      best_data = p.data_changes;
    }
  }
  result.pareto = std::move(filtered);

  pool->PublishMetrics(&metrics);
  metrics.Add("clean.candidates", result.num_candidates);
  metrics.Add("clean.beam.nodes_evaluated", result.nodes_evaluated);
  metrics.Add("clean.beam.classes_rescored", classes_rescored);
  metrics.Add("clean.ontology_additions",
              static_cast<int64_t>(result.best.ontology_additions.size()));
  metrics.Add("clean.data_changes", result.best.data_changes);
  return result;
}

}  // namespace fastofd
