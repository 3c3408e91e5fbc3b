#include "clean/repair.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>

#include "clean/beam_scorer.h"
#include "common/audit.h"
#include "common/check.h"
#include "common/metrics.h"
#include "exec/thread_pool.h"
#include "ofd/verifier.h"

namespace fastofd {

namespace {

// Best repair value for a class under sense λ: the most frequent value of
// the class covered by λ; falls back to the sense's canonical value, then to
// the class majority value (λ invalid / nothing covered).
ValueId RepairValue(const ClassTally& tally, const SynonymIndex& index,
                    SenseId sense) {
  if (tally.best_covered != kInvalidValue) return tally.best_covered;
  if (sense != kInvalidSense && !index.SenseValues(sense).empty()) {
    return *std::min_element(index.SenseValues(sense).begin(),
                             index.SenseValues(sense).end());
  }
  return tally.majority;
}

}  // namespace

RepairResult RepairData(const Relation& rel, const SynonymIndex& index,
                        const SigmaSet& sigma, const SenseAssignmentResult& assignment,
                        int64_t max_changes, ThreadPool* pool,
                        MetricsRegistry* metrics) {
  RepairResult result{rel, {}, 0, false, true};
  Relation& out = result.repaired;
  ScopedTimer repair_timer(metrics, "repair.seconds");
  if (metrics != nullptr) metrics->Add("repair.invocations", 1);

  // ---- Conflict graph + 2-approximate vertex cover (paper §7.2). -----
  // Edges are generated sparsely per violating class: each uncovered tuple
  // conflicts with one covered representative (if any) and with its
  // neighbouring uncovered tuple of a different value; this keeps the graph
  // linear in the class size while touching every problematic tuple.
  // Classes are independent (read-only over `out`), so their edge lists are
  // built on the pool and concatenated in class order — the edge sequence is
  // identical to the serial one for any thread count.
  struct Conflict {
    RowId a, b;
    int ofd, cls;
  };
  auto covered = [&](SenseId sense, ValueId v) {
    return sense != kInvalidSense && index.SenseContains(sense, v);
  };
  // Per-OFD consequent histograms of `out` as it stands, and one class's
  // tally under its assigned sense.
  std::vector<ClassHistogram> histograms(sigma.size());
  auto build_histogram = [&](size_t i) {
    StrippedPartition::HistogramInto(assignment.partitions[i],
                                     out.Column(sigma[i].rhs), out.dict().size(),
                                     &StrippedPartition::ThreadLocalScratch(),
                                     &histograms[i]);
  };
  auto tally_class = [&](size_t i, size_t c) {
    SenseId sense = assignment.senses[i][c];
    ClassTally tally;
    for (const ClassHistogram::Slot& slot : histograms[i].Class(c)) {
      tally.Add(slot.value, slot.count, covered(sense, slot.value));
    }
    return tally;
  };
  if (pool != nullptr) {
    pool->ParallelFor(sigma.size(), [&](size_t i, int) { build_histogram(i); });
  } else {
    for (size_t i = 0; i < sigma.size(); ++i) build_histogram(i);
  }

  std::vector<std::pair<int, int>> class_items;  // (OFD index, class index).
  for (int i = 0; i < static_cast<int>(sigma.size()); ++i) {
    const auto& classes = assignment.partitions[static_cast<size_t>(i)].classes();
    for (int c = 0; c < static_cast<int>(classes.size()); ++c) {
      class_items.emplace_back(i, c);
    }
  }
  std::vector<std::vector<Conflict>> class_edges(class_items.size());
  auto build_class_edges = [&](size_t item) {
    auto [i, c] = class_items[item];
    AttrId rhs = sigma[static_cast<size_t>(i)].rhs;
    const auto& rows =
        assignment.partitions[static_cast<size_t>(i)].classes()[static_cast<size_t>(c)];
    SenseId sense = assignment.senses[static_cast<size_t>(i)][static_cast<size_t>(c)];
    if (!tally_class(static_cast<size_t>(i), static_cast<size_t>(c)).violating()) return;
    RowId covered_rep = -1;
    std::vector<RowId> uncovered;
    for (RowId r : rows) {
      if (covered(sense, out.At(r, rhs))) {
        if (covered_rep < 0) covered_rep = r;
      } else {
        uncovered.push_back(r);
      }
    }
    std::vector<Conflict>& local = class_edges[item];
    for (size_t u = 0; u < uncovered.size(); ++u) {
      if (covered_rep >= 0) {
        local.push_back(Conflict{uncovered[u], covered_rep, i, c});
      }
      if (u + 1 < uncovered.size() &&
          out.At(uncovered[u], rhs) != out.At(uncovered[u + 1], rhs)) {
        local.push_back(Conflict{uncovered[u], uncovered[u + 1], i, c});
      }
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(class_items.size(),
                      [&](size_t item, int) { build_class_edges(item); });
  } else {
    for (size_t item = 0; item < class_items.size(); ++item) {
      build_class_edges(item);
    }
  }
  std::vector<Conflict> edges;
  for (std::vector<Conflict>& local : class_edges) {
    edges.insert(edges.end(), local.begin(), local.end());
  }

  // 2-approximation: take both endpoints of any uncovered edge. Endpoints
  // are distinct rows (a covered representative, or a neighbour of a
  // different value).
  std::vector<bool> cover(static_cast<size_t>(rel.num_rows()), false);
  int64_t cover_tuples = 0;
  for (const Conflict& e : edges) {
    if (!cover[static_cast<size_t>(e.a)] && !cover[static_cast<size_t>(e.b)]) {
      cover[static_cast<size_t>(e.a)] = true;
      cover[static_cast<size_t>(e.b)] = true;
      cover_tuples += 2;
    }
  }
  if (metrics != nullptr) {
    metrics->Add("repair.conflict_edges", static_cast<int64_t>(edges.size()));
    metrics->Add("repair.cover_tuples", cover_tuples);
  }

  // ---- Repair pass: rewrite covered tuples class by class, then fix up
  // any residual violations (guarantees consistency). Each OFD's histogram
  // is retaken from `out` first: an earlier OFD (or pass) may have rewritten
  // its consequent column, while its own classes are disjoint. ----------
  auto repair_classes = [&](bool only_cover) {
    for (size_t i = 0; i < sigma.size(); ++i) {
      AttrId rhs = sigma[i].rhs;
      const auto& classes = assignment.partitions[i].classes();
      build_histogram(i);
      for (size_t c = 0; c < classes.size(); ++c) {
        SenseId sense = assignment.senses[i][c];
        ClassTally tally = tally_class(i, c);
        if (!tally.violating()) continue;
        ValueId target = RepairValue(tally, index, sense);
        for (RowId r : classes[c]) {
          ValueId v = out.At(r, rhs);
          if (covered(sense, v) || v == target) continue;
          if (only_cover && !cover[static_cast<size_t>(r)]) continue;
          out.SetId(r, rhs, target);
          ++result.data_changes;
          if (result.data_changes > max_changes) {
            result.tau_feasible = false;
            return;
          }
        }
      }
    }
  };
  repair_classes(/*only_cover=*/true);
  if (result.tau_feasible) repair_classes(/*only_cover=*/false);

  // Verify consistency of the repair.
  if (result.tau_feasible) {
    OfdVerifier verifier(out, index);
    result.consistent = true;
    for (size_t i = 0; i < sigma.size() && result.consistent; ++i) {
      result.consistent = verifier.Holds(sigma[i], assignment.partitions[i]);
    }
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
}

OfdCleanResult OfdClean::Run() {
  OfdCleanResult result{RepairResult{rel_, {}, 0, false, true}, {}, {}, 0, 0};

  // One pool and one metrics registry for the whole pipeline: sense
  // assignment, every beam-search RepairData call, and the final
  // materialization all share them.
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
  SenseSelector selector(rel_, index, sigma_, assign_config);
  result.assignment = selector.Run();

  // τ budget: fraction of consequent cells.
  AttrSet rhs_attrs;
  for (const Ofd& ofd : sigma_) rhs_attrs = rhs_attrs.With(ofd.rhs);
  int64_t budget = static_cast<int64_t>(
      config_.tau * static_cast<double>(rhs_attrs.size()) *
      static_cast<double>(rel_.num_rows()));

  // Node scoring: side-effect-free and, by default, incremental (only the
  // classes whose histogram slots a node's insertions flip are re-costed).
  // Scores are exact repair counts — never truncated by the τ budget — so
  // feasibility is simply `score <= budget`. `clean.beam.seconds` covers
  // the scorer's histograms and base memo, candidate collection from those
  // histograms, every level's scoring, and the sorts — not the final
  // materialization (bench_clean reports full-vs-incremental speedups from
  // this timer).
  ScopedTimer beam_timer(&metrics, "clean.beam.seconds");
  BeamScorer scorer(rel_, index, sigma_, result.assignment, pool);

  // Cand(S) (paper §7.1): (value, sense) pairs where the value occurs in a
  // class but is not in S *under the class's assigned sense* — this includes
  // values known to other senses (Table 5's "ASA (FDA)" candidate). Counted
  // by occurrence (an insertion can save at most that many data repairs);
  // only the top max_candidates by count are explored. The pass walks the
  // scorer's histogram slots: slots are in first-row order, so candidate
  // order stays first-occurrence order, and each uncovered slot is one
  // class's flip for that candidate.
  std::vector<OntologyAddition> candidates;
  std::vector<int64_t> cand_count;
  std::vector<std::vector<BeamScorer::Flip>> cand_flips;
  std::unordered_map<uint64_t, size_t> cand_pos;
  uint32_t item = 0;  // Flattened (OFD, class) index, BeamScorer's order.
  for (size_t i = 0; i < sigma_.size(); ++i) {
    const ClassHistogram& hist = scorer.histogram(i);
    for (size_t c = 0; c < hist.num_classes(); ++c, ++item) {
      SenseId sense = result.assignment.senses[i][c];
      if (sense == kInvalidSense) continue;
      for (uint32_t slot = hist.offsets[c]; slot < hist.offsets[c + 1]; ++slot) {
        const auto [v, count] = hist.slots[slot];
        if (index.SenseContains(sense, v)) continue;
        uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(sense)) << 32) |
                       static_cast<uint32_t>(v);
        auto [it, inserted] = cand_pos.try_emplace(key, candidates.size());
        size_t pos = it->second;
        if (inserted) {
          candidates.push_back(OntologyAddition{sense, v});
          cand_count.push_back(0);
          cand_flips.emplace_back();
        }
        cand_count[pos] += count;
        cand_flips[pos].push_back(BeamScorer::Flip{item, slot});
      }
    }
  }
  // Class-support filter: localized (single-class) erroneous values are
  // dropped when min_candidate_classes > 1 (one flip per class).
  if (config_.min_candidate_classes > 1) {
    std::vector<OntologyAddition> kept;
    std::vector<int64_t> kept_count;
    std::vector<std::vector<BeamScorer::Flip>> kept_flips;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (static_cast<int>(cand_flips[i].size()) >= config_.min_candidate_classes) {
        kept.push_back(candidates[i]);
        kept_count.push_back(cand_count[i]);
        kept_flips.push_back(std::move(cand_flips[i]));
      }
    }
    candidates = std::move(kept);
    cand_count = std::move(kept_count);
    cand_flips = std::move(kept_flips);
  }
  result.num_candidates = static_cast<int64_t>(candidates.size());
  if (static_cast<int>(candidates.size()) > config_.max_candidates) {
    std::vector<size_t> order(candidates.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (cand_count[a] != cand_count[b]) return cand_count[a] > cand_count[b];
      return a < b;
    });
    std::vector<OntologyAddition> kept;
    std::vector<std::vector<BeamScorer::Flip>> kept_flips;
    for (int i = 0; i < config_.max_candidates; ++i) {
      kept.push_back(candidates[order[static_cast<size_t>(i)]]);
      kept_flips.push_back(std::move(cand_flips[order[static_cast<size_t>(i)]]));
    }
    candidates = std::move(kept);
    cand_flips = std::move(kept_flips);
  }
  scorer.SetCandidates(candidates, std::move(cand_flips));

  // Beam size: secretary rule ⌊w/e⌋, at least 1.
  int beam = config_.beam_size > 0
                 ? config_.beam_size
                 : std::max<int>(1, static_cast<int>(std::floor(
                                        static_cast<double>(candidates.size()) /
                                        std::exp(1.0))));

  struct Node {
    std::vector<int> picks;
    int64_t data_changes = 0;
    bool tau_feasible = true;
  };
  int64_t classes_rescored = 0;
  // One scoring scratch (flip buffer) per worker, warm across every node of
  // every level: batch-grained dispatch below hands each worker a run of
  // nodes, so the hot loop allocates nothing per node.
  std::vector<BeamScorer::ScoreScratch> scratches(
      static_cast<size_t>(pool->num_threads()));
  auto score_node = [&](std::vector<int> picks,
                        BeamScorer::ScoreScratch* scratch) -> std::pair<Node, int64_t> {
    BeamScorer::NodeScore s = config_.incremental_scoring
                                  ? scorer.ScoreIncremental(picks, scratch)
                                  : scorer.ScoreFull(picks);
    FASTOFD_AUDIT_OK(scorer.AuditNodeScore(picks, s.data_changes));
    return {Node{std::move(picks), s.data_changes, s.data_changes <= budget},
            s.classes_rescored};
  };

  // Level 0: no ontology repair. τ-infeasible nodes never contribute Pareto
  // points: their scores exceed the budget by definition, and the old
  // truncated-count accounting both polluted the frontier and let the
  // diminishing-returns exit fire on bogus values. They do stay in the beam
  // — a deeper insertion can bring a node back under budget.
  auto [zero, zero_rescored] = score_node({}, &scratches[0]);
  classes_rescored += zero_rescored;
  ++result.nodes_evaluated;
  if (zero.tau_feasible) {
    result.pareto.push_back(ParetoPoint{0, zero.data_changes});
  }
  Node best_node = zero;
  int64_t best_cost = zero.tau_feasible ? zero.data_changes
                                        : std::numeric_limits<int64_t>::max();
  int64_t prev_pareto_cost = zero.data_changes;
  bool have_prev_pareto = zero.tau_feasible;

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
    std::vector<int64_t> level_rescored(expansions.size(), 0);
    auto eval_expansion = [&](size_t e, int worker) {
      auto [f, p] = expansions[e];
      std::vector<int> picks = frontier[f].picks;
      picks.push_back(p);
      auto [node, rescored] =
          score_node(std::move(picks), &scratches[static_cast<size_t>(worker)]);
      level_nodes[e] = std::move(node);
      level_rescored[e] = rescored;
    };
    // ParallelFor's automatic grain batches ~8 runs of expansions per
    // worker, so scheduling cost amortizes over a batch and per-worker
    // scoring scratch stays warm, while work stealing still rebalances the
    // uneven tail (nodes with long flip lists). The slots are sorted below,
    // so the level is byte-identical for any thread count.
    pool->ParallelFor(expansions.size(), eval_expansion);
    result.nodes_evaluated += static_cast<int64_t>(expansions.size());
    for (int64_t r : level_rescored) classes_rescored += r;

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
    if (top.tau_feasible) {
      result.pareto.push_back(ParetoPoint{k, top.data_changes});
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
  // never deleted on restore), run the full conflict-graph repair, restore.
  std::vector<OntologyAddition> applied;
  for (int p : best_node.picks) {
    const OntologyAddition& add = candidates[static_cast<size_t>(p)];
    if (index.AddValue(add.sense, add.value)) applied.push_back(add);
  }
  result.best = RepairData(rel_, index, sigma_, result.assignment, budget, pool,
                           &metrics);
  for (const OntologyAddition& add : applied) {
    index.RemoveValue(add.sense, add.value);
  }
  for (int p : best_node.picks) {
    result.best.ontology_additions.push_back(candidates[static_cast<size_t>(p)]);
  }
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
