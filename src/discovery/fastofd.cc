#include "discovery/fastofd.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/audit.h"
#include "common/check.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "exec/thread_pool.h"

namespace fastofd {

namespace {

// Metric name for a per-level timer: discover.level03.seconds.
std::string LevelTimerName(int level) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "discover.level%02d.seconds", level);
  return buf;
}

// A lattice node: the stripped partition of its attribute set plus the
// candidate consequents C+(X).
struct Node {
  StrippedPartition partition;
  AttrSet cand;
  bool superkey = false;
};

using Level = std::unordered_map<AttrSet, Node, AttrSetHash>;

}  // namespace

FastOfd::FastOfd(const Relation& rel, const SynonymIndex& index, FastOfdConfig config,
                 const Ontology* ontology)
    : rel_(rel),
      config_(config),
      verifier_(rel, index, ontology, config.theta) {
  if (config_.kind == OfdKind::kInheritance) {
    FASTOFD_CHECK(ontology != nullptr);
  }
}

FastOfdResult FastOfd::Discover() {
  const int n = rel_.num_attrs();
  const AttrSet all = AttrSet::All(n);
  FastOfdResult result;

  // Execution & instrumentation substrate: one pool for the whole run
  // (validation and lattice children, every level), one registry as the
  // single source of truth for telemetry. Both may be shared by the caller.
  MetricsRegistry local_metrics;
  MetricsRegistry& metrics =
      config_.metrics != nullptr ? *config_.metrics : local_metrics;
  std::optional<ThreadPool> owned_pool;
  ThreadPool* pool = config_.pool;
  if (pool == nullptr) {
    owned_pool.emplace(config_.num_threads);
    pool = &*owned_pool;
  }
  ScopedTimer discover_timer(&metrics, "discover.seconds");

  // Base (≤1-attribute) partitions go through the shared cache when one is
  // provided, so verify/clean phases over the same relation reuse them.
  auto base_partition = [&](AttrSet attrs) -> StrippedPartition {
    if (config_.partitions != nullptr) return *config_.partitions->Get(attrs);
    return StrippedPartition::BuildForSet(rel_, attrs);
  };

  // Validates candidate lhs -> rhs against Π*_lhs. Opt-4 (FD reduction):
  // when the traditional FD lhs -> rhs already holds — an O(1) check given
  // both partitions — every class is syntactically equal on the consequent
  // and the per-class tally is skipped entirely. Otherwise the verifier
  // tallies class by class, adding the rows it tallies to `values_scanned`.
  auto candidate_valid = [&](const StrippedPartition& lhs_partition,
                             const StrippedPartition& node_partition, AttrId rhs,
                             int64_t* values_scanned) -> bool {
    if (config_.opt_fd_reduction && FdHolds(lhs_partition, node_partition)) {
      return true;  // FD satisfied => OFD satisfied (any support level).
    }
    const Ofd ofd{AttrSet(), rhs, config_.kind};
    if (config_.min_support < 1.0) {
      // Early-exit form: abandons the class scan once the remaining tuples
      // cannot lift support back over the threshold.
      return verifier_.SupportAtLeast(ofd, lhs_partition, config_.min_support,
                                      values_scanned);
    }
    return verifier_.Holds(ofd, lhs_partition, values_scanned);
  };

  // Σ subset check used when Opt-2 is disabled: a valid candidate is
  // minimal iff no already-found OFD has the same consequent and an
  // antecedent subset.
  auto minimal_against_sigma = [&](AttrSet lhs, AttrId rhs) {
    for (const Ofd& ofd : result.ofds) {
      if (ofd.rhs == rhs && ofd.lhs.IsSubsetOf(lhs)) return false;
    }
    return true;
  };

  // Level 0: the empty attribute set.
  Level prev;
  {
    Node empty;
    empty.partition = base_partition(AttrSet());
    empty.superkey = empty.partition.IsSuperkey();
    empty.cand = all;
    prev.emplace(AttrSet(), std::move(empty));
  }

  // Level 1: single attributes.
  Level cur;
  for (AttrId a = 0; a < n; ++a) {
    Node node;
    node.partition = base_partition(AttrSet::Single(a));
    node.superkey = node.partition.IsSuperkey();
    node.cand = all;
    cur.emplace(AttrSet::Single(a), std::move(node));
  }

  int level = 1;
  while (!cur.empty() && level <= config_.max_level) {
    Timer timer;
    LevelStats stats;
    stats.level = level;
    stats.nodes = static_cast<int64_t>(cur.size());

    // computeOFDs(L_l): candidate sets, then candidate validation.
    for (auto& [attrs, node] : cur) {
      if (config_.opt_augmentation) {
        AttrSet cand = all;
        for (AttrId a : attrs.ToVector()) {
          auto it = prev.find(attrs.Without(a));
          // A pruned parent had an empty candidate set (anti-monotone).
          cand = it == prev.end() ? AttrSet() : cand.Intersect(it->second.cand);
        }
        node.cand = cand;
      } else {
        node.cand = all;
      }
    }

    // Collect this level's candidates in a deterministic order, validate
    // them (optionally in parallel — validations are independent), then
    // apply the results sequentially so output and pruning are identical
    // for any thread count.
    struct Candidate {
      AttrSet attrs;
      AttrId a;
      Node* node;
      const StrippedPartition* lhs_partition;
    };
    std::vector<Candidate> candidates;
    for (auto& [attrs, node] : cur) {
      for (AttrId a : attrs.Intersect(node.cand).ToVector()) {
        auto parent_it = prev.find(attrs.Without(a));
        if (parent_it == prev.end()) continue;  // Parent pruned: non-minimal.
        candidates.push_back(
            Candidate{attrs, a, &node, &parent_it->second.partition});
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& x, const Candidate& y) {
                if (x.attrs != y.attrs) return x.attrs < y.attrs;
                return x.a < y.a;
              });
    stats.candidates_checked = static_cast<int64_t>(candidates.size());

    // Each verdict lands in the pre-sized slot of its candidate's canonical
    // index, and the apply loop reads the slots in that order, so output and
    // pruning are identical for any thread count or steal schedule.
    std::vector<uint8_t> valid(candidates.size(), 0);
    {
      ScopedTimer validate_timer(&metrics, "discover.validate.seconds");
      std::vector<int64_t> scanned(static_cast<size_t>(pool->num_threads()), 0);
      // ~16 tasks per worker, so work stealing can balance uneven candidates.
      const size_t grain = std::max<size_t>(
          1, candidates.size() / (static_cast<size_t>(pool->num_threads()) * 16));
      pool->ParallelForGrained(candidates.size(), grain, [&](size_t i, int worker) {
        int64_t values_scanned = 0;
        valid[i] = candidate_valid(*candidates[i].lhs_partition,
                                   candidates[i].node->partition, candidates[i].a,
                                   &values_scanned);
        scanned[static_cast<size_t>(worker)] += values_scanned;
      });
      for (int64_t s : scanned) result.values_scanned += s;
    }

    for (size_t i = 0; i < candidates.size(); ++i) {
      if (!valid[i]) continue;
      AttrSet lhs = candidates[i].attrs.Without(candidates[i].a);
      if (!config_.opt_augmentation && !minimal_against_sigma(lhs, candidates[i].a)) {
        continue;
      }
      result.ofds.push_back(Ofd{lhs, candidates[i].a, config_.kind});
      candidates[i].node->cand = candidates[i].node->cand.Without(candidates[i].a);
      ++stats.ofds_found;
    }

    // Opt-2: prune nodes with empty candidate sets (nothing minimal above
    // them).
    if (config_.opt_augmentation) {
      for (auto it = cur.begin(); it != cur.end();) {
        if (it->second.cand.empty()) {
          it = cur.erase(it);
        } else {
          ++it;
        }
      }
    }

    // calculateNextLevel(L_l): prefix blocks — two sets combine iff they
    // share all attributes except their highest one. Distinct children are
    // independent, so they are built in parallel when num_threads > 1.
    Level next;
    if (level < n && level < config_.max_level) {
      std::unordered_map<uint64_t, std::vector<AttrSet>> blocks;
      for (const auto& [attrs, _] : cur) {
        uint64_t mask = attrs.mask();
        uint64_t prefix = mask & ~(uint64_t{1} << (63 - std::countl_zero(mask)));
        blocks[prefix].push_back(attrs);
      }
      // Siblings X∪{a} and X∪{b}: `left_only` = a and `right_only` = b, the
      // columns LatticeChild refines the other parent by. `node` is the slot
      // reserved in `next`; unordered_map references survive rehashing.
      struct Pending {
        AttrSet combined;
        const Node* left;
        const Node* right;
        AttrId left_only;
        AttrId right_only;
        Node* node;
      };
      std::vector<Pending> pending;
      for (auto& [_, members] : blocks) {
        std::sort(members.begin(), members.end());
        for (size_t i = 0; i < members.size(); ++i) {
          for (size_t j = i + 1; j < members.size(); ++j) {
            AttrSet combined = members[i].Union(members[j]);
            if (next.count(combined)) continue;
            // All l-subsets must be present (respects pruning).
            bool ok = true;
            for (AttrId a : combined.ToVector()) {
              if (!cur.count(combined.Without(a))) {
                ok = false;
                break;
              }
            }
            if (!ok) continue;
            const Node& left = cur.at(members[i]);
            const Node& right = cur.at(members[j]);
            if (config_.opt_keys && (left.superkey || right.superkey)) {
              // Opt-3: a superset of a superkey is a superkey; skip
              // building its partition entirely.
              Node node;
              node.partition = StrippedPartition::Empty(rel_.num_rows());
              node.superkey = true;
              next.emplace(combined, std::move(node));
            } else {
              Node& slot = next.emplace(combined, Node{}).first->second;
              pending.push_back(Pending{combined, &left, &right,
                                        members[i].Minus(members[j]).First(),
                                        members[j].Minus(members[i]).First(), &slot});
            }
          }
        }
      }
      result.partition_products += static_cast<int64_t>(pending.size());
      ScopedTimer products_timer(&metrics, "discover.products.seconds");
      // One task per child, every pending node in flight at once, each
      // writing only its own slot. A child is one serial refinement of its
      // smaller parent by the other parent's column, so its class order —
      // and every count read off it — is the same for any thread count.
      pool->ParallelForGrained(pending.size(), /*grain=*/1, [&](size_t i, int) {
        const Pending& p = pending[i];
        p.node->partition = StrippedPartition::LatticeChild(
            rel_, p.left->partition, p.left_only, p.right->partition, p.right_only);
        p.node->superkey = p.node->partition.IsSuperkey();
        // Audit builds re-check every child against the partition laws (and,
        // on small relations, against a naive rebuild of Π*_X).
        FASTOFD_AUDIT_OK(p.node->partition.AuditInvariants(rel_, p.combined));
      });
    }

    stats.seconds = timer.Seconds();
    metrics.AddTime(LevelTimerName(level), stats.seconds);
    metrics.Add("discover.nodes", stats.nodes);
    metrics.Add("discover.candidates_checked", stats.candidates_checked);
    metrics.Add("discover.ofds_found", stats.ofds_found);
    result.candidates_checked += stats.candidates_checked;
    result.level_stats.push_back(stats);
    prev = std::move(cur);
    cur = std::move(next);
    ++level;
  }

  std::sort(result.ofds.begin(), result.ofds.end());
  pool->PublishMetrics(&metrics);
  metrics.Add("discover.levels", static_cast<int64_t>(result.level_stats.size()));
  metrics.Add("discover.values_scanned", result.values_scanned);
  metrics.Add("discover.partition_products", result.partition_products);
  return result;
}

}  // namespace fastofd
