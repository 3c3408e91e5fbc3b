// TANE (Huhtala et al. 1999): level-wise FD discovery with stripped
// partitions, candidate sets C+(X) with the RHS+ pruning rule, and key
// pruning.

#include <algorithm>
#include <bit>
#include <unordered_map>
#include <vector>

#include "discovery/fd_baselines.h"
#include "relation/attr_set.h"
#include "relation/partition.h"

namespace fastofd {

namespace {

struct TaneNode {
  StrippedPartition partition;
  AttrSet cand;
};

using TaneLevel = std::unordered_map<AttrSet, TaneNode, AttrSetHash>;

class Tane : public FdAlgorithm {
 public:
  std::string name() const override { return "tane"; }

  FdResult Discover(const Relation& rel) override {
    FdResult result;
    const int n = rel.num_attrs();
    const AttrSet all = AttrSet::All(n);

    TaneLevel prev;
    {
      TaneNode empty;
      empty.partition = StrippedPartition::BuildForSet(rel, AttrSet());
      empty.cand = all;
      prev.emplace(AttrSet(), std::move(empty));
    }
    TaneLevel cur;
    for (AttrId a = 0; a < n; ++a) {
      TaneNode node;
      node.partition = StrippedPartition::Build(rel, a);
      node.cand = all;
      cur.emplace(AttrSet::Single(a), std::move(node));
    }

    int level = 1;
    while (!cur.empty()) {
      // COMPUTE_DEPENDENCIES.
      for (auto& [attrs, node] : cur) {
        AttrSet cand = all;
        for (AttrId a : attrs.ToVector()) {
          auto it = prev.find(attrs.Without(a));
          cand = it == prev.end() ? AttrSet() : cand.Intersect(it->second.cand);
        }
        node.cand = cand;
        for (AttrId a : attrs.Intersect(node.cand).ToVector()) {
          auto parent = prev.find(attrs.Without(a));
          if (parent == prev.end()) continue;
          ++result.work;
          if (parent->second.partition.error() == node.partition.error()) {
            result.fds.push_back(Ofd{attrs.Without(a), a, OfdKind::kSynonym});
            node.cand = node.cand.Without(a);
            // RHS+ rule: remove all B in R \ X.
            node.cand = node.cand.Intersect(attrs);
          }
        }
      }

      // PRUNE. Outputs for key nodes are computed against the intact level
      // (they read sibling candidate sets), then deletions are applied.
      std::vector<AttrSet> to_erase;
      for (auto& [attrs, node] : cur) {
        if (node.cand.empty()) {
          to_erase.push_back(attrs);
          continue;
        }
        if (node.partition.IsSuperkey()) {
          for (AttrId a : node.cand.Minus(attrs).ToVector()) {
            // X -> A is minimal iff A ∈ ∩_{B∈X} C+(X ∪ {A} \ {B}).
            bool minimal = true;
            for (AttrId b : attrs.ToVector()) {
              AttrSet sibling = attrs.With(a).Without(b);
              auto sit = cur.find(sibling);
              if (sit == cur.end() || !sit->second.cand.Contains(a)) {
                minimal = false;
                break;
              }
            }
            if (minimal) {
              result.fds.push_back(Ofd{attrs, a, OfdKind::kSynonym});
            }
          }
          to_erase.push_back(attrs);
        }
      }
      for (AttrSet attrs : to_erase) cur.erase(attrs);

      // GENERATE_NEXT_LEVEL via prefix blocks.
      TaneLevel next;
      if (level < n) {
        std::unordered_map<uint64_t, std::vector<AttrSet>> blocks;
        for (const auto& [attrs, _] : cur) {
          uint64_t mask = attrs.mask();
          uint64_t prefix = mask & ~(uint64_t{1} << (63 - std::countl_zero(mask)));
          blocks[prefix].push_back(attrs);
        }
        for (auto& [_, members] : blocks) {
          std::sort(members.begin(), members.end());
          for (size_t i = 0; i < members.size(); ++i) {
            for (size_t j = i + 1; j < members.size(); ++j) {
              AttrSet combined = members[i].Union(members[j]);
              if (next.count(combined)) continue;
              bool ok = true;
              for (AttrId a : combined.ToVector()) {
                if (!cur.count(combined.Without(a))) {
                  ok = false;
                  break;
                }
              }
              if (!ok) continue;
              TaneNode node;
              node.partition = StrippedPartition::LatticeChild(
                  rel, cur.at(members[i]).partition, members[i].Minus(members[j]).First(),
                  cur.at(members[j]).partition, members[j].Minus(members[i]).First());
              next.emplace(combined, std::move(node));
            }
          }
        }
      }
      prev = std::move(cur);
      cur = std::move(next);
      ++level;
    }
    std::sort(result.fds.begin(), result.fds.end());
    return result;
  }
};

}  // namespace

std::unique_ptr<FdAlgorithm> MakeTane() { return std::make_unique<Tane>(); }

}  // namespace fastofd
