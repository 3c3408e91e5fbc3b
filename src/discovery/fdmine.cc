// FDMine (Yao & Hamilton 2008)-style level-wise discovery. Faithful to the
// original's observable behaviour in the paper's experiments: it validates
// candidates level-wise with partitions but does not maintain minimality
// candidate sets, so its output contains valid-but-non-minimal dependencies
// (the paper reports ~24x larger outputs and memory exhaustion). Superkey
// nodes are closed off by emitting all their dependencies.

#include <algorithm>
#include <bit>
#include <unordered_map>
#include <vector>

#include "discovery/fd_baselines.h"
#include "relation/attr_set.h"
#include "relation/partition.h"

namespace fastofd {

namespace {

class FdMine : public FdAlgorithm {
 public:
  std::string name() const override { return "fdmine"; }

  FdResult Discover(const Relation& rel) override {
    FdResult result;
    const int n = rel.num_attrs();

    using Level = std::unordered_map<AttrSet, StrippedPartition, AttrSetHash>;
    Level prev;
    prev.emplace(AttrSet(), StrippedPartition::BuildForSet(rel, AttrSet()));
    Level cur;
    for (AttrId a = 0; a < n; ++a) {
      cur.emplace(AttrSet::Single(a), StrippedPartition::Build(rel, a));
    }

    int level = 1;
    while (!cur.empty()) {
      std::vector<AttrSet> keys_to_erase;
      for (auto& [attrs, partition] : cur) {
        for (AttrId a : attrs.ToVector()) {
          auto parent = prev.find(attrs.Without(a));
          if (parent == prev.end()) continue;
          ++result.work;
          if (parent->second.error() == partition.error()) {
            // Emitted without any minimality filtering.
            result.fds.push_back(Ofd{attrs.Without(a), a, OfdKind::kSynonym});
          }
        }
        if (partition.IsSuperkey()) {
          // Close off: a superkey determines every other attribute.
          for (AttrId a = 0; a < n; ++a) {
            if (!attrs.Contains(a)) {
              result.fds.push_back(Ofd{attrs, a, OfdKind::kSynonym});
            }
          }
          keys_to_erase.push_back(attrs);
        }
      }
      for (AttrSet attrs : keys_to_erase) cur.erase(attrs);

      Level next;
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
              next.emplace(combined, StrippedPartition::LatticeChild(
                                         rel, cur.at(members[i]),
                                         members[i].Minus(members[j]).First(),
                                         cur.at(members[j]),
                                         members[j].Minus(members[i]).First()));
            }
          }
        }
      }
      prev = std::move(cur);
      cur = std::move(next);
      ++level;
    }
    std::sort(result.fds.begin(), result.fds.end());
    result.fds.erase(std::unique(result.fds.begin(), result.fds.end()),
                     result.fds.end());
    return result;
  }
};

}  // namespace

std::unique_ptr<FdAlgorithm> MakeFdMine() { return std::make_unique<FdMine>(); }

}  // namespace fastofd
