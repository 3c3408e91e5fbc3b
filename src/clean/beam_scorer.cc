#include "clean/beam_scorer.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/audit.h"
#include "exec/thread_pool.h"
#include "relation/attr_set.h"

namespace fastofd {

namespace {

void ForEachIndex(ThreadPool* pool, size_t n, const std::function<void(size_t)>& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(n, [&](size_t i, int) { fn(i); });
  } else {
    for (size_t i = 0; i < n; ++i) fn(i);
  }
}

}  // namespace

BeamScorer::BeamScorer(const Relation& rel, const SynonymIndex& index,
                       const SigmaSet& sigma, const SenseAssignmentResult& assignment,
                       ThreadPool* pool)
    : rel_(rel), index_(index), sigma_(sigma), assignment_(assignment) {
  histograms_.resize(sigma_.size());
  ForEachIndex(pool, sigma_.size(), [&](size_t i) {
    StrippedPartition::HistogramInto(assignment_.partitions[i],
                                     rel_.Column(sigma_[i].rhs), rel_.dict().size(),
                                     &StrippedPartition::ThreadLocalScratch(),
                                     &histograms_[i]);
  });
  for (int i = 0; i < static_cast<int>(sigma_.size()); ++i) {
    const auto& senses = assignment_.senses[static_cast<size_t>(i)];
    for (int c = 0; c < static_cast<int>(senses.size()); ++c) {
      items_.push_back(Item{i, c, senses[static_cast<size_t>(c)], {}, 0});
    }
  }
  ForEachIndex(pool, items_.size(), [&](size_t item) {
    Item& it = items_[item];
    for (const ClassHistogram::Slot& slot :
         histograms_[static_cast<size_t>(it.ofd)].Class(static_cast<size_t>(it.cls))) {
      const bool covered =
          it.sense != kInvalidSense && index_.SenseContains(it.sense, slot.value);
      it.base.Add(slot.value, slot.count, covered);
    }
    it.base_cost = it.base.cover_size();
  });
  for (const Item& it : items_) base_cost_ += it.base_cost;
}

int64_t BeamScorer::CollectCandidates(int min_classes, int max_candidates) {
  // Slots are in first-row order, so candidates come out in first-occurrence
  // order; each uncovered slot is one class's flip for its candidate.
  struct Found {
    OntologyAddition add;
    int64_t count = 0;
    std::vector<Flip> flips;
  };
  std::vector<Found> found;
  std::unordered_map<uint64_t, size_t> position;
  for (uint32_t item = 0; item < items_.size(); ++item) {
    const Item& it = items_[item];
    if (it.sense == kInvalidSense) continue;
    const ClassHistogram& hist = histograms_[static_cast<size_t>(it.ofd)];
    const size_t c = static_cast<size_t>(it.cls);
    for (uint32_t slot = hist.offsets[c]; slot < hist.offsets[c + 1]; ++slot) {
      const auto [v, count] = hist.slots[slot];
      if (index_.SenseContains(it.sense, v)) continue;
      const uint64_t key =
          (static_cast<uint64_t>(static_cast<uint32_t>(it.sense)) << 32) |
          static_cast<uint32_t>(v);
      auto [entry, inserted] = position.try_emplace(key, found.size());
      if (inserted) found.push_back(Found{{it.sense, v}, 0, {}});
      found[entry->second].count += count;
      found[entry->second].flips.push_back(Flip{item, slot});
    }
  }
  std::erase_if(found, [&](const Found& f) {
    return static_cast<int64_t>(f.flips.size()) < min_classes;
  });
  const int64_t total = static_cast<int64_t>(found.size());
  if (total > max_candidates) {
    std::stable_sort(found.begin(), found.end(),
                     [](const Found& a, const Found& b) { return a.count > b.count; });
    found.resize(static_cast<size_t>(std::max(0, max_candidates)));
  }
  candidates_.clear();
  flips_.clear();
  for (Found& f : found) {
    candidates_.push_back(f.add);
    flips_.push_back(std::move(f.flips));
  }
  return total;
}

BeamScorer::NodeScore BeamScorer::ScoreFull(const std::vector<int>& picks) const {
  auto picked = [&](SenseId sense, ValueId v) {
    return std::any_of(picks.begin(), picks.end(), [&](int p) {
      return candidates_[static_cast<size_t>(p)] == OntologyAddition{sense, v};
    });
  };
  NodeScore score{0, static_cast<int64_t>(items_.size())};
  for (const Item& it : items_) {
    ClassTally tally;
    for (const ClassHistogram::Slot& slot :
         histograms_[static_cast<size_t>(it.ofd)].Class(static_cast<size_t>(it.cls))) {
      const bool covered =
          it.sense != kInvalidSense && (index_.SenseContains(it.sense, slot.value) ||
                                        picked(it.sense, slot.value));
      tally.Add(slot.value, slot.count, covered);
    }
    score.data_changes += tally.cover_size();
  }
  return score;
}

BeamScorer::NodeScore BeamScorer::ScoreIncremental(const std::vector<int>& picks) const {
  ScoreScratch scratch;
  return ScoreIncremental(picks, &scratch);
}

BeamScorer::NodeScore BeamScorer::ScoreIncremental(const std::vector<int>& picks,
                                                   ScoreScratch* scratch) const {
  // Gather the picks' flips and group them by class. Distinct candidates
  // never flip the same slot (one slot per value per class).
  std::vector<Flip>& flips = scratch->flips_;
  flips.clear();
  for (int p : picks) {
    const std::vector<Flip>& list = flips_[static_cast<size_t>(p)];
    flips.insert(flips.end(), list.begin(), list.end());
  }
  std::sort(flips.begin(), flips.end());

  NodeScore score{base_cost_, 0};
  for (size_t f = 0; f < flips.size();) {
    const uint32_t item = flips[f].item;
    const Item& it = items_[item];
    const ClassHistogram& hist = histograms_[static_cast<size_t>(it.ofd)];
    ClassTally tally = it.base;
    for (; f < flips.size() && flips[f].item == item; ++f) {
      const ClassHistogram::Slot& slot = hist.slots[flips[f].slot];
      tally.Cover(slot.value, slot.count);
    }
    score.data_changes += tally.cover_size() - it.base_cost;
    ++score.classes_rescored;
  }
  return score;
}

Status BeamScorer::AuditNodeScore(const std::vector<int>& picks,
                                  int64_t data_changes) const {
  auto fail = [](const std::string& message) {
    return audit::internal::Counted(Status::Error("beam scorer audit: " + message));
  };
  NodeScore full = ScoreFull(picks);
  NodeScore incremental = ScoreIncremental(picks);
  if (full.data_changes != data_changes ||
      incremental.data_changes != data_changes) {
    return fail("node scored " + std::to_string(data_changes) + " but full=" +
                std::to_string(full.data_changes) + " incremental=" +
                std::to_string(incremental.data_changes));
  }

  // From-scratch cross-check against RepairData on a materialized index
  // copy. Exact only under per-class independence: distinct consequents and
  // no antecedent/consequent overlap (coupled classes read each other's
  // rewrites). OfdClean scores a minimal cover, so OFDs implied by others
  // never disable the check. Bounded so audit-mode services stay usable.
  if (rel_.num_rows() > audit::kDeepAuditMaxRows) {
    return audit::internal::Counted(Status::Ok());
  }
  AttrSet lhs_attrs, rhs_attrs;
  for (const Ofd& ofd : sigma_) {
    if (rhs_attrs.Contains(ofd.rhs)) return audit::internal::Counted(Status::Ok());
    lhs_attrs = lhs_attrs.Union(ofd.lhs);
    rhs_attrs = rhs_attrs.With(ofd.rhs);
  }
  if (lhs_attrs.Intersects(rhs_attrs)) {
    return audit::internal::Counted(Status::Ok());
  }
  SynonymIndex materialized = index_;
  for (int p : picks) {
    const OntologyAddition& add = candidates_[static_cast<size_t>(p)];
    materialized.AddValue(add.sense, add.value);
  }
  RepairResult repaired = RepairData(rel_, materialized, sigma_, assignment_,
                                     std::numeric_limits<int64_t>::max());
  if (repaired.data_changes != data_changes) {
    return fail("from-scratch RepairData made " +
                std::to_string(repaired.data_changes) +
                " changes but the node scored " + std::to_string(data_changes));
  }
  return audit::internal::Counted(Status::Ok());
}

}  // namespace fastofd
