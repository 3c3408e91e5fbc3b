#include "clean/beam_scorer.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>

#include "common/audit.h"
#include "common/check.h"
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

void BeamScorer::SetCandidates(std::vector<OntologyAddition> candidates,
                               std::vector<std::vector<Flip>> flips) {
  FASTOFD_CHECK(candidates.size() == flips.size());
  candidates_ = std::move(candidates);
  flips_ = std::move(flips);
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
