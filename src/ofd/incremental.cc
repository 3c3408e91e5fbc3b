#include "ofd/incremental.h"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/audit.h"
#include "common/check.h"
#include "relation/partition.h"

namespace fastofd {

namespace {

Status IncAuditError(const std::string& message) {
  return audit::internal::Counted(
      Status::Error("incremental audit: " + message));
}

}  // namespace

Status IncrementalVerifier::AuditState() const {
  const int64_t n = static_cast<int64_t>(rel_->num_rows());
  const bool deep = n <= audit::kDeepAuditMaxRows;
  int total_counted = 0;
  // (group, consequent value) of every row, filed under its current key.
  std::vector<std::pair<int32_t, ValueId>> recount;
  std::vector<ClassHistogram::Slot> expected;
  std::vector<ClassHistogram::Slot> stored;
  auto by_value = [](const ClassHistogram::Slot& a, const ClassHistogram::Slot& b) {
    return a.value < b.value;
  };
  for (size_t i = 0; i < sigma_.size(); ++i) {
    const Ofd& ofd = sigma_[i];
    const OfdState& state = states_[i];
    const std::string tag = "ofd " + std::to_string(i) + ": ";
    if (state.lhs_attrs != ofd.lhs.ToVector()) {
      return IncAuditError(tag + "lhs_attrs drifted from Σ");
    }
    if (deep) {
      // The cached per-OFD verdict and support must match a from-scratch
      // check over a freshly built Π*_lhs.
      StrippedPartition lhs = StrippedPartition::BuildForSet(*rel_, ofd.lhs);
      if (verifier_.Holds(ofd, lhs) != (state.violating == 0)) {
        return IncAuditError(tag + "cached verdict disagrees with full " +
                             "re-verification");
      }
      if (ofd.kind == OfdKind::kSynonym &&
          verifier_.Support(ofd, lhs) != Support(i)) {
        return IncAuditError(tag + "cached support disagrees with full " +
                             "re-verification");
      }
    }

    // Histograms vs the relation: recount every row's consequent under the
    // group its current antecedent key reaches.
    recount.clear();
    for (RowId r = 0; r < n; ++r) {
      auto it = state.key_to_group.find(KeyFor(state, r));
      if (it == state.key_to_group.end()) {
        return IncAuditError(tag + "row " + std::to_string(r) +
                             " has an antecedent key no group is filed under");
      }
      recount.emplace_back(it->second, rel_->At(r, ofd.rhs));
    }
    std::sort(recount.begin(), recount.end());

    std::unordered_set<int32_t> free_set(state.free_groups.begin(),
                                         state.free_groups.end());
    if (free_set.size() != state.free_groups.size()) {
      return IncAuditError(tag + "duplicate entries on the group free list");
    }
    std::unordered_set<int32_t> mapped;
    for (const auto& [key, g] : state.key_to_group) {
      if (g < 0 || static_cast<size_t>(g) >= state.groups.size() ||
          free_set.count(g) != 0 || !mapped.insert(g).second) {
        return IncAuditError(tag + "key map entry reaches group " +
                             std::to_string(g) +
                             ", which is out of range, free or shared");
      }
    }
    int counted = 0;
    int64_t kept = 0;
    size_t non_empty = 0;
    size_t cursor = 0;
    for (size_t g = 0; g < state.groups.size(); ++g) {
      const Group& group = state.groups[g];
      const std::string where = tag + "group " + std::to_string(g);
      expected.clear();
      int64_t rows = 0;
      for (; cursor < recount.size() &&
             recount[cursor].first == static_cast<int32_t>(g);
           ++cursor) {
        if (expected.empty() || expected.back().value != recount[cursor].second) {
          expected.push_back(ClassHistogram::Slot{recount[cursor].second, 0});
        }
        ++expected.back().count;
        ++rows;
      }
      stored.assign(group.values.begin(), group.values.end());
      std::sort(stored.begin(), stored.end(), by_value);
      const bool same = stored.size() == expected.size() &&
                        std::equal(stored.begin(), stored.end(), expected.begin(),
                                   [](const auto& a, const auto& b) {
                                     return a.value == b.value && a.count == b.count;
                                   });
      if (!same || group.size != rows) {
        return IncAuditError(where + " histogram of " +
                             std::to_string(group.size) +
                             " rows disagrees with a recount of " +
                             std::to_string(rows) + " rows");
      }
      non_empty += group.size > 0 ? 1 : 0;
      if (group.counted != (group.size >= 2 && !group.ok)) {
        return IncAuditError(where + " counted flag inconsistent with ok/size");
      }
      counted += group.counted ? 1 : 0;
      kept += group.kept;
      if (std::make_pair(group.ok, group.kept) != Check(ofd, group)) {
        return IncAuditError(where + " satisfaction bit or kept rows " +
                             std::to_string(group.kept) +
                             " disagree with a tally of its slots");
      }
    }
    if (state.key_to_group.size() != non_empty) {
      return IncAuditError(tag + "key map has " +
                           std::to_string(state.key_to_group.size()) +
                           " keys for " + std::to_string(non_empty) +
                           " non-empty groups");
    }
    if (counted != state.violating) {
      return IncAuditError(tag + "violating counter " +
                           std::to_string(state.violating) +
                           " != counted groups " + std::to_string(counted));
    }
    if (kept != state.kept) {
      return IncAuditError(tag + "kept-row sum " + std::to_string(state.kept) +
                           " != sum over groups " + std::to_string(kept));
    }
    total_counted += counted;
  }
  if (total_counted != total_violating()) {
    return IncAuditError("total_violating " + std::to_string(total_violating()) +
                         " != sum over OFDs " + std::to_string(total_counted));
  }
  return audit::internal::Counted(Status::Ok());
}

IncrementalVerifier::IncrementalVerifier(Relation* rel, const SynonymIndex& index,
                                         SigmaSet sigma, const Ontology* ontology)
    : rel_(rel),
      index_(index),
      sigma_(std::move(sigma)),
      verifier_(*rel, index, ontology) {
  states_.reserve(sigma_.size());
  const RowId n = rel_->num_rows();
  ClassHistogram histogram;
  std::vector<char> covered;
  for (const Ofd& ofd : sigma_) {
    OfdState& state = states_.emplace_back();
    state.lhs_attrs = ofd.lhs.ToVector();
    // The groups are the classes of Π_lhs: the stripped partition's class
    // histograms, then one singleton per row none of them covers. One key
    // per group.
    const StrippedPartition lhs = StrippedPartition::BuildForSet(*rel_, ofd.lhs);
    const std::vector<ValueId>& rhs = rel_->Column(ofd.rhs);
    StrippedPartition::HistogramInto(lhs, rhs, rel_->dict().size(),
                                     &StrippedPartition::ThreadLocalScratch(),
                                     &histogram);
    state.groups.reserve(static_cast<size_t>(lhs.full_num_classes()));
    state.key_to_group.reserve(static_cast<size_t>(lhs.full_num_classes()));
    auto add_group = [&](RowId head, size_t size, OfdVerifier::Values values) {
      const auto g = static_cast<int32_t>(state.groups.size());
      Group& group = state.groups.emplace_back();
      group.values.assign(values.begin(), values.end());
      group.size = static_cast<int32_t>(size);
      state.key_to_group.emplace(KeyFor(state, head), g);
      RefreshGroup(state, ofd, g);
    };
    covered.assign(static_cast<size_t>(n), 0);
    for (size_t c = 0; c < histogram.num_classes(); ++c) {
      const RowSpan cls = lhs.Class(c);
      for (RowId r : cls) covered[static_cast<size_t>(r)] = 1;
      add_group(cls.front(), cls.size(), histogram.Class(c));
    }
    for (RowId r = 0; r < n; ++r) {
      if (covered[static_cast<size_t>(r)] != 0) continue;
      const ClassHistogram::Slot slot{rhs[static_cast<size_t>(r)], 1};
      add_group(r, 1, OfdVerifier::Values(&slot, 1));
    }
  }
}

IncrementalVerifier::LhsKey IncrementalVerifier::KeyFor(const OfdState& state,
                                                        RowId row) const {
  LhsKey key;
  key.reserve(state.lhs_attrs.size());
  for (AttrId a : state.lhs_attrs) key.push_back(rel_->At(row, a));
  return key;
}

void IncrementalVerifier::AddValue(Group& group, ValueId value) {
  ++group.size;
  for (ClassHistogram::Slot& slot : group.values) {
    if (slot.value == value) {
      ++slot.count;
      return;
    }
  }
  group.values.push_back(ClassHistogram::Slot{value, 1});
}

void IncrementalVerifier::RemoveValue(Group& group, ValueId value) {
  auto it = std::find_if(group.values.begin(), group.values.end(),
                         [&](const ClassHistogram::Slot& s) { return s.value == value; });
  FASTOFD_CHECK(it != group.values.end());
  --group.size;
  if (--it->count == 0) {
    *it = group.values.back();
    group.values.pop_back();
  }
}

void IncrementalVerifier::SetCounted(OfdState& state, Group& group, bool counted) {
  if (group.counted == counted) return;
  group.counted = counted;
  state.violating += counted ? 1 : -1;
  total_violating_.fetch_add(counted ? 1 : -1, std::memory_order_relaxed);
}

std::pair<bool, int64_t> IncrementalVerifier::Check(const Ofd& ofd,
                                                    const Group& group) const {
  // Singletons (and empty groups) cannot violate and keep every row.
  if (group.size < 2) return {true, group.size};
  if (ofd.kind == OfdKind::kSynonym) {
    const SenseTally tally = verifier_.TallyValues(group.values);
    return {tally.holds(), tally.kept()};
  }
  return {verifier_.InheritanceClassHolds(group.values), group.size};
}

void IncrementalVerifier::RefreshGroup(OfdState& state, const Ofd& ofd, int32_t g) {
  Group& group = state.groups[static_cast<size_t>(g)];
  const auto [ok, kept] = Check(ofd, group);
  if (group.size >= 2) classes_rechecked_.fetch_add(1, std::memory_order_relaxed);
  group.ok = ok;
  state.kept += kept - group.kept;
  group.kept = kept;
  SetCounted(state, group, group.size >= 2 && !group.ok);
}

double IncrementalVerifier::Support(size_t ofd_index) const {
  if (sigma_[ofd_index].kind != OfdKind::kSynonym) {
    return Holds(ofd_index) ? 1.0 : 0.0;
  }
  if (rel_->num_rows() == 0) return 1.0;
  return static_cast<double>(states_[ofd_index].kept) /
         static_cast<double>(rel_->num_rows());
}

void IncrementalVerifier::MoveRow(OfdState& state, const Ofd& ofd, RowId row,
                                  AttrId attr, ValueId old_value) {
  // The relation already holds the new value; reconstruct the old key by
  // substituting the previous value at the updated attribute.
  LhsKey new_key = KeyFor(state, row);
  LhsKey old_key = new_key;
  size_t pos = static_cast<size_t>(
      std::find(state.lhs_attrs.begin(), state.lhs_attrs.end(), attr) -
      state.lhs_attrs.begin());
  old_key[pos] = old_value;
  const ValueId rhs_value = rel_->At(row, ofd.rhs);

  // Leave the old group. Removing a row can fix a violation (or leave one);
  // re-check. An emptied group keeps nothing and goes on the free list,
  // already in the state of a fresh group.
  auto old_it = state.key_to_group.find(old_key);
  FASTOFD_CHECK(old_it != state.key_to_group.end());
  const int32_t g_old = old_it->second;
  Group& old_group = state.groups[static_cast<size_t>(g_old)];
  RemoveValue(old_group, ofd.rhs == attr ? old_value : rhs_value);
  RefreshGroup(state, ofd, g_old);
  if (old_group.size == 0) {
    state.key_to_group.erase(old_it);
    state.free_groups.push_back(g_old);
  }

  // Join (or create) the new group.
  auto it = state.key_to_group.find(new_key);
  int32_t g_new;
  if (it == state.key_to_group.end()) {
    if (state.free_groups.empty()) {
      g_new = static_cast<int32_t>(state.groups.size());
      state.groups.emplace_back();
    } else {
      g_new = state.free_groups.back();
      state.free_groups.pop_back();
    }
    state.key_to_group.emplace(std::move(new_key), g_new);
  } else {
    g_new = it->second;
  }
  // A fresh singleton is vacuously satisfied: the refresh only counts its row.
  AddValue(state.groups[static_cast<size_t>(g_new)], rhs_value);
  RefreshGroup(state, ofd, g_new);
}

void IncrementalVerifier::UpdateCell(RowId row, AttrId attr, ValueId value) {
  FASTOFD_CHECK(row >= 0 && row < rel_->num_rows());
  ValueId old_value = rel_->At(row, attr);
  if (old_value == value) return;
  rel_->SetId(row, attr, value);
  for (size_t i = 0; i < sigma_.size(); ++i) {
    const Ofd& ofd = sigma_[i];
    OfdState& state = states_[i];
    if (ofd.lhs.Contains(attr)) {
      MoveRow(state, ofd, row, attr, old_value);
    } else if (ofd.rhs == attr) {
      // The row's class keeps its rows; one of its values changes.
      auto it = state.key_to_group.find(KeyFor(state, row));
      FASTOFD_CHECK(it != state.key_to_group.end());
      Group& group = state.groups[static_cast<size_t>(it->second)];
      RemoveValue(group, old_value);
      AddValue(group, value);
      RefreshGroup(state, ofd, it->second);
    }
  }
}

}  // namespace fastofd
