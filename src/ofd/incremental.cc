#include "ofd/incremental.h"

#include <algorithm>
#include <string>
#include <unordered_set>

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
  for (size_t i = 0; i < sigma_.size(); ++i) {
    const Ofd& ofd = sigma_[i];
    const OfdState& state = states_[i];
    const std::string tag = "ofd " + std::to_string(i) + ": ";
    if (state.lhs_attrs != ofd.lhs.ToVector()) {
      return IncAuditError(tag + "lhs_attrs drifted from Σ");
    }
    if (state.row_group.size() != static_cast<size_t>(n)) {
      return IncAuditError(tag + "row_group has wrong size");
    }
    std::unordered_set<int32_t> free_set(state.free_groups.begin(),
                                         state.free_groups.end());
    if (free_set.size() != state.free_groups.size()) {
      return IncAuditError(tag + "duplicate entries on the group free list");
    }
    std::vector<char> seen(static_cast<size_t>(n), 0);
    int counted = 0;
    int64_t kept = 0;
    size_t non_empty = 0;
    for (size_t g = 0; g < state.groups.size(); ++g) {
      const Group& group = state.groups[g];
      if (free_set.count(static_cast<int32_t>(g)) != 0 &&
          (!group.rows.empty() || group.counted)) {
        return IncAuditError(tag + "free-listed group " + std::to_string(g) +
                             " is not empty and uncounted");
      }
      if (!group.rows.empty()) {
        ++non_empty;
        LhsKey head_key = KeyFor(state, group.rows[0]);
        auto it = state.key_to_group.find(head_key);
        if (it == state.key_to_group.end() ||
            it->second != static_cast<int32_t>(g)) {
          return IncAuditError(tag + "group " + std::to_string(g) +
                               " unreachable under its own antecedent key");
        }
        for (RowId r : group.rows) {
          if (r < 0 || static_cast<int64_t>(r) >= n) {
            return IncAuditError(tag + "row id out of range");
          }
          if (seen[static_cast<size_t>(r)] != 0) {
            return IncAuditError(tag + "row " + std::to_string(r) +
                                 " appears in two groups");
          }
          seen[static_cast<size_t>(r)] = 1;
          if (state.row_group[static_cast<size_t>(r)] !=
              static_cast<int32_t>(g)) {
            return IncAuditError(tag + "row_group[" + std::to_string(r) +
                                 "] disagrees with group membership");
          }
          if (KeyFor(state, r) != head_key) {
            return IncAuditError(tag + "group " + std::to_string(g) +
                                 " mixes antecedent keys");
          }
        }
      }
      if (group.counted != (group.rows.size() >= 2 && !group.ok)) {
        return IncAuditError(tag + "group " + std::to_string(g) +
                             " counted flag inconsistent with ok/size");
      }
      counted += group.counted ? 1 : 0;
      kept += group.kept;
      if (group.rows.size() < 2 &&
          group.kept != static_cast<int64_t>(group.rows.size())) {
        return IncAuditError(tag + "group " + std::to_string(g) +
                             " of fewer than 2 rows keeps " +
                             std::to_string(group.kept));
      }
      if (deep && group.rows.size() >= 2) {
        if (verifier_.HoldsInClass(group.rows, ofd.rhs, ofd.kind) !=
            group.ok) {
          return IncAuditError(tag + "group " + std::to_string(g) +
                               " satisfaction bit disagrees with " +
                               "re-verification");
        }
      }
    }
    for (size_t r = 0; r < seen.size(); ++r) {
      if (seen[r] == 0) {
        return IncAuditError(tag + "row " + std::to_string(r) +
                             " missing from every group");
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
    if (deep) {
      // Group maps vs full re-verification: the cached per-OFD verdict and
      // support must match a from-scratch check over a freshly built Π*_lhs.
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
  for (const Ofd& ofd : sigma_) {
    OfdState state;
    state.lhs_attrs = ofd.lhs.ToVector();
    state.row_group.assign(static_cast<size_t>(n), -1);
    // The groups are the classes of Π_lhs: the stripped partition's classes,
    // then one singleton per row none of them covers. One key per group.
    const StrippedPartition lhs = StrippedPartition::BuildForSet(*rel_, ofd.lhs);
    state.groups.reserve(static_cast<size_t>(lhs.full_num_classes()));
    state.key_to_group.reserve(static_cast<size_t>(lhs.full_num_classes()));
    auto add_group = [&](RowSpan rows) {
      const auto g = static_cast<int32_t>(state.groups.size());
      state.groups.emplace_back().rows.assign(rows.begin(), rows.end());
      for (RowId r : rows) state.row_group[static_cast<size_t>(r)] = g;
      state.key_to_group.emplace(KeyFor(state, rows.front()), g);
    };
    for (RowSpan cls : lhs.classes()) add_group(cls);
    for (RowId r = 0; r < n; ++r) {
      if (state.row_group[static_cast<size_t>(r)] < 0) add_group(RowSpan(&r, 1));
    }
    states_.push_back(std::move(state));
    OfdState& st = states_.back();
    for (size_t g = 0; g < st.groups.size(); ++g) {
      RefreshGroup(st, ofd, static_cast<int32_t>(g));
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

void IncrementalVerifier::SetCounted(OfdState& state, Group& group, bool counted) {
  if (group.counted == counted) return;
  group.counted = counted;
  state.violating += counted ? 1 : -1;
  total_violating_.fetch_add(counted ? 1 : -1, std::memory_order_relaxed);
}

void IncrementalVerifier::RefreshGroup(OfdState& state, const Ofd& ofd, int32_t g) {
  Group& group = state.groups[static_cast<size_t>(g)];
  // Singletons (and empty groups) cannot violate and keep every row.
  bool ok = true;
  int64_t kept = static_cast<int64_t>(group.rows.size());
  if (group.rows.size() >= 2) {
    if (ofd.kind == OfdKind::kSynonym) {
      const SenseTally tally = verifier_.Tally(group.rows, ofd.rhs);
      ok = tally.holds();
      kept = tally.kept();
    } else {
      ok = verifier_.HoldsInClass(group.rows, ofd.rhs, ofd.kind);
    }
    classes_rechecked_.fetch_add(1, std::memory_order_relaxed);
  }
  group.ok = ok;
  state.kept += kept - group.kept;
  group.kept = kept;
  SetCounted(state, group, group.rows.size() >= 2 && !group.ok);
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

  // Leave the old group.
  int32_t g_old = state.row_group[static_cast<size_t>(row)];
  Group& old_group = state.groups[static_cast<size_t>(g_old)];
  old_group.rows.erase(
      std::find(old_group.rows.begin(), old_group.rows.end(), row));
  // Removing a row can fix a violation (or leave one); re-check. An emptied
  // group keeps nothing and goes on the free list.
  RefreshGroup(state, ofd, g_old);
  if (old_group.rows.empty()) {
    state.key_to_group.erase(old_key);
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
      state.groups[static_cast<size_t>(g_new)] = Group{};
    }
    state.key_to_group.emplace(std::move(new_key), g_new);
  } else {
    g_new = it->second;
  }
  // A fresh singleton is vacuously satisfied: the refresh only counts its row.
  state.groups[static_cast<size_t>(g_new)].rows.push_back(row);
  RefreshGroup(state, ofd, g_new);
  state.row_group[static_cast<size_t>(row)] = g_new;
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
      int32_t g = state.row_group[static_cast<size_t>(row)];
      RefreshGroup(state, ofd, g);
    }
  }
}

}  // namespace fastofd
