#include "ofd/metric_fd.h"

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "ofd/verifier.h"
#include "relation/partition.h"

namespace fastofd {

int EditDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  const size_t m = a.size(), n = b.size();
  std::vector<int> row(m + 1);
  for (size_t i = 0; i <= m; ++i) row[i] = static_cast<int>(i);
  for (size_t j = 1; j <= n; ++j) {
    int prev_diag = row[0];
    row[0] = static_cast<int>(j);
    for (size_t i = 1; i <= m; ++i) {
      int subst = prev_diag + (a[i - 1] != b[j - 1]);
      prev_diag = row[i];
      row[i] = std::min({row[i] + 1, row[i - 1] + 1, subst});
    }
  }
  return row[m];
}

bool MetricFdHolds(const Relation& rel, AttrSet lhs, AttrId rhs, int delta) {
  StrippedPartition p = StrippedPartition::BuildForSet(rel, lhs);
  ClassHistogram histogram;
  StrippedPartition::HistogramInto(p, rel.Column(rhs), rel.dict().size(),
                                   &StrippedPartition::ThreadLocalScratch(), &histogram);
  for (size_t c = 0; c < histogram.num_classes(); ++c) {
    // Pairwise over the *distinct* values of the class.
    std::span<const ClassHistogram::Slot> distinct = histogram.Class(c);
    for (size_t i = 0; i < distinct.size(); ++i) {
      for (size_t j = i + 1; j < distinct.size(); ++j) {
        if (EditDistance(rel.dict().String(distinct[i].value),
                         rel.dict().String(distinct[j].value)) > delta) {
          return false;
        }
      }
    }
  }
  return true;
}

MetricComparison CompareMetricVsOfd(const Relation& rel, const SynonymIndex& index,
                                    const Ofd& ofd, int delta) {
  MetricComparison cmp;
  const OfdVerifier verifier(rel, index);
  StrippedPartition p = StrippedPartition::BuildForSet(rel, ofd.lhs);
  for (RowSpan rows : p.classes()) {
    cmp.tuples += static_cast<int64_t>(rows.size());
    // Majority value (the MFD/FD repair anchor) and best sense (the OFD
    // interpretation).
    const SenseTally tally = verifier.Tally(rows, ofd.rhs);
    const ValueId majority = tally.best_value;
    const SenseId best_sense = tally.best_sense;
    const std::string& majority_str = rel.dict().String(majority);
    for (RowId r : rows) {
      ValueId v = rel.At(r, ofd.rhs);
      bool mfd_flag =
          v != majority && EditDistance(rel.dict().String(v), majority_str) > delta;
      bool ofd_flag = v != majority &&
                      !(best_sense != kInvalidSense &&
                        index.SenseContains(best_sense, v) &&
                        index.SenseContains(best_sense, majority));
      cmp.mfd_flagged += mfd_flag;
      cmp.ofd_flagged += ofd_flag;
      cmp.mfd_only += (mfd_flag && !ofd_flag);
      cmp.ofd_only += (ofd_flag && !mfd_flag);
    }
  }
  return cmp;
}

}  // namespace fastofd
