#include "relation/partition.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "common/audit.h"
#include "common/check.h"
#include "common/metrics.h"

namespace fastofd {

namespace {

Status AuditError(const std::string& message) {
  return audit::internal::Counted(Status::Error("partition audit: " + message));
}

}  // namespace

PartitionScratch& StrippedPartition::ThreadLocalScratch() {
  static thread_local PartitionScratch scratch;
  return scratch;
}

Status StrippedPartition::AuditFlatParts(const std::vector<RowId>& rows,
                                         const std::vector<uint32_t>& offsets,
                                         int64_t num_rows) {
  if (offsets.empty()) {
    if (!rows.empty()) {
      return AuditError("arena holds " + std::to_string(rows.size()) +
                        " rows but the offset array is empty");
    }
    return audit::internal::Counted(Status::Ok());
  }
  if (offsets.size() < 2) {
    return AuditError("offset array has a single entry (needs class bounds)");
  }
  if (offsets.front() != 0) {
    return AuditError("first offset is " + std::to_string(offsets.front()) +
                      ", expected 0");
  }
  if (offsets.back() != rows.size()) {
    return AuditError("last offset " + std::to_string(offsets.back()) +
                      " does not cover the arena of " +
                      std::to_string(rows.size()) + " rows");
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1] + 2) {
      return AuditError("class " + std::to_string(i - 1) +
                        " spans fewer than 2 rows (offsets " +
                        std::to_string(offsets[i - 1]) + ".." +
                        std::to_string(offsets[i]) + ")");
    }
  }
  if (static_cast<int64_t>(rows.size()) > num_rows) {
    return AuditError("arena of " + std::to_string(rows.size()) +
                      " rows exceeds relation rows " + std::to_string(num_rows));
  }
  return audit::internal::Counted(Status::Ok());
}

Status StrippedPartition::AuditStrippedPartitionParts(
    const Relation& rel, AttrSet attrs,
    const std::vector<std::vector<RowId>>& classes, int64_t sum_sizes,
    int64_t num_rows) {
  if (num_rows != static_cast<int64_t>(rel.num_rows())) {
    return AuditError("num_rows " + std::to_string(num_rows) +
                      " != relation rows " + std::to_string(rel.num_rows()));
  }
  std::vector<char> seen(static_cast<size_t>(num_rows), 0);
  int64_t total = 0;
  for (size_t ci = 0; ci < classes.size(); ++ci) {
    const std::vector<RowId>& cls = classes[ci];
    if (cls.size() < 2) {
      return AuditError("class " + std::to_string(ci) +
                        " is a singleton (stripped partitions drop those)");
    }
    total += static_cast<int64_t>(cls.size());
    for (size_t k = 0; k < cls.size(); ++k) {
      RowId r = cls[k];
      if (r < 0 || static_cast<int64_t>(r) >= num_rows) {
        return AuditError("row id " + std::to_string(r) + " out of range");
      }
      if (k > 0 && cls[k - 1] >= r) {
        return AuditError("class " + std::to_string(ci) +
                          " not strictly ascending at position " +
                          std::to_string(k));
      }
      if (seen[static_cast<size_t>(r)] != 0) {
        return AuditError("row " + std::to_string(r) +
                          " appears in two classes");
      }
      seen[static_cast<size_t>(r)] = 1;
      // Every row of a class must agree with the class head on all of X.
      for (AttrId a : attrs.ToVector()) {
        if (rel.At(r, a) != rel.At(cls[0], a)) {
          return AuditError("class " + std::to_string(ci) +
                            " disagrees on attribute " + std::to_string(a));
        }
      }
    }
  }
  if (total != sum_sizes) {
    return AuditError("sum_sizes " + std::to_string(sum_sizes) +
                      " != actual " + std::to_string(total));
  }
  // Deep cross-check on small inputs: rebuild the partition naively and
  // compare class-by-class. This re-validates the Build/Intersect/Refine
  // fold (the probe-table product law Π*_X · Π*_Y = Π*_{X∪Y}) from first
  // principles.
  if (num_rows <= audit::kDeepAuditMaxRows) {
    std::map<std::vector<ValueId>, std::vector<RowId>> naive;
    for (RowId r = 0; r < static_cast<RowId>(num_rows); ++r) {
      std::vector<ValueId> key;
      for (AttrId a : attrs.ToVector()) key.push_back(rel.At(r, a));
      naive[key].push_back(r);
    }
    std::vector<std::vector<RowId>> expected;
    for (auto& [key, rows] : naive) {
      if (rows.size() >= 2) expected.push_back(std::move(rows));
    }
    std::vector<std::vector<RowId>> actual = classes;
    auto by_head = [](const std::vector<RowId>& a,
                      const std::vector<RowId>& b) { return a[0] < b[0]; };
    std::sort(expected.begin(), expected.end(), by_head);
    std::sort(actual.begin(), actual.end(), by_head);
    if (actual != expected) {
      return AuditError("classes disagree with naive rebuild over attr mask " +
                        std::to_string(attrs.mask()) + " (" +
                        std::to_string(actual.size()) + " vs " +
                        std::to_string(expected.size()) + " classes)");
    }
  }
  return audit::internal::Counted(Status::Ok());
}

Status StrippedPartition::AuditInvariants(const Relation& rel, AttrSet attrs) const {
  Status flat = AuditFlatParts(rows_, offsets_, num_rows_);
  if (!flat.ok()) return flat;
  return AuditStrippedPartitionParts(rel, attrs, ToClassVectors(), sum_sizes(),
                                     num_rows_);
}

std::vector<std::vector<RowId>> StrippedPartition::ToClassVectors() const {
  std::vector<std::vector<RowId>> out(NumClassesSize());
  for (size_t i = 0; i < out.size(); ++i) {
    RowSpan cls = Class(i);
    out[i].assign(cls.begin(), cls.end());
  }
  return out;
}

StrippedPartition StrippedPartition::Build(const Relation& rel, AttrId attr) {
  StrippedPartition p;
  p.num_rows_ = rel.num_rows();
  const std::vector<ValueId>& col = rel.Column(attr);
  const size_t num_values = rel.dict().size();
  // Counting sort over the dense value ids, emitted straight into the arena:
  // count each value, give every value with count >= 2 a contiguous slot
  // range, then scatter the rows (ascending r keeps classes sorted).
  std::vector<int32_t> counts(num_values, 0);
  for (RowId r = 0; r < rel.num_rows(); ++r) {
    ++counts[static_cast<size_t>(col[static_cast<size_t>(r)])];
  }
  std::vector<int32_t> slot(num_values, -1);
  size_t pos = 0;
  size_t kept = 0;
  for (size_t v = 0; v < num_values; ++v) {
    if (counts[v] >= 2) {
      slot[v] = static_cast<int32_t>(pos);
      pos += static_cast<size_t>(counts[v]);
      ++kept;
    }
  }
  if (kept == 0) return p;
  p.rows_.resize(pos);
  p.offsets_.reserve(kept + 1);
  p.offsets_.push_back(0);
  uint32_t cum = 0;
  for (size_t v = 0; v < num_values; ++v) {
    if (counts[v] >= 2) {
      cum += static_cast<uint32_t>(counts[v]);
      p.offsets_.push_back(cum);
    }
  }
  for (RowId r = 0; r < rel.num_rows(); ++r) {
    int32_t& s = slot[static_cast<size_t>(col[static_cast<size_t>(r)])];
    if (s >= 0) p.rows_[static_cast<size_t>(s++)] = r;
  }
  return p;
}

StrippedPartition StrippedPartition::BuildForSet(const Relation& rel, AttrSet attrs) {
  if (attrs.empty()) {
    StrippedPartition p;
    p.num_rows_ = rel.num_rows();
    if (rel.num_rows() >= 2) {
      p.rows_.resize(static_cast<size_t>(rel.num_rows()));
      for (RowId r = 0; r < rel.num_rows(); ++r) {
        p.rows_[static_cast<size_t>(r)] = r;
      }
      p.offsets_ = {0, static_cast<uint32_t>(rel.num_rows())};
    }
    return p;
  }
  std::vector<AttrId> attr_list = attrs.ToVector();
  StrippedPartition p = Build(rel, attr_list[0]);
  StrippedPartition next;
  PartitionScratch& scratch = ThreadLocalScratch();
  for (size_t i = 1; i < attr_list.size() && !p.IsSuperkey(); ++i) {
    RefineInto(p, rel.Column(attr_list[i]), rel.dict().size(), &scratch, &next);
    std::swap(p, next);
  }
  return p;
}

StrippedPartition StrippedPartition::Product(const StrippedPartition& a,
                                             const StrippedPartition& b) {
  StrippedPartition out;
  IntersectInto(a, b, &ThreadLocalScratch(), &out);
  return out;
}

StrippedPartition StrippedPartition::Refine(const StrippedPartition& a,
                                            const Relation& rel, AttrId attr) {
  StrippedPartition out;
  RefineInto(a, rel.Column(attr), rel.dict().size(), &ThreadLocalScratch(), &out);
  return out;
}

StrippedPartition StrippedPartition::LatticeChild(const Relation& rel,
                                                  const StrippedPartition& left,
                                                  AttrId left_only,
                                                  const StrippedPartition& right,
                                                  AttrId right_only) {
  FASTOFD_CHECK(left.num_rows_ == right.num_rows_);
  // Π*_{X∪{a,b}} = Π*_{X∪{a}} refined by b = Π*_{X∪{b}} refined by a. The
  // refinement walks only the refined parent's arena, so take the smaller.
  return left.sum_sizes() <= right.sum_sizes() ? Refine(left, rel, right_only)
                                               : Refine(right, rel, left_only);
}

namespace {

// The one count loop: tallies the rows of `cls` per key(row), recording each
// key's first touch. A negative key is a row stripped on the probe side.
template <typename Key>
void CountGroups(RowSpan cls, Key key, std::vector<int32_t>& counts,
                 std::vector<int32_t>& touched) {
  for (RowId r : cls) {
    const int32_t k = key(r);
    if (k < 0) continue;
    if (counts[static_cast<size_t>(k)]++ == 0) touched.push_back(k);
  }
}

// Group keys: the probe-side class of a row, or its value in a column.
struct ProbeKey {
  const int32_t* probe;
  int32_t operator()(RowId r) const { return probe[static_cast<size_t>(r)]; }
};

struct ColumnKey {
  const ValueId* column;
  int32_t operator()(RowId r) const { return column[static_cast<size_t>(r)]; }
};

}  // namespace

template <typename Key>
void StrippedPartition::EmitGroups(const ClassesView& classes, Key key,
                                   PartitionScratch* scratch,
                                   std::vector<RowId>* rows,
                                   std::vector<uint32_t>* offsets) {
  std::vector<int32_t>& counts = scratch->counts_;
  std::vector<int32_t>& slot = scratch->slot_;
  std::vector<int32_t>& touched = scratch->touched_;
  for (RowSpan cls : classes) {
    if (cls.size() == 2) {
      // What the loop below emits for two rows, without its tables: the
      // pair itself iff both rows have the same kept key.
      const int32_t k = key(cls[0]);
      if (k >= 0 && k == key(cls[1])) {
        if (offsets->empty()) offsets->push_back(0);
        rows->push_back(cls[0]);
        rows->push_back(cls[1]);
        offsets->push_back(static_cast<uint32_t>(rows->size()));
      }
      continue;
    }
    CountGroups(cls, key, counts, touched);
    if (touched.empty()) continue;
    // Assign each surviving group (count >= 2) a contiguous slot range at
    // the end of the arena; groups appear in first-touch order, which is
    // deterministic.
    const size_t old_size = rows->size();
    size_t pos = old_size;
    for (int32_t k : touched) {
      int32_t c = counts[static_cast<size_t>(k)];
      if (c < 2) continue;
      slot[static_cast<size_t>(k)] = static_cast<int32_t>(pos);
      pos += static_cast<size_t>(c);
      if (offsets->empty()) offsets->push_back(0);
      offsets->push_back(static_cast<uint32_t>(pos));
    }
    if (pos != old_size) {
      rows->resize(pos);
      // Scatter. Iterating the class in order keeps every emitted class
      // strictly ascending.
      for (RowId r : cls) {
        const int32_t k = key(r);
        if (k < 0) continue;
        int32_t& s = slot[static_cast<size_t>(k)];
        if (s >= 0) (*rows)[static_cast<size_t>(s++)] = r;
      }
    }
    for (int32_t k : touched) {
      counts[static_cast<size_t>(k)] = 0;
      slot[static_cast<size_t>(k)] = -1;
    }
    touched.clear();
  }
}

void StrippedPartition::IntersectInto(const StrippedPartition& a,
                                      const StrippedPartition& b,
                                      PartitionScratch* scratch,
                                      StrippedPartition* out) {
  FASTOFD_CHECK(a.num_rows_ == b.num_rows_);
  FASTOFD_CHECK(out != &a && out != &b);
  out->num_rows_ = a.num_rows_;
  out->rows_.clear();
  out->offsets_.clear();
  if (a.IsSuperkey() || b.IsSuperkey()) return;  // Product with ⊥ is ⊥.
  if (a.IsAllRowsClass()) {  // Product with the identity copies the operand.
    out->rows_ = b.rows_;
    out->offsets_ = b.offsets_;
    return;
  }
  if (b.IsAllRowsClass()) {
    out->rows_ = a.rows_;
    out->offsets_ = a.offsets_;
    return;
  }
  // Probe from the smaller side: the probe table costs one write per
  // probe-side row, so putting the bigger operand on the outer loop keeps
  // total work at min + max instead of 2 * max.
  const bool a_probes = a.sum_sizes() <= b.sum_sizes();
  const StrippedPartition& probe_side = a_probes ? a : b;
  const StrippedPartition& outer = a_probes ? b : a;
  scratch->EnsureRows(static_cast<size_t>(a.num_rows_));
  scratch->EnsureKeys(probe_side.NumClassesSize());
  std::vector<int32_t>& probe = scratch->probe_;
  const size_t num_probe_classes = probe_side.NumClassesSize();
  for (size_t ci = 0; ci < num_probe_classes; ++ci) {
    for (RowId r : probe_side.Class(ci)) {
      probe[static_cast<size_t>(r)] = static_cast<int32_t>(ci);
    }
  }
  EmitGroups(outer.classes(), ProbeKey{probe.data()}, scratch, &out->rows_,
             &out->offsets_);
  // Reset only the touched probe entries so the next call starts clean
  // without an O(num_rows) clear.
  for (RowId r : probe_side.rows()) probe[static_cast<size_t>(r)] = -1;
}

void StrippedPartition::RefineInto(const StrippedPartition& a,
                                   const std::vector<ValueId>& column,
                                   size_t num_values, PartitionScratch* scratch,
                                   StrippedPartition* out) {
  FASTOFD_CHECK(out != &a);
  out->num_rows_ = a.num_rows_;
  out->rows_.clear();
  out->offsets_.clear();
  // Keyed by the column's value id directly: the column's own partition is
  // never built.
  scratch->EnsureKeys(num_values);
  EmitGroups(a.classes(), ColumnKey{column.data()}, scratch, &out->rows_,
             &out->offsets_);
}

void StrippedPartition::HistogramInto(const StrippedPartition& a,
                                      const std::vector<ValueId>& column,
                                      size_t num_values, PartitionScratch* scratch,
                                      ClassHistogram* out) {
  out->slots.clear();
  out->offsets.assign(1, 0);
  for (RowSpan cls : a.classes()) {
    HistogramClass(cls, column, num_values, scratch, &out->slots);
    out->offsets.push_back(static_cast<uint32_t>(out->slots.size()));
  }
}

void StrippedPartition::HistogramClass(RowSpan cls, const std::vector<ValueId>& column,
                                       size_t num_values, PartitionScratch* scratch,
                                       std::vector<ClassHistogram::Slot>* out) {
  scratch->EnsureKeys(num_values);
  std::vector<int32_t>& counts = scratch->counts_;
  std::vector<int32_t>& touched = scratch->touched_;
  CountGroups(cls, ColumnKey{column.data()}, counts, touched);
  for (int32_t v : touched) {
    out->push_back(ClassHistogram::Slot{v, counts[static_cast<size_t>(v)]});
    counts[static_cast<size_t>(v)] = 0;
  }
  touched.clear();
}

PartitionCache::PartitionCache(const Relation& rel, int64_t budget_bytes,
                               MetricsRegistry* metrics)
    : rel_(rel), budget_bytes_(budget_bytes), metrics_(metrics) {
  if (metrics_ != nullptr) {
    // Register the counters at zero so every metrics dump includes them.
    metrics_->Add("partition_cache.hits", 0);
    metrics_->Add("partition_cache.misses", 0);
    metrics_->Add("partition_cache.evictions", 0);
    metrics_->Add("partition_cache.oversized", 0);
    MutexLock lock(mu_);
    PublishGaugesLocked();
  }
}

int64_t PartitionCache::EntryOverheadBytes() {
  // Hash-map node: key + entry payload + bucket-chain pointer + cached hash.
  constexpr size_t kMapNode =
      sizeof(std::pair<const AttrSet, Entry>) + 2 * sizeof(void*);
  // LRU list node: key + prev/next pointers.
  constexpr size_t kListNode = sizeof(AttrSet) + 2 * sizeof(void*);
  // shared_ptr control block: vtable + strong/weak counts + allocator slot.
  // (The pointee itself is charged via sizeof in FootprintBytes.)
  constexpr size_t kControlBlock = 4 * sizeof(void*);
  return static_cast<int64_t>(kMapNode + kListNode + kControlBlock);
}

int64_t PartitionCache::FootprintBytes(const StrippedPartition& p) {
  return static_cast<int64_t>(sizeof(StrippedPartition)) + p.AllocatedBytes() +
         EntryOverheadBytes();
}

void PartitionCache::PublishGaugesLocked() {
  if (metrics_ == nullptr) return;
  metrics_->Set("partition_cache.bytes", static_cast<double>(bytes_));
  metrics_->Set("partition_cache.entries", static_cast<double>(cache_.size()));
  if (budget_bytes_ != kUnbounded) {
    metrics_->Set("partition_cache.budget_bytes",
                  static_cast<double>(budget_bytes_));
  }
}

void PartitionCache::EvictToBudgetLocked() {
  // The entry just inserted is MRU and fits the budget on its own, so the
  // loop stops before reaching it.
  while (bytes_ > budget_bytes_) {
    auto it = cache_.find(lru_.back());
    bytes_ -= it->second.bytes;
    lru_.pop_back();
    cache_.erase(it);
    ++evictions_;
    if (metrics_ != nullptr) metrics_->Add("partition_cache.evictions", 1);
  }
}

std::shared_ptr<const StrippedPartition> PartitionCache::Get(AttrSet attrs) {
  {
    MutexLock lock(mu_);
    auto it = cache_.find(attrs);
    if (it != cache_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // Mark as MRU.
      ++hits_;
      if (metrics_ != nullptr) metrics_->Add("partition_cache.hits", 1);
      return it->second.partition;
    }
    ++misses_;
    if (metrics_ != nullptr) metrics_->Add("partition_cache.misses", 1);
  }

  // Build outside the lock. Cached entries are long-lived: release the
  // kernels' growth slack so the budget pays for rows actually held, not
  // high-water capacity.
  StrippedPartition built = StrippedPartition::BuildForSet(rel_, attrs);
  built.Compact();
  auto p = std::make_shared<const StrippedPartition>(std::move(built));
  const int64_t cost = FootprintBytes(*p);
  // Every partition handed out by the cache is audit-checked in audit
  // builds — this single hook covers discovery base partitions, clean, and
  // the service's discover and clean requests.
  FASTOFD_AUDIT_OK(p->AuditInvariants(rel_, attrs));

  MutexLock lock(mu_);
  if (cost > budget_bytes_) {
    if (metrics_ != nullptr) metrics_->Add("partition_cache.oversized", 1);
    return p;  // Oversized: serve uncached.
  }
  auto it = cache_.find(attrs);
  if (it != cache_.end()) return it->second.partition;  // Raced in: keep theirs.
  lru_.push_front(attrs);
  cache_.emplace(attrs, Entry{p, cost, lru_.begin()});
  bytes_ += cost;
  EvictToBudgetLocked();
  PublishGaugesLocked();
  FASTOFD_AUDIT_OK(AuditInvariantsLocked());
  return p;
}

void PartitionCache::Clear() {
  MutexLock lock(mu_);
  cache_.clear();
  lru_.clear();
  bytes_ = 0;
  PublishGaugesLocked();
  FASTOFD_AUDIT_OK(AuditInvariantsLocked());
}

size_t PartitionCache::Invalidate(AttrSet touched) {
  MutexLock lock(mu_);
  size_t dropped = 0;
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (it->first.Intersects(touched)) {
      bytes_ -= it->second.bytes;
      lru_.erase(it->second.lru_it);
      it = cache_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  if (dropped != 0 && metrics_ != nullptr) {
    metrics_->Add("partition_cache.invalidated",
                  static_cast<int64_t>(dropped));
  }
  PublishGaugesLocked();
  FASTOFD_AUDIT_OK(AuditInvariantsLocked());
  return dropped;
}

size_t PartitionCache::size() const {
  MutexLock lock(mu_);
  return cache_.size();
}

int64_t PartitionCache::bytes() const {
  MutexLock lock(mu_);
  return bytes_;
}

int64_t PartitionCache::hits() const {
  MutexLock lock(mu_);
  return hits_;
}

int64_t PartitionCache::misses() const {
  MutexLock lock(mu_);
  return misses_;
}

int64_t PartitionCache::evictions() const {
  MutexLock lock(mu_);
  return evictions_;
}

Status PartitionCache::AuditInvariantsLocked() const {
  if (lru_.size() != cache_.size()) {
    return AuditError("cache: lru list has " + std::to_string(lru_.size()) +
                      " entries but map has " + std::to_string(cache_.size()));
  }
  int64_t total = 0;
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    auto entry_it = cache_.find(*it);
    if (entry_it == cache_.end()) {
      return AuditError("cache: lru entry missing from map");
    }
    if (entry_it->second.lru_it != it) {
      return AuditError("cache: entry lru iterator does not point back");
    }
    const Entry& entry = entry_it->second;
    if (entry.partition->num_rows() != static_cast<int64_t>(rel_.num_rows())) {
      return AuditError("cache: partition rows stale vs relation");
    }
    if (entry.bytes != FootprintBytes(*entry.partition)) {
      return AuditError("cache: charged " + std::to_string(entry.bytes) +
                        " bytes but footprint is " +
                        std::to_string(FootprintBytes(*entry.partition)));
    }
    total += entry.bytes;
  }
  if (total != bytes_) {
    return AuditError("cache: byte total " + std::to_string(bytes_) +
                      " != sum over entries " + std::to_string(total));
  }
  if (bytes_ > budget_bytes_) {
    return AuditError("cache: " + std::to_string(bytes_) +
                      " bytes exceeds budget " + std::to_string(budget_bytes_) +
                      " with " + std::to_string(cache_.size()) + " entries");
  }
  // Metrics consistency: the published gauges must mirror the counters on
  // every mutation — a stale gauge means some path skipped
  // PublishGaugesLocked.
  if (metrics_ != nullptr) {
    const MetricsSnapshot snap = metrics_->Snapshot();
    const auto expect_gauge = [&](const char* name, double want) -> bool {
      auto g = snap.gauges.find(name);
      return g != snap.gauges.end() && g->second == want;
    };
    if (!expect_gauge("partition_cache.bytes", static_cast<double>(bytes_)) ||
        !expect_gauge("partition_cache.entries",
                      static_cast<double>(cache_.size()))) {
      return AuditError(
          "cache: published partition_cache.* gauges are stale vs counters");
    }
  }
  return audit::internal::Counted(Status::Ok());
}

Status PartitionCache::AuditInvariants() const {
  MutexLock lock(mu_);
  return AuditInvariantsLocked();
}

}  // namespace fastofd
