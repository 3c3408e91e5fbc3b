// Stripped-partition algebra (TANE-style) on a flat arena layout.
//
// A partition Π_X groups tuples with equal X-values into equivalence
// classes; the *stripped* partition Π*_X drops singleton classes, which can
// never violate an FD or OFD (paper Lemma 3.8 / Opt-4 context). A lattice
// node X∪{a,b} is its smaller parent refined by the other parent's column
// (LatticeChild), so level-wise lattice search costs O(rows) per node;
// Product keeps the linear probe-table algorithm for arbitrary operand pairs.
//
// Memory layout: one contiguous RowId buffer holding every class's rows
// back to back, plus a class-offset array (class i spans
// rows[offsets[i], offsets[i+1])). No per-class heap allocation, cache-line
// friendly scans, and a PartitionScratch probe table that lets
// IntersectInto/RefineInto run with zero allocations in steady state. See
// docs/architecture.md ("Flat partition kernels") for the full picture.

#ifndef FASTOFD_RELATION_PARTITION_H_
#define FASTOFD_RELATION_PARTITION_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "relation/attr_set.h"
#include "relation/relation.h"

namespace fastofd {

/// Read-only view of one equivalence class: a contiguous, strictly
/// ascending run of row ids inside a partition's arena. Implicitly
/// convertible from std::vector<RowId> so callers holding materialized row
/// lists (e.g. the incremental verifier's group maps) use the same APIs.
class RowSpan {
 public:
  constexpr RowSpan() = default;
  // explicit so a braced list like {0, 1} cannot silently bind its leading
  // literal 0 as a null data pointer.
  explicit constexpr RowSpan(const RowId* data, size_t size)
      : data_(data), size_(size) {}
  // NOLINTNEXTLINE(google-explicit-constructor): spans stand in for vectors.
  RowSpan(const std::vector<RowId>& rows) : data_(rows.data()), size_(rows.size()) {}

  const RowId* begin() const { return data_; }
  const RowId* end() const { return data_ + size_; }
  const RowId* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  RowId operator[](size_t i) const { return data_[i]; }
  RowId front() const { return data_[0]; }
  RowId back() const { return data_[size_ - 1]; }

 private:
  const RowId* data_ = nullptr;
  size_t size_ = 0;
};

/// Iterable view over a flat partition's classes; `for (RowSpan cls : view)`
/// plus size()/operator[] so existing call sites read naturally.
class ClassesView {
 public:
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = RowSpan;
    using difference_type = std::ptrdiff_t;
    using pointer = const RowSpan*;
    using reference = RowSpan;

    Iterator(const RowId* rows, const uint32_t* offsets) : rows_(rows), offsets_(offsets) {}
    RowSpan operator*() const {
      return RowSpan(rows_ + offsets_[0], offsets_[1] - offsets_[0]);
    }
    Iterator& operator++() {
      ++offsets_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator tmp = *this;
      ++offsets_;
      return tmp;
    }
    bool operator==(const Iterator& o) const { return offsets_ == o.offsets_; }
    bool operator!=(const Iterator& o) const { return offsets_ != o.offsets_; }

   private:
    const RowId* rows_;
    const uint32_t* offsets_;
  };

  ClassesView(const RowId* rows, const uint32_t* offsets, size_t num_classes)
      : rows_(rows), offsets_(offsets), num_classes_(num_classes) {}

  size_t size() const { return num_classes_; }
  bool empty() const { return num_classes_ == 0; }
  RowSpan operator[](size_t i) const {
    return RowSpan(rows_ + offsets_[i], offsets_[i + 1] - offsets_[i]);
  }
  RowSpan front() const { return (*this)[0]; }
  RowSpan back() const { return (*this)[num_classes_ - 1]; }
  Iterator begin() const { return Iterator(rows_, offsets_); }
  Iterator end() const { return Iterator(rows_, offsets_ + num_classes_); }

 private:
  const RowId* rows_;
  const uint32_t* offsets_;
  size_t num_classes_;
};

/// Reusable probe-table scratch for the partition kernels. One scratch per
/// thread: after warm-up, IntersectInto/RefineInto/HistogramInto allocate
/// nothing. StrippedPartition::ThreadLocalScratch() hands out a per-thread
/// instance for call sites without their own.
///
/// Internals (all lazily grown, reset between calls by touched-lists so no
/// O(capacity) clears happen on the hot path):
///   probe      row -> class index in the probe-side partition, -1 if the
///              row is stripped there (singleton).
///   counts     per group key (a probe-side class index, or a ValueId when
///              refining by a column): rows seen in the current class.
///   slot       per group key: output write cursor, -1 = dropped.
///   touched    the keys the current class hit, in first-touch order.
class PartitionScratch {
 public:
  PartitionScratch() = default;
  PartitionScratch(const PartitionScratch&) = delete;
  PartitionScratch& operator=(const PartitionScratch&) = delete;

 private:
  friend class StrippedPartition;

  void EnsureRows(size_t num_rows) {
    if (probe_.size() < num_rows) probe_.resize(num_rows, -1);
  }
  void EnsureKeys(size_t num_keys) {
    if (counts_.size() < num_keys) {
      counts_.resize(num_keys, 0);
      slot_.resize(num_keys, -1);
    }
  }

  std::vector<int32_t> probe_;
  std::vector<int32_t> counts_;
  std::vector<int32_t> slot_;
  std::vector<int32_t> touched_;
};

/// Per-class value histogram of a partition over one column
/// (StrippedPartition::HistogramInto): class i's distinct values and their
/// row counts occupy slots[offsets[i], offsets[i+1]), in first-touch (first
/// row) order, so building it never sorts.
struct ClassHistogram {
  struct Slot {
    ValueId value = kInvalidValue;
    int32_t count = 0;
  };

  std::vector<Slot> slots;
  // num_classes + 1 entries starting at 0 (just {0} for no classes).
  std::vector<uint32_t> offsets;

  size_t num_classes() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  std::span<const Slot> Class(size_t i) const {
    return std::span<const Slot>(slots).subspan(offsets[i], offsets[i + 1] - offsets[i]);
  }
};

/// A stripped partition: equivalence classes of size >= 2 over some
/// attribute set, stored as a flat arena (rows buffer + class offsets),
/// plus the statistics discovery algorithms need.
class StrippedPartition {
 public:
  /// Builds the stripped partition for a single attribute (counting sort
  /// over the dense dictionary codes, emitted straight into the arena).
  static StrippedPartition Build(const Relation& rel, AttrId attr);

  /// Builds the stripped partition for an attribute set by refining the
  /// first attribute's partition with each remaining column.
  /// For an empty set, returns the single all-rows class (if rows >= 2).
  static StrippedPartition BuildForSet(const Relation& rel, AttrSet attrs);

  /// Product Π*_X · Π*_Y via the probe-table algorithm (linear in the
  /// stripped sizes of the operands). Convenience wrapper over
  /// IntersectInto using the thread-local scratch.
  static StrippedPartition Product(const StrippedPartition& a,
                                   const StrippedPartition& b);

  /// Core intersection kernel: computes a·b into `out` (which may be
  /// reused across calls — its arena capacity is retained). Probes from the
  /// smaller side, short-circuits superkeys and all-rows operands, and
  /// performs zero allocations once `scratch` and `out` are warm.
  static void IntersectInto(const StrippedPartition& a, const StrippedPartition& b,
                            PartitionScratch* scratch, StrippedPartition* out);

  /// Refines `a` in place by a dictionary-coded column: equivalent to
  /// Product(a, Build(rel, attr)) but never materializes the column's own
  /// partition. `num_values` bounds the column's value ids (dict size).
  static void RefineInto(const StrippedPartition& a, const std::vector<ValueId>& column,
                         size_t num_values, PartitionScratch* scratch,
                         StrippedPartition* out);

  /// Convenience wrapper over RefineInto with the thread-local scratch.
  static StrippedPartition Refine(const StrippedPartition& a, const Relation& rel,
                                  AttrId attr);

  /// The lattice step X∪{a}, X∪{b} -> X∪{a,b}: given `left` = Π*_{X∪{a}}
  /// with a = `left_only` and `right` = Π*_{X∪{b}} with b = `right_only`,
  /// refines the parent with the smaller arena by the other parent's own
  /// column (the left parent on a tie). One arena walk, no probe table;
  /// the classes equal Product(left, right) up to class order.
  static StrippedPartition LatticeChild(const Relation& rel,
                                        const StrippedPartition& left, AttrId left_only,
                                        const StrippedPartition& right,
                                        AttrId right_only);

  /// Tallies every class of `a` by its value in `column` into `out` (reused
  /// across calls): the count loop behind RefineInto, but emitting each
  /// class's (value, count) slots instead of its refined row groups.
  /// `num_values` bounds the column's value ids (dict size).
  static void HistogramInto(const StrippedPartition& a,
                            const std::vector<ValueId>& column, size_t num_values,
                            PartitionScratch* scratch, ClassHistogram* out);

  /// HistogramInto for one class: appends the (value, count) slots of `cls`
  /// to `out`, in first-row order.
  static void HistogramClass(RowSpan cls, const std::vector<ValueId>& column,
                             size_t num_values, PartitionScratch* scratch,
                             std::vector<ClassHistogram::Slot>* out);

  /// The stripped partition of a superkey: no classes at all.
  static StrippedPartition Empty(int64_t num_rows) {
    StrippedPartition p;
    p.num_rows_ = num_rows;
    return p;
  }

  /// Per-thread PartitionScratch for the wrapper entry points; reusing it
  /// across calls is what makes Product/Refine allocation-free in steady
  /// state on every worker thread.
  static PartitionScratch& ThreadLocalScratch();

  /// Equivalence classes (row ids, ascending within a class); all sizes
  /// >= 2. Returns a lightweight view over the arena.
  ClassesView classes() const {
    return ClassesView(rows_.data(), offsets_.data(), NumClassesSize());
  }

  /// Class `i` as a span over the arena.
  RowSpan Class(size_t i) const { return classes()[i]; }

  /// The arena itself: every row of every class, class by class.
  RowSpan rows() const { return RowSpan(rows_.data(), rows_.size()); }

  /// Number of non-singleton classes, |Π*|.
  int64_t num_classes() const { return static_cast<int64_t>(NumClassesSize()); }

  /// Sum of class sizes, ||Π*||.
  int64_t sum_sizes() const { return static_cast<int64_t>(rows_.size()); }

  /// Total rows in the underlying relation.
  int64_t num_rows() const { return num_rows_; }

  /// TANE error e(X) = ||Π*|| - |Π*|: the minimum number of tuples to remove
  /// to make X a (super)key. 0 iff X is a superkey.
  int64_t error() const { return sum_sizes() - num_classes(); }

  /// Cardinality of the *full* partition |Π_X| (counting singletons).
  int64_t full_num_classes() const {
    return num_classes() + (num_rows_ - sum_sizes());
  }

  /// True iff X is a superkey (no class of size >= 2 remains).
  bool IsSuperkey() const { return rows_.empty(); }

  /// True iff this is the single all-rows class (the empty attribute set's
  /// partition) — the identity of the product.
  bool IsAllRowsClass() const {
    return num_classes() == 1 && sum_sizes() == num_rows_;
  }

  /// Releases excess arena capacity (shrink-to-fit). The cache compacts
  /// entries before charging them so the budget pays for rows actually
  /// held, not the kernels' growth high-water mark.
  void Compact() {
    rows_.shrink_to_fit();
    offsets_.shrink_to_fit();
  }

  /// Heap bytes actually allocated by the arena (vector capacities, not
  /// element counts) — what PartitionCache charges against its budget.
  int64_t AllocatedBytes() const {
    return static_cast<int64_t>(rows_.capacity() * sizeof(RowId)) +
           static_cast<int64_t>(offsets_.capacity() * sizeof(uint32_t));
  }

  /// Deep invariant audit (common/audit.h): the flat layout is well formed
  /// (offsets ascending with gaps >= 2, covering the arena exactly), classes
  /// are pairwise disjoint, internally sorted, agreeing on every attribute
  /// of `attrs`, with consistent counters; on relations at or below
  /// audit::kDeepAuditMaxRows rows, additionally cross-checked class-by-
  /// class against a naive rebuild — which re-validates the Build/Intersect/
  /// Refine fold this partition came from. Returns the first violation.
  Status AuditInvariants(const Relation& rel, AttrSet attrs) const;

  /// The flat-layout audit body, exposed on raw parts so tests can feed
  /// corrupted arenas and assert the violation is detected.
  static Status AuditFlatParts(const std::vector<RowId>& rows,
                               const std::vector<uint32_t>& offsets, int64_t num_rows);

  /// The class-structure audit body on materialized classes, kept for tests
  /// that corrupt individual classes (and reused by AuditInvariants).
  static Status AuditStrippedPartitionParts(
      const Relation& rel, AttrSet attrs,
      const std::vector<std::vector<RowId>>& classes, int64_t sum_sizes,
      int64_t num_rows);

  /// Materializes the classes as vectors (audits and tests only — the hot
  /// path never leaves the arena).
  std::vector<std::vector<RowId>> ToClassVectors() const;

 private:
  size_t NumClassesSize() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  // The one emission loop behind every kernel. For each class of `classes`
  // it groups the rows by `key(row)` (a probe-side class index or a
  // ValueId; negative = stripped row) and appends every group of size >= 2
  // to rows/offsets, in first-touch order. A 2-row class (most classes of a
  // deep lattice node) skips the count/slot/scatter tables: it is appended
  // whole iff its two keys are equal and non-negative, which is what the
  // tables would emit. The leading 0 of `offsets` is pushed with the first
  // emitted class. The caller sizes the key range with scratch->EnsureKeys
  // first.
  template <typename Key>
  static void EmitGroups(const ClassesView& classes, Key key, PartitionScratch* scratch,
                         std::vector<RowId>* rows, std::vector<uint32_t>* offsets);

  // rows_ holds every class back to back; class i spans
  // rows_[offsets_[i], offsets_[i+1]). offsets_ is empty when there are no
  // classes, else has num_classes + 1 entries starting at 0.
  std::vector<RowId> rows_;
  std::vector<uint32_t> offsets_;
  int64_t num_rows_ = 0;
};

/// True iff the FD X -> A holds, given Π*_X and Π*_{X ∪ A}.
/// (TANE: the FD holds iff both partitions have equal error.)
inline bool FdHolds(const StrippedPartition& x, const StrippedPartition& xa) {
  return x.error() == xa.error();
}

class MetricsRegistry;  // common/metrics.h

/// Memory-budgeted LRU store of stripped partitions keyed by attribute set,
/// shared across the verify and clean phases (and, via
/// `FastOfdConfig::partitions`, the base partitions of discovery).
///
/// A miss builds Π*_attrs with StrippedPartition::BuildForSet, so cached and
/// uncached callers see byte-identical partitions. Over budget, entries are
/// evicted from the LRU end.
///
/// Entries are charged by a full footprint: the partition's allocated bytes
/// plus the fixed per-entry bookkeeping (hash-map node, LRU list node,
/// shared_ptr control block — see EntryOverheadBytes). Get() returns a
/// shared_ptr so a caller can keep using a partition after it has been
/// evicted; re-fetching an evicted set simply recomputes it (a miss).
/// Thread-safe: an annotated mutex guards the map; partition computation
/// happens outside the lock.
///
/// Hit/miss/eviction counts and the current byte footprint are recorded in
/// an optional MetricsRegistry under `partition_cache.*`; gauges are
/// republished on every mutation and the audit asserts they match the
/// internal counters.
class PartitionCache {
 public:
  static constexpr int64_t kUnbounded = std::numeric_limits<int64_t>::max();

  explicit PartitionCache(const Relation& rel,
                          int64_t budget_bytes = kUnbounded,
                          MetricsRegistry* metrics = nullptr);

  /// Returns the stripped partition for `attrs`, building (and caching) it
  /// on a miss. A partition whose footprint alone exceeds the budget is
  /// returned but not retained. The build runs unlocked.
  std::shared_ptr<const StrippedPartition> Get(AttrSet attrs) EXCLUDES(mu_);

  /// Heap footprint of a cached partition, in bytes: the object header, the
  /// arena's allocated (capacity) bytes, and the per-entry bookkeeping
  /// overhead.
  static int64_t FootprintBytes(const StrippedPartition& p);

  /// Fixed bookkeeping bytes charged per entry on top of the partition
  /// itself: the hash-map node (key + entry + chain pointer + cached hash),
  /// the LRU list node, and the shared_ptr control block.
  static int64_t EntryOverheadBytes();

  void Clear() EXCLUDES(mu_);

  /// Drops every cached entry whose attribute set intersects `touched`;
  /// returns the number dropped. Called after cell updates mutate the
  /// relation so stale partitions are recomputed on next Get while
  /// partitions over untouched attributes stay warm.
  size_t Invalidate(AttrSet touched) EXCLUDES(mu_);

  size_t size() const EXCLUDES(mu_);
  /// Current total footprint of the cached entries, in bytes.
  int64_t bytes() const EXCLUDES(mu_);
  int64_t budget_bytes() const { return budget_bytes_; }

  int64_t hits() const EXCLUDES(mu_);
  int64_t misses() const EXCLUDES(mu_);
  int64_t evictions() const EXCLUDES(mu_);

  /// Accounting audit (common/audit.h): the LRU list and map mirror each
  /// other exactly, every entry's charged bytes match a recomputed
  /// footprint, the byte total matches the sum over entries, the budget is
  /// respected, and the published `partition_cache.*` gauges agree with the
  /// internal counters. Returns the first violation found.
  Status AuditInvariants() const EXCLUDES(mu_);

 private:
  struct Entry {
    std::shared_ptr<const StrippedPartition> partition;
    int64_t bytes = 0;
    std::list<AttrSet>::iterator lru_it;  // Position in lru_ (front = MRU).
  };

  // Evicts from the LRU end until the footprint fits the budget.
  void EvictToBudgetLocked() REQUIRES(mu_);
  void PublishGaugesLocked() REQUIRES(mu_);
  Status AuditInvariantsLocked() const REQUIRES(mu_);

  const Relation& rel_;
  const int64_t budget_bytes_;
  MetricsRegistry* const metrics_;

  // mu_ is held only around map/LRU bookkeeping; partition builds run
  // unlocked. The MetricsRegistry's internal lock is the one lock
  // legitimately taken under mu_ (PublishGaugesLocked).
  mutable Mutex mu_;
  std::list<AttrSet> lru_ GUARDED_BY(mu_);  // Front = most recently used.
  std::unordered_map<AttrSet, Entry, AttrSetHash> cache_ GUARDED_BY(mu_);
  int64_t bytes_ GUARDED_BY(mu_) = 0;
  int64_t hits_ GUARDED_BY(mu_) = 0;
  int64_t misses_ GUARDED_BY(mu_) = 0;
  int64_t evictions_ GUARDED_BY(mu_) = 0;
};

}  // namespace fastofd

#endif  // FASTOFD_RELATION_PARTITION_H_
