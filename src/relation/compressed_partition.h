// Hybrid-compressed, immutable storage tier for stripped partitions.
//
// Every equivalence class is stored under the smallest of three codecs
// (Fulgor-style hybrid color-set encoding, mapped onto partition classes):
//
//   gap         delta-gap LEB128 varints — sparse classes whose row ids are
//               far apart (first row, then successive gaps minus one);
//   bitmap      one bit per id in [first, last] — mid-density classes where
//               span/8 bytes beats per-row gap bytes;
//   complement  delta-gap varints of the *absent* ids in (first, last) —
//               dense classes (near-runs) where the holes are few.
//
// The stream is append-only and classes decode strictly in order. A Cursor
// decodes one class at a time into a reusable buffer; that is all the
// compressed StrippedPartition::RefineInto needs, so a cold cached prefix
// refines by a column without ever materializing the flat arena. Decode()
// rebuilds the flat form byte-identically (same class order, same rows) for
// hot paths.
//
// Streams come only from Encode, so cursors never bounds-check on the hot
// path; the deep audit re-walks a stream with every varint, bound, and
// counter checked.

#ifndef FASTOFD_RELATION_COMPRESSED_PARTITION_H_
#define FASTOFD_RELATION_COMPRESSED_PARTITION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "relation/partition.h"
#include "relation/relation.h"

namespace fastofd {

class CompressedPartition {
 public:
  /// Per-class codec tags (two low bits of the class header varint).
  enum class Encoding : uint8_t { kGap = 0, kBitmap = 1, kComplement = 2 };

  CompressedPartition() = default;

  /// Encodes a flat partition. Class order and per-class row order are
  /// preserved, so Decode() round-trips byte-identically.
  static CompressedPartition Encode(const StrippedPartition& p);

  /// Rebuilds the flat partition (one linear pass over the stream).
  StrippedPartition Decode() const;

  /// Sequential class decoder. Usage:
  ///   for (Cursor c(part); c.Next();) use(c.rows());
  /// The span returned by rows() is valid until the next Next() call.
  class Cursor {
   public:
    explicit Cursor(const CompressedPartition& p)
        : pos_(p.stream_.data()), end_(p.stream_.data() + p.stream_.size()) {}

    /// Decodes the next class; false once the stream is exhausted.
    bool Next();

    /// The current class, strictly ascending row ids.
    RowSpan rows() const { return RowSpan(buf_.data(), buf_.size()); }

   private:
    const uint8_t* pos_;
    const uint8_t* end_;
    std::vector<RowId> buf_;
  };

  // Statistics mirrored from the flat form (so discovery-side pruning —
  // superkey / error / all-rows checks — never needs a decode).
  int64_t num_classes() const { return num_classes_; }
  int64_t sum_sizes() const { return sum_sizes_; }
  int64_t num_rows() const { return num_rows_; }
  int64_t error() const { return sum_sizes_ - num_classes_; }
  bool IsSuperkey() const { return num_classes_ == 0; }
  bool IsAllRowsClass() const {
    return num_classes_ == 1 && sum_sizes_ == num_rows_;
  }

  /// Encoded stream bytes — what the cache budget charges.
  int64_t EncodedBytes() const { return static_cast<int64_t>(stream_.size()); }

  /// Bytes the flat arena for this partition would occupy (rows + offsets),
  /// the compression-ratio denominator.
  int64_t FlatEquivalentBytes() const {
    const int64_t offsets = num_classes_ == 0 ? 0 : num_classes_ + 1;
    return sum_sizes_ * static_cast<int64_t>(sizeof(RowId)) +
           offsets * static_cast<int64_t>(sizeof(uint32_t));
  }

  /// Deep invariant audit (common/audit.h): re-walks the stream with full
  /// validation — decodable end to end, rows in [0, num_rows), strictly
  /// ascending within classes, pairwise disjoint, class sizes >= 2,
  /// counters consistent. Returns the first violation found.
  Status AuditInvariants() const;

 private:
  std::vector<uint8_t> stream_;  // The encoded classes.
  int64_t num_rows_ = 0;
  int64_t sum_sizes_ = 0;
  int64_t num_classes_ = 0;
};

}  // namespace fastofd

#endif  // FASTOFD_RELATION_COMPRESSED_PARTITION_H_
