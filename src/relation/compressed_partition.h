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
// A CompressedPartition either owns its stream (Encode) or is a non-owning
// view over external bytes (FromBytes over a memory-mapped snapshot, kept
// alive via a shared backing handle). FromBytes fully validates untrusted
// input — every varint, bound, and counter — before handing out a view, so
// cursors never have to bounds-check on the hot path.

#ifndef FASTOFD_RELATION_COMPRESSED_PARTITION_H_
#define FASTOFD_RELATION_COMPRESSED_PARTITION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
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

  /// Parses one serialized partition (as written by AppendTo) from an
  /// untrusted buffer. On success the returned partition *views* the input
  /// bytes — `backing` keeps the buffer (e.g. a snapshot mapping) alive —
  /// and `*consumed` is the total bytes read. The stream is fully validated:
  /// rows in [0, max_rows), strictly ascending within classes, pairwise
  /// disjoint, class sizes >= 2, counters consistent.
  static Result<CompressedPartition> FromBytes(const uint8_t* data, size_t size,
                                               int64_t max_rows,
                                               std::shared_ptr<const void> backing,
                                               size_t* consumed);

  /// Appends the wire form: u64 num_rows / sum_sizes / num_classes /
  /// stream_size (little-endian) followed by the encoded stream.
  void AppendTo(std::vector<uint8_t>* out) const;

  /// Sequential class decoder. Usage:
  ///   for (Cursor c(part); c.Next();) use(c.rows());
  /// The span returned by rows() is valid until the next Next() call.
  class Cursor {
   public:
    explicit Cursor(const CompressedPartition& p)
        : pos_(p.data()), end_(p.data() + p.stream_size()) {}

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

  /// Encoded stream bytes (owned or viewed) — what the cache budget charges.
  int64_t EncodedBytes() const { return static_cast<int64_t>(stream_size()); }

  /// Bytes the flat arena for this partition would occupy (rows + offsets),
  /// the compression-ratio denominator.
  int64_t FlatEquivalentBytes() const {
    const int64_t offsets = num_classes_ == 0 ? 0 : num_classes_ + 1;
    return sum_sizes_ * static_cast<int64_t>(sizeof(RowId)) +
           offsets * static_cast<int64_t>(sizeof(uint32_t));
  }

  bool IsView() const { return backing_ != nullptr; }

  /// Deep invariant audit (common/audit.h): re-walks the stream with full
  /// validation (the FromBytes checks) — decodable end to end, rows in
  /// range, ascending, disjoint, counters consistent. Returns the first
  /// violation found.
  Status AuditInvariants() const;

 private:
  const uint8_t* data() const {
    return view_data_ != nullptr ? view_data_ : owned_.data();
  }
  size_t stream_size() const {
    return view_data_ != nullptr ? view_size_ : owned_.size();
  }

  // Validates `data[0, size)` as an encoded stream against the counters;
  // shared by FromBytes and AuditInvariants.
  static Status ValidateStream(const uint8_t* data, size_t size,
                               int64_t num_rows, int64_t sum_sizes,
                               int64_t num_classes);

  std::vector<uint8_t> owned_;          // Encoded stream when owning.
  const uint8_t* view_data_ = nullptr;  // Non-null when viewing external bytes.
  size_t view_size_ = 0;
  std::shared_ptr<const void> backing_;  // Keeps viewed bytes alive.
  int64_t num_rows_ = 0;
  int64_t sum_sizes_ = 0;
  int64_t num_classes_ = 0;
};

}  // namespace fastofd

#endif  // FASTOFD_RELATION_COMPRESSED_PARTITION_H_
