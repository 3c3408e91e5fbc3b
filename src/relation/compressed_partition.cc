#include "relation/compressed_partition.h"

#include <string>
#include <utility>

#include "common/audit.h"
#include "common/check.h"

namespace fastofd {

namespace {

Status AuditError(const std::string& message) {
  return audit::internal::Counted(
      Status::Error("compressed partition audit: " + message));
}

// LEB128 varints. Encoded values are row deltas / spans, all < 2^32 in
// practice, but the helpers work on uint64_t so arithmetic never narrows
// before the range checks.
size_t VarintLen(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

void AppendVarint(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

// Unchecked read for streams Encode wrote (the Cursor hot path).
uint64_t ReadVarintFast(const uint8_t** pos) {
  uint64_t v = 0;
  int shift = 0;
  for (;;) {
    const uint8_t byte = *(*pos)++;
    v |= static_cast<uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) return v;
    shift += 7;
  }
}

// Bounds- and overflow-checked read for the audit walk.
bool ReadVarintChecked(const uint8_t** pos, const uint8_t* end, uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  while (*pos < end) {
    const uint8_t byte = *(*pos)++;
    if (shift > 63 || (shift == 63 && (byte >> 1) != 0)) return false;  // > 64 bits.
    v |= static_cast<uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) {
      *out = v;
      return true;
    }
    shift += 7;
  }
  return false;  // Ran off the end mid-varint.
}

// Encodes one class (strictly ascending rows, size >= 2) under the smallest
// of the three codecs.
void EncodeClass(RowSpan cls, std::vector<uint8_t>* out) {
  const uint64_t first = static_cast<uint64_t>(cls.front());
  const uint64_t last = static_cast<uint64_t>(cls.back());
  const uint64_t span = last - first + 1;
  const size_t size = cls.size();

  // Cost each codec exactly. The class header is identical for all three
  // (same size, tag bits never change the varint length), so it is omitted
  // from the comparison. Complement cost walks missing *runs*, not missing
  // values, so costing stays O(class size) even for huge sparse spans.
  uint64_t gap_cost = VarintLen(first);
  uint64_t comp_cost = VarintLen(first) + VarintLen(span);
  const uint64_t bitmap_cost = VarintLen(first) + VarintLen(span) + (span + 7) / 8;
  int64_t prev_missing = -1;  // -1: no missing value seen yet.
  for (size_t i = 1; i < size; ++i) {
    const uint64_t gap =
        static_cast<uint64_t>(cls[i]) - static_cast<uint64_t>(cls[i - 1]);
    gap_cost += VarintLen(gap - 1);
    if (gap > 1) {
      // Missing run (cls[i-1], cls[i]): first value delta-coded from the
      // previous missing value (or `first`), the rest are delta-1 bytes.
      const int64_t first_m = static_cast<int64_t>(cls[i - 1]) + 1;
      const int64_t base =
          prev_missing < 0 ? static_cast<int64_t>(first) : prev_missing;
      comp_cost += VarintLen(static_cast<uint64_t>(first_m - base - 1));
      comp_cost += gap - 2;  // In-run deltas are all 1 -> one byte each.
      prev_missing = static_cast<int64_t>(cls[i]) - 1;
    }
  }

  CompressedPartition::Encoding tag;
  if (gap_cost <= bitmap_cost && gap_cost <= comp_cost) {
    tag = CompressedPartition::Encoding::kGap;
  } else if (bitmap_cost <= comp_cost) {
    tag = CompressedPartition::Encoding::kBitmap;
  } else {
    tag = CompressedPartition::Encoding::kComplement;
  }

  AppendVarint(out, (static_cast<uint64_t>(size) << 2) |
                        static_cast<uint64_t>(tag));
  switch (tag) {
    case CompressedPartition::Encoding::kGap: {
      AppendVarint(out, first);
      for (size_t i = 1; i < size; ++i) {
        AppendVarint(out, static_cast<uint64_t>(cls[i]) -
                              static_cast<uint64_t>(cls[i - 1]) - 1);
      }
      break;
    }
    case CompressedPartition::Encoding::kBitmap: {
      AppendVarint(out, first);
      AppendVarint(out, span);
      const size_t base = out->size();
      out->resize(base + (span + 7) / 8, 0);
      for (RowId r : cls) {
        const uint64_t bit = static_cast<uint64_t>(r) - first;
        (*out)[base + (bit >> 3)] |= static_cast<uint8_t>(1u << (bit & 7));
      }
      break;
    }
    case CompressedPartition::Encoding::kComplement: {
      AppendVarint(out, first);
      AppendVarint(out, span);
      int64_t prev = -1;
      for (size_t i = 1; i < size; ++i) {
        const int64_t gap =
            static_cast<int64_t>(cls[i]) - static_cast<int64_t>(cls[i - 1]);
        if (gap <= 1) continue;
        const int64_t run_first = static_cast<int64_t>(cls[i - 1]) + 1;
        const int64_t base =
            prev < 0 ? static_cast<int64_t>(first) : prev;
        AppendVarint(out, static_cast<uint64_t>(run_first - base - 1));
        for (int64_t j = 1; j < gap - 1; ++j) AppendVarint(out, 0);
        prev = static_cast<int64_t>(cls[i]) - 1;
      }
      break;
    }
  }
}

}  // namespace

CompressedPartition CompressedPartition::Encode(const StrippedPartition& p) {
  CompressedPartition c;
  c.num_rows_ = p.num_rows();
  c.sum_sizes_ = p.sum_sizes();
  c.num_classes_ = p.num_classes();
  // Dense classes encode near 1 byte/row; reserve that and trim after.
  c.stream_.reserve(static_cast<size_t>(p.sum_sizes()) + 16);
  for (RowSpan cls : p.classes()) EncodeClass(cls, &c.stream_);
  c.stream_.shrink_to_fit();
  return c;
}

bool CompressedPartition::Cursor::Next() {
  if (pos_ >= end_) return false;
  const uint64_t header = ReadVarintFast(&pos_);
  const size_t size = static_cast<size_t>(header >> 2);
  buf_.resize(size);
  switch (static_cast<Encoding>(header & 3)) {
    case Encoding::kGap: {
      uint64_t cur = ReadVarintFast(&pos_);
      buf_[0] = static_cast<RowId>(cur);  // Encode wrote a row < num_rows.
      for (size_t i = 1; i < size; ++i) {
        cur += ReadVarintFast(&pos_) + 1;
        buf_[i] = static_cast<RowId>(cur);
      }
      break;
    }
    case Encoding::kBitmap: {
      const uint64_t first = ReadVarintFast(&pos_);
      const uint64_t span = ReadVarintFast(&pos_);
      size_t n = 0;
      for (uint64_t i = 0; i < span; ++i) {
        if ((pos_[i >> 3] >> (i & 7)) & 1u) {
          buf_[n++] = static_cast<RowId>(first + i);
        }
      }
      pos_ += (span + 7) / 8;
      break;
    }
    case Encoding::kComplement: {
      const uint64_t first = ReadVarintFast(&pos_);
      const uint64_t span = ReadVarintFast(&pos_);
      uint64_t remaining_missing = span - size;
      uint64_t next_missing =
          remaining_missing > 0 ? first + ReadVarintFast(&pos_) + 1 : ~0ull;
      size_t n = 0;
      for (uint64_t v = first; v < first + span; ++v) {
        if (v == next_missing) {
          --remaining_missing;
          next_missing = remaining_missing > 0
                             ? next_missing + ReadVarintFast(&pos_) + 1
                             : ~0ull;
        } else {
          buf_[n++] = static_cast<RowId>(v);
        }
      }
      break;
    }
    default:
      FASTOFD_CHECK(false);  // Encode never writes tag 3.
  }
  return true;
}

StrippedPartition CompressedPartition::Decode() const {
  StrippedPartition p;
  p.num_rows_ = num_rows_;
  if (num_classes_ == 0) return p;
  p.rows_.reserve(static_cast<size_t>(sum_sizes_));
  p.offsets_.reserve(static_cast<size_t>(num_classes_) + 1);
  p.offsets_.push_back(0);
  for (Cursor c(*this); c.Next();) {
    const RowSpan cls = c.rows();
    p.rows_.insert(p.rows_.end(), cls.begin(), cls.end());
    p.offsets_.push_back(static_cast<uint32_t>(p.rows_.size()));
  }
  return p;
}

Status CompressedPartition::AuditInvariants() const {
  const uint8_t* pos = stream_.data();
  const uint8_t* const end = pos + stream_.size();
  const uint64_t rows_bound = static_cast<uint64_t>(num_rows_);
  std::vector<char> seen(static_cast<size_t>(num_rows_), 0);
  int64_t classes = 0;
  int64_t total = 0;
  // Marks one decoded row: in range, unseen so far.
  auto mark = [&](uint64_t r) -> bool {
    if (r >= rows_bound || seen[static_cast<size_t>(r)] != 0) return false;
    seen[static_cast<size_t>(r)] = 1;
    return true;
  };
  while (pos < end) {
    uint64_t header = 0;
    if (!ReadVarintChecked(&pos, end, &header)) {
      return AuditError("truncated class header");
    }
    const uint64_t cls_size = header >> 2;
    const uint64_t tag = header & 3;
    if (cls_size < 2 || static_cast<int64_t>(cls_size) > sum_sizes_ - total) {
      return AuditError("class size " + std::to_string(cls_size) +
                        " out of range at class " + std::to_string(classes));
    }
    uint64_t first = 0;
    if (!ReadVarintChecked(&pos, end, &first) || first >= rows_bound) {
      return AuditError("bad first row at class " + std::to_string(classes));
    }
    if (tag == static_cast<uint64_t>(Encoding::kGap)) {
      if (!mark(first)) return AuditError("row reuse in gap class");
      uint64_t cur = first;
      for (uint64_t i = 1; i < cls_size; ++i) {
        uint64_t delta = 0;
        if (!ReadVarintChecked(&pos, end, &delta) || delta >= rows_bound) {
          return AuditError("bad gap at class " + std::to_string(classes));
        }
        cur += delta + 1;
        if (!mark(cur)) {
          return AuditError("gap row out of range or reused at class " +
                            std::to_string(classes));
        }
      }
    } else if (tag == static_cast<uint64_t>(Encoding::kBitmap)) {
      uint64_t span = 0;
      if (!ReadVarintChecked(&pos, end, &span) || span < cls_size ||
          span > rows_bound - first) {
        return AuditError("bad bitmap span at class " + std::to_string(classes));
      }
      const uint64_t nbytes = (span + 7) / 8;
      if (static_cast<uint64_t>(end - pos) < nbytes) {
        return AuditError("truncated bitmap at class " + std::to_string(classes));
      }
      uint64_t n = 0;
      for (uint64_t i = 0; i < span; ++i) {
        if ((pos[i >> 3] >> (i & 7)) & 1u) {
          ++n;
          if (!mark(first + i)) return AuditError("row reuse in bitmap class");
        }
      }
      // Bits beyond `span` in the last byte must be clear (canonical form).
      for (uint64_t i = span; i < nbytes * 8; ++i) {
        if ((pos[i >> 3] >> (i & 7)) & 1u) {
          return AuditError("trailing bitmap bits set at class " +
                            std::to_string(classes));
        }
      }
      if (n != cls_size) {
        return AuditError("bitmap popcount " + std::to_string(n) +
                          " != class size " + std::to_string(cls_size));
      }
      pos += nbytes;
    } else if (tag == static_cast<uint64_t>(Encoding::kComplement)) {
      uint64_t span = 0;
      if (!ReadVarintChecked(&pos, end, &span) || span < cls_size ||
          span > rows_bound - first) {
        return AuditError("bad complement span at class " +
                          std::to_string(classes));
      }
      // Same merge walk as the cursor, with checked reads: holes (which may
      // legitimately be rows of *other* classes) are skipped, every present
      // position is marked.
      uint64_t remaining = span - cls_size;
      uint64_t next_miss = ~0ull;
      if (remaining > 0) {
        uint64_t delta = 0;
        if (!ReadVarintChecked(&pos, end, &delta)) {
          return AuditError("truncated complement deltas");
        }
        next_miss = first + delta + 1;
        if (next_miss >= first + span) {
          return AuditError("complement hole outside span at class " +
                            std::to_string(classes));
        }
      }
      for (uint64_t v = first; v < first + span; ++v) {
        if (v == next_miss) {
          --remaining;
          if (remaining > 0) {
            uint64_t delta = 0;
            if (!ReadVarintChecked(&pos, end, &delta)) {
              return AuditError("truncated complement deltas");
            }
            next_miss += delta + 1;
            if (next_miss >= first + span) {
              return AuditError("complement hole outside span at class " +
                                std::to_string(classes));
            }
          } else {
            next_miss = ~0ull;
          }
        } else if (!mark(v)) {
          return AuditError("row reuse in complement class");
        }
      }
    } else {
      return AuditError("unknown codec tag at class " + std::to_string(classes));
    }
    ++classes;
    total += static_cast<int64_t>(cls_size);
  }
  if (classes != num_classes_) {
    return AuditError("stream holds " + std::to_string(classes) +
                      " classes, header says " + std::to_string(num_classes_));
  }
  if (total != sum_sizes_) {
    return AuditError("stream holds " + std::to_string(total) +
                      " rows, header says " + std::to_string(sum_sizes_));
  }
  return audit::internal::Counted(Status::Ok());
}

}  // namespace fastofd
