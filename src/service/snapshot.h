// Versioned, checksummed, memory-mappable images of compiled sessions.
//
// Opening a session cold pays CSV parsing, dictionary interning, and
// ontology index compilation. A snapshot persists the *compiled* artifacts —
// schema, dictionary table, dictionary-coded columns, ontology text,
// SynonymIndex posting lists, and Σ text — so a later open is one mmap plus
// validation instead of a recompile. Partitions are not stored: the
// incremental verifier builds its Π_lhs groups from the columns, and the
// partition cache builds the rest on demand. See docs/snapshot-format.md
// for the byte layout.
//
// Integrity model: the fixed header carries a magic, a format version, and
// a Hash64 checksum over the whole payload. ParseSnapshot rejects bad
// magic, version mismatches, truncation, checksum failures, and any
// structurally invalid section (the loader treats the file as untrusted
// input — it is fuzzed via fuzz/fuzz_snapshot.cc) and copies every section
// out of the image, so nothing it returns points into the file.
//
// Staleness model: the image records a (size, Hash64) stamp of each
// source file it was compiled from. Session::OpenFromSnapshot re-stamps the
// sources and refuses the snapshot when any stamp disagrees, so an edited
// CSV or ontology can never serve stale compiled state.

#ifndef FASTOFD_SERVICE_SNAPSHOT_H_
#define FASTOFD_SERVICE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/dictionary.h"
#include "common/status.h"
#include "ofd/ofd.h"
#include "ontology/ontology.h"
#include "ontology/synonym_index.h"
#include "relation/relation.h"

namespace fastofd {

/// Current snapshot format version. Bump on any layout change; readers
/// refuse every other version (no cross-version migration — a mismatch just
/// falls back to a cold compile).
inline constexpr uint32_t kSnapshotVersion = 3;

/// The 8-byte magic that opens every snapshot file.
inline constexpr char kSnapshotMagic[8] = {'F', 'O', 'F', 'D',
                                           'S', 'N', 'A', 'P'};

/// The snapshot checksum and source-stamp hash, a word at a time: starting
/// from the FNV-1a offset basis, each 8-byte little-endian word `w` steps
/// `h = (h ^ w) * 0x9E3779B97F4A7C15; h ^= h >> 29`, and the 0-7 tail bytes
/// take FNV-1a steps. Every step is a bijection of `h`, so a change confined
/// to one word or one tail byte is always detected.
uint64_t Hash64(const uint8_t* data, size_t size);

/// Identity stamp of a source file: byte size + content hash.
struct SourceStamp {
  bool present = false;
  uint64_t size = 0;
  uint64_t hash = 0;  // Hash64 of the contents.

  friend bool operator==(const SourceStamp& a, const SourceStamp& b) {
    return a.present == b.present && a.size == b.size && a.hash == b.hash;
  }
};

/// Stamps a file on disk (present=true), streaming it through Hash64 in
/// 64 KiB reads. Fails if unreadable.
Result<SourceStamp> StampFile(const std::string& path);

/// A read-only file image: mmap'd when the platform allows, heap-read
/// otherwise.
class MappedFile {
 public:
  static Result<std::unique_ptr<const MappedFile>> Open(
      const std::string& path);

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool is_mapped() const { return map_ != nullptr; }

 private:
  MappedFile() = default;

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  void* map_ = nullptr;         // Non-null iff mmap succeeded.
  std::vector<uint8_t> heap_;   // Fallback image when not mapped.
};

/// Everything ParseSnapshot recovers from an image.
struct SnapshotContents {
  std::vector<std::string> schema_names;
  std::vector<std::string> dict_strings;
  std::vector<std::vector<ValueId>> columns;
  std::string ontology_text;
  std::vector<std::vector<SenseId>> value_senses;
  std::vector<std::vector<ValueId>> sense_values;
  std::string sigma_text;  // Empty iff no Σ was stored.
  SourceStamp data_stamp;
  SourceStamp ontology_stamp;
  SourceStamp sigma_stamp;
};

/// Parses and fully validates a snapshot image: header (magic, version,
/// size), payload checksum, then every section. Treats `data` as untrusted;
/// the result owns copies of everything it holds.
Result<SnapshotContents> ParseSnapshot(const uint8_t* data, size_t size);

/// Serializes a compiled session into a snapshot image (header included).
std::vector<uint8_t> BuildSnapshotImage(
    const Relation& rel, const Ontology& ontology, const SynonymIndex& index,
    const SigmaSet& sigma, const SourceStamp& data_stamp,
    const SourceStamp& ontology_stamp, const SourceStamp& sigma_stamp);

/// Writes `image` to a sibling temp file, then renames it over `path`, so
/// readers never observe a partial snapshot. Nothing is fsync'd: after a
/// crash the image may be torn, which fails the checksum, and the load
/// falls back to a cold compile.
Status WriteFileAtomic(const std::string& path,
                       const std::vector<uint8_t>& image);

}  // namespace fastofd

#endif  // FASTOFD_SERVICE_SNAPSHOT_H_
