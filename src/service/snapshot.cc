#include "service/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

#include "ofd/sigma_io.h"

namespace fastofd {
namespace {

// Hash64 loads words and ParseSnapshot copies columns straight from the
// little-endian image.
static_assert(std::endian::native == std::endian::little,
              "snapshot images are read in host byte order");

constexpr uint64_t kHashOffset = 14695981039346656037ull;  // FNV-1a basis.
constexpr uint64_t kFnvPrime = 1099511628211ull;           // Tail bytes.
constexpr uint64_t kWordPrime = 0x9E3779B97F4A7C15ull;     // Whole words.

// Fixed header: magic(8) + version(4) + reserved(4) + payload_size(8) +
// checksum(8).
constexpr size_t kHeaderSize = 32;

void AppendU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void AppendU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void AppendString(std::vector<uint8_t>* out, const std::string& s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}

void AppendStamp(std::vector<uint8_t>* out, const SourceStamp& stamp) {
  out->push_back(stamp.present ? 1 : 0);
  AppendU64(out, stamp.size);
  AppendU64(out, stamp.hash);
}

// Bounds-checked little-endian reader over the (untrusted) payload.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : pos_(data), end_(data + size) {}

  size_t remaining() const { return static_cast<size_t>(end_ - pos_); }

  bool ReadU8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = *pos_++;
    return true;
  }

  bool ReadU32(uint32_t* v) {
    if (remaining() < 4) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) *v |= static_cast<uint32_t>(pos_[i]) << (8 * i);
    pos_ += 4;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    if (remaining() < 8) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) *v |= static_cast<uint64_t>(pos_[i]) << (8 * i);
    pos_ += 8;
    return true;
  }

  bool ReadString(std::string* s) {
    uint32_t len = 0;
    if (!ReadU32(&len) || remaining() < len) return false;
    s->assign(reinterpret_cast<const char*>(pos_), len);
    pos_ += len;
    return true;
  }

  bool ReadStamp(SourceStamp* stamp) {
    uint8_t present = 0;
    if (!ReadU8(&present) || present > 1) return false;
    stamp->present = present != 0;
    return ReadU64(&stamp->size) && ReadU64(&stamp->hash);
  }

  // Copies `count` u32 cells in one go (image and host are little-endian).
  bool ReadU32s(size_t count, void* out) {
    if (remaining() / 4 < count) return false;
    if (count == 0) return true;  // `out` may be null.
    std::memcpy(out, pos_, count * 4);
    pos_ += count * 4;
    return true;
  }

 private:
  const uint8_t* pos_;
  const uint8_t* end_;
};

Status Malformed(const std::string& what) {
  return Status::Error("snapshot: " + what);
}

// The two step kinds of Hash64. Each is a bijection of `h` for a fixed
// input, so inputs that differ in exactly one word or tail byte never
// collide.
uint64_t HashWords(uint64_t h, const uint8_t* data, size_t num_words) {
  for (size_t i = 0; i < num_words; ++i) {
    uint64_t w = 0;
    std::memcpy(&w, data + 8 * i, 8);
    h = (h ^ w) * kWordPrime;
    h ^= h >> 29;
  }
  return h;
}

uint64_t HashTail(uint64_t h, const uint8_t* data, size_t size) {
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

uint64_t Hash64(const uint8_t* data, size_t size) {
  const size_t words = size / 8;
  return HashTail(HashWords(kHashOffset, data, words), data + 8 * words,
                  size % 8);
}

Result<SourceStamp> StampFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::Error("cannot read '" + path + "' for stamping");
  SourceStamp stamp;
  stamp.present = true;
  uint64_t h = kHashOffset;
  uint8_t buf[1 << 16];
  while (in) {
    // read() comes up short only at end of file, so only the last chunk
    // can end in tail bytes.
    in.read(reinterpret_cast<char*>(buf), sizeof(buf));
    const size_t got = static_cast<size_t>(in.gcount());
    stamp.size += got;
    h = HashTail(HashWords(h, buf, got / 8), buf + got / 8 * 8, got % 8);
  }
  stamp.hash = h;
  return stamp;
}

Result<std::unique_ptr<const MappedFile>> MappedFile::Open(
    const std::string& path) {
  std::unique_ptr<MappedFile> file(new MappedFile());
  const int fd = ::open(path.c_str(), O_RDONLY);  // NOLINT
  if (fd < 0) {
    return Status::Error("cannot open '" + path +
                         "': " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Error("cannot stat '" + path + "': " + std::strerror(err));
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size > 0) {
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      file->map_ = map;
      file->data_ = static_cast<const uint8_t*>(map);
      file->size_ = size;
    } else {
      // Filesystems without mmap support: fall back to a heap read.
      file->heap_.resize(size);
      size_t off = 0;
      while (off < size) {
        const ssize_t n =
            ::read(fd, file->heap_.data() + off, size - off);
        if (n <= 0) {
          ::close(fd);
          return Status::Error("short read of '" + path + "'");
        }
        off += static_cast<size_t>(n);
      }
      file->data_ = file->heap_.data();
      file->size_ = size;
    }
  }
  ::close(fd);
  return std::unique_ptr<const MappedFile>(std::move(file));
}

MappedFile::~MappedFile() {
  if (map_ != nullptr) ::munmap(map_, size_);
}

std::vector<uint8_t> BuildSnapshotImage(
    const Relation& rel, const Ontology& ontology, const SynonymIndex& index,
    const SigmaSet& sigma, const SourceStamp& data_stamp, const SourceStamp& ontology_stamp,
    const SourceStamp& sigma_stamp) {
  std::vector<uint8_t> payload;

  // [stamps]
  AppendStamp(&payload, data_stamp);
  AppendStamp(&payload, ontology_stamp);
  AppendStamp(&payload, sigma_stamp);

  // [schema]
  AppendU32(&payload, static_cast<uint32_t>(rel.num_attrs()));
  for (const std::string& name : rel.schema().names()) {
    AppendString(&payload, name);
  }

  // [dictionary] — the id-ordered string table.
  const Dictionary& dict = rel.dict();
  AppendU32(&payload, static_cast<uint32_t>(dict.size()));
  for (size_t v = 0; v < dict.size(); ++v) {
    AppendString(&payload, dict.String(static_cast<ValueId>(v)));
  }

  // [columns] — dictionary-coded, column-major.
  AppendU32(&payload, static_cast<uint32_t>(rel.num_rows()));
  for (AttrId a = 0; a < rel.num_attrs(); ++a) {
    for (ValueId v : rel.Column(a)) {
      AppendU32(&payload, static_cast<uint32_t>(v));
    }
  }

  // [ontology] — canonical text form (round-trips ParseOntology).
  AppendString(&payload, WriteOntology(ontology));

  // [synonym index] — both posting-list directions, so the open path can
  // cross-validate them instead of recompiling against the ontology.
  AppendU32(&payload, static_cast<uint32_t>(index.num_senses()));
  AppendU32(&payload, static_cast<uint32_t>(dict.size()));
  for (size_t v = 0; v < dict.size(); ++v) {
    const std::vector<SenseId>& senses =
        index.Senses(static_cast<ValueId>(v));
    AppendU32(&payload, static_cast<uint32_t>(senses.size()));
    for (SenseId s : senses) AppendU32(&payload, static_cast<uint32_t>(s));
  }
  for (SenseId s = 0; s < index.num_senses(); ++s) {
    const std::vector<ValueId>& values = index.SenseValues(s);
    AppendU32(&payload, static_cast<uint32_t>(values.size()));
    for (ValueId v : values) AppendU32(&payload, static_cast<uint32_t>(v));
  }

  // [sigma] — text form; empty string when no Σ was loaded.
  AppendString(&payload,
               sigma.empty() ? std::string() : WriteSigma(sigma, rel.schema()));

  // Header last: it needs the payload size and checksum.
  std::vector<uint8_t> image;
  image.reserve(kHeaderSize + payload.size());
  image.resize(8);
  std::memcpy(image.data(), kSnapshotMagic, 8);
  AppendU32(&image, kSnapshotVersion);
  AppendU32(&image, 0);  // Reserved.
  AppendU64(&image, payload.size());
  AppendU64(&image, Hash64(payload.data(), payload.size()));
  image.insert(image.end(), payload.begin(), payload.end());
  return image;
}

Result<SnapshotContents> ParseSnapshot(const uint8_t* data, size_t size) {
  if (size < kHeaderSize) return Malformed("shorter than the header");
  if (std::memcmp(data, kSnapshotMagic, 8) != 0) {
    return Malformed("bad magic");
  }
  Reader header(data + 8, kHeaderSize - 8);
  uint32_t version = 0;
  uint32_t reserved = 0;
  uint64_t payload_size = 0;
  uint64_t checksum = 0;
  header.ReadU32(&version);
  header.ReadU32(&reserved);
  header.ReadU64(&payload_size);
  header.ReadU64(&checksum);
  if (version != kSnapshotVersion) {
    return Malformed("format version " + std::to_string(version) +
                     " (this build reads " +
                     std::to_string(kSnapshotVersion) + ")");
  }
  if (payload_size != size - kHeaderSize) {
    return Malformed("payload size mismatch (truncated or padded file)");
  }
  const uint8_t* payload = data + kHeaderSize;
  if (Hash64(payload, payload_size) != checksum) {
    return Malformed("checksum mismatch (corrupted file)");
  }

  SnapshotContents out;
  Reader r(payload, payload_size);

  // [stamps]
  if (!r.ReadStamp(&out.data_stamp) || !r.ReadStamp(&out.ontology_stamp) ||
      !r.ReadStamp(&out.sigma_stamp)) {
    return Malformed("bad stamps section");
  }

  // [schema]
  uint32_t num_attrs = 0;
  if (!r.ReadU32(&num_attrs) || num_attrs == 0 || num_attrs > 64) {
    return Malformed("bad attribute count");
  }
  out.schema_names.reserve(num_attrs);
  for (uint32_t a = 0; a < num_attrs; ++a) {
    std::string name;
    if (!r.ReadString(&name)) return Malformed("bad schema section");
    out.schema_names.push_back(std::move(name));
  }

  // [dictionary]
  uint32_t num_values = 0;
  if (!r.ReadU32(&num_values) || num_values > r.remaining()) {
    // Each entry costs >= 4 bytes; `remaining` is a generous cap that
    // bounds the reserve below on fuzzed counts.
    return Malformed("bad dictionary count");
  }
  out.dict_strings.reserve(num_values);
  for (uint32_t v = 0; v < num_values; ++v) {
    std::string s;
    if (!r.ReadString(&s)) return Malformed("bad dictionary section");
    out.dict_strings.push_back(std::move(s));
  }

  // [columns]
  uint32_t num_rows = 0;
  if (!r.ReadU32(&num_rows) ||
      num_rows > static_cast<uint32_t>(std::numeric_limits<RowId>::max()) ||
      static_cast<uint64_t>(num_rows) * num_attrs * 4 > r.remaining()) {
    return Malformed("bad row count");
  }
  out.columns.resize(num_attrs);
  for (uint32_t a = 0; a < num_attrs; ++a) {
    std::vector<ValueId>& col = out.columns[a];
    col.resize(num_rows);
    if (!r.ReadU32s(num_rows, col.data())) return Malformed("bad columns section");
    for (ValueId v : col) {
      if (static_cast<uint32_t>(v) >= num_values) {
        return Malformed("column value outside dictionary");
      }
    }
  }

  // [ontology]
  if (!r.ReadString(&out.ontology_text)) {
    return Malformed("bad ontology section");
  }

  // [synonym index]
  uint32_t num_senses = 0;
  uint32_t index_values = 0;
  if (!r.ReadU32(&num_senses) || !r.ReadU32(&index_values) ||
      index_values != num_values || num_senses > r.remaining()) {
    return Malformed("bad synonym index header");
  }
  out.value_senses.resize(index_values);
  for (uint32_t v = 0; v < index_values; ++v) {
    uint32_t count = 0;
    if (!r.ReadU32(&count) || static_cast<uint64_t>(count) * 4 > r.remaining()) {
      return Malformed("bad value postings");
    }
    out.value_senses[v].reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      uint32_t s = 0;
      if (!r.ReadU32(&s)) return Malformed("bad value postings");
      if (s >= num_senses) return Malformed("sense id out of range");
      out.value_senses[v].push_back(static_cast<SenseId>(s));
    }
  }
  out.sense_values.resize(num_senses);
  for (uint32_t s = 0; s < num_senses; ++s) {
    uint32_t count = 0;
    if (!r.ReadU32(&count) || static_cast<uint64_t>(count) * 4 > r.remaining()) {
      return Malformed("bad sense postings");
    }
    out.sense_values[s].reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      uint32_t v = 0;
      if (!r.ReadU32(&v)) return Malformed("bad sense postings");
      if (v >= num_values) return Malformed("value id out of range");
      out.sense_values[s].push_back(static_cast<ValueId>(v));
    }
  }

  // [sigma]
  if (!r.ReadString(&out.sigma_text)) return Malformed("bad sigma section");

  if (r.remaining() != 0) return Malformed("trailing bytes after sections");
  return out;
}

Status WriteFileAtomic(const std::string& path,
                       const std::vector<uint8_t>& image) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream outf(tmp, std::ios::binary | std::ios::trunc);
    if (!outf) return Status::Error("cannot create '" + tmp + "'");
    outf.write(reinterpret_cast<const char*>(image.data()),
               static_cast<std::streamsize>(image.size()));
    if (!outf) {
      std::remove(tmp.c_str());
      return Status::Error("short write to '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Error("cannot rename '" + tmp + "' to '" + path + "'");
  }
  return Status::Ok();
}

}  // namespace fastofd
