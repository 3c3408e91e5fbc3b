// Snapshot format tests: a written image reopens byte-for-byte equivalent
// to the cold-compiled session (deep-audited, and property-checked through
// verify/discover parity), truncated or bit-flipped images are rejected by
// the checksum, out-of-dictionary cells are refused, other format versions
// are refused, and stale source stamps (same-size edits included) force a
// cold compile. The server-level test drives the same guarantees
// through `load` with --snapshot-dir.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/metrics.h"
#include "datagen/datagen.h"
#include "ofd/sigma_io.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/session.h"
#include "service/snapshot.h"

namespace fastofd {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* t = std::getenv("TMPDIR");
    dir_ = (t ? t : "/tmp");
    // Per process, so concurrent runs of the suite never share files.
    dir_ += "/fastofd_snapshot_test_" + std::to_string(getpid());
    ASSERT_EQ(std::system(("rm -rf " + dir_ + " && mkdir -p " + dir_).c_str()),
              0);
    DataGenConfig cfg;
    cfg.num_rows = 400;
    cfg.error_rate = 0.05;
    cfg.seed = 13;
    GeneratedData data = GenerateData(cfg);
    data_path_ = dir_ + "/d.csv";
    ontology_path_ = dir_ + "/o.txt";
    sigma_path_ = dir_ + "/s.txt";
    snapshot_path_ = dir_ + "/session.fofdsnap";
    ASSERT_TRUE(WriteCsvFile(data_path_, data.rel.ToCsv()).ok());
    WriteText(ontology_path_, WriteOntology(data.ontology));
    WriteText(sigma_path_, WriteSigma(data.sigma, data.rel.schema()));
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  static void WriteText(const std::string& path, const std::string& text) {
    std::ofstream out(path);
    out << text;
    ASSERT_TRUE(out.good());
  }

  std::unique_ptr<Session> OpenCold(const std::string& name = "cold") {
    auto s = Session::Open(name, data_path_, ontology_path_, sigma_path_,
                           PartitionCache::kUnbounded, nullptr);
    EXPECT_TRUE(s.ok()) << s.status().message();
    return std::move(s).value();
  }

  Result<std::unique_ptr<Session>> OpenSnap(const std::string& name = "snap") {
    return Session::OpenFromSnapshot(name, snapshot_path_, data_path_,
                                     ontology_path_, sigma_path_,
                                     PartitionCache::kUnbounded, nullptr);
  }

  static std::vector<uint8_t> ReadAll(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  }

  static void WriteAll(const std::string& path,
                       const std::vector<uint8_t>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }

  std::string dir_, data_path_, ontology_path_, sigma_path_, snapshot_path_;
};

// Deep equality of a reopened session against the cold compile: same
// relation bytes, same dictionary, same index postings, same Σ, same
// incremental-verifier verdicts, and both pass their own deep audits.
TEST_F(SnapshotTest, RoundTripMatchesColdCompile) {
  std::unique_ptr<Session> cold = OpenCold();
  ASSERT_TRUE(cold->WriteSnapshot(snapshot_path_).ok());
  auto reopened = OpenSnap();
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  Session& snap = *reopened.value();

  EXPECT_TRUE(cold->Audit().ok());
  EXPECT_TRUE(snap.Audit().ok());

  // Relation: schema, dictionary, and every cell id.
  ASSERT_EQ(snap.rel().num_rows(), cold->rel().num_rows());
  ASSERT_EQ(snap.rel().num_attrs(), cold->rel().num_attrs());
  EXPECT_EQ(snap.rel().schema().names(), cold->rel().schema().names());
  ASSERT_EQ(snap.rel().dict().size(), cold->rel().dict().size());
  for (size_t v = 0; v < cold->rel().dict().size(); ++v) {
    EXPECT_EQ(snap.rel().dict().String(static_cast<ValueId>(v)),
              cold->rel().dict().String(static_cast<ValueId>(v)));
  }
  for (AttrId a = 0; a < cold->rel().num_attrs(); ++a) {
    EXPECT_EQ(snap.rel().Column(a), cold->rel().Column(a)) << "attr " << a;
  }

  // Synonym index: identical postings in both directions.
  ASSERT_EQ(snap.index().num_senses(), cold->index().num_senses());
  for (size_t v = 0; v < cold->rel().dict().size(); ++v) {
    EXPECT_EQ(snap.index().Senses(static_cast<ValueId>(v)),
              cold->index().Senses(static_cast<ValueId>(v)));
  }
  for (SenseId s = 0; s < cold->index().num_senses(); ++s) {
    EXPECT_EQ(snap.index().SenseValues(s), cold->index().SenseValues(s));
  }

  // Σ and the incremental verifier's verdict.
  EXPECT_EQ(snap.sigma(), cold->sigma());
  ASSERT_NE(snap.incremental(), nullptr);
  ASSERT_NE(cold->incremental(), nullptr);
  EXPECT_EQ(snap.incremental()->IsConsistent(),
            cold->incremental()->IsConsistent());
  EXPECT_EQ(snap.incremental()->total_violating(),
            cold->incremental()->total_violating());
}

TEST_F(SnapshotTest, TruncationRejectedEverywhere) {
  std::unique_ptr<Session> cold = OpenCold();
  ASSERT_TRUE(cold->WriteSnapshot(snapshot_path_).ok());
  const std::vector<uint8_t> image = ReadAll(snapshot_path_);
  ASSERT_GT(image.size(), 64u);
  for (size_t keep :
       {size_t{0}, size_t{7}, size_t{31}, size_t{32}, image.size() / 4,
        image.size() / 2, image.size() - 1}) {
    std::vector<uint8_t> cut(image.begin(),
                             image.begin() + static_cast<ptrdiff_t>(keep));
    WriteAll(snapshot_path_, cut);
    EXPECT_FALSE(OpenSnap().ok()) << "kept " << keep << " bytes";
  }
  // Restore: the intact image still opens.
  WriteAll(snapshot_path_, image);
  EXPECT_TRUE(OpenSnap().ok());
}

TEST_F(SnapshotTest, BitFlipsRejectedByChecksum) {
  std::unique_ptr<Session> cold = OpenCold();
  ASSERT_TRUE(cold->WriteSnapshot(snapshot_path_).ok());
  std::vector<uint8_t> image = ReadAll(snapshot_path_);
  // A single-bit flip in any payload byte must be caught by the checksum
  // (header flips hit the magic/version/size checks instead).
  for (size_t pos = 32; pos < image.size(); ++pos) {
    image[pos] ^= 0x10;
    auto parsed = ParseSnapshot(image.data(), image.size());
    image[pos] ^= 0x10;
    ASSERT_FALSE(parsed.ok()) << "flip at byte " << pos;
    ASSERT_NE(parsed.status().message().find("checksum"), std::string::npos)
        << "flip at byte " << pos;
  }
  // The same path through OpenFromSnapshot, on one flipped payload byte.
  image[image.size() / 2] ^= 0x10;
  WriteAll(snapshot_path_, image);
  EXPECT_FALSE(OpenSnap().ok());
}

TEST_F(SnapshotTest, OtherFormatVersionsRefused) {
  std::unique_ptr<Session> cold = OpenCold();
  ASSERT_TRUE(cold->WriteSnapshot(snapshot_path_).ok());
  std::vector<uint8_t> image = ReadAll(snapshot_path_);
  // The version field is bytes [8, 12) — outside the payload checksum, so
  // this exercises the version check itself, not the checksum.
  image[8] = static_cast<uint8_t>(kSnapshotVersion + 1);
  WriteAll(snapshot_path_, image);
  auto opened = OpenSnap();
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("version"), std::string::npos);
}

TEST_F(SnapshotTest, StaleSourceStampForcesRefusal) {
  std::unique_ptr<Session> cold = OpenCold();
  ASSERT_TRUE(cold->WriteSnapshot(snapshot_path_).ok());
  ASSERT_TRUE(OpenSnap().ok());
  // Any source edit — same size or not — must invalidate the snapshot.
  std::ofstream append(data_path_, std::ios::app);
  append << "zz_1,zz_2,zz_3,zz_4,zz_5,zz_6,zz_7\n";
  append.close();
  auto opened = OpenSnap();
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("stale"), std::string::npos);
}

// Same-size edits the stamp must still catch: the CSV's last byte, and two
// aligned 8-byte words swapped.
TEST_F(SnapshotTest, SameSizeSourceEditsForceRefusal) {
  std::unique_ptr<Session> cold = OpenCold();
  ASSERT_TRUE(cold->WriteSnapshot(snapshot_path_).ok());
  const std::vector<uint8_t> csv = ReadAll(data_path_);
  ASSERT_GE(csv.size(), 16u);

  std::vector<uint8_t> last(csv.begin(), csv.end() - 1);
  last.push_back(static_cast<uint8_t>(csv.back() ^ 0x01));
  ASSERT_EQ(last.size(), csv.size());
  WriteAll(data_path_, last);
  auto opened = OpenSnap();
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("stale"), std::string::npos);

  std::vector<uint8_t> swapped = csv;
  std::swap_ranges(swapped.begin(), swapped.begin() + 8, swapped.begin() + 8);
  ASSERT_NE(swapped, csv);
  WriteAll(data_path_, swapped);
  opened = OpenSnap();
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("stale"), std::string::npos);

  WriteAll(data_path_, csv);
  EXPECT_TRUE(OpenSnap().ok());
}

// StampFile streams the file in 64 KiB reads; sizes around and across the
// read boundary must hash exactly like one Hash64 over the whole file.
TEST_F(SnapshotTest, StampFileMatchesHash64AcrossReadChunks) {
  uint64_t x = 0x243F6A8885A308D3ull;
  std::vector<uint8_t> bytes(131079);
  for (uint8_t& b : bytes) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<uint8_t>(x >> 56);
  }
  const std::string path = dir_ + "/stamp.bin";
  for (size_t size : {size_t{65535}, size_t{65536}, size_t{65537},
                      size_t{131079}}) {
    std::vector<uint8_t> prefix(bytes.begin(),
                                bytes.begin() + static_cast<ptrdiff_t>(size));
    WriteAll(path, prefix);
    auto stamp = StampFile(path);
    ASSERT_TRUE(stamp.ok()) << stamp.status().message();
    EXPECT_TRUE(stamp.value().present);
    EXPECT_EQ(stamp.value().size, size);
    EXPECT_EQ(stamp.value().hash, Hash64(prefix.data(), prefix.size()))
        << "size " << size;
  }
}

// A column cell outside the dictionary is refused even under a valid
// checksum.
TEST_F(SnapshotTest, ColumnValueOutsideDictionaryRefused) {
  std::unique_ptr<Session> cold = OpenCold();
  ASSERT_TRUE(cold->WriteSnapshot(snapshot_path_).ok());
  std::vector<uint8_t> image = ReadAll(snapshot_path_);
  auto read_u32 = [&](size_t pos) {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(image[pos + static_cast<size_t>(i)]) << (8 * i);
    }
    return v;
  };
  // Walk the header, stamps, schema and dictionary to the first cell.
  size_t pos = 32 + 3 * 17;
  const uint32_t num_attrs = read_u32(pos);
  pos += 4;
  for (uint32_t a = 0; a < num_attrs; ++a) pos += 4 + read_u32(pos);
  const uint32_t num_values = read_u32(pos);
  pos += 4;
  for (uint32_t v = 0; v < num_values; ++v) pos += 4 + read_u32(pos);
  ASSERT_EQ(read_u32(pos), static_cast<uint32_t>(cold->rel().num_rows()));
  pos += 4;
  // The last row of the first column.
  const size_t cell = pos + 4 * static_cast<size_t>(cold->rel().num_rows() - 1);
  ASSERT_EQ(read_u32(cell), static_cast<uint32_t>(cold->rel().At(
                                cold->rel().num_rows() - 1, 0)));
  for (int i = 0; i < 4; ++i) {
    image[cell + static_cast<size_t>(i)] =
        static_cast<uint8_t>((num_values >> (8 * i)) & 0xff);
  }
  const uint64_t checksum = Hash64(image.data() + 32, image.size() - 32);
  for (int i = 0; i < 8; ++i) {
    image[24 + static_cast<size_t>(i)] =
        static_cast<uint8_t>((checksum >> (8 * i)) & 0xff);
  }
  auto parsed = ParseSnapshot(image.data(), image.size());
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("column value outside dictionary"),
            std::string::npos)
      << parsed.status().message();
}

// Image-level property: Build -> Parse recovers every section verbatim.
TEST_F(SnapshotTest, ImageSectionsRoundTrip) {
  std::unique_ptr<Session> cold = OpenCold();
  ASSERT_TRUE(cold->WriteSnapshot(snapshot_path_).ok());
  auto file = MappedFile::Open(snapshot_path_);
  ASSERT_TRUE(file.ok());
  auto parsed = ParseSnapshot(file.value()->data(), file.value()->size());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const SnapshotContents& snap = parsed.value();
  EXPECT_EQ(snap.schema_names, cold->rel().schema().names());
  EXPECT_EQ(snap.dict_strings.size(), cold->rel().dict().size());
  ASSERT_EQ(snap.columns.size(),
            static_cast<size_t>(cold->rel().num_attrs()));
  for (AttrId a = 0; a < cold->rel().num_attrs(); ++a) {
    EXPECT_EQ(snap.columns[static_cast<size_t>(a)], cold->rel().Column(a));
  }
  EXPECT_FALSE(snap.sigma_text.empty());
  EXPECT_TRUE(snap.data_stamp.present);
}

// End-to-end through the service: the second `load` of the same sources
// comes from the snapshot and answers verify/discover identically.
TEST_F(SnapshotTest, ServerLoadUsesSnapshotAndAnswersIdentically) {
  ServerConfig config;
  config.snapshot_dir = dir_;
  MetricsRegistry metrics;
  ServiceServer server(config, &metrics);

  auto req = [&](const std::string& op, const std::string& session) {
    Json r = Json::Object();
    r.Set("id", Json::Int(1));
    r.Set("op", Json::Str(op));
    r.Set("session", Json::Str(session));
    if (op == ops::kLoad) {
      r.Set("data", Json::Str(data_path_));
      r.Set("ontology", Json::Str(ontology_path_));
      r.Set("sigma", Json::Str(sigma_path_));
    }
    return r;
  };

  Json cold = server.Execute(req(ops::kLoad, "alpha"));
  ASSERT_TRUE(cold.Get("ok").AsBool()) << cold.Dump();
  EXPECT_FALSE(cold.Get("from_snapshot").AsBool());
  Json cold_verify = server.Execute(req(ops::kVerify, "alpha"));
  Json cold_discover = server.Execute(req(ops::kDiscover, "alpha"));

  // Drop and reload: the second load finds the snapshot the cold load
  // persisted and answers byte-identically.
  ASSERT_TRUE(server.Execute(req(ops::kUnload, "alpha")).Get("ok").AsBool());
  Json warm = server.Execute(req(ops::kLoad, "alpha"));
  ASSERT_TRUE(warm.Get("ok").AsBool()) << warm.Dump();
  EXPECT_TRUE(warm.Get("from_snapshot").AsBool());
  EXPECT_EQ(warm.Get("rows").AsInt(), cold.Get("rows").AsInt());
  EXPECT_EQ(warm.Get("sigma_size").AsInt(), cold.Get("sigma_size").AsInt());
  EXPECT_EQ(warm.Get("consistent").AsBool(), cold.Get("consistent").AsBool());
  EXPECT_EQ(warm.Get("violating_classes").AsInt(),
            cold.Get("violating_classes").AsInt());
  Json warm_verify = server.Execute(req(ops::kVerify, "alpha"));
  Json warm_discover = server.Execute(req(ops::kDiscover, "alpha"));
  EXPECT_EQ(warm_verify.Dump(), cold_verify.Dump());
  EXPECT_EQ(warm_discover.Dump(), cold_discover.Dump());

  MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.counters.at("serve.snapshot.writes"), 1);
  EXPECT_EQ(snap.counters.at("serve.snapshot.hits"), 1);
}

// Session names that could escape the directory never touch the snapshot
// path (they cold-load instead).
TEST_F(SnapshotTest, UnsafeSessionNamesBypassSnapshots) {
  ServerConfig config;
  config.snapshot_dir = dir_;
  MetricsRegistry metrics;
  ServiceServer server(config, &metrics);
  Json r = Json::Object();
  r.Set("id", Json::Int(1));
  r.Set("op", Json::Str(ops::kLoad));
  r.Set("session", Json::Str("../evil"));
  r.Set("data", Json::Str(data_path_));
  r.Set("ontology", Json::Str(ontology_path_));
  r.Set("sigma", Json::Str(sigma_path_));
  Json response = server.Execute(r);
  ASSERT_TRUE(response.Get("ok").AsBool()) << response.Dump();
  EXPECT_FALSE(response.Get("from_snapshot").AsBool());
  MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.counters.count("serve.snapshot.writes") != 0
                ? snap.counters.at("serve.snapshot.writes")
                : 0,
            0);
}

}  // namespace
}  // namespace fastofd
