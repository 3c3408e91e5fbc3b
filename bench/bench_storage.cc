// Snapshot benchmark: cold session compile vs opening a memory-mapped
// session snapshot (service/snapshot.h).
//
//   snapshot_open — wall time to open a session cold (parse + intern +
//                   compile) vs from a compiled snapshot (mmap + validate).
//                   The `speedup` ratio is gated >= 5x by
//                   tools/bench_gate.py, and the `identical` column asserts
//                   the snapshot-loaded session reproduces the cold compile
//                   byte for byte.
//
//   bench_storage [--rows N] [--iters K] [--smoke] [--json=PATH]

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench_common.h"
#include "common/csv.h"
#include "common/flags.h"
#include "datagen/datagen.h"
#include "ontology/ontology.h"
#include "relation/partition.h"
#include "relation/relation.h"
#include "service/session.h"

using namespace fastofd;
using namespace fastofd::bench;

namespace {

GeneratedData MakeData(int rows, int classes_per_antecedent, uint32_t seed) {
  DataGenConfig cfg;
  cfg.num_rows = rows;
  cfg.num_antecedents = 3;
  cfg.num_consequents = 2;
  cfg.num_senses = 4;
  cfg.classes_per_antecedent = classes_per_antecedent;
  cfg.error_rate = 0.02;
  cfg.seed = seed;
  return GenerateData(cfg);
}

// Minimum of `iters` timed runs, in seconds.
template <typename Fn>
double MinSeconds(int iters, Fn&& fn) {
  double best = 0.0;
  for (int i = 0; i < iters; ++i) {
    double s = TimeIt(fn);
    if (i == 0 || s < best) best = s;
  }
  return best;
}

// FNV-1a over the session state the snapshot must reproduce exactly: the
// dictionary strings, the interned columns, and every level-1 partition
// built from them.
uint64_t SessionDigest(Session& session) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  const Relation& rel = session.rel();
  for (size_t i = 0; i < rel.dict().size(); ++i) {
    // i < dict.size(), so the cast stays in the interned id range.
    for (char ch : rel.dict().String(static_cast<ValueId>(i))) {
      mix(static_cast<uint64_t>(static_cast<unsigned char>(ch)));
    }
    mix(0xff);
  }
  const int num_attrs = rel.schema().num_attrs();
  for (AttrId a = 0; a < num_attrs; ++a) {
    // a is in [0, num_attrs) by the loop bound.
    for (ValueId v : rel.Column(a)) mix(static_cast<uint64_t>(v));
    StrippedPartition p = StrippedPartition::Build(rel, a);
    for (size_t c = 0; c < static_cast<size_t>(p.num_classes()); ++c) {
      RowSpan rows = p.Class(c);
      for (size_t i = 0; i < rows.size(); ++i) {
        mix(static_cast<uint64_t>(rows[i]));
      }
      mix(0xfffe);
    }
  }
  mix(static_cast<uint64_t>(session.sigma().size()));
  return h;
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const bool smoke = flags.Has("smoke");
  const int iters = static_cast<int>(flags.GetInt("iters", smoke ? 1 : 5));
  const int snapshot_rows =
      static_cast<int>(flags.GetInt("rows", smoke ? 4000 : 120000));

  Banner("Storage", "memory-mapped session snapshots",
         "session state for Π* materialization (§4.2) at service scale");

  // Σ is left empty so both paths skip the (identical) incremental-verifier
  // rebuild and the ratio isolates what the snapshot actually replaces: CSV
  // parse + dictionary interning + index compile versus mmap + validate.
  ScratchDir scratch("fastofd_bench_storage");
  const std::string& dir = scratch.path();
  if (!scratch.ok()) {
    std::fprintf(stderr, "bench_storage: cannot create %s\n", dir.c_str());
    return 1;
  }
  const std::string data_path = dir + "/d.csv";
  const std::string ontology_path = dir + "/o.txt";
  const std::string snapshot_path = dir + "/session.fofdsnap";

  Table open_table({"rows", "cold(s)", "snap(s)", "speedup", "identical"});
  {
    GeneratedData data = MakeData(snapshot_rows, 64, 23);
    if (!WriteCsvFile(data_path, data.rel.ToCsv()).ok()) {
      std::fprintf(stderr, "bench_storage: cannot write %s\n",
                   data_path.c_str());
      return 1;
    }
    WriteText(ontology_path, WriteOntology(data.ontology));

    auto open_cold = [&]() {
      return Session::Open("bench", data_path, ontology_path,
                           /*sigma_path=*/"", PartitionCache::kUnbounded,
                           /*metrics=*/nullptr);
    };
    auto cold = open_cold();
    if (!cold.ok()) {
      std::fprintf(stderr, "bench_storage: cold open failed: %s\n",
                   cold.status().message().c_str());
      return 1;
    }
    Status written = cold.value()->WriteSnapshot(snapshot_path);
    if (!written.ok()) {
      std::fprintf(stderr, "bench_storage: snapshot write failed: %s\n",
                   written.message().c_str());
      return 1;
    }
    auto open_snap = [&]() {
      return Session::OpenFromSnapshot(
          "bench", snapshot_path, data_path, ontology_path,
          /*sigma_path=*/"", PartitionCache::kUnbounded, /*metrics=*/nullptr);
    };
    auto snap = open_snap();
    if (!snap.ok()) {
      std::fprintf(stderr, "bench_storage: snapshot open failed: %s\n",
                   snap.status().message().c_str());
      return 1;
    }
    const bool identical =
        SessionDigest(*cold.value()) == SessionDigest(*snap.value());

    const double cold_s = MinSeconds(iters, [&]() {
      auto s = open_cold();
      if (!s.ok()) std::abort();
    });
    const double snap_s = MinSeconds(iters, [&]() {
      auto s = open_snap();
      if (!s.ok()) std::abort();
    });
    open_table.AddRow({Fmt("%d", snapshot_rows), Fmt("%.4f", cold_s),
                       Fmt("%.4f", snap_s), Fmt("%.2f", cold_s / snap_s),
                       identical ? "yes" : "NO"});
  }
  open_table.Print();
  WriteJsonIfRequested(flags, "snapshot_open", open_table);

  return 0;
}
