// Storage-tier benchmarks: the hybrid-compressed partition encoding and the
// memory-mapped session snapshots (relation/compressed_partition.h,
// service/snapshot.h).
//
// Three tables, two of them gated by tools/bench_gate.py:
//
//   storage_bytes    — cache footprint of the partition working set, flat vs
//                      compressed, per density regime. The `ratio` column is
//                      a same-process byte ratio (machine-independent); the
//                      gate requires >= 3x on the `dense` and `mid` rows.
//                      The `high_card` row is adversarial (size-2 classes
//                      barely compress) and is reported but not gated.
//   storage_sessions — how many compiled sessions fit a fixed cache budget
//                      when cold entries stay flat vs compact into the
//                      compressed tier. Derived from the measured
//                      footprints, so it is deterministic.
//   snapshot_open    — wall time to open a session cold (parse + intern +
//                      compile) vs from a compiled snapshot (mmap +
//                      validate). The `speedup` ratio is gated >= 5x and the
//                      `identical` column asserts the snapshot-loaded
//                      session reproduces the cold compile byte for byte.
//
//   bench_storage [--rows N] [--iters K] [--smoke] [--json=PATH]

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/csv.h"
#include "common/flags.h"
#include "datagen/datagen.h"
#include "ontology/ontology.h"
#include "relation/compressed_partition.h"
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

// The session working set the cache holds: every level-1 partition plus
// every attribute pair — the shapes the lattice search touches first.
std::vector<StrippedPartition> BuildWorkingSet(const Relation& rel) {
  std::vector<StrippedPartition> out;
  const int num_attrs = rel.schema().num_attrs();
  for (AttrId a = 0; a < num_attrs; ++a) {
    out.push_back(StrippedPartition::Build(rel, a));
  }
  for (AttrId a = 0; a < num_attrs; ++a) {
    // a + 1 <= b < num_attrs, so both ids are in range.
    for (AttrId b = static_cast<AttrId>(a + 1); b < num_attrs; ++b) {
      out.push_back(StrippedPartition::BuildForSet(rel, AttrSet::Of({a, b})));
    }
  }
  return out;
}

bool SamePartition(const StrippedPartition& a, const StrippedPartition& b) {
  if (a.num_rows() != b.num_rows() || a.sum_sizes() != b.sum_sizes() ||
      a.num_classes() != b.num_classes()) {
    return false;
  }
  for (size_t c = 0; c < static_cast<size_t>(a.num_classes()); ++c) {
    RowSpan ra = a.Class(c);
    RowSpan rb = b.Class(c);
    if (ra.size() != rb.size()) return false;
    for (size_t i = 0; i < ra.size(); ++i) {
      if (ra[i] != rb[i]) return false;
    }
  }
  return true;
}

struct FootprintSums {
  int64_t flat = 0;
  int64_t comp = 0;
  bool identical = true;
};

FootprintSums MeasureWorkingSet(const std::vector<StrippedPartition>& ws) {
  FootprintSums sums;
  for (const StrippedPartition& p : ws) {
    CompressedPartition comp = CompressedPartition::Encode(p);
    sums.flat += PartitionCache::FootprintBytes(p);
    sums.comp += PartitionCache::FootprintBytes(comp);
    if (!SamePartition(comp.Decode(), p)) sums.identical = false;
  }
  return sums;
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
  const int regime_rows = smoke ? 4000 : 40000;

  Banner("Storage",
         "compressed partition tier + memory-mapped session snapshots",
         "partition storage under Π* materialization (§4.2) at service scale");

  // -------------------------------------------------------------------------
  // Table 1: working-set footprint, flat vs compressed, across densities.
  // -------------------------------------------------------------------------
  struct Regime {
    const char* label;
    int classes_per_antecedent;  // Class count per generated column.
  };
  // dense/mid: few classes -> long runs of near-consecutive rows (gap and
  // bitmap coding both win). high_card: ~rows/3 classes -> mostly size-2
  // classes, the worst case for any per-class encoding.
  const Regime regimes[] = {
      {"dense", 8},
      {"mid", 64},
      {"high_card", regime_rows / 3},
  };

  Table bytes_table({"dataset", "rows", "flat_kb", "comp_kb", "flat_b_row",
                     "comp_b_row", "ratio", "identical"});
  FootprintSums mid_sums;  // Reused by the sessions table below.
  for (const Regime& regime : regimes) {
    GeneratedData data =
        MakeData(regime_rows, regime.classes_per_antecedent, 11);
    std::vector<StrippedPartition> ws = BuildWorkingSet(data.rel);
    FootprintSums sums = MeasureWorkingSet(ws);
    if (std::string(regime.label) == "mid") mid_sums = sums;
    const double rows_d = static_cast<double>(regime_rows);
    bytes_table.AddRow(
        {regime.label, Fmt("%d", regime_rows),
         Fmt("%.1f", static_cast<double>(sums.flat) / 1024.0),
         Fmt("%.1f", static_cast<double>(sums.comp) / 1024.0),
         Fmt("%.2f", static_cast<double>(sums.flat) / rows_d),
         Fmt("%.2f", static_cast<double>(sums.comp) / rows_d),
         Fmt("%.2f", static_cast<double>(sums.flat) /
                         static_cast<double>(sums.comp)),
         sums.identical ? "yes" : "NO"});
  }
  bytes_table.Print();
  WriteJsonIfRequested(flags, "storage_bytes", bytes_table);

  // -------------------------------------------------------------------------
  // Table 2: sessions resident at a fixed cache budget. Flat-only keeps the
  // whole working set in arena form; the two-tier cache compacts cold
  // entries, so a parked session's resident floor is its compressed
  // footprint. Derived from the measured mid-regime working set.
  // -------------------------------------------------------------------------
  Table sessions_table({"budget_mb", "flat_kb_per_session",
                        "cold_kb_per_session", "flat_only", "two_tier",
                        "gain"});
  for (int budget_mb : {64, 256}) {
    const int64_t budget = static_cast<int64_t>(budget_mb) * 1024 * 1024;
    const int64_t flat_sessions = budget / mid_sums.flat;
    const int64_t cold_sessions = budget / mid_sums.comp;
    sessions_table.AddRow(
        {Fmt("%d", budget_mb),
         Fmt("%.1f", static_cast<double>(mid_sums.flat) / 1024.0),
         Fmt("%.1f", static_cast<double>(mid_sums.comp) / 1024.0),
         Fmt("%lld", static_cast<long long>(flat_sessions)),
         Fmt("%lld", static_cast<long long>(cold_sessions)),
         Fmt("%.2f", static_cast<double>(cold_sessions) /
                         static_cast<double>(flat_sessions))});
  }
  sessions_table.Print();
  WriteJsonIfRequested(flags, "storage_sessions", sessions_table);

  // -------------------------------------------------------------------------
  // Table 3: cold compile vs snapshot open. Σ is left empty so both paths
  // skip the (identical) incremental-verifier rebuild and the ratio
  // isolates what the snapshot actually replaces: CSV parse + dictionary
  // interning + index compile versus mmap + validate.
  // -------------------------------------------------------------------------
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = std::string(tmp ? tmp : "/tmp") + "/fastofd_bench_storage";
  if (std::system(("mkdir -p " + dir).c_str()) != 0) {
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
