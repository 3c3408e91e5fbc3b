// Extension: incremental OFD verification under updates (the paper's
// evolving-data motivation, §5). Compares maintaining the violation state
// through a stream of cell updates against full re-verification after each
// update. The incremental stream is timed in kChunks equal chunks and the
// median chunk reported, so one scheduler blip cannot fake growth in N; the
// default stream is long enough that each chunk spans over a millisecond.
// Full re-verification costs O(N) whatever the update, so it is timed over
// the stream's first kFullUpdates updates only.
//
//   bench_ext_incremental [--updates U] [--seed S]

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/flags.h"
#include "common/rng.h"
#include "datagen/datagen.h"
#include "ofd/incremental.h"
#include "ofd/verifier.h"
#include "ontology/synonym_index.h"
#include "relation/partition.h"

using namespace fastofd;
using namespace fastofd::bench;

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  int updates = static_cast<int>(flags.GetInt("updates", 20000));
  constexpr int kChunks = 5;
  constexpr int kFullUpdates = 1000;
  const int full_updates = std::min(updates, kFullUpdates);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 26));

  Banner("Ext-inc", "incremental vs full re-verification under updates",
         "§5 evolving-data motivation");

  Table table({"N", "full(ms/upd)", "incremental(ms/upd)", "speedup",
               "classes-rechecked"});
  for (int rows : {5000, 10000, 20000, 40000}) {
    DataGenConfig cfg;
    cfg.num_rows = rows;
    cfg.num_antecedents = 2;
    cfg.num_consequents = 2;
    cfg.num_senses = 4;
    cfg.classes_per_antecedent = 16;
    cfg.error_rate = 0.0;
    cfg.seed = seed;
    GeneratedData data = GenerateData(cfg);

    // Update stream: random consequent cells flip to random domain values.
    Rng rng(seed * 31 + static_cast<uint64_t>(rows));
    struct Update {
      RowId row;
      AttrId attr;
      ValueId value;
    };
    Relation rel_inc = data.rel;
    SynonymIndex index(data.ontology, rel_inc.dict());
    std::vector<ValueId> pool;
    for (SenseId s = 0; s < index.num_senses(); ++s) {
      for (ValueId v : index.SenseValues(s)) pool.push_back(v);
    }
    std::vector<Update> stream;
    for (int u = 0; u < updates; ++u) {
      const Ofd& ofd = data.sigma[rng.NextUint(data.sigma.size())];
      stream.push_back(Update{static_cast<RowId>(rng.NextUint(rel_inc.num_rows())),
                              ofd.rhs, pool[rng.NextUint(pool.size())]});
    }

    // Incremental.
    IncrementalVerifier inc(&rel_inc, index, data.sigma);
    int64_t before = inc.classes_rechecked();
    std::vector<double> chunk_ms;
    for (int c = 0; c < kChunks; ++c) {
      const size_t begin = stream.size() * static_cast<size_t>(c) / kChunks;
      const size_t end = stream.size() * static_cast<size_t>(c + 1) / kChunks;
      const double secs = TimeIt([&] {
        for (size_t k = begin; k < end; ++k) {
          inc.UpdateCell(stream[k].row, stream[k].attr, stream[k].value);
        }
      });
      const size_t chunk = std::max<size_t>(end - begin, 1);
      chunk_ms.push_back(1e3 * secs / static_cast<double>(chunk));
    }
    std::sort(chunk_ms.begin(), chunk_ms.end());
    int64_t rechecked = inc.classes_rechecked() - before;

    // Full re-verification after every update.
    Relation rel_full = data.rel;
    OfdVerifier verifier(rel_full, index);
    std::vector<StrippedPartition> partitions;
    for (const Ofd& ofd : data.sigma) {
      partitions.push_back(StrippedPartition::BuildForSet(rel_full, ofd.lhs));
    }
    // Recompute the complete per-class violation state (what the
    // incremental verifier maintains) after every update.
    int64_t sink = 0;
    double full_secs = TimeIt([&] {
      for (int k = 0; k < full_updates; ++k) {
        const Update& u = stream[static_cast<size_t>(k)];
        rel_full.SetId(u.row, u.attr, u.value);
        for (size_t i = 0; i < data.sigma.size(); ++i) {
          for (const auto& cls : partitions[i].classes()) {
            sink += verifier.HoldsInClass(cls, data.sigma[i].rhs,
                                          data.sigma[i].kind);
          }
        }
      }
    });
    (void)sink;

    const double full_ms = 1e3 * full_secs / full_updates;
    const double inc_ms = chunk_ms[kChunks / 2];
    table.AddRow({Fmt("%d", rows), Fmt("%.3f", full_ms), Fmt("%.5f", inc_ms),
                  Fmt("%.0fx", full_ms / inc_ms),
                  Fmt("%lld", static_cast<long long>(rechecked))});
  }
  table.Print();
  WriteJsonIfRequested(flags, "ext_incremental", table);
  std::printf("expected shape: full re-verification costs O(N) per update and\n"
              "grows with N; the incremental verifier re-checks one class\n"
              "histogram per affected OFD, so its per-update cost is flat\n"
              "(gated: at most 2x from the smallest to the largest N) and the\n"
              "speedup grows linearly with N.\n");
  return 0;
}
