// Extension: parallel candidate verification in FastOFD on the shared
// execution substrate. Validations of different candidates within a lattice
// level are independent; results are applied in a deterministic order, so
// output is identical for any thread count (asserted in tests). This harness
// sweeps thread counts through a shared ThreadPool and reports per-phase
// times (candidate validation vs. lattice children) from the metrics
// registry instead of ad-hoc timers.
//
//   bench_ext_parallel [--rows N] [--seed S]

#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "common/flags.h"
#include "common/metrics.h"
#include "datagen/datagen.h"
#include "discovery/fastofd.h"
#include "exec/thread_pool.h"
#include "ontology/synonym_index.h"

using namespace fastofd;
using namespace fastofd::bench;

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  int rows = static_cast<int>(flags.GetInt("rows", 20000));
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 25));

  Banner("Ext-par", "parallel candidate verification speedup", "extension");

  DataGenConfig cfg;
  cfg.num_rows = rows;
  cfg.num_antecedents = 3;
  cfg.num_consequents = 4;
  cfg.num_noise_attrs = 2;
  cfg.num_senses = 8;
  cfg.values_per_sense = 10;
  cfg.classes_per_antecedent = 24;
  cfg.error_rate = 0.0;
  cfg.seed = seed;
  GeneratedData data = GenerateData(cfg);
  SynonymIndex index(data.ontology, data.rel.dict());
  int hw = ThreadPool::DefaultThreads();
  std::printf("rows=%d, attrs=%d, hardware threads=%d\n", data.rel.num_rows(),
              data.rel.num_attrs(), hw);
  if (hw <= 1) {
    std::printf("NOTE: single-CPU machine — thread counts beyond 1 can only\n"
                "add overhead here; the sweep still demonstrates that output\n"
                "is identical across thread counts.\n");
  }
  std::printf("\n");

  // Per-phase wall-clock comes from the shared metrics registry
  // (discover.validate.seconds / discover.products.seconds), diffed around
  // each run so repetitions do not accumulate. Speedup columns are plain
  // numbers (no "x" suffix) so tools/bench_gate.py gates the scaling floors
  // without string parsing; `hw` records this machine's hardware
  // concurrency — the gate enforces a floor only on rows the machine can
  // physically scale to (hw >= threads).
  Table table({"threads", "hw", "seconds", "speedup", "validate_s",
               "validate_x", "products_s", "products_x", "identical"});
  double base = 0.0, base_validate = 0.0, base_products = 0.0;
  SigmaSet base_ofds;
  for (int threads : {1, 2, 4, 8}) {
    // One persistent pool per sweep point, shared across the run's lattice
    // levels and repetitions (the pool outlives each Discover call).
    ThreadPool pool(threads);
    MetricsRegistry metrics;
    FastOfdConfig fcfg;
    fcfg.pool = &pool;
    fcfg.metrics = &metrics;
    FastOfdResult result;
    double secs = 1e30, validate = 1e30, products = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
      MetricsSnapshot before = metrics.Snapshot();
      double total = TimeIt([&] {
        result = FastOfd(data.rel, index, fcfg).Discover();
      });
      MetricsSnapshot delta = metrics.Snapshot().Diff(before);
      secs = std::min(secs, total);
      validate = std::min(validate, delta.TimerSeconds("discover.validate.seconds"));
      products = std::min(products, delta.TimerSeconds("discover.products.seconds"));
    }
    if (threads == 1) {
      base = secs;
      base_validate = validate;
      base_products = products;
      base_ofds = result.ofds;
    }
    const bool identical = result.ofds == base_ofds;
    table.AddRow({Fmt("%d", threads), Fmt("%d", hw), Fmt("%.3f", secs),
                  Fmt("%.2f", base / secs), Fmt("%.3f", validate),
                  Fmt("%.2f", base_validate / std::max(validate, 1e-12)),
                  Fmt("%.3f", products),
                  Fmt("%.2f", base_products / std::max(products, 1e-12)),
                  identical ? "yes" : "NO"});
  }
  table.Print();
  WriteJsonIfRequested(flags, "ext_parallel", table);
  std::printf("expected shape: validate speedup tracks the thread count until\n"
              "lattice children (one serial refinement each, parallel\n"
              "across a level) dominate;\n"
              "output is identical for every thread count.\n");
  return 0;
}
