// Exp-3 (Figure 6c): benefit of the FastOFD pruning optimizations.
// Runs FastOFD with all optimizations, with each of Opt-2 (augmentation
// pruning via C+ candidate sets), Opt-3 (superkey shortcuts) and Opt-4
// (FD reduction) disabled in turn, and with none. The paper reports Opt-2
// as the largest single win (~31%), Opt-3 ~14%, Opt-4 ~27%.
//
//   bench_exp3_optimizations [--rows N] [--seed S]

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/flags.h"
#include "datagen/datagen.h"
#include "discovery/fastofd.h"
#include "ontology/synonym_index.h"

using namespace fastofd;
using namespace fastofd::bench;

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  int rows = static_cast<int>(flags.GetInt("rows", 10000));
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));

  Banner("Exp-3", "FastOFD optimization ablation", "Figure 6c / §8.2 Exp-3");

  // A dataset with a key column (the clinical data's NCTID analogue) so
  // Opt-3 has pruning targets, and deterministic classes so Opt-4 has
  // syntactically-equal classes to skip.
  DataGenConfig cfg;
  cfg.num_rows = rows;
  cfg.num_antecedents = 3;
  cfg.num_consequents = 5;
  cfg.num_noise_attrs = 1;
  cfg.num_key_attrs = 1;
  cfg.num_senses = 8;
  cfg.values_per_sense = 10;
  cfg.classes_per_antecedent = 16;
  cfg.deterministic_class_fraction = 0.2;
  cfg.num_fd_consequents = 2;  // Planted traditional FDs (Opt-4 targets).
  cfg.error_rate = 0.0;
  cfg.seed = seed;
  GeneratedData data = GenerateData(cfg);
  SynonymIndex index(data.ontology, data.rel.dict());
  std::printf("rows=%d, attrs=%d\n\n", data.rel.num_rows(), data.rel.num_attrs());

  struct Variant {
    std::string name;
    FastOfdConfig config;
  };
  std::vector<Variant> variants;
  variants.push_back({"all optimizations", {}});
  {
    FastOfdConfig c;
    c.opt_augmentation = false;
    variants.push_back({"without Opt-2 (augmentation)", c});
  }
  {
    FastOfdConfig c;
    c.opt_keys = false;
    variants.push_back({"without Opt-3 (keys)", c});
  }
  {
    FastOfdConfig c;
    c.opt_fd_reduction = false;
    variants.push_back({"without Opt-4 (FD reduction)", c});
  }
  {
    FastOfdConfig c;
    c.opt_augmentation = c.opt_keys = c.opt_fd_reduction = false;
    variants.push_back({"no optimizations", c});
  }

  Table table({"variant", "seconds", "candidates", "cells-scanned", "products",
               "ofds", "vs-all"});
  double base = 0.0;
  const int kReps = 3;  // Best-of-3 to de-noise millisecond-scale runs.
  // One untimed run first, so the first timed variant does not pay the
  // allocator's and the thread-local scratches' warm-up.
  FastOfd(data.rel, index, variants.front().config).Discover();
  for (const Variant& v : variants) {
    FastOfdResult result;
    double secs = 1e30;
    for (int rep = 0; rep < kReps; ++rep) {
      secs = std::min(secs, TimeIt([&] {
               result = FastOfd(data.rel, index, v.config).Discover();
             }));
    }
    if (v.name == "all optimizations") base = secs;
    table.AddRow({v.name, Fmt("%.3f", secs),
                  Fmt("%lld", static_cast<long long>(result.candidates_checked)),
                  Fmt("%lld", static_cast<long long>(result.values_scanned)),
                  Fmt("%lld", static_cast<long long>(result.partition_products)),
                  Fmt("%zu", result.ofds.size()),
                  Fmt("%.2fx", secs / base)});
  }
  table.Print();
  std::printf("expected shape: disabling Opt-2 hurts the most (candidate blowup,\n"
              "the paper reports ~31%%); Opt-3 cuts partition products and Opt-4\n"
              "cuts verification cells scanned — wall-clock deltas for those two\n"
              "grow with data scale (paper: ~14%% and up to 59%%), so the work\n"
              "counters are reported alongside time. Output OFD sets are\n"
              "identical across variants.\n");
  return 0;
}
