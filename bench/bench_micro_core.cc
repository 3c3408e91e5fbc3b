// Micro-benchmarks for the hot primitives underneath every experiment:
// the flat partition kernels (build, intersect, refine) against
// an in-binary transcription of the legacy vector-of-vectors implementation,
// plus the other per-class primitives (OFD closure, synonym verification,
// approximate support, on ragged and on all-2-row classes, EMD, initial
// sense assignment).
//
// The legacy-vs-flat table makes the kernel speedup machine-independent:
// both sides run in the same process on the same data, so the `speedup`
// column is a ratio the CI bench gate can enforce (tools/bench_gate.py
// requires >= 2x on the intersection ops) without caring how fast the
// runner is.
//
//   bench_micro_core [--rows N] [--iters K] [--smoke] [--json=PATH]

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "clean/emd.h"
#include "clean/sense_assignment.h"
#include "common/flags.h"
#include "common/rng.h"
#include "datagen/datagen.h"
#include "ofd/inference.h"
#include "ofd/verifier.h"
#include "ontology/synonym_index.h"
#include "relation/partition.h"

using namespace fastofd;
using namespace fastofd::bench;

namespace {

// ---------------------------------------------------------------------------
// Legacy reference: the pre-flat stripped-partition representation (one heap
// vector per class), transcribed from the original relation/partition.cc so
// the comparison measures layout + allocation strategy, not algorithm.
// ---------------------------------------------------------------------------

struct LegacyPartition {
  std::vector<std::vector<RowId>> classes;
  int64_t sum_sizes = 0;
  int64_t num_rows = 0;
};

LegacyPartition LegacyBuild(const Relation& rel, AttrId attr) {
  LegacyPartition p;
  p.num_rows = rel.num_rows();
  const std::vector<ValueId>& col = rel.Column(attr);
  std::vector<std::vector<RowId>> buckets(rel.dict().size());
  for (RowId r = 0; r < rel.num_rows(); ++r) {
    buckets[static_cast<size_t>(col[static_cast<size_t>(r)])].push_back(r);
  }
  for (auto& bucket : buckets) {
    if (bucket.size() >= 2) {
      p.sum_sizes += static_cast<int64_t>(bucket.size());
      p.classes.push_back(std::move(bucket));
    }
  }
  return p;
}

LegacyPartition LegacyProduct(const LegacyPartition& a, const LegacyPartition& b) {
  LegacyPartition out;
  out.num_rows = a.num_rows;
  std::vector<int32_t> probe(static_cast<size_t>(a.num_rows), -1);
  for (size_t ci = 0; ci < a.classes.size(); ++ci) {
    for (RowId r : a.classes[ci]) {
      probe[static_cast<size_t>(r)] = static_cast<int32_t>(ci);
    }
  }
  std::vector<std::vector<RowId>> scratch(a.classes.size());
  std::vector<int32_t> touched;
  for (const auto& cls_b : b.classes) {
    touched.clear();
    for (RowId r : cls_b) {
      int32_t ci = probe[static_cast<size_t>(r)];
      if (ci < 0) continue;
      if (scratch[static_cast<size_t>(ci)].empty()) touched.push_back(ci);
      scratch[static_cast<size_t>(ci)].push_back(r);
    }
    for (int32_t ci : touched) {
      auto& group = scratch[static_cast<size_t>(ci)];
      if (group.size() >= 2) {
        out.sum_sizes += static_cast<int64_t>(group.size());
        out.classes.push_back(std::move(group));
        group = {};
      } else {
        group.clear();
      }
    }
  }
  return out;
}

GeneratedData MakeData(int rows, int classes_per_antecedent) {
  DataGenConfig cfg;
  cfg.num_rows = rows;
  cfg.num_antecedents = 3;
  cfg.num_consequents = 2;
  cfg.num_senses = 4;
  cfg.classes_per_antecedent = classes_per_antecedent;
  cfg.error_rate = 0.02;
  cfg.seed = 99;
  return GenerateData(cfg);
}

// Minimum of `iters` timed runs, in milliseconds.
template <typename Fn>
double MinMs(int iters, Fn&& fn) {
  double best = 0.0;
  for (int i = 0; i < iters; ++i) {
    double ms = 1e3 * TimeIt(fn);
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const bool smoke = flags.Has("smoke");
  const int iters = static_cast<int>(flags.GetInt("iters", smoke ? 1 : 7));
  std::vector<int> row_sizes;
  if (flags.Has("rows")) {
    row_sizes.push_back(static_cast<int>(flags.GetInt("rows", 60000)));
  } else if (smoke) {
    row_sizes = {2000};
  } else {
    row_sizes = {20000, 60000};
  }

  Banner("Micro-core", "flat partition kernels vs legacy layout + hot primitives",
         "lattice hot path (Π* products, §4.2) and per-class checks");

  // -------------------------------------------------------------------------
  // Table 1: legacy vector-of-vectors vs flat arena, same data, same process.
  // -------------------------------------------------------------------------
  Table kernels({"op", "rows", "legacy(ms)", "flat(ms)", "speedup"});
  for (int rows : row_sizes) {
    // Mid-size classes (the shape the lattice produces past level 1, and
    // the one where per-class heap allocation hurts the legacy layout
    // most). Fixed rather than scaled with rows so the speedup ratios stay
    // comparable across row counts.
    const int classes = static_cast<int>(flags.GetInt("classes", 128));
    GeneratedData data = MakeData(rows, classes);
    const Relation& rel = data.rel;

    LegacyPartition la = LegacyBuild(rel, 0);
    LegacyPartition lb = LegacyBuild(rel, 1);
    StrippedPartition fa = StrippedPartition::Build(rel, 0);
    StrippedPartition fb = StrippedPartition::Build(rel, 1);
    PartitionScratch scratch;
    StrippedPartition out;
    // Warm the scratch + output arena once so the flat columns measure
    // steady-state (zero-allocation) kernel cost, which is what the lattice
    // loop sees after its first product.
    StrippedPartition::IntersectInto(fa, fb, &scratch, &out);

    auto add_row = [&](const char* op, double legacy_ms, double flat_ms) {
      kernels.AddRow({op, Fmt("%d", rows), Fmt("%.3f", legacy_ms),
                      Fmt("%.3f", flat_ms),
                      Fmt("%.2f", flat_ms > 0 ? legacy_ms / flat_ms : 0.0)});
    };

    double legacy_build = MinMs(iters, [&] {
      LegacyPartition p = LegacyBuild(rel, 0);
      if (p.num_rows < 0) std::abort();  // Keep the result live.
    });
    double flat_build = MinMs(iters, [&] {
      StrippedPartition p = StrippedPartition::Build(rel, 0);
      if (p.num_rows() < 0) std::abort();
    });
    add_row("build", legacy_build, flat_build);

    double legacy_product = MinMs(iters, [&] {
      LegacyPartition p = LegacyProduct(la, lb);
      if (p.num_rows < 0) std::abort();
    });
    double flat_product = MinMs(iters, [&] {
      StrippedPartition::IntersectInto(fa, fb, &scratch, &out);
    });
    add_row("product", legacy_product, flat_product);

    // Refinement by a column: legacy needs the column's own partition plus a
    // product; the flat kernel groups by value id directly.
    double legacy_refine = MinMs(iters, [&] {
      LegacyPartition p = LegacyProduct(la, LegacyBuild(rel, 1));
      if (p.num_rows < 0) std::abort();
    });
    double flat_refine = MinMs(iters, [&] {
      StrippedPartition::RefineInto(fa, rel.Column(1), rel.dict().size(),
                                    &scratch, &out);
    });
    add_row("refine", legacy_refine, flat_refine);
  }
  kernels.Print();
  WriteJsonIfRequested(flags, "micro_partition", kernels);

  // -------------------------------------------------------------------------
  // Table 2: the remaining hot primitives (absolute times, tolerance-gated).
  // -------------------------------------------------------------------------
  Table prims({"op", "n", "time(ms)"});
  {
    const int rows = row_sizes.back();
    GeneratedData data = MakeData(rows, 16);
    SynonymIndex index(data.ontology, data.rel.dict());
    OfdVerifier verifier(data.rel, index);
    StrippedPartition p =
        StrippedPartition::BuildForSet(data.rel, data.sigma[0].lhs);

    double verify_ms = MinMs(iters, [&] {
      if (!verifier.Holds(data.sigma[0], p) && p.num_rows() < 0) std::abort();
    });
    prims.AddRow({"verify_synonym", Fmt("%d", rows), Fmt("%.3f", verify_ms)});

    double support_ms = MinMs(iters, [&] {
      if (verifier.Support(data.sigma[0], p) < 0.0) std::abort();
    });
    prims.AddRow({"support", Fmt("%d", rows), Fmt("%.3f", support_ms)});

    double support_cutoff_ms = MinMs(iters, [&] {
      if (verifier.SupportAtLeast(data.sigma[0], p, 0.999) && p.num_rows() < 0) {
        std::abort();
      }
    });
    prims.AddRow(
        {"support_cutoff", Fmt("%d", rows), Fmt("%.3f", support_cutoff_ms)});

    RowSpan cls = p.classes().front();
    double sense_ms = MinMs(iters, [&] {
      SenseSelector::InitialAssignment(data.rel, index, cls, data.sigma[0].rhs);
    });
    prims.AddRow({"sense_assignment", Fmt("%zu", cls.size()), Fmt("%.3f", sense_ms)});
  }
  {
    // Classes of two rows, the common case deep in the lattice: sigma[0]'s
    // consequent under a key that pairs consecutive rows of its Π*_lhs
    // classes (then of the stripped rows), so most pairs agree up to
    // synonyms and the scan runs to the end.
    const int rows = row_sizes.back();
    GeneratedData data = MakeData(rows, 16);
    const Ofd& planted = data.sigma[0];
    std::vector<RowId> order;
    std::vector<char> in_class(static_cast<size_t>(data.rel.num_rows()), 0);
    const StrippedPartition by_lhs = StrippedPartition::BuildForSet(data.rel, planted.lhs);
    for (RowId r : by_lhs.rows()) {
      order.push_back(r);
      in_class[static_cast<size_t>(r)] = 1;
    }
    for (RowId r = 0; r < data.rel.num_rows(); ++r) {
      if (in_class[static_cast<size_t>(r)] == 0) order.push_back(r);
    }
    Relation pairs(Schema({"K", "V"}));
    for (size_t i = 0; i < order.size(); ++i) {
      pairs.AppendRow({"k" + std::to_string(i / 2), data.rel.StringAt(order[i], planted.rhs)});
    }
    SynonymIndex index(data.ontology, pairs.dict());
    OfdVerifier verifier(pairs, index);
    StrippedPartition p = StrippedPartition::Build(pairs, 0);
    const Ofd ofd{AttrSet::Single(0), 1, OfdKind::kSynonym};
    const double kappa = 0.5;
    int64_t tallied = 0;
    verifier.SupportAtLeast(ofd, p, kappa, &tallied);
    if (tallied != p.sum_sizes()) std::abort();  // The scan must not exit early.
    double small_ms = MinMs(iters, [&] {
      if (verifier.SupportAtLeast(ofd, p, kappa) && p.num_rows() < 0) std::abort();
    });
    prims.AddRow({"support_small_classes", Fmt("%lld", static_cast<long long>(p.sum_sizes())),
                  Fmt("%.3f", small_ms)});
  }
  {
    const int deps = smoke ? 32 : 256;
    Rng rng(4);
    std::vector<Dependency> sigma;
    for (int i = 0; i < deps; ++i) {
      AttrSet lhs, rhs;
      for (AttrId a = 0; a < 16; ++a) {
        if (rng.NextBernoulli(0.2)) lhs = lhs.With(a);
        if (rng.NextBernoulli(0.2)) rhs = rhs.With(a);
      }
      sigma.push_back({lhs, rhs});
    }
    AttrSet x = AttrSet::Of({0, 3, 5, 7, 9});
    double closure_ms = MinMs(iters, [&] {
      if (Closure(x, sigma).empty() && !sigma.empty()) std::abort();
    });
    prims.AddRow({"ofd_closure", Fmt("%d", deps), Fmt("%.4f", closure_ms)});
  }
  {
    const int vals = 256;
    Rng rng(5);
    ValueHistogram hp, hq;
    for (int i = 0; i < vals; ++i) {
      hp[static_cast<ValueId>(i)] = static_cast<int64_t>(rng.NextUint(50));
      hq[static_cast<ValueId>(rng.NextUint(static_cast<uint64_t>(vals)))] =
          static_cast<int64_t>(rng.NextUint(50));
    }
    double emd_ms = MinMs(iters, [&] {
      if (CategoricalEmd(hp, hq) < 0.0) std::abort();
    });
    prims.AddRow({"categorical_emd", Fmt("%d", vals), Fmt("%.4f", emd_ms)});
  }
  prims.Print();
  WriteJsonIfRequested(flags, "micro_primitives", prims);

  std::printf("expected shape: the flat arena wins on every kernel op — no\n"
              "per-class heap allocation, probe scratch reused across calls —\n"
              "with `speedup` >= 2 on the intersection ops (product and\n"
              "refine), which tools/bench_gate.py enforces in CI.\n");
  return 0;
}
