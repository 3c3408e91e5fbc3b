// OFDClean beam-search harness: measures the ontology-repair node-evaluation
// phase (the `clean.beam.seconds` timer — level-0 memoization plus every
// level's scoring, not the final materialization).
//
// Table 1 compares full per-node re-scoring against the incremental scorer
// (memoized per-class summaries + slot flips) in the same process on
// the same data, with a results-identical check; the `speedup` column is a
// machine-independent ratio that tools/bench_gate.py enforces (>= 2x).
// Table 2 scales the worker threads with incremental scoring on, again
// checking that every configuration reproduces the serial reference byte for
// byte.
//
//   bench_clean [--rows N] [--iters K] [--smoke] [--json=PATH]

#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "clean/repair.h"
#include "common/flags.h"
#include "common/metrics.h"
#include "datagen/datagen.h"

using namespace fastofd;
using namespace fastofd::bench;

namespace {

// A dirty instance with both erroneous cells (data-repair work) and
// ontology incompleteness (real beam candidates): many mid-size classes, so
// full re-scoring touches far more state per node than the few classes a
// single insertion can affect.
GeneratedData MakeDirtyData(int rows) {
  DataGenConfig cfg;
  cfg.num_rows = rows;
  cfg.num_antecedents = 2;
  cfg.num_consequents = 2;
  cfg.num_senses = 8;
  // Fixed class size (~150 rows): the fraction of classes a candidate
  // insertion touches — what incremental scoring exploits — stays constant
  // across row counts, so the speedup column is comparable between rows.
  cfg.classes_per_antecedent = rows / 150;
  cfg.error_rate = 0.03;
  cfg.incompleteness_rate = 0.12;
  cfg.seed = 42;
  return GenerateData(cfg);
}

struct CleanRun {
  OfdCleanResult result;
  double beam_ms = 0.0;
};

// Runs the full pipeline `iters` times and keeps the minimum beam time (the
// result is identical across iterations by construction).
CleanRun RunClean(const GeneratedData& data, bool incremental, int threads,
                  int iters) {
  CleanRun run;
  for (int i = 0; i < iters; ++i) {
    MetricsRegistry metrics;
    OfdCleanConfig cfg;
    cfg.incremental_scoring = incremental;
    cfg.num_threads = threads;
    cfg.metrics = &metrics;
    OfdClean cleaner(data.rel, data.ontology, data.sigma, cfg);
    OfdCleanResult result = cleaner.Run();
    double ms = 1e3 * metrics.Snapshot().TimerSeconds("clean.beam.seconds");
    if (i == 0 || ms < run.beam_ms) run.beam_ms = ms;
    run.result = std::move(result);
  }
  return run;
}

// Byte-identical comparison: frontier, chosen insertions, and every repaired
// cell (both runs share the relation, hence the dictionary).
bool SameResults(const OfdCleanResult& a, const OfdCleanResult& b) {
  if (a.num_candidates != b.num_candidates ||
      a.nodes_evaluated != b.nodes_evaluated ||
      a.best.data_changes != b.best.data_changes ||
      a.best.ontology_additions != b.best.ontology_additions ||
      a.pareto.size() != b.pareto.size()) {
    return false;
  }
  for (size_t i = 0; i < a.pareto.size(); ++i) {
    if (a.pareto[i].ontology_changes != b.pareto[i].ontology_changes ||
        a.pareto[i].data_changes != b.pareto[i].data_changes) {
      return false;
    }
  }
  for (RowId r = 0; r < a.best.repaired.num_rows(); ++r) {
    for (int attr = 0; attr < a.best.repaired.num_attrs(); ++attr) {
      if (a.best.repaired.At(r, attr) != b.best.repaired.At(r, attr)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const bool smoke = flags.Has("smoke");
  const int iters = static_cast<int>(flags.GetInt("iters", smoke ? 1 : 3));
  std::vector<int> row_sizes;
  if (flags.Has("rows")) {
    row_sizes.push_back(static_cast<int>(flags.GetInt("rows", 30000)));
  } else if (smoke) {
    row_sizes = {2000};
  } else {
    row_sizes = {10000, 30000};
  }

  Banner("Clean-beam", "incremental + parallel ontology-repair beam search",
         "§7.1 beam search over Cand(S)");

  // -------------------------------------------------------------------------
  // Table 1: full vs incremental node scoring, serial, same process.
  // -------------------------------------------------------------------------
  Table scoring({"rows", "cands", "nodes", "full(ms)", "incremental(ms)",
                 "speedup", "identical"});
  for (int rows : row_sizes) {
    GeneratedData data = MakeDirtyData(rows);
    CleanRun full = RunClean(data, /*incremental=*/false, /*threads=*/1, iters);
    CleanRun inc = RunClean(data, /*incremental=*/true, /*threads=*/1, iters);
    scoring.AddRow(
        {Fmt("%d", rows),
         Fmt("%lld", static_cast<long long>(full.result.num_candidates)),
         Fmt("%lld", static_cast<long long>(full.result.nodes_evaluated)),
         Fmt("%.2f", full.beam_ms), Fmt("%.2f", inc.beam_ms),
         Fmt("%.2f", inc.beam_ms > 0 ? full.beam_ms / inc.beam_ms : 0.0),
         SameResults(full.result, inc.result) ? "yes" : "NO"});
  }
  scoring.Print();
  WriteJsonIfRequested(flags, "clean_beam", scoring);

  // -------------------------------------------------------------------------
  // Table 2: thread scaling of the incremental beam search.
  // -------------------------------------------------------------------------
  if (std::thread::hardware_concurrency() <= 1) {
    std::printf("NOTE: single-CPU machine — thread counts beyond 1 can only\n"
                "add overhead here; the sweep still demonstrates that output\n"
                "is identical across thread counts.\n\n");
  }
  // `hw` is the machine's hardware concurrency: tools/bench_gate.py gates a
  // scaling floor only on rows this machine can physically scale to
  // (hw >= threads); the identical check is gated unconditionally.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  Table threads_table({"threads", "hw", "rows", "beam(ms)", "speedup",
                       "identical"});
  {
    const int rows = row_sizes.back();
    GeneratedData data = MakeDirtyData(rows);
    CleanRun serial = RunClean(data, /*incremental=*/true, /*threads=*/1, iters);
    for (int threads : {1, 2, 4, 8}) {
      CleanRun run = threads == 1
                         ? serial
                         : RunClean(data, /*incremental=*/true, threads, iters);
      threads_table.AddRow(
          {Fmt("%d", threads), Fmt("%d", hw), Fmt("%d", rows),
           Fmt("%.2f", run.beam_ms),
           Fmt("%.2f", run.beam_ms > 0 ? serial.beam_ms / run.beam_ms : 0.0),
           SameResults(serial.result, run.result) ? "yes" : "NO"});
    }
  }
  threads_table.Print();
  WriteJsonIfRequested(flags, "clean_threads", threads_table);

  std::printf(
      "expected shape: full scoring re-tallies every class's histogram\n"
      "slots per node, incremental scoring only adjusts the memoized summaries\n"
      "of the few classes whose slots a node flips, so its advantage grows\n"
      "with the class count; tools/bench_gate.py enforces `speedup` >= 2 on\n"
      "every clean_beam row. Both tables must report identical=yes: const\n"
      "scoring + pre-sized slots make the search byte-identical for any mode\n"
      "or thread count.\n");
  return 0;
}
