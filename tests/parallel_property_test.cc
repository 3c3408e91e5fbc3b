// Property: discovery and cleaning outputs are byte-identical to the serial
// reference at every thread count, and when they run as one task on a
// shared pool (the service's shape). The task scheduler may interleave,
// steal, and nest arbitrarily, so any divergence here means scheduling
// state leaked into results, which the pre-sized-slot discipline exists to
// prevent. Runs under TSan in CI.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "clean/repair.h"
#include "datagen/datagen.h"
#include "discovery/fastofd.h"
#include "exec/task_group.h"
#include "exec/thread_pool.h"
#include "ontology/synonym_index.h"

namespace fastofd {
namespace {

GeneratedData MakeInstance(uint64_t seed, double error_rate,
                           double incompleteness_rate) {
  DataGenConfig cfg;
  cfg.num_rows = 500;
  cfg.num_antecedents = 3;
  cfg.num_consequents = 3;
  cfg.num_noise_attrs = 2;
  cfg.num_senses = 4;
  cfg.error_rate = error_rate;
  cfg.incompleteness_rate = incompleteness_rate;
  cfg.seed = seed;
  return GenerateData(cfg);
}

// 8 exceeds hardware concurrency on small runners: oversubscription must
// not change output either.
const int kThreadCounts[] = {2, 4, 8};

void ExpectSameDiscovery(const FastOfdResult& reference, const FastOfdResult& got,
                         const std::string& label) {
  EXPECT_EQ(reference.ofds, got.ofds) << label;
  EXPECT_EQ(reference.candidates_checked, got.candidates_checked) << label;
  EXPECT_EQ(reference.values_scanned, got.values_scanned) << label;
  EXPECT_EQ(reference.partition_products, got.partition_products) << label;
}

void ExpectSameClean(const OfdCleanResult& reference, const OfdCleanResult& got,
                     const std::string& label) {
  EXPECT_EQ(got.best.repaired.CellDistance(reference.best.repaired), 0) << label;
  EXPECT_EQ(reference.best.ontology_additions, got.best.ontology_additions)
      << label;
  EXPECT_EQ(reference.best.data_changes, got.best.data_changes) << label;
  EXPECT_EQ(reference.best.consistent, got.best.consistent) << label;
  EXPECT_EQ(reference.num_candidates, got.num_candidates) << label;
  EXPECT_EQ(reference.nodes_evaluated, got.nodes_evaluated) << label;
  ASSERT_EQ(reference.pareto.size(), got.pareto.size()) << label;
  for (size_t i = 0; i < reference.pareto.size(); ++i) {
    EXPECT_EQ(reference.pareto[i].ontology_changes,
              got.pareto[i].ontology_changes) << label;
    EXPECT_EQ(reference.pareto[i].data_changes, got.pareto[i].data_changes)
        << label;
  }
}

TEST(ParallelPropertyTest, DiscoveryByteIdenticalAcrossThreads) {
  for (uint64_t seed : {7u, 31u}) {
    GeneratedData data = MakeInstance(seed, /*error_rate=*/0.02,
                                      /*incompleteness_rate=*/0.05);
    SynonymIndex index(data.ontology, data.rel.dict());
    FastOfdConfig serial;
    serial.num_threads = 1;
    FastOfdResult reference = FastOfd(data.rel, index, serial).Discover();
    ASSERT_FALSE(reference.ofds.empty());
    for (int threads : kThreadCounts) {
      FastOfdConfig cfg;
      cfg.num_threads = threads;
      ExpectSameDiscovery(reference, FastOfd(data.rel, index, cfg).Discover(),
                          "seed " + std::to_string(seed) + " threads " +
                              std::to_string(threads));
    }
  }
}

TEST(ParallelPropertyTest, CleanByteIdenticalAcrossThreads) {
  for (uint64_t seed : {13u, 57u}) {
    GeneratedData data = MakeInstance(seed, /*error_rate=*/0.06,
                                      /*incompleteness_rate=*/0.1);
    OfdCleanConfig serial;
    serial.num_threads = 1;
    OfdCleanResult reference =
        OfdClean(data.rel, data.ontology, data.sigma, serial).Run();
    for (int threads : kThreadCounts) {
      OfdCleanConfig cfg;
      cfg.num_threads = threads;
      ExpectSameClean(reference,
                      OfdClean(data.rel, data.ontology, data.sigma, cfg).Run(),
                      "seed " + std::to_string(seed) + " threads " +
                          std::to_string(threads));
    }
  }
}

TEST(ParallelPropertyTest, ByteIdenticalWhenRunAsATaskOnASharedPool) {
  // ServiceServer::HandleDiscover/HandleClean run Discover() and Run() as a
  // task on the server's pool, so every stage's wait is a nested wait that
  // help-executes its own subtasks while sibling requests share the workers.
  GeneratedData data = MakeInstance(/*seed=*/57, /*error_rate=*/0.06,
                                    /*incompleteness_rate=*/0.1);
  SynonymIndex index(data.ontology, data.rel.dict());
  FastOfdConfig discover_serial;
  discover_serial.num_threads = 1;
  const FastOfdResult discover_reference =
      FastOfd(data.rel, index, discover_serial).Discover();
  ASSERT_FALSE(discover_reference.ofds.empty());
  OfdCleanConfig clean_serial;
  clean_serial.num_threads = 1;
  const OfdCleanResult clean_reference =
      OfdClean(data.rel, data.ontology, data.sigma, clean_serial).Run();

  ThreadPool pool(4);
  FastOfdResult discovered;
  OfdCleanResult cleaned;
  TaskGroup group(&pool);
  group.Submit([&](int) {
    FastOfdConfig cfg;
    cfg.pool = &pool;
    discovered = FastOfd(data.rel, index, cfg).Discover();
  });
  group.Submit([&](int) {
    OfdCleanConfig cfg;
    cfg.pool = &pool;
    cleaned = OfdClean(data.rel, data.ontology, data.sigma, cfg).Run();
  });
  group.Wait();
  ExpectSameDiscovery(discover_reference, discovered, "discover in a task");
  ExpectSameClean(clean_reference, cleaned, "clean in a task");
}

}  // namespace
}  // namespace fastofd
