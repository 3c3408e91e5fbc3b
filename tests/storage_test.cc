// PartitionCache: the single-tier LRU returns exactly what
// StrippedPartition::BuildForSet returns — class by class and row by row,
// at any budget — so cached and uncached callers (OFDClean among them) see
// identical partitions; its gauges stay fresh across every mutation, its
// footprint charges the per-entry bookkeeping, and concurrent Gets under
// eviction stay correct and within budget.

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "clean/repair.h"
#include "common/csv.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "datagen/datagen.h"
#include "relation/partition.h"
#include "relation/relation.h"
#include "relation/schema.h"

namespace fastofd {
namespace {

// A relation whose column a draws uniformly from cardinalities[a] values.
Relation MakeRandomRelation(int rows, const std::vector<uint64_t>& cardinalities,
                            uint64_t seed) {
  std::vector<std::string> names;
  for (size_t a = 0; a < cardinalities.size(); ++a) {
    names.push_back("A" + std::to_string(a));
  }
  Relation rel((Schema(names)));
  Rng rng(seed);
  for (int r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    for (size_t a = 0; a < cardinalities.size(); ++a) {
      row.push_back("a" + std::to_string(a) + "_" +
                    std::to_string(rng.NextUint(cardinalities[a])));
    }
    rel.AppendRow(row);
  }
  return rel;
}

// Byte-level equality of two flat partitions (class order included).
void ExpectIdentical(const StrippedPartition& a, const StrippedPartition& b,
                     uint64_t mask) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << "mask " << mask;
  ASSERT_EQ(a.num_classes(), b.num_classes()) << "mask " << mask;
  ASSERT_EQ(a.sum_sizes(), b.sum_sizes()) << "mask " << mask;
  for (int64_t i = 0; i < a.num_classes(); ++i) {
    RowSpan ca = a.Class(static_cast<size_t>(i));
    RowSpan cb = b.Class(static_cast<size_t>(i));
    ASSERT_EQ(ca.size(), cb.size()) << "mask " << mask << " class " << i;
    for (size_t k = 0; k < ca.size(); ++k) {
      ASSERT_EQ(ca[k], cb[k]) << "mask " << mask << " class " << i << " pos " << k;
    }
  }
}

GeneratedData MakeInteractingInstance() {
  DataGenConfig cfg;
  cfg.num_rows = 600;
  cfg.num_antecedents = 3;
  cfg.num_consequents = 2;
  cfg.num_noise_attrs = 1;
  cfg.plant_interacting_ofds = true;
  cfg.error_rate = 0.05;
  cfg.incompleteness_rate = 0.1;
  cfg.seed = 19;
  return GenerateData(cfg);
}

// Every attribute set of 0-3 attributes, in mask order.
std::vector<AttrSet> SetsUpToThree(int num_attrs) {
  std::vector<AttrSet> out;
  for (uint64_t mask = 0; mask < (uint64_t{1} << num_attrs); ++mask) {
    AttrSet s = AttrSet::FromMask(mask);
    if (s.size() <= 3) out.push_back(s);
  }
  return out;
}

TEST(PartitionCacheTest, GetMatchesBuildForSetAtAnyBudget) {
  GeneratedData data = MakeInteractingInstance();
  const Relation& rel = data.rel;
  const std::vector<AttrSet> sets = SetsUpToThree(rel.num_attrs());
  StrippedPartition sample = StrippedPartition::Build(rel, 0);
  sample.Compact();
  // Unbounded keeps every set; three level-1 footprints force eviction.
  for (int64_t budget :
       {PartitionCache::kUnbounded, 3 * PartitionCache::FootprintBytes(sample)}) {
    PartitionCache cache(rel, budget);
    // Two passes: the first fills the cache, the second reads hits (and,
    // under the small budget, rebuilds what was evicted).
    for (int pass = 0; pass < 2; ++pass) {
      for (AttrSet s : sets) {
        std::shared_ptr<const StrippedPartition> got = cache.Get(s);
        ExpectIdentical(*got, StrippedPartition::BuildForSet(rel, s), s.mask());
      }
    }
    EXPECT_TRUE(cache.AuditInvariants().ok());
    if (budget != PartitionCache::kUnbounded) {
      EXPECT_GT(cache.evictions(), 0);
    }
  }
}

TEST(PartitionCacheTest, OfdCleanRepairsIdenticallyWithAndWithoutCache) {
  GeneratedData data = MakeInteractingInstance();
  OfdCleanConfig plain;
  plain.min_candidate_classes = 2;
  OfdCleanResult want = OfdClean(data.rel, data.ontology, data.sigma, plain).Run();

  PartitionCache cache(data.rel);
  OfdCleanConfig cached = plain;
  cached.partitions = &cache;
  OfdCleanResult got = OfdClean(data.rel, data.ontology, data.sigma, cached).Run();

  EXPECT_GT(cache.misses(), 0);
  EXPECT_EQ(WriteCsv(got.best.repaired.ToCsv()), WriteCsv(want.best.repaired.ToCsv()));
  EXPECT_EQ(got.best.ontology_additions, want.best.ontology_additions);
  EXPECT_EQ(got.best.data_changes, want.best.data_changes);
}

// Gauges must track the counters through every mutation path (miss, hit,
// eviction, Invalidate, Clear). The audit itself cross-checks gauge vs
// counter, so a stale publish fails here.
TEST(PartitionCacheTest, GaugesStayFreshAcrossMutations) {
  Relation rel = MakeRandomRelation(3000, {5, 5, 5}, 31);
  StrippedPartition sample = StrippedPartition::Build(rel, 0);
  sample.Compact();
  MetricsRegistry metrics;
  PartitionCache cache(rel, PartitionCache::FootprintBytes(sample) * 2,
                       &metrics);
  auto expect_fresh = [&]() {
    MetricsSnapshot snap = metrics.Snapshot();
    EXPECT_EQ(snap.gauges.at("partition_cache.bytes"),
              static_cast<double>(cache.bytes()));
    EXPECT_EQ(snap.gauges.at("partition_cache.entries"),
              static_cast<double>(cache.size()));
    EXPECT_TRUE(cache.AuditInvariants().ok());
  };
  expect_fresh();
  for (AttrId a = 0; a < 3; ++a) cache.Get(AttrSet::Single(a));  // Evicts.
  expect_fresh();
  cache.Get(AttrSet::Single(2));  // Hit.
  expect_fresh();
  cache.Invalidate(AttrSet::Single(1));
  expect_fresh();
  cache.Clear();
  expect_fresh();
}

// The footprint must charge the map node, LRU node, and shared_ptr control
// block on top of the arena — a cache full of tiny partitions otherwise
// holds far more real memory than its budget.
TEST(PartitionCacheTest, FootprintChargesPerEntryOverhead) {
  EXPECT_GT(PartitionCache::EntryOverheadBytes(), 0);
  Relation rel = MakeRandomRelation(100, {4}, 37);
  StrippedPartition p = StrippedPartition::Build(rel, 0);
  p.Compact();
  EXPECT_EQ(PartitionCache::FootprintBytes(p),
            static_cast<int64_t>(sizeof(StrippedPartition)) +
                p.AllocatedBytes() + PartitionCache::EntryOverheadBytes());
}

// Concurrent Get() traffic at a budget that forces eviction (runs under
// TSan in CI): every returned partition must be correct and the accounting
// consistent afterwards.
TEST(PartitionCacheTest, ConcurrentGetsUnderEviction) {
  Relation rel = MakeRandomRelation(2000, {5, 5, 5, 5}, 43);
  StrippedPartition sample = StrippedPartition::Build(rel, 0);
  sample.Compact();
  PartitionCache cache(rel, PartitionCache::FootprintBytes(sample) * 2);
  std::vector<int64_t> want_errors;
  for (AttrId a = 0; a < 4; ++a) {
    want_errors.push_back(StrippedPartition::Build(rel, a).error());
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, &want_errors, t]() {
      for (int i = 0; i < 40; ++i) {
        // (t + i) % 4 is in [0, 4) == [0, num_attrs), in range by modulus.
        AttrId a = static_cast<AttrId>((t + i) % 4);
        std::shared_ptr<const StrippedPartition> p =
            cache.Get(AttrSet::Single(a));
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p->error(), want_errors[static_cast<size_t>(a)]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(cache.AuditInvariants().ok());
  EXPECT_GT(cache.evictions(), 0);
  EXPECT_LE(cache.bytes(), cache.budget_bytes());
}

}  // namespace
}  // namespace fastofd
