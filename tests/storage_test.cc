// The compressed storage tier: hybrid codec round-trips byte-identically
// across density regimes, refining a compressed operand matches the flat
// kernel bit for bit, and the PartitionCache two-tier policy (compress cold entries before evicting,
// promote on hit, refine prefixes in place) honors its budget and metrics —
// including regressions for the three cache-accounting bugs: stale gauges,
// undercounted footprints, and oversized targets caching their prefix chain.

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "relation/compressed_partition.h"
#include "relation/partition.h"
#include "relation/relation.h"
#include "relation/schema.h"

namespace fastofd {
namespace {

struct ColumnShape {
  const char* label;
  std::vector<uint64_t> cardinalities;  // 0 = unique per row.
};

Relation MakeRandomRelation(int rows, const ColumnShape& shape, uint64_t seed) {
  std::vector<std::string> names;
  for (size_t a = 0; a < shape.cardinalities.size(); ++a) {
    names.push_back("A" + std::to_string(a));
  }
  Relation rel((Schema(names)));
  Rng rng(seed);
  for (int r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    for (size_t a = 0; a < shape.cardinalities.size(); ++a) {
      uint64_t card = shape.cardinalities[a];
      uint64_t v = card == 0 ? static_cast<uint64_t>(r) : rng.NextUint(card);
      row.push_back("a" + std::to_string(a) + "_" + std::to_string(v));
    }
    rel.AppendRow(row);
  }
  return rel;
}

// Byte-level equality of two flat partitions (class order included).
void ExpectIdentical(const StrippedPartition& a, const StrippedPartition& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_classes(), b.num_classes());
  ASSERT_EQ(a.sum_sizes(), b.sum_sizes());
  for (int64_t i = 0; i < a.num_classes(); ++i) {
    RowSpan ca = a.Class(static_cast<size_t>(i));
    RowSpan cb = b.Class(static_cast<size_t>(i));
    ASSERT_EQ(ca.size(), cb.size()) << "class " << i;
    for (size_t k = 0; k < ca.size(); ++k) {
      ASSERT_EQ(ca[k], cb[k]) << "class " << i << " pos " << k;
    }
  }
}

// The density regimes the codec selector has to cover.
const ColumnShape kShapes[] = {
    {"dense-low-card", {4, 4, 4}},
    {"mid-card", {50, 50, 50}},
    {"sparse-high-card", {900, 900, 900}},
    {"mixed", {2, 64, 700}},
    {"all-unique", {0, 0}},
    {"one-class", {1, 1}},
};

TEST(CompressedPartitionTest, RoundTripAcrossDensityRegimes) {
  for (const ColumnShape& shape : kShapes) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      Relation rel = MakeRandomRelation(1800, shape, seed);
      for (AttrId a = 0; a < rel.num_attrs(); ++a) {
        StrippedPartition flat = StrippedPartition::Build(rel, a);
        CompressedPartition comp = CompressedPartition::Encode(flat);
        EXPECT_EQ(comp.num_rows(), flat.num_rows()) << shape.label;
        EXPECT_EQ(comp.num_classes(), flat.num_classes()) << shape.label;
        EXPECT_EQ(comp.sum_sizes(), flat.sum_sizes()) << shape.label;
        EXPECT_EQ(comp.error(), flat.error()) << shape.label;
        EXPECT_EQ(comp.IsSuperkey(), flat.IsSuperkey()) << shape.label;
        EXPECT_EQ(comp.IsAllRowsClass(), flat.IsAllRowsClass()) << shape.label;
        EXPECT_TRUE(comp.AuditInvariants().ok()) << shape.label;
        ExpectIdentical(comp.Decode(), flat);
      }
    }
  }
}

TEST(CompressedPartitionTest, MultiAttributeAndEmptySetRoundTrip) {
  Relation rel = MakeRandomRelation(1200, {"mixed", {3, 40, 500}}, 7);
  for (uint64_t mask = 0; mask < 8; ++mask) {
    StrippedPartition flat =
        StrippedPartition::BuildForSet(rel, AttrSet::FromMask(mask));
    CompressedPartition comp = CompressedPartition::Encode(flat);
    EXPECT_TRUE(comp.AuditInvariants().ok()) << "mask " << mask;
    ExpectIdentical(comp.Decode(), flat);
  }
}

TEST(CompressedPartitionTest, CursorStreamsClassesInOrder) {
  Relation rel = MakeRandomRelation(1500, {"mid", {30, 30}}, 11);
  StrippedPartition flat = StrippedPartition::Build(rel, 0);
  CompressedPartition comp = CompressedPartition::Encode(flat);
  size_t i = 0;
  for (CompressedPartition::Cursor cur(comp); cur.Next(); ++i) {
    RowSpan want = flat.Class(i);
    RowSpan got = cur.rows();
    ASSERT_EQ(got.size(), want.size()) << "class " << i;
    for (size_t k = 0; k < want.size(); ++k) ASSERT_EQ(got[k], want[k]);
  }
  EXPECT_EQ(i, static_cast<size_t>(flat.num_classes()));
}

TEST(CompressedPartitionTest, DenseClassesCompressAtLeastThreefold) {
  // Low-cardinality columns (the OFD workload shape: CC / SYMP / DIAG-style
  // categorical attributes) are the cache's dominant residents; they must
  // hit the >=3x bytes/row target that the bench gate enforces repo-wide.
  Relation rel = MakeRandomRelation(20000, {"dense", {4, 8, 16, 32}}, 5);
  int64_t flat_bytes = 0;
  int64_t comp_bytes = 0;
  for (AttrId a = 0; a < rel.num_attrs(); ++a) {
    StrippedPartition flat = StrippedPartition::Build(rel, a);
    CompressedPartition comp = CompressedPartition::Encode(flat);
    flat_bytes += comp.FlatEquivalentBytes();
    comp_bytes += comp.EncodedBytes();
    ExpectIdentical(comp.Decode(), flat);
  }
  EXPECT_GE(flat_bytes, comp_bytes * 3)
      << "flat " << flat_bytes << " vs compressed " << comp_bytes;
}

// Streaming-kernel identity: refining a compressed operand must equal
// refining its flat form byte for byte, across density shapes.
TEST(CompressedKernelsTest, MatchFlatKernelsBitForBit) {
  for (const ColumnShape& shape : kShapes) {
    Relation rel = MakeRandomRelation(1600, shape, 17);
    if (rel.num_attrs() < 2) continue;
    StrippedPartition a = StrippedPartition::Build(rel, 0);
    CompressedPartition ca = CompressedPartition::Encode(a);
    PartitionScratch scratch;

    StrippedPartition refined_want;
    StrippedPartition::RefineInto(a, rel.Column(1), rel.dict().size(), &scratch,
                                  &refined_want);
    StrippedPartition refined_got;
    StrippedPartition::RefineInto(ca, rel.Column(1), rel.dict().size(),
                                  &scratch, &refined_got);
    ExpectIdentical(refined_got, refined_want);
  }
}

// --- Two-tier PartitionCache -----------------------------------------------

TEST(TwoTierCacheTest, CompressesColdEntriesInsteadOfEvicting) {
  Relation rel = MakeRandomRelation(4000, {"dense", {6, 6, 6, 6}}, 21);
  StrippedPartition sample = StrippedPartition::Build(rel, 0);
  sample.Compact();
  const int64_t flat_cost = PartitionCache::FootprintBytes(sample);
  // Budget fits ~2.5 flat partitions; with the cold tier all four stay
  // resident (dense partitions compress ~4x).
  MetricsRegistry metrics;
  PartitionCache cache(rel, flat_cost * 2 + flat_cost / 2, &metrics);
  std::vector<std::shared_ptr<const StrippedPartition>> held;
  for (AttrId a = 0; a < 4; ++a) {
    held.push_back(cache.Get(AttrSet::Single(a)));
    ASSERT_TRUE(cache.AuditInvariants().ok());
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.evictions(), 0);
  EXPECT_GT(cache.compressions(), 0);
  EXPECT_GT(cache.cold_entries(), 0u);
  EXPECT_LE(cache.bytes(), cache.budget_bytes());

  // A hit on a cold entry decodes, promotes, and returns identical rows.
  const int64_t promotions_before = cache.promotions();
  std::shared_ptr<const StrippedPartition> again =
      cache.Get(AttrSet::Single(0));
  ExpectIdentical(*again, *held[0]);
  EXPECT_GT(cache.promotions(), promotions_before);
  EXPECT_TRUE(cache.AuditInvariants().ok());
}

TEST(TwoTierCacheTest, ColdPrefixRefinesInPlaceWithoutPromotion) {
  Relation rel = MakeRandomRelation(4000, {"dense", {6, 6, 6, 6}}, 23);
  StrippedPartition sample = StrippedPartition::Build(rel, 0);
  sample.Compact();
  const int64_t flat_cost = PartitionCache::FootprintBytes(sample);
  PartitionCache cache(rel, flat_cost * 3);
  for (AttrId a = 0; a < 4; ++a) cache.Get(AttrSet::Single(a));
  ASSERT_GT(cache.compressions(), 0);
  // Making room for {a3} compressed the two LRU entries, {a0} and {a1}.
  // Computing {a0, a1} refines its prefix {a1} = attrs.Without(First())
  // straight off the compressed form (no promotion of the prefix).
  const int64_t promotions_before = cache.promotions();
  std::shared_ptr<const StrippedPartition> pair =
      cache.Get(AttrSet::Of({0, 1}));
  // The streamed refine must match refining {a1} by attribute 0 row for row.
  ExpectIdentical(*pair, StrippedPartition::Refine(StrippedPartition::Build(rel, 1),
                                                   rel, 0));
  EXPECT_EQ(cache.promotions(), promotions_before);
  EXPECT_TRUE(cache.AuditInvariants().ok());
}

// Satellite regression 1: gauges must track the counters through every
// mutation path (Get / compress / promote / Invalidate / Clear). The audit
// itself cross-checks gauge vs counter, so a stale publish fails here.
TEST(TwoTierCacheTest, GaugesStayFreshAcrossMutations) {
  Relation rel = MakeRandomRelation(3000, {"dense", {5, 5, 5}}, 31);
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
    EXPECT_EQ(snap.gauges.at("partition_cache.cold_entries"),
              static_cast<double>(cache.cold_entries()));
    EXPECT_TRUE(cache.AuditInvariants().ok());
  };
  expect_fresh();
  for (AttrId a = 0; a < 3; ++a) cache.Get(AttrSet::Single(a));
  expect_fresh();
  cache.Get(AttrSet::Single(0));  // Promotion path.
  expect_fresh();
  cache.Invalidate(AttrSet::Single(1));
  expect_fresh();
  cache.Clear();
  expect_fresh();
}

// Satellite regression 2: the footprint must charge the map node, LRU node,
// and shared_ptr control block on top of the arena — a cache full of tiny
// partitions otherwise holds far more real memory than its budget.
TEST(TwoTierCacheTest, FootprintChargesPerEntryOverhead) {
  EXPECT_GT(PartitionCache::EntryOverheadBytes(), 0);
  Relation rel = MakeRandomRelation(100, {"tiny", {4}}, 37);
  StrippedPartition p = StrippedPartition::Build(rel, 0);
  p.Compact();
  EXPECT_EQ(PartitionCache::FootprintBytes(p),
            static_cast<int64_t>(sizeof(StrippedPartition)) +
                p.AllocatedBytes() + PartitionCache::EntryOverheadBytes());
  CompressedPartition c = CompressedPartition::Encode(p);
  EXPECT_EQ(PartitionCache::FootprintBytes(c),
            static_cast<int64_t>(sizeof(CompressedPartition)) +
                c.EncodedBytes() + PartitionCache::EntryOverheadBytes());
}

// Satellite regression 3: a Get whose target exceeds the whole budget must
// not cache the prefix chain it computed on the way — before the fix the
// prefixes were inserted eagerly and evicted the entire live working set.
TEST(TwoTierCacheTest, OversizedTargetDoesNotCacheItsPrefixChain) {
  // A0/A1 unique -> tiny (empty superkey) partitions: the working set.
  // A2..A4 low-cardinality -> every partition over them is large.
  Relation rel =
      MakeRandomRelation(3000, {"oversized", {0, 0, 4, 4, 4}}, 41);
  StrippedPartition small = StrippedPartition::BuildForSet(rel, AttrSet::Single(0));
  small.Compact();
  const int64_t budget = 2 * PartitionCache::FootprintBytes(small) + 64;
  PartitionCache cache(rel, budget);
  cache.Get(AttrSet::Single(0));
  cache.Get(AttrSet::Single(1));
  ASSERT_EQ(cache.size(), 2u);

  AttrSet target = AttrSet::Of({2, 3, 4});
  StrippedPartition want = StrippedPartition::BuildForSet(rel, target);
  ASSERT_GT(PartitionCache::FootprintBytes(want), budget);  // Truly oversized.
  std::shared_ptr<const StrippedPartition> p = cache.Get(target);
  EXPECT_EQ(p->error(), want.error());
  EXPECT_EQ(p->num_classes(), want.num_classes());

  // The working set survived, and no scaffolding was retained.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0);
  EXPECT_EQ(cache.compressions(), 0);
  const int64_t hits_before = cache.hits();
  cache.Get(AttrSet::Single(0));
  cache.Get(AttrSet::Single(1));
  EXPECT_EQ(cache.hits(), hits_before + 2);
  EXPECT_TRUE(cache.AuditInvariants().ok());
}

// Concurrent Get() traffic across the compression/promotion churn point
// (runs under TSan in CI): every returned partition must be correct and the
// accounting consistent afterwards.
TEST(TwoTierCacheTest, ConcurrentGetsAcrossTierChurn) {
  Relation rel = MakeRandomRelation(2000, {"dense", {5, 5, 5, 5}}, 43);
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
  EXPECT_LE(cache.bytes(), cache.budget_bytes());
}

}  // namespace
}  // namespace fastofd
