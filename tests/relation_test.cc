// Unit tests for the relation substrate: AttrSet, Schema, Relation, and the
// stripped-partition algebra (including brute-force cross-checks).

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "relation/attr_set.h"
#include "relation/partition.h"
#include "relation/relation.h"
#include "relation/schema.h"

namespace fastofd {
namespace {

TEST(AttrSetTest, BasicOps) {
  AttrSet s = AttrSet::Of({0, 3, 5});
  EXPECT_EQ(s.size(), 3);
  EXPECT_TRUE(s.Contains(3));
  EXPECT_FALSE(s.Contains(1));
  EXPECT_EQ(s.With(1).size(), 4);
  EXPECT_EQ(s.Without(3).size(), 2);
  EXPECT_EQ(s.First(), 0);
  EXPECT_EQ(s.ToVector(), (std::vector<AttrId>{0, 3, 5}));
}

TEST(AttrSetTest, SetAlgebra) {
  AttrSet a = AttrSet::Of({0, 1, 2});
  AttrSet b = AttrSet::Of({2, 3});
  EXPECT_EQ(a.Union(b), AttrSet::Of({0, 1, 2, 3}));
  EXPECT_EQ(a.Intersect(b), AttrSet::Of({2}));
  EXPECT_EQ(a.Minus(b), AttrSet::Of({0, 1}));
  EXPECT_TRUE(AttrSet::Of({1}).IsSubsetOf(a));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(AttrSet::Of({4})));
}

TEST(AttrSetTest, AllAndEmpty) {
  EXPECT_TRUE(AttrSet().empty());
  EXPECT_EQ(AttrSet::All(5).size(), 5);
  EXPECT_EQ(AttrSet::All(64).size(), 64);
  EXPECT_EQ(AttrSet::All(0).size(), 0);
}

TEST(SchemaTest, NamesAndLookup) {
  Schema s({"CC", "CTRY", "SYMP"});
  EXPECT_EQ(s.num_attrs(), 3);
  EXPECT_EQ(s.Find("CTRY"), 1);
  EXPECT_EQ(s.Find("nope"), -1);
  EXPECT_EQ(s.name(2), "SYMP");
  EXPECT_EQ(s.Render(AttrSet::Of({0, 2})), "[CC,SYMP]");
}

Relation MakeTable1() {
  // The paper's Table 1 (clinical trials sample), original values.
  Schema schema({"CC", "CTRY", "SYMP", "TEST", "DIAG", "MED"});
  std::vector<std::vector<std::string>> rows = {
      {"US", "USA", "joint pain", "CT", "osteoarthritis", "ibuprofen"},
      {"IN", "India", "joint pain", "CT", "osteoarthritis", "NSAID"},
      {"CA", "Canada", "joint pain", "CT", "osteoarthritis", "naproxen"},
      {"IN", "Bharat", "nausea", "EEG", "migrane", "analgesic"},
      {"US", "America", "nausea", "EEG", "migrane", "tylenol"},
      {"US", "USA", "nausea", "EEG", "migrane", "acetaminophen"},
      {"IN", "India", "chest pain", "X-ray", "hypertension", "morphine"},
      {"US", "USA", "headache", "CT", "hypertension", "cartia"},
      {"US", "USA", "headache", "MRI", "hypertension", "tiazac"},
      {"US", "America", "headache", "MRI", "hypertension", "tiazac"},
      {"US", "USA", "headache", "CT", "hypertension", "tiazac"},
  };
  auto rel = Relation::FromRows(std::move(schema), rows);
  EXPECT_TRUE(rel.ok());
  return std::move(rel).value();
}

TEST(RelationTest, BuildAndAccess) {
  Relation rel = MakeTable1();
  EXPECT_EQ(rel.num_rows(), 11);
  EXPECT_EQ(rel.num_attrs(), 6);
  EXPECT_EQ(rel.StringAt(3, 1), "Bharat");
  EXPECT_EQ(rel.At(0, 0), rel.At(4, 0));  // US == US
  EXPECT_NE(rel.At(0, 1), rel.At(4, 1));  // USA != America
}

TEST(RelationTest, SetCellAndDistance) {
  Relation a = MakeTable1();
  Relation b = MakeTable1();
  b.Set(8, 5, "ASA");
  b.Set(10, 5, "adizem");
  EXPECT_EQ(a.CellDistance(b), 2);
  EXPECT_EQ(b.StringAt(8, 5), "ASA");
  // Self-distance is zero.
  EXPECT_EQ(a.CellDistance(a), 0);
}

TEST(RelationTest, CsvRoundTrip) {
  Relation rel = MakeTable1();
  CsvTable t = rel.ToCsv();
  auto rel2 = Relation::FromCsv(t);
  ASSERT_TRUE(rel2.ok());
  EXPECT_EQ(rel.CellDistance(rel2.value()), 0);
}

TEST(RelationTest, ArityMismatchRejected) {
  Schema schema({"A", "B"});
  auto rel = Relation::FromRows(schema, {{"1", "2"}, {"1"}});
  EXPECT_FALSE(rel.ok());
}

// ---------------------------------------------------------------------------
// Partitions.

// Brute-force reference partition: group rows by their X-projection strings.
std::set<std::set<RowId>> ReferenceStripped(const Relation& rel, AttrSet attrs) {
  std::map<std::string, std::set<RowId>> groups;
  for (RowId r = 0; r < rel.num_rows(); ++r) {
    std::string key;
    for (AttrId a : attrs.ToVector()) {
      key += rel.StringAt(r, a);
      key += '\x1f';
    }
    groups[key].insert(r);
  }
  std::set<std::set<RowId>> out;
  for (auto& [_, g] : groups) {
    if (g.size() >= 2) out.insert(g);
  }
  return out;
}

std::set<std::set<RowId>> AsSets(const StrippedPartition& p) {
  std::set<std::set<RowId>> out;
  for (const auto& c : p.classes()) out.insert(std::set<RowId>(c.begin(), c.end()));
  return out;
}

TEST(PartitionTest, SingleAttributeMatchesPaperExample) {
  Relation rel = MakeTable1();
  AttrId cc = rel.schema().Find("CC");
  StrippedPartition p = StrippedPartition::Build(rel, cc);
  // Π*_CC = {{t1,t5,t6,t8..t11},{t2,t4,t7}} (0-based: {0,4,5,7,8,9,10},{1,3,6});
  // {t3} = {2} is stripped.
  EXPECT_EQ(p.num_classes(), 2);
  EXPECT_EQ(p.sum_sizes(), 10);
  EXPECT_EQ(AsSets(p), ReferenceStripped(rel, AttrSet::Single(cc)));
}

TEST(PartitionTest, ProductMatchesBruteForce) {
  Relation rel = MakeTable1();
  for (int a = 0; a < rel.num_attrs(); ++a) {
    for (int b = a + 1; b < rel.num_attrs(); ++b) {
      AttrSet s = AttrSet::Of({a, b});
      StrippedPartition p = StrippedPartition::Product(
          StrippedPartition::Build(rel, a), StrippedPartition::Build(rel, b));
      EXPECT_EQ(AsSets(p), ReferenceStripped(rel, s))
          << "attrs " << rel.schema().Render(s);
    }
  }
}

TEST(PartitionTest, EmptySetIsSingleClass) {
  Relation rel = MakeTable1();
  StrippedPartition p = StrippedPartition::BuildForSet(rel, AttrSet());
  EXPECT_EQ(p.num_classes(), 1);
  EXPECT_EQ(p.sum_sizes(), rel.num_rows());
}

TEST(PartitionTest, SuperkeyDetection) {
  // Build a tiny relation where {A,B} is a key but neither A nor B is.
  Schema schema({"A", "B"});
  auto rel = Relation::FromRows(schema, {{"1", "1"}, {"1", "2"}, {"2", "1"}});
  ASSERT_TRUE(rel.ok());
  const Relation& r = rel.value();
  EXPECT_FALSE(StrippedPartition::Build(r, 0).IsSuperkey());
  EXPECT_TRUE(StrippedPartition::BuildForSet(r, AttrSet::Of({0, 1})).IsSuperkey());
}

TEST(PartitionTest, ErrorAndFullCardinality) {
  Relation rel = MakeTable1();
  AttrId cc = rel.schema().Find("CC");
  StrippedPartition p = StrippedPartition::Build(rel, cc);
  // |Π_CC| = 3 classes total (US, IN, CA); e = ||Π*|| - |Π*| = 10 - 2 = 8.
  EXPECT_EQ(p.full_num_classes(), 3);
  EXPECT_EQ(p.error(), 8);
}

TEST(PartitionTest, FdHoldsViaPartitions) {
  Relation rel = MakeTable1();
  const Schema& s = rel.schema();
  // SYMP -> DIAG holds in Table 1 (each symptom maps to one diagnosis).
  StrippedPartition symp = StrippedPartition::Build(rel, s.Find("SYMP"));
  StrippedPartition symp_diag = StrippedPartition::BuildForSet(
      rel, AttrSet::Of({s.Find("SYMP"), s.Find("DIAG")}));
  EXPECT_TRUE(FdHolds(symp, symp_diag));
  // CC -> CTRY does NOT hold syntactically (USA vs America).
  StrippedPartition cc = StrippedPartition::Build(rel, s.Find("CC"));
  StrippedPartition cc_ctry = StrippedPartition::BuildForSet(
      rel, AttrSet::Of({s.Find("CC"), s.Find("CTRY")}));
  EXPECT_FALSE(FdHolds(cc, cc_ctry));
}

class PartitionRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(PartitionRandomTest, ProductAgreesWithBruteForceOnRandomRelations) {
  Rng rng(1000 + GetParam());
  const int n_attrs = 4;
  const int n_rows = 40;
  Schema schema({"A", "B", "C", "D"});
  Relation rel((Schema(schema)));
  for (int r = 0; r < n_rows; ++r) {
    std::vector<std::string> row;
    for (int a = 0; a < n_attrs; ++a) {
      row.push_back("v" + std::to_string(rng.NextUint(3)));
    }
    rel.AppendRow(row);
  }
  // Check every attribute set up to size 3.
  for (uint64_t mask = 1; mask < 16; ++mask) {
    AttrSet s = AttrSet::FromMask(mask);
    StrippedPartition p = StrippedPartition::BuildForSet(rel, s);
    EXPECT_EQ(AsSets(p), ReferenceStripped(rel, s)) << "mask " << mask;
    // Stats invariants.
    int64_t total = 0;
    for (const auto& c : p.classes()) {
      EXPECT_GE(c.size(), 2u);
      total += static_cast<int64_t>(c.size());
    }
    EXPECT_EQ(total, p.sum_sizes());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionRandomTest, ::testing::Range(0, 10));

TEST(PartitionCacheTest, CachesAndMatchesDirect) {
  Relation rel = MakeTable1();
  PartitionCache cache(rel);
  AttrSet s = AttrSet::Of({0, 2, 4});
  std::shared_ptr<const StrippedPartition> p = cache.Get(s);
  EXPECT_EQ(AsSets(*p), ReferenceStripped(rel, s));
  EXPECT_EQ(cache.size(), 1u);  // Only the set itself: no prefixes are cached.
  EXPECT_EQ(cache.misses(), 1);
  cache.Get(s);
  EXPECT_EQ(cache.size(), 1u);  // No recomputation.
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 1);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0);
}

int64_t Footprint(const Relation& rel, AttrSet attrs) {
  return PartitionCache::FootprintBytes(
      StrippedPartition::BuildForSet(rel, attrs));
}

TEST(PartitionCacheTest, LruEvictionOrder) {
  Relation rel = MakeTable1();
  AttrSet a = AttrSet::Of({0});  // CC
  AttrSet b = AttrSet::Of({2});  // SYMP
  AttrSet c = AttrSet::Of({3});  // TEST
  // Budget admits any two of the three partitions, never all three.
  const int64_t fa = Footprint(rel, a);
  const int64_t fb = Footprint(rel, b);
  const int64_t fc = Footprint(rel, c);
  PartitionCache cache(rel, std::max({fa + fb, fa + fc, fb + fc}));

  cache.Get(a);
  cache.Get(b);
  EXPECT_EQ(cache.size(), 2u);
  cache.Get(a);  // Touch: a becomes most-recently-used.
  EXPECT_EQ(cache.hits(), 1);
  cache.Get(c);  // Over budget: evicts b — the LRU entry — not a.
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_LE(cache.bytes(), cache.budget_bytes());
  cache.Get(a);
  EXPECT_EQ(cache.hits(), 2);  // a survived the eviction.
  cache.Get(b);
  EXPECT_EQ(cache.misses(), 4);  // b did not.
}

TEST(PartitionCacheTest, OversizedServedUncached) {
  Relation rel = MakeTable1();
  PartitionCache cache(rel, 1);  // Nothing fits.
  AttrSet s = AttrSet::Of({0, 2});
  std::shared_ptr<const StrippedPartition> p = cache.Get(s);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(AsSets(*p), ReferenceStripped(rel, s));  // Correct even uncached.
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0);
  EXPECT_EQ(cache.evictions(), 0);  // Serving uncached is not an eviction.
}

TEST(PartitionCacheTest, BudgetInvariantUnderSweep) {
  Relation rel = MakeTable1();
  // A budget that retains some partitions but forces steady eviction.
  PartitionCache cache(rel, 4 * Footprint(rel, AttrSet::Of({5})));
  for (uint64_t mask = 1; mask < 32; ++mask) {
    AttrSet s = AttrSet::FromMask(mask);
    std::shared_ptr<const StrippedPartition> p = cache.Get(s);
    EXPECT_EQ(AsSets(*p), ReferenceStripped(rel, s)) << "mask " << mask;
    EXPECT_LE(cache.bytes(), cache.budget_bytes());
  }
  EXPECT_GT(cache.evictions(), 0);
}

TEST(PartitionCacheTest, RefetchAfterEvictionMatches) {
  Relation rel = MakeTable1();
  AttrSet a = AttrSet::Of({1});  // CTRY
  AttrSet b = AttrSet::Of({4});  // DIAG
  // Budget holds exactly one of the two entries at a time.
  PartitionCache cache(rel, std::max(Footprint(rel, a), Footprint(rel, b)));
  std::shared_ptr<const StrippedPartition> held = cache.Get(a);
  EXPECT_EQ(cache.size(), 1u);
  cache.Get(b);  // Evicts a.
  EXPECT_EQ(cache.evictions(), 1);
  // The pointer held across the eviction stays valid...
  EXPECT_EQ(AsSets(*held), ReferenceStripped(rel, a));
  // ...and a re-fetch recomputes the identical partition.
  std::shared_ptr<const StrippedPartition> again = cache.Get(a);
  EXPECT_EQ(cache.misses(), 3);
  EXPECT_NE(again.get(), held.get());
  EXPECT_EQ(AsSets(*again), ReferenceStripped(rel, a));
}

}  // namespace
}  // namespace fastofd
