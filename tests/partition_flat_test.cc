// Property tests for the flat partition kernels: IntersectInto / RefineInto
// against a naive map-based reference on randomized relations
// (all-singleton, all-one-class, and ragged class-size shapes), byte for byte
// against first-touch grouping on mostly-2-row classes, the lattice
// step LatticeChild against BuildForSet on every sibling pair, flat-layout
// audit coverage, and the PartitionCache eviction-at-budget contract.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "relation/partition.h"
#include "relation/relation.h"
#include "relation/schema.h"

namespace fastofd {
namespace {

// Shapes for the randomized relations: cardinality 0 means "every cell
// unique" (all rows singleton classes), 1 means one giant class.
struct ColumnShape {
  const char* label;
  std::vector<uint64_t> cardinalities;  // One per attribute.
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

// Naive reference: group rows by their tuple of value ids over `attrs`,
// keep the non-singleton groups, order classes by first row. This is the
// definition of a stripped partition, independent of the flat layout.
std::vector<std::vector<RowId>> NaiveClasses(const Relation& rel, AttrSet attrs) {
  std::map<std::vector<ValueId>, std::vector<RowId>> groups;
  for (RowId r = 0; r < rel.num_rows(); ++r) {
    std::vector<ValueId> key;
    for (AttrId a : attrs.ToVector()) {
      key.push_back(rel.Column(a)[static_cast<size_t>(r)]);
    }
    groups[key].push_back(r);
  }
  std::map<RowId, std::vector<RowId>> by_head;  // Rows are appended ascending.
  for (auto& [key, rows] : groups) {
    if (rows.size() >= 2) by_head[rows.front()] = rows;
  }
  std::vector<std::vector<RowId>> out;
  for (auto& [head, rows] : by_head) out.push_back(rows);
  return out;
}

// Canonical form of a flat partition for comparison: classes ordered by
// first row (the kernels emit rows strictly ascending within a class, but
// smaller-side probing can permute class order).
std::vector<std::vector<RowId>> Canonical(const StrippedPartition& p) {
  std::map<RowId, std::vector<RowId>> by_head;
  for (const auto& cls : p.ToClassVectors()) by_head[cls.front()] = cls;
  std::vector<std::vector<RowId>> out;
  for (auto& [head, rows] : by_head) out.push_back(rows);
  return out;
}

TEST(FlatKernelPropertyTest, MatchesNaiveReferenceAcrossShapes) {
  const std::vector<ColumnShape> shapes = {
      {"all-singleton", {0, 0}},
      {"all-one-class", {1, 1}},
      {"singleton-x-giant", {0, 1}},
      {"ragged", {3, 40}},
      {"ragged-skewed", {2, 7}},
      {"mid", {16, 16}},
  };
  const std::vector<int> row_counts = {0, 1, 2, 3, 17, 256, 1000};
  for (const ColumnShape& shape : shapes) {
    for (int rows : row_counts) {
      SCOPED_TRACE(std::string(shape.label) + " rows=" + std::to_string(rows));
      Relation rel = MakeRandomRelation(rows, shape, 1234u + static_cast<uint64_t>(rows));
      AttrSet both = AttrSet::Of({0, 1});
      std::vector<std::vector<RowId>> expected = NaiveClasses(rel, both);

      StrippedPartition fa = StrippedPartition::Build(rel, 0);
      StrippedPartition fb = StrippedPartition::Build(rel, 1);
      ASSERT_TRUE(fa.AuditInvariants(rel, AttrSet::Single(0)).ok());
      ASSERT_TRUE(fb.AuditInvariants(rel, AttrSet::Single(1)).ok());

      PartitionScratch scratch;
      StrippedPartition out;

      // Intersection kernel (run twice so the second call exercises the
      // warmed, zero-allocation path into a dirty `out`).
      for (int pass = 0; pass < 2; ++pass) {
        StrippedPartition::IntersectInto(fa, fb, &scratch, &out);
        EXPECT_EQ(Canonical(out), expected) << "intersect pass " << pass;
        EXPECT_TRUE(out.AuditInvariants(rel, both).ok());
      }

      // Refinement by the dictionary-coded column, no column partition.
      StrippedPartition::RefineInto(fa, rel.Column(1), rel.dict().size(),
                                    &scratch, &out);
      EXPECT_EQ(Canonical(out), expected) << "refine";
      EXPECT_TRUE(out.AuditInvariants(rel, both).ok());

      // BuildForSet is the ping-pong refinement composition.
      StrippedPartition direct = StrippedPartition::BuildForSet(rel, both);
      EXPECT_EQ(Canonical(direct), expected) << "build-for-set";
    }
  }
}

// A relation whose attribute 1 is attribute 0 read one row later
// (cyclically): both columns have the same class sizes, so their stripped
// partitions tie on sum_sizes, but they group different rows. Attribute 2
// is random with `card` values.
Relation MakeShiftedRelation(int rows, uint64_t card, uint64_t seed) {
  Relation rel(Schema({"A0", "A1", "A2"}));
  Rng rng(seed);
  std::vector<uint64_t> a0(static_cast<size_t>(rows));
  for (uint64_t& v : a0) v = rng.NextUint(card);
  for (int r = 0; r < rows; ++r) {
    const uint64_t shifted = a0[static_cast<size_t>((r + 1) % rows)];
    rel.AppendRow({"a0_" + std::to_string(a0[static_cast<size_t>(r)]),
                   "a1_" + std::to_string(shifted),
                   "a2_" + std::to_string(rng.NextUint(card))});
  }
  return rel;
}

// The lattice step on every sibling pair X∪{a}, X∪{b} with |X| <= 2 (so
// children of 2 to 4 attributes), in both operand orders: the child must
// equal BuildForSet(X∪{a,b}) class by class and pass the partition audit,
// and it must be exactly the smaller parent refined by the other parent's
// column (the left parent on a tie), so its class order is deterministic.
TEST(LatticeChildPropertyTest, MatchesBuildForSetOnEverySiblingPair) {
  int level1_pairs = 0, superkey_pairs = 0, left_bigger = 0, right_bigger = 0,
      ties = 0;
  auto check_all_pairs = [&](const Relation& rel) {
    const int n = rel.num_attrs();
    std::map<uint64_t, StrippedPartition> built;
    auto partition = [&](AttrSet attrs) -> const StrippedPartition& {
      auto it = built.find(attrs.mask());
      if (it == built.end()) {
        it = built.emplace(attrs.mask(), StrippedPartition::BuildForSet(rel, attrs)).first;
      }
      return it->second;
    };
    for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
      const AttrSet x = AttrSet::FromMask(mask);
      if (x.size() > 2) continue;
      for (AttrId a = 0; a < n; ++a) {
        for (AttrId b = 0; b < n; ++b) {
          if (a == b || x.Contains(a) || x.Contains(b)) continue;
          SCOPED_TRACE("X mask " + std::to_string(mask) + " a=" + std::to_string(a) +
                       " b=" + std::to_string(b));
          const StrippedPartition& left = partition(x.With(a));
          const StrippedPartition& right = partition(x.With(b));
          const AttrSet combined = x.With(a).With(b);
          StrippedPartition child =
              StrippedPartition::LatticeChild(rel, left, a, right, b);
          EXPECT_EQ(Canonical(child), Canonical(partition(combined)));
          EXPECT_TRUE(child.AuditInvariants(rel, combined).ok());
          const bool refine_left = left.sum_sizes() <= right.sum_sizes();
          StrippedPartition expected = refine_left
                                           ? StrippedPartition::Refine(left, rel, b)
                                           : StrippedPartition::Refine(right, rel, a);
          EXPECT_EQ(child.ToClassVectors(), expected.ToClassVectors());

          if (x.empty()) ++level1_pairs;
          if (left.IsSuperkey() || right.IsSuperkey()) ++superkey_pairs;
          if (left.sum_sizes() > right.sum_sizes()) ++left_bigger;
          if (left.sum_sizes() < right.sum_sizes()) ++right_bigger;
          if (left.sum_sizes() == right.sum_sizes() && !left.IsSuperkey()) ++ties;
        }
      }
    }
  };
  // Attribute 2 is all-distinct (a superkey), attribute 3 one giant class.
  const ColumnShape shape = {"mixed", {3, 7, 0, 1}};
  for (uint64_t seed : {1u, 7u, 42u, 1234u}) {
    for (int rows : {64, 300}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " rows=" + std::to_string(rows));
      check_all_pairs(MakeRandomRelation(rows, shape, seed));
      check_all_pairs(MakeShiftedRelation(rows, 5, seed));
    }
  }
  // Every case the kernel distinguishes was exercised.
  EXPECT_GT(level1_pairs, 0);
  EXPECT_GT(superkey_pairs, 0);
  EXPECT_GT(left_bigger, 0);
  EXPECT_GT(right_bigger, 0);
  EXPECT_GT(ties, 0);
}

// EmitGroups' contract spelled out: each class of `outer`, in order, split
// by key(row) (negative = the row is dropped) into groups in first-touch
// order, keeping the groups of 2+ rows.
template <typename Key>
std::vector<std::vector<RowId>> NaiveFirstTouch(const StrippedPartition& outer, Key key) {
  std::vector<std::vector<RowId>> out;
  for (RowSpan cls : outer.classes()) {
    std::vector<int32_t> order;
    std::map<int32_t, std::vector<RowId>> groups;
    for (RowId r : cls) {
      const int32_t k = key(r);
      if (k < 0) continue;
      std::vector<RowId>& group = groups[k];
      if (group.empty()) order.push_back(k);
      group.push_back(r);
    }
    for (int32_t k : order) {
      if (groups[k].size() >= 2) out.push_back(groups[k]);
    }
  }
  return out;
}

// Classes of two rows take a table-free path through the kernels. A0 holds
// every value exactly twice; A1 mostly twice, some values 3 or 4 times, so
// both paths run in one call. B keeps some pairs, splits others, and is
// unique on about a quarter of the rows, so Π*_B strips them and the
// intersection probes them as -1. Refinement and intersection must match
// the first-touch grouping byte for byte.
TEST(FlatKernelPropertyTest, TwoRowClassesMatchFirstTouchGrouping) {
  constexpr int kRows = 2000;
  Rng rng(2024);
  std::vector<int> pairs(kRows), mixed(kRows);
  for (int r = 0; r < kRows; ++r) pairs[static_cast<size_t>(r)] = r / 2;
  for (int r = 0, group = 0; r < kRows; ++group) {
    const int size = group % 10 == 0 ? 3 + group % 20 / 10 : 2;
    for (int k = 0; k < size && r < kRows; ++k) mixed[static_cast<size_t>(r++)] = group;
  }
  rng.Shuffle(&pairs);
  rng.Shuffle(&mixed);
  Relation rel(Schema({"A0", "A1", "B"}));
  for (int r = 0; r < kRows; ++r) {
    const std::string b = rng.NextUint(4) == 0 ? "u" + std::to_string(r)
                                               : "b" + std::to_string(rng.NextUint(3));
    rel.AppendRow({"p" + std::to_string(pairs[static_cast<size_t>(r)]),
                   "m" + std::to_string(mixed[static_cast<size_t>(r)]), b});
  }
  const StrippedPartition pb = StrippedPartition::Build(rel, 2);
  std::vector<int32_t> b_class(kRows, -1);  // Row -> class of Π*_B, -1 stripped.
  for (size_t ci = 0; ci < static_cast<size_t>(pb.num_classes()); ++ci) {
    for (RowId r : pb.Class(ci)) b_class[static_cast<size_t>(r)] = static_cast<int32_t>(ci);
  }
  const std::vector<ValueId>& column_b = rel.Column(2);
  PartitionScratch scratch;
  StrippedPartition out;
  for (AttrId a : {0, 1}) {
    SCOPED_TRACE("A" + std::to_string(a));
    const StrippedPartition pa = StrippedPartition::Build(rel, a);
    const AttrSet both = AttrSet::Of({a, 2});
    int64_t pairs_kept = 0, pairs_split = 0, pairs_stripped = 0;
    for (RowSpan cls : pa.classes()) {
      if (cls.size() != 2) continue;
      const int32_t k0 = b_class[static_cast<size_t>(cls[0])];
      const int32_t k1 = b_class[static_cast<size_t>(cls[1])];
      if (k0 < 0 || k1 < 0) ++pairs_stripped;
      if (column_b[static_cast<size_t>(cls[0])] == column_b[static_cast<size_t>(cls[1])]) {
        ++pairs_kept;
      } else {
        ++pairs_split;
      }
    }
    EXPECT_GT(pairs_kept, 0);
    EXPECT_GT(pairs_split, 0);
    EXPECT_GT(pairs_stripped, 0);
    if (a == 0) {
      EXPECT_EQ(pa.num_classes() * 2, pa.sum_sizes());
    }

    StrippedPartition::RefineInto(pa, column_b, rel.dict().size(), &scratch, &out);
    EXPECT_EQ(out.ToClassVectors(),
              NaiveFirstTouch(pa, [&](RowId r) { return column_b[static_cast<size_t>(r)]; }))
        << "refine";
    EXPECT_TRUE(out.AuditInvariants(rel, both).ok());

    // Π*_B is the smaller operand, so it is the probe side in either order.
    ASSERT_LT(pb.sum_sizes(), pa.sum_sizes());
    const std::vector<std::vector<RowId>> probed =
        NaiveFirstTouch(pa, [&](RowId r) { return b_class[static_cast<size_t>(r)]; });
    StrippedPartition::IntersectInto(pa, pb, &scratch, &out);
    EXPECT_EQ(out.ToClassVectors(), probed) << "intersect";
    EXPECT_TRUE(out.AuditInvariants(rel, both).ok());
    StrippedPartition::IntersectInto(pb, pa, &scratch, &out);
    EXPECT_EQ(out.ToClassVectors(), probed) << "intersect, operands swapped";
  }
}

TEST(RowSpanTest, BasicAccessors) {
  const std::vector<RowId> rows = {2, 5, 9};
  RowSpan span = rows;  // Implicit from a vector.
  EXPECT_EQ(span.size(), 3u);
  EXPECT_FALSE(span.empty());
  EXPECT_EQ(span.front(), 2);
  EXPECT_EQ(span.back(), 9);
  EXPECT_EQ(span[1], 5);
  std::vector<RowId> copied(span.begin(), span.end());
  EXPECT_EQ(copied, rows);
  RowSpan explicit_span(rows.data() + 1, 2);
  EXPECT_EQ(explicit_span.front(), 5);
}

TEST(FlatAuditTest, AcceptsWellFormedLayoutAndRejectsCorruption) {
  // Two classes {0,1,2} and {4,6} over 8 rows.
  const std::vector<RowId> rows = {0, 1, 2, 4, 6};
  const std::vector<uint32_t> offsets = {0, 3, 5};
  EXPECT_TRUE(StrippedPartition::AuditFlatParts(rows, offsets, 8).ok());

  // Offsets must start at 0.
  EXPECT_FALSE(
      StrippedPartition::AuditFlatParts(rows, {1, 3, 5}, 8).ok());
  // Offsets must end at rows.size().
  EXPECT_FALSE(
      StrippedPartition::AuditFlatParts(rows, {0, 3, 4}, 8).ok());
  // Classes must have >= 2 rows (stripped partition).
  EXPECT_FALSE(
      StrippedPartition::AuditFlatParts(rows, {0, 4, 5}, 8).ok());
  // Offsets must be monotone.
  EXPECT_FALSE(
      StrippedPartition::AuditFlatParts(rows, {0, 5, 3}, 8).ok());
  // The arena cannot hold more rows than the relation.
  EXPECT_FALSE(StrippedPartition::AuditFlatParts(rows, offsets, 4).ok());
}

// Regression for the byte accounting fix: entries are charged by actual
// allocated arena bytes, so filling the cache past a small budget must
// evict (before the fix, undercounted footprints let the cache blow its
// --cache-mb budget without ever evicting). Audit-backed: the cache's own
// invariant auditor re-derives every charge and the budget check. The
// budget is about one footprint, so the four partitions cannot all stay
// resident.
TEST(PartitionCacheTest, EvictsWhenArenaBytesExceedBudget) {
  Relation rel = MakeRandomRelation(2000, {"four-cols", {50, 50, 50, 50}}, 9);
  StrippedPartition sample = StrippedPartition::Build(rel, 0);
  sample.Compact();
  const int64_t footprint = PartitionCache::FootprintBytes(sample);
  ASSERT_GT(footprint, 0);

  PartitionCache cache(rel, footprint + footprint / 8);
  for (AttrId a = 0; a < 4; ++a) {
    std::shared_ptr<const StrippedPartition> p = cache.Get(AttrSet::Single(a));
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(cache.AuditInvariants().ok());
  }
  EXPECT_GT(cache.evictions(), 0);
  EXPECT_LE(cache.bytes(), cache.budget_bytes());
  EXPECT_LT(cache.size(), 4u);
  EXPECT_TRUE(cache.AuditInvariants().ok());
}

}  // namespace
}  // namespace fastofd
