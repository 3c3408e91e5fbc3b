// Tests for OFD data verification (Definition 2.1), including the paper's
// Table 1 / Table 2 examples, approximate support, and inheritance checks.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/datagen.h"
#include "exec/thread_pool.h"
#include "ofd/ofd.h"
#include "ofd/verifier.h"
#include "ontology/ontology.h"
#include "ontology/synonym_index.h"
#include "relation/partition.h"
#include "relation/relation.h"

namespace fastofd {
namespace {

// Table 1 (original values) plus the combined drug+country ontology.
struct Fixture {
  Relation rel;
  Ontology ontology;
  SynonymIndex index;
  OfdVerifier verifier;

  static Fixture Make(bool updated_meds) {
    auto csv = ReadCsvFile(std::string(FASTOFD_DATA_DIR) + "/clinical_trials.csv");
    EXPECT_TRUE(csv.ok());
    auto rel = Relation::FromCsv(csv.value());
    EXPECT_TRUE(rel.ok());
    Relation relation = std::move(rel).value();
    if (!updated_meds) {
      // data file ships the *updated* Table 1 (t9=ASA, t11=adizem);
      // restore the original values for the "clean" fixture.
      relation.Set(8, relation.schema().Find("MED"), "tiazac");
      relation.Set(10, relation.schema().Find("MED"), "tiazac");
    }
    // Merge the two ontology files (names are disjoint).
    std::string dir(FASTOFD_DATA_DIR);
    auto drug = ReadOntologyFile(dir + "/drug_ontology.txt");
    auto country = ReadOntologyFile(dir + "/country_ontology.txt");
    EXPECT_TRUE(drug.ok());
    EXPECT_TRUE(country.ok());
    std::string merged = WriteOntology(drug.value()) + WriteOntology(country.value());
    auto ont = ParseOntology(merged);
    EXPECT_TRUE(ont.ok());
    return Fixture(std::move(relation), std::move(ont).value());
  }

 private:
  Fixture(Relation r, Ontology o)
      : rel(std::move(r)),
        ontology(std::move(o)),
        index(ontology, rel.dict()),
        verifier(rel, index, &ontology, /*theta=*/3) {}
};

Ofd MakeOfd(const Schema& s, std::initializer_list<const char*> lhs, const char* rhs,
            OfdKind kind = OfdKind::kSynonym) {
  AttrSet l;
  for (const char* a : lhs) l = l.With(s.Find(a));
  return Ofd{l, s.Find(rhs), kind};
}

TEST(OfdVerifierTest, CcToCtryHoldsAsSynonymOfd) {
  Fixture f = Fixture::Make(/*updated_meds=*/false);
  Ofd ofd = MakeOfd(f.rel.schema(), {"CC"}, "CTRY");
  // The FD fails (USA vs America), but the OFD holds (Example 2.2).
  StrippedPartition cc = StrippedPartition::BuildForSet(f.rel, ofd.lhs);
  StrippedPartition cc_ctry = StrippedPartition::BuildForSet(
      f.rel, ofd.lhs.With(ofd.rhs));
  EXPECT_FALSE(FdHolds(cc, cc_ctry));
  EXPECT_TRUE(f.verifier.Holds(ofd));
}

TEST(OfdVerifierTest, SympDiagToMedHoldsOnOriginalTable) {
  Fixture f = Fixture::Make(/*updated_meds=*/false);
  Ofd ofd = MakeOfd(f.rel.schema(), {"SYMP", "DIAG"}, "MED");
  EXPECT_TRUE(f.verifier.Holds(ofd));
}

TEST(OfdVerifierTest, SympDiagToMedFailsOnUpdatedTable) {
  // Example 1.2: with t9[MED]=ASA and t11[MED]=adizem there is no sense
  // under which {cartia, ASA, tiazac, adizem} are all synonyms.
  Fixture f = Fixture::Make(/*updated_meds=*/true);
  Ofd ofd = MakeOfd(f.rel.schema(), {"SYMP", "DIAG"}, "MED");
  EXPECT_FALSE(f.verifier.Holds(ofd));
}

TEST(OfdVerifierTest, OntologyRepairRestoresSatisfaction) {
  Fixture f = Fixture::Make(/*updated_meds=*/true);
  Ofd ofd = MakeOfd(f.rel.schema(), {"SYMP", "DIAG"}, "MED");
  SenseId fda = f.ontology.FindSense("fda_diltiazem");
  ASSERT_NE(fda, kInvalidSense);
  // Paper resolution (1): add ASA and adizem under the FDA sense.
  f.index.AddValue(fda, f.rel.dict().Lookup("ASA"));
  f.index.AddValue(fda, f.rel.dict().Lookup("adizem"));
  EXPECT_TRUE(f.verifier.Holds(ofd));
}

TEST(OfdVerifierTest, PairwiseSharedSensesAreNotEnough) {
  // Paper Table 2: v,w,z share senses pairwise but the triple intersection
  // is empty, so the OFD must fail — tuple-pair verification is unsound.
  Relation rel(Schema({"X", "Y"}));
  rel.AppendRow({"u", "v"});
  rel.AppendRow({"u", "w"});
  rel.AppendRow({"u", "z"});
  Ontology ont;
  SenseId c = ont.AddSense("C");
  SenseId d = ont.AddSense("D");
  SenseId fsense = ont.AddSense("F");
  SenseId g = ont.AddSense("G");
  // names(v)={C,D}, names(w)={D,F}, names(z)={C,F,G}.
  ont.AddValue(c, "v");
  ont.AddValue(d, "v");
  ont.AddValue(d, "w");
  ont.AddValue(fsense, "w");
  ont.AddValue(c, "z");
  ont.AddValue(fsense, "z");
  ont.AddValue(g, "z");
  SynonymIndex index(ont, rel.dict());
  OfdVerifier verifier(rel, index);
  Ofd ofd{AttrSet::Of({0}), 1, OfdKind::kSynonym};

  // Every pair of rows satisfies the OFD...
  for (RowId a = 0; a < 3; ++a) {
    for (RowId b = a + 1; b < 3; ++b) {
      const std::vector<RowId> pair = {a, b};
      EXPECT_TRUE(verifier.HoldsInClass(pair, 1, OfdKind::kSynonym));
    }
  }
  // ...but the whole class does not.
  EXPECT_FALSE(verifier.Holds(ofd));
}

TEST(OfdVerifierTest, TransitivityDoesNotHoldForOfds) {
  // Paper §3.1: R(A,B,C) = {(a,b,d),(a,c,e),(a,b,d)}, b syn c, d !syn e.
  // A->B and B->C hold, but A->C fails.
  Relation rel(Schema({"A", "B", "C"}));
  rel.AppendRow({"a", "b", "d"});
  rel.AppendRow({"a", "c", "e"});
  rel.AppendRow({"a", "b", "d"});
  Ontology ont;
  SenseId s = ont.AddSense("bc");
  ont.AddValue(s, "b");
  ont.AddValue(s, "c");
  SynonymIndex index(ont, rel.dict());
  OfdVerifier verifier(rel, index);
  EXPECT_TRUE(verifier.Holds({AttrSet::Of({0}), 1, OfdKind::kSynonym}));
  EXPECT_TRUE(verifier.Holds({AttrSet::Of({1}), 2, OfdKind::kSynonym}));
  EXPECT_FALSE(verifier.Holds({AttrSet::Of({0}), 2, OfdKind::kSynonym}));
}

TEST(OfdVerifierTest, ValueOutsideOntologyOnlySatisfiedByEquality) {
  Relation rel(Schema({"X", "Y"}));
  rel.AppendRow({"u", "mystery"});
  rel.AppendRow({"u", "mystery"});
  rel.AppendRow({"w", "mystery"});
  rel.AppendRow({"w", "other"});
  Ontology ont;  // Empty ontology: plain FD semantics.
  SynonymIndex index(ont, rel.dict());
  OfdVerifier verifier(rel, index);
  // Class u: equal values -> holds. Class w: distinct, no senses -> fails.
  const std::vector<RowId> class_u = {0, 1};
  const std::vector<RowId> class_w = {2, 3};
  EXPECT_TRUE(verifier.HoldsInClass(class_u, 1, OfdKind::kSynonym));
  EXPECT_FALSE(verifier.HoldsInClass(class_w, 1, OfdKind::kSynonym));
  EXPECT_FALSE(verifier.Holds({AttrSet::Of({0}), 1, OfdKind::kSynonym}));
}

TEST(OfdVerifierTest, SupportIsOneIffExactHolds) {
  Fixture clean = Fixture::Make(false);
  Fixture dirty = Fixture::Make(true);
  Ofd ofd = MakeOfd(clean.rel.schema(), {"SYMP", "DIAG"}, "MED");
  StrippedPartition p_clean = StrippedPartition::BuildForSet(clean.rel, ofd.lhs);
  StrippedPartition p_dirty = StrippedPartition::BuildForSet(dirty.rel, ofd.lhs);
  EXPECT_DOUBLE_EQ(clean.verifier.Support(ofd, p_clean), 1.0);
  EXPECT_LT(dirty.verifier.Support(ofd, p_dirty), 1.0);
  // Updated table: headache/hypertension class {t8..t11} = {cartia, ASA,
  // tiazac, adizem}; best sense covers 2 of 4 tuples (cartia+tiazac under
  // FDA or cartia+ASA under MoH). Other classes are satisfied.
  // => support = (11 - 4 + 2) / 11 = 9/11.
  EXPECT_NEAR(dirty.verifier.Support(ofd, p_dirty), 9.0 / 11.0, 1e-9);
}

TEST(OfdVerifierTest, SupportPropertyOnRandomInstances) {
  Rng rng(4242);
  for (int trial = 0; trial < 10; ++trial) {
    Relation rel(Schema({"X", "Y"}));
    Ontology ont;
    SenseId s0 = ont.AddSense("s0");
    SenseId s1 = ont.AddSense("s1");
    for (int i = 0; i < 4; ++i) ont.AddValue(s0, "a" + std::to_string(i));
    for (int i = 0; i < 4; ++i) ont.AddValue(s1, "b" + std::to_string(i));
    for (int r = 0; r < 60; ++r) {
      std::string x = "x" + std::to_string(rng.NextUint(6));
      std::string pool = rng.NextBernoulli(0.5) ? "a" : "b";
      std::string y = pool + std::to_string(rng.NextUint(4));
      rel.AppendRow({x, y});
    }
    SynonymIndex index(ont, rel.dict());
    OfdVerifier verifier(rel, index);
    Ofd ofd{AttrSet::Of({0}), 1, OfdKind::kSynonym};
    StrippedPartition p = StrippedPartition::BuildForSet(rel, ofd.lhs);
    double support = verifier.Support(ofd, p);
    EXPECT_GE(support, 0.0);
    EXPECT_LE(support, 1.0);
    EXPECT_EQ(verifier.Holds(ofd, p), support == 1.0);
  }
}

TEST(OfdVerifierTest, SavingsCountsSynonymClasses) {
  Fixture f = Fixture::Make(false);
  Ofd ofd = MakeOfd(f.rel.schema(), {"CC"}, "CTRY");
  StrippedPartition p = StrippedPartition::BuildForSet(f.rel, ofd.lhs);
  SynonymSavings savings = f.verifier.Savings(ofd, p);
  // Π*_CC = {US-class (7 tuples), IN-class (3 tuples)}; both contain
  // syntactically distinct but synonymous CTRY values.
  EXPECT_EQ(savings.classes, 2);
  EXPECT_EQ(savings.synonym_classes, 2);
  EXPECT_EQ(savings.saved_tuples, 10);
  EXPECT_EQ(savings.class_tuples, 10);
}

TEST(OfdVerifierTest, InheritanceOfdViaCommonAncestor) {
  Fixture f = Fixture::Make(false);
  // tylenol (acetaminophen family) and ibuprofen (nsaid family) share the
  // ancestor 'continuant_drug' within 3 hops, but not within 1.
  Relation rel(Schema({"G", "MED"}));
  rel.AppendRow({"g", "tylenol"});
  rel.AppendRow({"g", "ibuprofen"});
  SynonymIndex index(f.ontology, rel.dict());
  OfdVerifier loose(rel, index, &f.ontology, /*theta=*/3);
  OfdVerifier strict(rel, index, &f.ontology, /*theta=*/0);
  Ofd inh{AttrSet::Of({0}), 1, OfdKind::kInheritance};
  EXPECT_TRUE(loose.Holds(inh));
  EXPECT_FALSE(strict.Holds(inh));
}

TEST(OfdVerifierTest, SynonymOfdImpliesInheritanceOfdAtSameClass) {
  // Values synonymous under one sense share that sense's concept trivially.
  Fixture f = Fixture::Make(false);
  Relation rel(Schema({"G", "MED"}));
  rel.AppendRow({"g", "cartia"});
  rel.AppendRow({"g", "tiazac"});
  SynonymIndex index(f.ontology, rel.dict());
  OfdVerifier verifier(rel, index, &f.ontology, /*theta=*/0);
  EXPECT_TRUE(verifier.Holds({AttrSet::Of({0}), 1, OfdKind::kSynonym}));
  EXPECT_TRUE(verifier.Holds({AttrSet::Of({0}), 1, OfdKind::kInheritance}));
}

// ---------------------------------------------------------------------------
// The per-class tally (OfdVerifier::Tally).

// Classes keyed by X over Y values; senses s0 = s1 = {a, b}, s2 = {c},
// s3 = {d}. Value ids follow first appearance, so c < d.
struct TallyFixture {
  Relation rel{Schema({"X", "Y"})};
  Ontology ontology;
  SenseId s0, s1, s2, s3;

  TallyFixture() {
    for (auto [x, y] : std::vector<std::pair<const char*, const char*>>{
             {"k1", "zz"}, {"k1", "zz"},                 // rows 0-1
             {"k2", "a"},  {"k2", "a"},  {"k2", "yy"},   // rows 2-4
             {"k3", "a"},  {"k3", "b"},  {"k3", "b"},    // rows 5-7
             {"k5", "c"},  {"k5", "c"},                  // rows 8-9
             {"k4", "d"},  {"k4", "c"}}) {               // rows 10-11
      rel.AppendRow({x, y});
    }
    s0 = ontology.AddSense("s0");
    s1 = ontology.AddSense("s1");
    s2 = ontology.AddSense("s2");
    s3 = ontology.AddSense("s3");
    for (SenseId s : {s0, s1}) {
      ontology.AddValue(s, "a");
      ontology.AddValue(s, "b");
    }
    ontology.AddValue(s2, "c");
    ontology.AddValue(s3, "d");
  }
  ValueId Id(const char* v) const { return rel.dict().Lookup(v); }
};

void ExpectSameTally(const SenseTally& x, const SenseTally& y) {
  EXPECT_EQ(x.distinct, y.distinct);
  EXPECT_EQ(x.covered, y.covered);
  EXPECT_EQ(x.best_value, y.best_value);
  EXPECT_EQ(x.best_literal, y.best_literal);
  EXPECT_EQ(x.best_sense, y.best_sense);
  EXPECT_EQ(x.best_sense_rows, y.best_sense_rows);
}

TEST(SenseTallyTest, SingleValueOutsideOntologyHolds) {
  TallyFixture f;
  SynonymIndex index(f.ontology, f.rel.dict());
  OfdVerifier verifier(f.rel, index);
  const SenseTally t = verifier.Tally(std::vector<RowId>{0, 1}, 1);
  EXPECT_EQ(t.distinct, 1);
  EXPECT_FALSE(t.covered);
  EXPECT_TRUE(t.holds());
  EXPECT_EQ(t.best_value, f.Id("zz"));
  EXPECT_EQ(t.best_literal, 2);
  EXPECT_EQ(t.best_sense, kInvalidSense);
  EXPECT_EQ(t.best_sense_rows, 0);
  EXPECT_EQ(t.kept(), 2);
}

TEST(SenseTallyTest, ValueOutsideOntologyFailsButLiteralStillCounts) {
  TallyFixture f;
  SynonymIndex index(f.ontology, f.rel.dict());
  OfdVerifier verifier(f.rel, index);
  const SenseTally t = verifier.Tally(std::vector<RowId>{2, 3, 4}, 1);
  EXPECT_EQ(t.distinct, 2);
  EXPECT_FALSE(t.covered);
  EXPECT_FALSE(t.holds());
  EXPECT_EQ(t.best_value, f.Id("a"));
  EXPECT_EQ(t.best_literal, 2);
  EXPECT_EQ(t.best_sense, f.s0);
  EXPECT_EQ(t.best_sense_rows, 2);
  EXPECT_EQ(t.kept(), 2);
}

TEST(SenseTallyTest, TwoSensesCoveringEveryValue) {
  TallyFixture f;
  SynonymIndex index(f.ontology, f.rel.dict());
  OfdVerifier verifier(f.rel, index);
  const SenseTally t = verifier.Tally(std::vector<RowId>{5, 6, 7}, 1);
  EXPECT_EQ(t.distinct, 2);
  EXPECT_TRUE(t.covered);
  EXPECT_TRUE(t.holds());
  EXPECT_EQ(t.best_value, f.Id("b"));
  EXPECT_EQ(t.best_literal, 2);
  EXPECT_EQ(t.best_sense, f.s0);  // s0 and s1 both keep all 3 rows.
  EXPECT_EQ(t.best_sense_rows, 3);
  EXPECT_EQ(t.kept(), 3);
}

TEST(SenseTallyTest, TiesGoToTheLowestId) {
  TallyFixture f;
  SynonymIndex index(f.ontology, f.rel.dict());
  OfdVerifier verifier(f.rel, index);
  // d (sense s3) is met first; c and its sense s2 have the lower ids.
  ASSERT_LT(f.Id("c"), f.Id("d"));
  const SenseTally t = verifier.Tally(std::vector<RowId>{10, 11}, 1);
  EXPECT_EQ(t.distinct, 2);
  EXPECT_FALSE(t.covered);
  EXPECT_EQ(t.best_value, f.Id("c"));
  EXPECT_EQ(t.best_literal, 1);
  EXPECT_EQ(t.best_sense, f.s2);
  EXPECT_EQ(t.best_sense_rows, 1);
}

TEST(SenseTallyTest, CountersResetBetweenClasses) {
  TallyFixture f;
  SynonymIndex index(f.ontology, f.rel.dict());
  OfdVerifier verifier(f.rel, index);
  const std::vector<RowId> a = {5, 6, 7};
  const std::vector<RowId> b = {2, 3, 4};  // Shares value a and senses s0, s1.
  const SenseTally first = verifier.Tally(a, 1);
  const SenseTally other = verifier.Tally(b, 1);
  const SenseTally again = verifier.Tally(a, 1);
  ExpectSameTally(first, again);
  EXPECT_TRUE(again.covered);
  EXPECT_EQ(again.best_sense_rows, 3);
  EXPECT_FALSE(other.covered);
}

// A 2-row class is tallied by merging its two values' sense lists, without
// the counters; it must return the counted tally field for field. Senses:
// a, b share s0 and s1 (several), a, c share s1 (one), c, d share s2, and
// b, e share only s4, which is the lowest sense of neither; d, e and a, e
// are disjoint, and zz, yy are outside the ontology.
TEST(SenseTallyTest, TwoRowClassMatchesCountedTally) {
  const std::vector<const char*> values = {"e", "zz", "a", "d", "b", "yy", "c"};
  Relation rel{Schema({"Y"})};
  // Rows 0..n-1 hold each value once, rows n..2n-1 again, so the class
  // {i, n + j} is the ordered pair (value i, value j) and {i, n + i} is an
  // equal pair.
  for (int copy = 0; copy < 2; ++copy) {
    for (const char* v : values) rel.AppendRow({v});
  }
  Ontology ontology;
  const SenseId s0 = ontology.AddSense("s0");
  const SenseId s1 = ontology.AddSense("s1");
  const SenseId s2 = ontology.AddSense("s2");
  const SenseId s3 = ontology.AddSense("s3");
  const SenseId s4 = ontology.AddSense("s4");
  for (auto [s, v] : std::vector<std::pair<SenseId, const char*>>{
           {s4, "b"}, {s0, "a"}, {s0, "b"}, {s1, "a"}, {s1, "b"}, {s1, "c"},
           {s2, "c"}, {s2, "d"}, {s3, "e"}, {s4, "e"}}) {
    ontology.AddValue(s, v);
  }
  SynonymIndex index(ontology, rel.dict());
  OfdVerifier verifier(rel, index);
  PartitionScratch scratch;
  const RowId n = rel.num_rows() / 2;
  int covered = 0, uncovered_with_sense = 0, no_sense = 0;
  for (RowId i = 0; i < n; ++i) {
    for (RowId j = 0; j < n; ++j) {
      SCOPED_TRACE(std::string(values[static_cast<size_t>(i)]) + ", " +
                   values[static_cast<size_t>(j)]);
      const std::vector<RowId> cls = {i, n + j};
      std::vector<ClassHistogram::Slot> slots;
      StrippedPartition::HistogramClass(cls, rel.Column(0), rel.dict().size(), &scratch,
                                        &slots);
      const SenseTally counted = verifier.TallyValues(slots);
      const SenseTally paired = verifier.Tally(cls, 0);
      ExpectSameTally(paired, counted);
      if (counted.covered) {
        ++covered;
      } else if (counted.best_sense != kInvalidSense) {
        ++uncovered_with_sense;
      } else {
        ++no_sense;
      }
    }
  }
  EXPECT_GT(covered, 0);
  EXPECT_GT(uncovered_with_sense, 0);
  EXPECT_GT(no_sense, 0);
}

TEST(SenseTallyTest, SharedVerifierAgreesAcrossPoolWorkers) {
  DataGenConfig cfg;
  cfg.num_rows = 400;
  cfg.error_rate = 0.05;
  cfg.seed = 11;
  GeneratedData data = GenerateData(cfg);
  SynonymIndex index(data.ontology, data.rel.dict());
  const OfdVerifier verifier(data.rel, index);
  // Every single-attribute OFD, each against its own Π*_lhs.
  std::vector<Ofd> ofds;
  std::vector<StrippedPartition> partitions;
  for (AttrId x = 0; x < data.rel.num_attrs(); ++x) {
    for (AttrId y = 0; y < data.rel.num_attrs(); ++y) {
      if (x == y) continue;
      ofds.push_back(Ofd{AttrSet::Single(x), y, OfdKind::kSynonym});
      partitions.push_back(StrippedPartition::BuildForSet(data.rel, ofds.back().lhs));
    }
  }
  std::vector<double> serial(ofds.size());
  for (size_t i = 0; i < ofds.size(); ++i) {
    serial[i] = verifier.Support(ofds[i], partitions[i]);
  }
  constexpr size_t kRounds = 4;
  std::vector<double> parallel(ofds.size() * kRounds);
  ThreadPool pool(4);
  pool.ParallelFor(parallel.size(), [&](size_t i, int) {
    parallel[i] = verifier.Support(ofds[i % ofds.size()], partitions[i % ofds.size()]);
  });
  for (size_t i = 0; i < parallel.size(); ++i) {
    EXPECT_EQ(parallel[i], serial[i % ofds.size()]) << i;
  }
}

}  // namespace
}  // namespace fastofd
