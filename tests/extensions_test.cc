// Tests for the extension modules: LHS-synonym OFDs, incremental
// verification, and parallel discovery determinism.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/datagen.h"
#include "discovery/fastofd.h"
#include "exec/task_group.h"
#include "exec/thread_pool.h"
#include "ofd/incremental.h"
#include "ofd/lhs_synonym.h"
#include "ofd/verifier.h"
#include "ontology/generator.h"
#include "ontology/synonym_index.h"
#include "relation/partition.h"

namespace fastofd {
namespace {

// ---------------------------------------------------------------------------
// LHS-synonym OFDs (response letter W2).

TEST(LhsSynonymTest, MergedClassesCatchHiddenViolations) {
  // Literal classes {Cartia}, {Tiazac} are clean per class; under the FDA
  // sense they merge, exposing that the merged class maps to two different
  // diseases with no common sense.
  Relation rel(Schema({"MED", "DISEASE"}));
  rel.AppendRow({"Cartia", "hyperpiesis"});
  rel.AppendRow({"Cartia", "hyperpiesis"});
  rel.AppendRow({"Tiazac", "flu"});
  rel.AppendRow({"Tiazac", "flu"});
  Ontology ont;
  SenseId fda = ont.AddSense("fda");
  ont.AddValue(fda, "Cartia");
  ont.AddValue(fda, "Tiazac");
  SynonymIndex index(ont, rel.dict());
  Ofd ofd{AttrSet::Single(0), 1, OfdKind::kSynonym};
  // The plain OFD holds (each literal class has one value)…
  OfdVerifier verifier(rel, index);
  EXPECT_TRUE(verifier.Holds(ofd));
  // …but the LHS-synonym reading does not.
  EXPECT_FALSE(HoldsWithLhsSynonyms(rel, index, ofd));
}

TEST(LhsSynonymTest, HoldsWhenMergedClassesShareASense) {
  Relation rel(Schema({"MED", "DISEASE"}));
  rel.AppendRow({"Cartia", "hypertension"});
  rel.AppendRow({"Tiazac", "HHD"});
  Ontology ont;
  SenseId fda = ont.AddSense("fda");
  ont.AddValue(fda, "Cartia");
  ont.AddValue(fda, "Tiazac");
  SenseId disease = ont.AddSense("disease");
  ont.AddValue(disease, "hypertension");
  ont.AddValue(disease, "HHD");
  SynonymIndex index(ont, rel.dict());
  Ofd ofd{AttrSet::Single(0), 1, OfdKind::kSynonym};
  EXPECT_TRUE(HoldsWithLhsSynonyms(rel, index, ofd));
}

TEST(LhsSynonymTest, ImpliesPlainOfd) {
  // LHS-synonym satisfaction is strictly stronger: sweep random instances.
  for (int seed = 0; seed < 10; ++seed) {
    Rng rng(7000 + seed);
    OntologyGenConfig ocfg;
    ocfg.num_senses = 3;
    ocfg.values_per_sense = 4;
    ocfg.overlap = 0.4;
    ocfg.seed = static_cast<uint64_t>(9000 + seed);
    Ontology ont = GenerateOntology(ocfg);
    Relation rel(Schema({"X", "Y"}));
    for (int r = 0; r < 30; ++r) {
      SenseId sx = static_cast<SenseId>(rng.NextUint(3));
      SenseId sy = static_cast<SenseId>(rng.NextUint(3));
      rel.AppendRow({ont.SenseValues(sx)[rng.NextUint(4)],
                     ont.SenseValues(sy)[rng.NextUint(4)]});
    }
    SynonymIndex index(ont, rel.dict());
    OfdVerifier verifier(rel, index);
    Ofd ofd{AttrSet::Single(0), 1, OfdKind::kSynonym};
    if (HoldsWithLhsSynonyms(rel, index, ofd)) {
      EXPECT_TRUE(verifier.Holds(ofd)) << "seed " << seed;
    }
  }
}

TEST(LhsSynonymTest, StatsCountInterpretationsAndClasses) {
  Relation rel(Schema({"X", "Y"}));
  rel.AppendRow({"a", "1"});
  rel.AppendRow({"a", "1"});
  rel.AppendRow({"b", "1"});
  Ontology ont;
  SenseId s = ont.AddSense("s");
  ont.AddValue(s, "a");
  ont.AddValue(s, "b");
  SynonymIndex index(ont, rel.dict());
  LhsSynonymStats stats;
  EXPECT_TRUE(HoldsWithLhsSynonyms(rel, index, {AttrSet::Single(0), 1,
                                                OfdKind::kSynonym},
                                   &stats));
  EXPECT_EQ(stats.interpretations, 2);  // literal + one sense
  // Literal: one non-singleton class {a,a}; sense s: merged {a,a,b}.
  EXPECT_EQ(stats.classes_evaluated, 2);
}

TEST(LhsSynonymTest, NoOntologyDegeneratesToPlainOfd) {
  Relation rel(Schema({"X", "Y"}));
  rel.AppendRow({"a", "1"});
  rel.AppendRow({"a", "2"});
  Ontology empty;
  SynonymIndex index(empty, rel.dict());
  Ofd ofd{AttrSet::Single(0), 1, OfdKind::kSynonym};
  OfdVerifier verifier(rel, index);
  EXPECT_EQ(HoldsWithLhsSynonyms(rel, index, ofd), verifier.Holds(ofd));
}

// ---------------------------------------------------------------------------
// Incremental verification.

TEST(IncrementalTest, TracksSingleClassUpdates) {
  Relation rel(Schema({"X", "MED"}));
  Ontology ont;
  SenseId s = ont.AddSense("s");
  ont.AddValue(s, "g1");
  ont.AddValue(s, "g2");
  rel.AppendRow({"x", "g1"});
  rel.AppendRow({"x", "g2"});
  rel.AppendRow({"y", "g1"});
  rel.AppendRow({"y", "g1"});
  SynonymIndex index(ont, rel.dict());
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym}};
  IncrementalVerifier inc(&rel, index, sigma);
  EXPECT_TRUE(inc.IsConsistent());

  // Break class y.
  ValueId bad = rel.mutable_dict().Intern("bad");
  inc.UpdateCell(2, 1, bad);
  EXPECT_FALSE(inc.IsConsistent());
  EXPECT_EQ(inc.violating_classes(0), 1);

  // Fix it again.
  inc.UpdateCell(2, 1, rel.dict().Lookup("g1"));
  EXPECT_TRUE(inc.IsConsistent());
}

TEST(IncrementalTest, MatchesFullReverificationOnRandomUpdateStreams) {
  for (int seed = 0; seed < 6; ++seed) {
    DataGenConfig cfg;
    cfg.num_rows = 120;
    cfg.num_senses = 3;
    cfg.error_rate = 0.0;
    cfg.seed = static_cast<uint64_t>(7100 + seed);
    GeneratedData data = GenerateData(cfg);
    Relation rel = data.rel;
    SynonymIndex index(data.ontology, rel.dict());
    IncrementalVerifier inc(&rel, index, data.sigma);
    Rng rng(7200 + static_cast<uint64_t>(seed));

    std::vector<ValueId> pool;
    for (SenseId s = 0; s < index.num_senses(); ++s) {
      for (ValueId v : index.SenseValues(s)) pool.push_back(v);
    }
    pool.push_back(rel.mutable_dict().Intern("garbage"));

    for (int step = 0; step < 40; ++step) {
      RowId row = static_cast<RowId>(rng.NextUint(rel.num_rows()));
      const Ofd& ofd = data.sigma[rng.NextUint(data.sigma.size())];
      ValueId v = pool[rng.NextUint(pool.size())];
      inc.UpdateCell(row, ofd.rhs, v);

      // Full reverification as ground truth.
      OfdVerifier verifier(rel, index);
      bool all = true;
      for (size_t i = 0; i < data.sigma.size(); ++i) {
        bool holds = verifier.Holds(data.sigma[i]);
        all &= holds;
        EXPECT_EQ(inc.Holds(i), holds) << "seed " << seed << " step " << step;
      }
      EXPECT_EQ(inc.IsConsistent(), all);
    }
  }
}

TEST(IncrementalTest, RechecksOnlyAffectedClasses) {
  DataGenConfig cfg;
  cfg.num_rows = 500;
  cfg.classes_per_antecedent = 25;
  cfg.error_rate = 0.0;
  cfg.seed = 7300;
  GeneratedData data = GenerateData(cfg);
  Relation rel = data.rel;
  SynonymIndex index(data.ontology, rel.dict());
  IncrementalVerifier inc(&rel, index, data.sigma);
  int64_t initial = inc.classes_rechecked();
  ValueId v = rel.At(0, data.sigma[0].rhs);
  inc.UpdateCell(0, data.sigma[0].rhs, v);
  // One update touches at most one class per OFD with this consequent.
  EXPECT_LE(inc.classes_rechecked() - initial, 1);
}

// Asserts the incremental verifier's full per-OFD state — verdict, support
// and violating-class count — against fresh re-verification of the
// (already mutated) relation. `ontology` is needed for inheritance OFDs.
void ExpectMatchesFullVerification(const IncrementalVerifier& inc,
                                   const Relation& rel,
                                   const SynonymIndex& index,
                                   const SigmaSet& sigma,
                                   const std::string& context,
                                   const Ontology* ontology = nullptr) {
  OfdVerifier verifier(rel, index, ontology);
  bool all = true;
  for (size_t i = 0; i < sigma.size(); ++i) {
    const StrippedPartition lhs = StrippedPartition::BuildForSet(rel, sigma[i].lhs);
    bool holds = verifier.Holds(sigma[i], lhs);
    all &= holds;
    EXPECT_EQ(inc.Holds(i), holds) << context << " ofd " << i;
    // The maintained support is the same integer sum, divided the same way.
    EXPECT_EQ(inc.Support(i), sigma[i].kind == OfdKind::kSynonym
                                  ? verifier.Support(sigma[i], lhs)
                                  : (holds ? 1.0 : 0.0))
        << context << " ofd " << i;
    int violating = 0;
    for (RowSpan cls : lhs.classes()) {
      violating += verifier.HoldsInClass(cls, sigma[i].rhs, sigma[i].kind) ? 0 : 1;
    }
    EXPECT_EQ(inc.violating_classes(i), violating) << context << " ofd " << i;
  }
  EXPECT_EQ(inc.IsConsistent(), all) << context;
}

TEST(IncrementalTest, LhsUpdateMovesRowBetweenClasses) {
  // Two clean classes; moving a row of class x into class y brings a
  // conflicting consequent along, and moving it back repairs the violation.
  Relation rel(Schema({"X", "MED"}));
  Ontology ont;
  SenseId s = ont.AddSense("s");
  ont.AddValue(s, "g1");
  ont.AddValue(s, "g2");
  rel.AppendRow({"x", "g1"});
  rel.AppendRow({"x", "g2"});
  rel.AppendRow({"y", "other"});
  rel.AppendRow({"y", "other"});
  SynonymIndex index(ont, rel.dict());
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym}};
  IncrementalVerifier inc(&rel, index, sigma);
  EXPECT_TRUE(inc.IsConsistent());

  ValueId y = rel.dict().Lookup("y");
  ValueId x = rel.dict().Lookup("x");
  inc.UpdateCell(0, 0, y);  // Row 0 ("g1") joins class y ("other", "other").
  EXPECT_FALSE(inc.IsConsistent());
  EXPECT_EQ(inc.violating_classes(0), 1);
  ExpectMatchesFullVerification(inc, rel, index, sigma, "after move");

  inc.UpdateCell(0, 0, x);  // Back: both classes clean again.
  EXPECT_TRUE(inc.IsConsistent());
  ExpectMatchesFullVerification(inc, rel, index, sigma, "after move back");
}

TEST(IncrementalTest, RepeatedUpdatesToSameCellConverge) {
  Relation rel(Schema({"X", "MED"}));
  Ontology ont;
  SenseId s = ont.AddSense("s");
  ont.AddValue(s, "g1");
  ont.AddValue(s, "g2");
  rel.AppendRow({"x", "g1"});
  rel.AppendRow({"x", "g2"});
  SynonymIndex index(ont, rel.dict());
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym}};
  IncrementalVerifier inc(&rel, index, sigma);
  ValueId bad = rel.mutable_dict().Intern("bad");
  ValueId g1 = rel.dict().Lookup("g1");
  for (int round = 0; round < 5; ++round) {
    inc.UpdateCell(1, 1, bad);
    EXPECT_FALSE(inc.IsConsistent()) << "round " << round;
    inc.UpdateCell(1, 1, bad);  // Same value again: must stay a no-op.
    EXPECT_FALSE(inc.IsConsistent()) << "round " << round;
    ExpectMatchesFullVerification(inc, rel, index, sigma, "broken");
    inc.UpdateCell(1, 1, g1);
    EXPECT_TRUE(inc.IsConsistent()) << "round " << round;
    ExpectMatchesFullVerification(inc, rel, index, sigma, "reverted");
  }
  EXPECT_EQ(inc.violating_classes(0), 0);
}

TEST(IncrementalTest, OverlappingSigmaInterleavedUpdates) {
  // B is the consequent of A->B and an antecedent of B->C: one update to a
  // B-cell must re-check A->B's class and move the row between B->C classes.
  Relation rel(Schema({"A", "B", "C"}));
  Ontology ont;
  SenseId sb = ont.AddSense("sb");
  ont.AddValue(sb, "b1");
  ont.AddValue(sb, "b2");
  SenseId sc = ont.AddSense("sc");
  ont.AddValue(sc, "c1");
  ont.AddValue(sc, "c2");
  rel.AppendRow({"a1", "b1", "c1"});
  rel.AppendRow({"a1", "b2", "c2"});
  rel.AppendRow({"a2", "zz", "qq"});
  rel.AppendRow({"a2", "zz", "qq"});
  SynonymIndex index(ont, rel.dict());
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym},
                    {AttrSet::Single(1), 2, OfdKind::kSynonym}};
  IncrementalVerifier inc(&rel, index, sigma);
  EXPECT_TRUE(inc.IsConsistent());

  // b1 -> zz: row 0 leaves class {b1} and joins {zz, zz}; A->B's class a1
  // loses its shared sense, and B->C's class zz now holds {c1, qq, qq}.
  ValueId zz = rel.dict().Lookup("zz");
  inc.UpdateCell(0, 1, zz);
  ExpectMatchesFullVerification(inc, rel, index, sigma, "after b1->zz");
  EXPECT_FALSE(inc.IsConsistent());

  // Interleave a C update that repairs B->C's zz class.
  ValueId qq = rel.dict().Lookup("qq");
  inc.UpdateCell(0, 2, qq);
  ExpectMatchesFullVerification(inc, rel, index, sigma, "after c1->qq");

  // Revert the B update: A->B is clean again, and B->C goes back to the
  // original classes (row 0's C-cell now reads qq in class b1 — still a
  // singleton, so consistent).
  ValueId b1 = rel.dict().Lookup("b1");
  inc.UpdateCell(0, 1, b1);
  ExpectMatchesFullVerification(inc, rel, index, sigma, "after revert");
  EXPECT_TRUE(inc.IsConsistent());
}

TEST(IncrementalTest, MixedLhsRhsRandomStreamsMatchFullReverification) {
  for (int seed = 0; seed < 4; ++seed) {
    DataGenConfig cfg;
    cfg.num_rows = 100;
    cfg.num_senses = 3;
    cfg.error_rate = 0.02;
    cfg.seed = static_cast<uint64_t>(7400 + seed);
    GeneratedData data = GenerateData(cfg);
    Relation rel = data.rel;
    SynonymIndex index(data.ontology, rel.dict());
    IncrementalVerifier inc(&rel, index, data.sigma);
    Rng rng(7500 + static_cast<uint64_t>(seed));

    std::vector<ValueId> pool;
    for (SenseId s = 0; s < index.num_senses(); ++s) {
      for (ValueId v : index.SenseValues(s)) pool.push_back(v);
    }
    pool.push_back(rel.mutable_dict().Intern("garbage"));
    // Reuse existing antecedent values so lhs updates merge classes too.
    for (RowId r = 0; r < std::min<RowId>(rel.num_rows(), 10); ++r) {
      for (AttrId a = 0; a < rel.num_attrs(); ++a) pool.push_back(rel.At(r, a));
    }

    for (int step = 0; step < 60; ++step) {
      RowId row = static_cast<RowId>(rng.NextUint(rel.num_rows()));
      AttrId attr = static_cast<AttrId>(rng.NextUint(rel.num_attrs()));
      ValueId v = pool[rng.NextUint(pool.size())];
      inc.UpdateCell(row, attr, v);
      ExpectMatchesFullVerification(inc, rel, index, data.sigma,
                                    "seed " + std::to_string(seed) + " step " +
                                        std::to_string(step));
    }
  }
}

// The verifier's groups are the classes of Π_lhs. Asserts each OFD's
// violating-class count against a from-scratch count over the classes of
// Π*_lhs, and returns how many such classes Σ has in all.
int64_t ExpectCountsFromScratch(const IncrementalVerifier& inc, const Relation& rel,
                                const SynonymIndex& index, const SigmaSet& sigma,
                                const std::string& context) {
  OfdVerifier verifier(rel, index);
  int64_t classes = 0;
  for (size_t i = 0; i < sigma.size(); ++i) {
    const StrippedPartition lhs = StrippedPartition::BuildForSet(rel, sigma[i].lhs);
    int violating = 0;
    for (RowSpan cls : lhs.classes()) {
      violating += verifier.HoldsInClass(cls, sigma[i].rhs, sigma[i].kind) ? 0 : 1;
    }
    classes += lhs.num_classes();
    EXPECT_EQ(inc.violating_classes(i), violating) << context << " ofd " << i;
  }
  Status audit = inc.AuditState();
  EXPECT_TRUE(audit.ok()) << context << ": " << audit.message();
  return classes;
}

// Builds a verifier over `rel`, checks it from scratch, then applies
// random updates drawn from the cells' own values plus two fresh ones, so
// rows merge into other groups and split off into singletons, re-checking
// after every step.
void CheckConstructionAndUpdates(Relation rel, const Ontology& ont,
                                 const SigmaSet& sigma, uint64_t seed,
                                 const std::string& name) {
  std::vector<ValueId> pool;
  for (AttrId a = 0; a < rel.num_attrs(); ++a) {
    for (ValueId v : rel.Column(a)) pool.push_back(v);
  }
  pool.push_back(rel.mutable_dict().Intern("fresh_1"));
  pool.push_back(rel.mutable_dict().Intern("fresh_2"));
  SynonymIndex index(ont, rel.dict());
  IncrementalVerifier inc(&rel, index, sigma);
  // Construction re-checks exactly the classes of size >= 2.
  EXPECT_EQ(inc.classes_rechecked(),
            ExpectCountsFromScratch(inc, rel, index, sigma, name + " built"));
  ExpectMatchesFullVerification(inc, rel, index, sigma, name + " built");
  if (rel.num_rows() == 0) return;
  Rng rng(seed);
  for (int step = 0; step < 40; ++step) {
    RowId row = static_cast<RowId>(rng.NextUint(rel.num_rows()));
    AttrId attr = static_cast<AttrId>(rng.NextUint(rel.num_attrs()));
    inc.UpdateCell(row, attr, pool[rng.NextUint(pool.size())]);
    const std::string context = name + " step " + std::to_string(step);
    ExpectCountsFromScratch(inc, rel, index, sigma, context);
    ExpectMatchesFullVerification(inc, rel, index, sigma, context);
  }
}

Ontology TwoSenseOntology() {
  Ontology ont;
  SenseId s = ont.AddSense("s");
  ont.AddValue(s, "g1");
  ont.AddValue(s, "g2");
  SenseId t = ont.AddSense("t");
  ont.AddValue(t, "g2");
  ont.AddValue(t, "g3");
  return ont;
}

TEST(IncrementalTest, KeyLikeAntecedentStartsAllSingletons) {
  Relation rel(Schema({"K", "MED"}));
  const char* meds[] = {"g1", "g2", "g3", "zz"};
  for (int r = 0; r < 12; ++r) {
    rel.AppendRow({"k" + std::to_string(r), meds[r % 4]});
  }
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym}};
  CheckConstructionAndUpdates(rel, TwoSenseOntology(), sigma, 7600, "key-like");
}

TEST(IncrementalTest, EmptyAntecedentIsOneGroup) {
  Relation rel(Schema({"A", "MED"}));
  rel.AppendRow({"a", "g1"});
  rel.AppendRow({"b", "g2"});
  rel.AppendRow({"a", "g3"});
  SigmaSet sigma = {{AttrSet(), 1, OfdKind::kSynonym},
                    {AttrSet(), 0, OfdKind::kSynonym}};
  CheckConstructionAndUpdates(rel, TwoSenseOntology(), sigma, 7601, "empty lhs");
}

TEST(IncrementalTest, ZeroAndOneRowRelations) {
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym},
                    {AttrSet(), 1, OfdKind::kSynonym}};
  Relation empty(Schema({"A", "MED"}));
  CheckConstructionAndUpdates(empty, TwoSenseOntology(), sigma, 7602, "0 rows");
  Relation one(Schema({"A", "MED"}));
  one.AppendRow({"a", "g1"});
  CheckConstructionAndUpdates(one, TwoSenseOntology(), sigma, 7603, "1 row");
}

TEST(IncrementalTest, OfdsSharingAnAntecedent) {
  Relation rel(Schema({"A", "B", "C"}));
  const char* vals[] = {"g1", "g2", "g3", "qq"};
  for (int r = 0; r < 16; ++r) {
    rel.AppendRow({"a" + std::to_string(r % 5), vals[r % 4], vals[(r / 2) % 4]});
  }
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym},
                    {AttrSet::Single(0), 2, OfdKind::kSynonym},
                    {AttrSet::Of({0, 1}), 2, OfdKind::kSynonym}};
  CheckConstructionAndUpdates(rel, TwoSenseOntology(), sigma, 7604, "shared lhs");
}

TEST(IncrementalTest, GeneratedDataMatchesScratchCounts) {
  for (int seed = 0; seed < 3; ++seed) {
    DataGenConfig cfg;
    cfg.num_rows = 80;
    cfg.num_senses = 3;
    cfg.error_rate = 0.05;
    cfg.seed = static_cast<uint64_t>(7700 + seed);
    GeneratedData data = GenerateData(cfg);
    CheckConstructionAndUpdates(data.rel, data.ontology, data.sigma,
                                7800 + static_cast<uint64_t>(seed),
                                "seed " + std::to_string(seed));
  }
}

// Senses under a concept chain, for inheritance OFDs (θ = 2): g1..g3 meet
// at `drug`, g4 hangs off a separate tree, so a class holding g4 and any
// other value violates.
Ontology HierarchyOntology() {
  Ontology ont;
  ConceptId root = ont.AddConcept("root");
  ConceptId drug = ont.AddConcept("drug", root);
  ConceptId nsaid = ont.AddConcept("nsaid", drug);
  ConceptId far = ont.AddConcept("far", ont.AddConcept("mid", ont.AddConcept("top")));
  SenseId s = ont.AddSense("s", drug);
  ont.AddValue(s, "g1");
  ont.AddValue(s, "g2");
  SenseId t = ont.AddSense("t", nsaid);
  ont.AddValue(t, "g2");
  ont.AddValue(t, "g3");
  SenseId f = ont.AddSense("f", far);
  ont.AddValue(f, "g4");
  return ont;
}

// Every way a group's histogram changes shape: a brand-new value appends a
// slot, a class's last occurrence of a value swap-removes its slot, and an
// antecedent move empties a group that a later move reuses from the free
// list. Σ holds a `{} ->syn` OFD (one group of every row), an `->inh` OFD,
// an attribute that is the antecedent of one OFD and the consequent of
// another, and a trivial OFD whose consequent is in its own antecedent (the
// API accepts it; Σ files reject it). Each update runs as a task on a pool
// of 1 or 4 workers, so the per-thread tally scratch serves the groups from
// any thread; state is checked against scratch verification and the audit
// after every step.
TEST(IncrementalTest, SlotChurnMatchesScratchVerification) {
  const Ontology ont = HierarchyOntology();
  const char* meds[] = {"g1", "g4", "g2", "zz", "g3"};
  Relation original(Schema({"A", "B", "MED"}));
  for (int r = 0; r < 24; ++r) {
    original.AppendRow({"a" + std::to_string(r % 3), "b" + std::to_string(r % 2),
                        meds[r % 5]});
  }
  const SigmaSet sigma = {{AttrSet::Single(0), 2, OfdKind::kSynonym},
                          {AttrSet(), 2, OfdKind::kSynonym},
                          {AttrSet::Of({0, 1}), 2, OfdKind::kInheritance},
                          {AttrSet::Single(1), 0, OfdKind::kSynonym},
                          {AttrSet::Of({0, 1}), 1, OfdKind::kSynonym}};
  for (int threads : {1, 4}) {
    Relation rel = original;
    SynonymIndex index(ont, rel.dict());
    IncrementalVerifier inc(&rel, index, sigma, &ont);
    ThreadPool pool(threads);
    const std::string tag = "threads " + std::to_string(threads);
    auto update = [&](RowId row, AttrId attr, const std::string& value,
                      const std::string& what) {
      const ValueId id = rel.mutable_dict().Intern(value);
      TaskGroup group(&pool);
      group.Submit([&](int) { inc.UpdateCell(row, attr, id); });
      group.Wait();
      const std::string context = tag + " " + what;
      ExpectMatchesFullVerification(inc, rel, index, sigma, context, &ont);
      Status audit = inc.AuditState();
      EXPECT_TRUE(audit.ok()) << context << ": " << audit.message();
    };
    ExpectMatchesFullVerification(inc, rel, index, sigma, tag + " built", &ont);

    // Class a0 holds rows 0, 3, ..., 21; row 9 carries its only g3, whose
    // slot sits before the appended one, so removing it is a real swap.
    update(0, 2, "brand-new", "slot appended");
    update(9, 2, "g1", "class's only g3 swap-removed");
    update(0, 2, "g1", "relation's only brand-new removed");
    // Row 1 leaves a1 for a group of its own, returns (emptying it onto the
    // free list), and row 2 takes the freed group under another key.
    update(1, 0, "solo", "row split off");
    update(1, 0, "a1", "split group emptied");
    update(2, 0, "solo-2", "freed group reused");
    update(2, 1, "b9", "second antecedent moved");
    update(2, 0, "a2", "row back in its class");
    update(2, 1, "b0", "row home");

    std::vector<std::string> values;
    for (AttrId a = 0; a < rel.num_attrs(); ++a) {
      for (ValueId v : rel.Column(a)) values.emplace_back(rel.dict().String(v));
    }
    Rng rng(7900);
    for (int step = 0; step < 80; ++step) {
      const RowId row = static_cast<RowId>(rng.NextUint(rel.num_rows()));
      const AttrId attr = static_cast<AttrId>(rng.NextUint(rel.num_attrs()));
      const double pick = rng.NextDouble();
      std::string value;
      if (pick < 0.25) {
        value = "new-" + std::to_string(step);  // Appends a slot.
      } else if (pick < 0.5) {
        value = std::string(original.dict().String(original.At(row, attr)));
      } else {
        value = values[rng.NextUint(values.size())];
      }
      update(row, attr, value, "step " + std::to_string(step));
      if (HasFailure()) return;  // One diverged step implies cascades.
    }
  }
}

// ---------------------------------------------------------------------------
// Parallel discovery.

TEST(ParallelDiscoveryTest, OutputIdenticalAcrossThreadCounts) {
  for (int seed = 0; seed < 4; ++seed) {
    DataGenConfig cfg;
    cfg.num_rows = 600;
    cfg.num_antecedents = 3;
    cfg.num_consequents = 3;
    cfg.num_noise_attrs = 2;
    cfg.error_rate = 0.02;
    cfg.seed = static_cast<uint64_t>(7400 + seed);
    GeneratedData data = GenerateData(cfg);
    SynonymIndex index(data.ontology, data.rel.dict());

    FastOfdConfig serial;
    serial.num_threads = 1;
    FastOfdResult a = FastOfd(data.rel, index, serial).Discover();
    for (int threads : {2, 4, 8}) {
      FastOfdConfig parallel;
      parallel.num_threads = threads;
      FastOfdResult b = FastOfd(data.rel, index, parallel).Discover();
      EXPECT_EQ(a.ofds, b.ofds) << "threads " << threads << " seed " << seed;
      EXPECT_EQ(a.candidates_checked, b.candidates_checked);
      EXPECT_EQ(a.values_scanned, b.values_scanned);
    }
  }
}

}  // namespace
}  // namespace fastofd
