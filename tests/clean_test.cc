// Tests for the OFDClean stack: EMD, sense assignment, data/ontology
// repair, the class-histogram kernel and beam-node scoring, the end-to-end
// driver on the paper's running example, and the HoloCleanLite baseline.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "clean/beam_scorer.h"
#include "clean/emd.h"
#include "clean/holoclean_lite.h"
#include "clean/repair.h"
#include "clean/sense_assignment.h"
#include "common/csv.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "datagen/datagen.h"
#include "ofd/verifier.h"
#include "ontology/ontology.h"
#include "ontology/synonym_index.h"
#include "relation/partition.h"
#include "relation/relation.h"

namespace fastofd {
namespace {

// ---------------------------------------------------------------------------
// EMD.

TEST(EmdTest, IdenticalHistogramsHaveZeroDistance) {
  ValueHistogram p = {{1, 3}, {2, 5}};
  EXPECT_DOUBLE_EQ(CategoricalEmd(p, p), 0.0);
}

TEST(EmdTest, CategoricalKnownValues) {
  // p = {a:3}, q = {b:3}: move 3 units -> EMD 3.
  EXPECT_DOUBLE_EQ(CategoricalEmd({{1, 3}}, {{2, 3}}), 3.0);
  // p = {a:2, b:1}, q = {a:1, b:2}: move 1 unit.
  EXPECT_DOUBLE_EQ(CategoricalEmd({{1, 2}, {2, 1}}, {{1, 1}, {2, 2}}), 1.0);
}

TEST(EmdTest, CategoricalIsSymmetric) {
  ValueHistogram p = {{1, 4}, {2, 1}, {3, 2}};
  ValueHistogram q = {{1, 1}, {4, 6}};
  EXPECT_DOUBLE_EQ(CategoricalEmd(p, q), CategoricalEmd(q, p));
}

TEST(EmdTest, UnequalMassChargesSurplus) {
  // p has 5 units, q has 2 on the same bin: 3 surplus moves.
  EXPECT_DOUBLE_EQ(CategoricalEmd({{1, 5}}, {{1, 2}}), 3.0);
}

TEST(EmdTest, OrderedPrefixSumFormula) {
  // p = [1,0,0], q = [0,0,1]: one unit moved two bins -> 2.
  EXPECT_DOUBLE_EQ(OrderedEmd({1, 0, 0}, {0, 0, 1}), 2.0);
  EXPECT_DOUBLE_EQ(OrderedEmd({2, 2}, {2, 2}), 0.0);
  EXPECT_DOUBLE_EQ(OrderedEmd({0, 4}, {4, 0}), 4.0);
}

// ---------------------------------------------------------------------------
// Fixtures.

// Table 1 with updated (dirty) MED values and the merged ontology.
struct CleanFixture {
  Relation rel;
  Ontology ontology;

  static CleanFixture Make() {
    auto csv = ReadCsvFile(std::string(FASTOFD_DATA_DIR) + "/clinical_trials.csv");
    EXPECT_TRUE(csv.ok());
    CsvTable table = csv.value();
    table.header.erase(table.header.begin());
    for (auto& row : table.rows) row.erase(row.begin());
    auto rel = Relation::FromCsv(table);
    EXPECT_TRUE(rel.ok());
    std::string dir(FASTOFD_DATA_DIR);
    auto merged = ParseOntology(
        WriteOntology(ReadOntologyFile(dir + "/drug_ontology.txt").value()) +
        WriteOntology(ReadOntologyFile(dir + "/country_ontology.txt").value()));
    EXPECT_TRUE(merged.ok());
    return CleanFixture{std::move(rel).value(), std::move(merged).value()};
  }
};

// ---------------------------------------------------------------------------
// Initial sense assignment (Algorithm 5).

TEST(SenseAssignmentTest, PicksSenseWithMaxCoverage) {
  Relation rel(Schema({"X", "MED"}));
  // Class of 5 tuples: 3 covered by sense A only, 2 by sense B only.
  Ontology ont;
  SenseId sa = ont.AddSense("A");
  SenseId sb = ont.AddSense("B");
  ont.AddValue(sa, "a1");
  ont.AddValue(sa, "a2");
  ont.AddValue(sb, "b1");
  rel.AppendRow({"x", "a1"});
  rel.AppendRow({"x", "a1"});
  rel.AppendRow({"x", "a2"});
  rel.AppendRow({"x", "b1"});
  rel.AppendRow({"x", "b1"});
  SynonymIndex index(ont, rel.dict());
  const std::vector<RowId> rows = {0, 1, 2, 3, 4};
  SenseId got = SenseSelector::InitialAssignment(rel, index, rows, 1);
  EXPECT_EQ(got, sa);  // Covers 3 tuples vs 2.
}

TEST(SenseAssignmentTest, PrefersSenseCoveringMoreDistinctTopValues) {
  Relation rel(Schema({"X", "MED"}));
  Ontology ont;
  SenseId sa = ont.AddSense("A");
  SenseId sb = ont.AddSense("B");
  // Sense A covers both frequent values; B covers one frequent + one rare.
  ont.AddValue(sa, "v1");
  ont.AddValue(sa, "v2");
  ont.AddValue(sb, "v1");
  ont.AddValue(sb, "rare");
  for (int i = 0; i < 4; ++i) rel.AppendRow({"x", "v1"});
  for (int i = 0; i < 3; ++i) rel.AppendRow({"x", "v2"});
  rel.AppendRow({"x", "rare"});
  SynonymIndex index(ont, rel.dict());
  std::vector<RowId> rows;
  for (RowId r = 0; r < rel.num_rows(); ++r) rows.push_back(r);
  EXPECT_EQ(SenseSelector::InitialAssignment(rel, index, rows, 1), sa);
}

TEST(SenseAssignmentTest, AllValuesOutsideOntologyGivesInvalidSense) {
  Relation rel(Schema({"X", "MED"}));
  rel.AppendRow({"x", "u1"});
  rel.AppendRow({"x", "u2"});
  Ontology empty;
  SynonymIndex index(empty, rel.dict());
  const std::vector<RowId> rows = {0, 1};
  EXPECT_EQ(SenseSelector::InitialAssignment(rel, index, rows, 1), kInvalidSense);
}

TEST(SenseAssignmentTest, FallsBackWhenTopValueUncovered) {
  Relation rel(Schema({"X", "MED"}));
  Ontology ont;
  SenseId s = ont.AddSense("S");
  ont.AddValue(s, "known");
  // 'mystery' is the most frequent value but unknown to the ontology.
  rel.AppendRow({"x", "mystery"});
  rel.AppendRow({"x", "mystery"});
  rel.AppendRow({"x", "mystery"});
  rel.AppendRow({"x", "known"});
  SynonymIndex index(ont, rel.dict());
  const std::vector<RowId> rows = {0, 1, 2, 3};
  EXPECT_EQ(SenseSelector::InitialAssignment(rel, index, rows, 1), s);
}

TEST(SenseAssignmentTest, AccuracyHighOnCleanGeneratedData) {
  DataGenConfig cfg;
  cfg.num_rows = 500;
  cfg.num_antecedents = 2;
  cfg.num_consequents = 2;
  cfg.num_senses = 4;
  cfg.error_rate = 0.0;
  cfg.seed = 7;
  GeneratedData data = GenerateData(cfg);
  SynonymIndex index(data.ontology, data.rel.dict());
  SenseSelector selector(data.rel, index, data.sigma);
  SenseAssignmentResult result = selector.Run();

  int64_t correct = 0, total = 0;
  for (size_t i = 0; i < data.sigma.size(); ++i) {
    const auto& classes = result.partitions[i].classes();
    for (size_t c = 0; c < classes.size(); ++c) {
      // Recover the class's antecedent value to look up the true sense.
      AttrId lhs = data.sigma[i].lhs.First();
      std::string key = std::to_string(i) + ":" +
                        data.rel.StringAt(classes[c][0], lhs);
      auto it = data.true_senses.find(key);
      if (it == data.true_senses.end()) continue;
      ++total;
      SenseId assigned = result.senses[i][c];
      if (assigned == it->second) {
        ++correct;
      } else if (assigned != kInvalidSense) {
        // Also accept a sense that covers every tuple of the class (an
        // equally valid interpretation due to sense overlap).
        bool covers_all = true;
        for (RowId r : classes[c]) {
          covers_all &= index.SenseContains(assigned, data.rel.At(r, data.sigma[i].rhs));
        }
        if (covers_all) ++correct;
      }
    }
  }
  ASSERT_GT(total, 0);
  EXPECT_GE(static_cast<double>(correct) / static_cast<double>(total), 0.95);
}

// ---------------------------------------------------------------------------
// Data repair.

TEST(RepairDataTest, FixesSingleOutlierTuple) {
  Relation rel(Schema({"X", "MED"}));
  Ontology ont;
  SenseId s = ont.AddSense("S");
  ont.AddValue(s, "good1");
  ont.AddValue(s, "good2");
  rel.AppendRow({"x", "good1"});
  rel.AppendRow({"x", "good1"});
  rel.AppendRow({"x", "good2"});
  rel.AppendRow({"x", "bad"});
  SynonymIndex index(ont, rel.dict());
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym}};
  SenseSelector selector(rel, index, sigma);
  SenseAssignmentResult assignment = selector.Run();
  RepairResult result = RepairData(rel, index, sigma, assignment, 1000);
  EXPECT_TRUE(result.consistent);
  EXPECT_EQ(result.data_changes, 1);
  // The outlier was rewritten to the most frequent covered value.
  EXPECT_EQ(result.repaired.StringAt(3, 1), "good1");
  // Synonym variation among good1/good2 was NOT "repaired".
  EXPECT_EQ(result.repaired.StringAt(2, 1), "good2");
}

TEST(RepairDataTest, MajorityRepairWithoutOntology) {
  Relation rel(Schema({"X", "Y"}));
  rel.AppendRow({"x", "a"});
  rel.AppendRow({"x", "a"});
  rel.AppendRow({"x", "b"});
  Ontology empty;
  SynonymIndex index(empty, rel.dict());
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym}};
  SenseSelector selector(rel, index, sigma);
  SenseAssignmentResult assignment = selector.Run();
  RepairResult result = RepairData(rel, index, sigma, assignment, 1000);
  EXPECT_TRUE(result.consistent);
  EXPECT_EQ(result.data_changes, 1);
  EXPECT_EQ(result.repaired.StringAt(2, 1), "a");
}

TEST(RepairDataTest, BudgetExhaustionFlagsInfeasible) {
  Relation rel(Schema({"X", "Y"}));
  for (int i = 0; i < 10; ++i) {
    rel.AppendRow({"x", "v" + std::to_string(i)});
  }
  Ontology empty;
  SynonymIndex index(empty, rel.dict());
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym}};
  SenseSelector selector(rel, index, sigma);
  SenseAssignmentResult assignment = selector.Run();
  RepairResult result = RepairData(rel, index, sigma, assignment, /*max_changes=*/2);
  EXPECT_FALSE(result.tau_feasible);
  EXPECT_FALSE(result.consistent);
}

TEST(RepairDataTest, CleanInstanceNeedsNoChanges) {
  CleanFixture f = CleanFixture::Make();
  // Restore the original (clean) MED values.
  f.rel.Set(8, f.rel.schema().Find("MED"), "tiazac");
  f.rel.Set(10, f.rel.schema().Find("MED"), "tiazac");
  SynonymIndex index(f.ontology, f.rel.dict());
  const Schema& s = f.rel.schema();
  SigmaSet sigma = {
      {AttrSet::Single(s.Find("CC")), s.Find("CTRY"), OfdKind::kSynonym},
      {AttrSet::Of({s.Find("SYMP"), s.Find("DIAG")}), s.Find("MED"),
       OfdKind::kSynonym}};
  SenseSelector selector(f.rel, index, sigma);
  SenseAssignmentResult assignment = selector.Run();
  RepairResult result = RepairData(f.rel, index, sigma, assignment, 1000);
  EXPECT_TRUE(result.consistent);
  EXPECT_EQ(result.data_changes, 0);
}

TEST(RepairDataTest, KeepsTheLargerPartOfTheConflictGraph) {
  // One cell covered by the sense and nine of one value outside it: the
  // class's conflict graph is the star K_{1,9}, whose minimum vertex cover
  // is the single covered cell.
  Relation rel(Schema({"X", "MED"}));
  Ontology ont;
  SenseId s = ont.AddSense("S");
  ont.AddValue(s, "good");
  rel.AppendRow({"x", "good"});
  for (int i = 0; i < 9; ++i) rel.AppendRow({"x", "other"});
  SynonymIndex index(ont, rel.dict());
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym}};
  SenseSelector selector(rel, index, sigma);
  SenseAssignmentResult assignment = selector.Run();
  ASSERT_EQ(assignment.senses[0][0], s);
  RepairResult result = RepairData(rel, index, sigma, assignment, 1000);
  EXPECT_TRUE(result.consistent);
  EXPECT_EQ(result.data_changes, 1);
  EXPECT_EQ(result.repaired.StringAt(0, 1), "other");
  EXPECT_EQ(BeamScorer(rel, index, sigma, assignment).base_cost(), 1);
}

TEST(RepairDataTest, CellRewrittenTwiceCountsOnce) {
  // X -> A and Y -> A share A; row 2 lies in both classes. Under S the
  // X-class rewrites its "bad" to g1; under T the Y-class then rewrites the
  // same cell to g2, which S also covers, so a second pass changes nothing.
  // Two writes, one changed cell.
  Relation rel(Schema({"X", "Y", "A"}));
  Ontology ont;
  SenseId s = ont.AddSense("S");
  ont.AddValue(s, "g1");
  ont.AddValue(s, "g2");
  SenseId t = ont.AddSense("T");
  ont.AddValue(t, "g2");
  ont.AddValue(t, "t1");
  rel.AppendRow({"x", "ya", "g1"});
  rel.AppendRow({"x", "yb", "g1"});
  rel.AppendRow({"x", "y", "bad"});
  rel.AppendRow({"xc", "y", "g2"});
  rel.AppendRow({"xd", "y", "g2"});
  SynonymIndex index(ont, rel.dict());
  SigmaSet sigma = {{AttrSet::Single(0), 2, OfdKind::kSynonym},
                    {AttrSet::Single(1), 2, OfdKind::kSynonym}};
  SenseAssignmentResult assignment;
  assignment.partitions.push_back(StrippedPartition::Build(rel, 0));
  assignment.partitions.push_back(StrippedPartition::Build(rel, 1));
  assignment.senses = {{s}, {t}};
  MetricsRegistry metrics;
  RepairResult result = RepairData(rel, index, sigma, assignment, 1000, &metrics);
  EXPECT_EQ(result.repaired.StringAt(2, 2), "g2");
  EXPECT_EQ(metrics.Snapshot().Counter("repair.cover_tuples"), 2);
  EXPECT_EQ(result.data_changes, 1);
  EXPECT_TRUE(result.consistent);
  // A budget of one change still admits it: the count is of cells.
  EXPECT_TRUE(RepairData(rel, index, sigma, assignment, 1).tau_feasible);
}

// ---------------------------------------------------------------------------
// OFDClean end to end.

TEST(OfdCleanTest, ResolvesPaperExample12) {
  CleanFixture f = CleanFixture::Make();
  const Schema& s = f.rel.schema();
  SigmaSet sigma = {
      {AttrSet::Single(s.Find("CC")), s.Find("CTRY"), OfdKind::kSynonym},
      {AttrSet::Of({s.Find("SYMP"), s.Find("DIAG")}), s.Find("MED"),
       OfdKind::kSynonym}};
  OfdCleanConfig cfg;
  cfg.beam_size = 3;
  OfdClean cleaner(f.rel, f.ontology, sigma, cfg);
  OfdCleanResult result = cleaner.Run();

  // The headache class is interpreted under one sense (MoH or FDA); the two
  // values outside that sense are the ontology-repair candidates (paper
  // §7.1: values not in S *under the chosen sense* — e.g. {tiazac, adizem}
  // under MoH, matching Table 5's ASA-under-FDA style candidates).
  EXPECT_EQ(result.num_candidates, 2);
  EXPECT_TRUE(result.best.consistent);
  // The Pareto frontier offers the pure-data repair (k=0) and, if it saves
  // data changes, the ontology-assisted repair (k=1).
  ASSERT_FALSE(result.pareto.empty());
  EXPECT_EQ(result.pareto.front().ontology_changes, 0);
  for (size_t i = 1; i < result.pareto.size(); ++i) {
    EXPECT_GT(result.pareto[i].ontology_changes,
              result.pareto[i - 1].ontology_changes);
    EXPECT_LT(result.pareto[i].data_changes, result.pareto[i - 1].data_changes);
  }
  // Repaired instance satisfies Σ w.r.t. the repaired ontology.
  SynonymIndex repaired_index(f.ontology, f.rel.dict());
  for (const OntologyAddition& add : result.best.ontology_additions) {
    repaired_index.AddValue(add.sense, add.value);
  }
  OfdVerifier verifier(result.best.repaired, repaired_index);
  for (const Ofd& ofd : sigma) {
    EXPECT_TRUE(verifier.Holds(ofd));
  }
}

TEST(OfdCleanTest, ReproducesTable5RepairStaircase) {
  // Paper Tables 4/5: the four-tuple subset t8..t11 with t11[CTRY] updated
  // to 'Uni. States'. Candidate ontology repairs trade off against data
  // repairs one-for-one, producing the staircase Pareto frontier of
  // Table 5: 0 insertions -> 3 data repairs, ... , 3 insertions -> 0.
  Relation rel(Schema({"CC", "CTRY", "SYMP", "DIAG", "MED"}));
  rel.AppendRow({"US", "USA", "headache", "hypertension", "cartia"});
  rel.AppendRow({"US", "USA", "headache", "hypertension", "ASA"});
  rel.AppendRow({"US", "America", "headache", "hypertension", "tiazac"});
  rel.AppendRow({"US", "Uni. States", "headache", "hypertension", "adizem"});
  std::string dir(FASTOFD_DATA_DIR);
  Ontology ontology =
      ParseOntology(
          WriteOntology(ReadOntologyFile(dir + "/drug_ontology.txt").value()) +
          WriteOntology(ReadOntologyFile(dir + "/country_ontology.txt").value()))
          .value();
  const Schema& s = rel.schema();
  SigmaSet sigma = {
      {AttrSet::Single(s.Find("CC")), s.Find("CTRY"), OfdKind::kSynonym},
      {AttrSet::Of({s.Find("SYMP"), s.Find("DIAG")}), s.Find("MED"),
       OfdKind::kSynonym}};
  OfdCleanConfig cfg;
  cfg.beam_size = 4;
  OfdClean cleaner(rel, ontology, sigma, cfg);
  OfdCleanResult result = cleaner.Run();

  // Candidates: 'Uni. States' under the country sense, plus the two MED
  // values outside the class's chosen drug sense.
  EXPECT_EQ(result.num_candidates, 3);
  // Staircase: each insertion saves exactly one data repair.
  ASSERT_EQ(result.pareto.size(), 4u);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(result.pareto[static_cast<size_t>(k)].ontology_changes, k);
    EXPECT_EQ(result.pareto[static_cast<size_t>(k)].data_changes, 3 - k);
  }
  EXPECT_TRUE(result.best.consistent);
}

// Cells of `repaired` that differ from `rel`.
int64_t DifferingCells(const Relation& rel, const Relation& repaired) {
  int64_t n = 0;
  for (RowId r = 0; r < rel.num_rows(); ++r) {
    for (AttrId a = 0; a < rel.num_attrs(); ++a) n += rel.At(r, a) != repaired.At(r, a);
  }
  return n;
}

TEST(OfdCleanTest, ImpliedOfdsAreReducedAwayAndStillHold) {
  // The clean benchmark's instance shape at 2000 rows and 20% errors: each
  // consequent has X -> A next to the implied XY -> A.
  for (uint64_t slot : {103u, 104u, 105u}) {
    SCOPED_TRACE("slot=" + std::to_string(slot));
    DataGenConfig dg;
    dg.num_rows = 2000;
    dg.num_antecedents = 5;
    dg.num_consequents = 3;
    dg.num_noise_attrs = 5;
    dg.num_key_attrs = 2;
    dg.num_senses = 4;
    dg.classes_per_antecedent = 16;
    dg.error_rate = 0.2;
    dg.in_domain_error_fraction = 0.3;
    dg.incompleteness_rate = 0.05;
    dg.plant_interacting_ofds = true;
    dg.seed = 0x5EED0000ull + slot;
    GeneratedData data = GenerateClinical(dg);
    OfdCleanConfig cfg;
    cfg.min_candidate_classes = 2;
    OfdClean cleaner(data.rel, data.ontology, data.sigma, cfg);
    EXPECT_EQ(cleaner.reduced_sigma().size() * 2, data.sigma.size());
    OfdCleanResult result = cleaner.Run();
    EXPECT_TRUE(result.best.tau_feasible);
    EXPECT_TRUE(result.best.consistent);
    EXPECT_EQ(result.best.data_changes,
              DifferingCells(data.rel, result.best.repaired));
    // The frontier's point for the chosen ontology repair scored exactly
    // the changes the materialized repair made.
    auto point = std::find_if(result.pareto.begin(), result.pareto.end(),
                              [&](const ParetoPoint& p) {
                                return p.ontology_additions ==
                                       result.best.ontology_additions;
                              });
    ASSERT_NE(point, result.pareto.end());
    EXPECT_EQ(point->data_changes, result.best.data_changes);
    // The caller's Σ, implied OFDs included, holds on the repair.
    SynonymIndex repaired_index(data.ontology, data.rel.dict());
    for (const OntologyAddition& add : result.best.ontology_additions) {
      repaired_index.AddValue(add.sense, add.value);
    }
    OfdVerifier verifier(result.best.repaired, repaired_index);
    for (const Ofd& ofd : data.sigma) EXPECT_TRUE(verifier.Holds(ofd));
  }
}

TEST(OfdCleanTest, CleanDataNeedsNoRepairs) {
  DataGenConfig cfg;
  cfg.num_rows = 200;
  cfg.error_rate = 0.0;
  cfg.seed = 3;
  GeneratedData data = GenerateData(cfg);
  OfdClean cleaner(data.rel, data.ontology, data.sigma);
  OfdCleanResult result = cleaner.Run();
  EXPECT_TRUE(result.best.consistent);
  EXPECT_EQ(result.best.data_changes, 0);
  EXPECT_TRUE(result.best.ontology_additions.empty());
}

TEST(OfdCleanTest, RepairsInjectedErrorsWithGoodAccuracy) {
  DataGenConfig cfg;
  cfg.num_rows = 400;
  cfg.num_senses = 4;
  cfg.error_rate = 0.05;
  cfg.seed = 11;
  GeneratedData data = GenerateData(cfg);
  OfdClean cleaner(data.rel, data.ontology, data.sigma);
  OfdCleanResult result = cleaner.Run();
  EXPECT_TRUE(result.best.consistent);
  RepairScore score = ScoreRepair(data, result.best.repaired);
  EXPECT_GT(score.precision(), 0.6);
  EXPECT_GT(score.recall(), 0.4);
}

TEST(OfdCleanTest, IncompletenessTriggersOntologyRepairs) {
  DataGenConfig cfg;
  cfg.num_rows = 300;
  cfg.error_rate = 0.0;
  cfg.incompleteness_rate = 0.15;
  cfg.seed = 13;
  GeneratedData data = GenerateData(cfg);
  OfdCleanConfig ccfg;
  ccfg.max_repair_size = 16;
  OfdClean cleaner(data.rel, data.ontology, data.sigma, ccfg);
  OfdCleanResult result = cleaner.Run();
  EXPECT_GT(result.num_candidates, 0);
  EXPECT_FALSE(result.best.ontology_additions.empty());
  // Ontology repairs re-add removed values to correct senses: check that
  // most additions target values the generator removed.
  int64_t removed_hits = 0;
  for (const OntologyAddition& add : result.best.ontology_additions) {
    const std::string& v = data.rel.dict().String(add.value);
    if (std::find(data.removed_values.begin(), data.removed_values.end(), v) !=
        data.removed_values.end()) {
      ++removed_hits;
    }
  }
  EXPECT_GT(removed_hits, 0);
}

TEST(OfdCleanTest, TauInfeasibleInstanceYieldsEmptyPareto) {
  // Six all-distinct values in one class and an empty ontology: any repair
  // needs 5 changes while τ = 0.1 allows ⌊0.6⌋ = 0. Every beam node is
  // infeasible, so the frontier stays empty — the old accounting pushed the
  // budget-truncated change count as a bogus k=0 Pareto point.
  Relation rel(Schema({"X", "Y"}));
  for (int i = 0; i < 6; ++i) rel.AppendRow({"x", "v" + std::to_string(i)});
  Ontology empty;
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym}};
  OfdCleanConfig cfg;
  cfg.tau = 0.1;
  OfdClean cleaner(rel, empty, sigma, cfg);
  OfdCleanResult result = cleaner.Run();
  EXPECT_TRUE(result.pareto.empty());
  EXPECT_FALSE(result.best.tau_feasible);
  EXPECT_EQ(result.num_candidates, 0);
}

TEST(OfdCleanTest, InfeasibleLevelsAreSkippedNotTruncated) {
  // One class: three tuples covered by the sense, three sharing the
  // uncovered value 'bad'. Level 0 needs 3 repairs but τ = 0.2 allows only
  // 1, so k=0 yields no Pareto point. The infeasible node must still be
  // expanded — inserting 'bad' (k=1) repairs everything and becomes the
  // frontier's only point. The old truncated accounting instead reported a
  // k=0 point of 2 changes and exited early on it.
  Relation rel(Schema({"X", "MED"}));
  Ontology ont;
  SenseId s = ont.AddSense("S");
  ont.AddValue(s, "good");
  for (int i = 0; i < 3; ++i) rel.AppendRow({"x", "good"});
  for (int i = 0; i < 3; ++i) rel.AppendRow({"x", "bad"});
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym}};
  OfdCleanConfig cfg;
  cfg.tau = 0.2;  // Budget ⌊0.2 · 6⌋ = 1.
  OfdClean cleaner(rel, ont, sigma, cfg);
  OfdCleanResult result = cleaner.Run();
  ASSERT_EQ(result.pareto.size(), 1u);
  EXPECT_EQ(result.pareto[0].ontology_changes, 1);
  EXPECT_EQ(result.pareto[0].data_changes, 0);
  EXPECT_TRUE(result.best.tau_feasible);
  EXPECT_TRUE(result.best.consistent);
  EXPECT_EQ(result.best.data_changes, 0);
  ASSERT_EQ(result.best.ontology_additions.size(), 1u);
  EXPECT_EQ(rel.dict().String(result.best.ontology_additions[0].value), "bad");
}

TEST(OfdCleanTest, CandidatesRankedByOccurrenceAcrossClasses) {
  // 'oops' occurs in two classes (3 occurrences total), 'rare' in one (1).
  // Collection must dedup candidates across classes, count every occurrence,
  // and rank by total count when truncating to max_candidates.
  Relation rel(Schema({"X", "MED"}));
  Ontology ont;
  SenseId s = ont.AddSense("S");
  ont.AddValue(s, "good");
  rel.AppendRow({"x1", "good"});
  rel.AppendRow({"x1", "good"});
  rel.AppendRow({"x1", "oops"});
  rel.AppendRow({"x1", "oops"});
  rel.AppendRow({"x2", "good"});
  rel.AppendRow({"x2", "good"});
  rel.AppendRow({"x2", "oops"});
  rel.AppendRow({"x2", "rare"});
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym}};
  OfdCleanConfig cfg;
  cfg.max_candidates = 1;  // Keep only the top-count candidate.
  OfdClean cleaner(rel, ont, sigma, cfg);
  OfdCleanResult result = cleaner.Run();
  EXPECT_EQ(result.num_candidates, 2);  // Pre-truncation |Cand(S)|.
  EXPECT_EQ(result.pareto.size(), 2u);
  // Only the 'oops' insertion was explored; it saves 3 of the 4 repairs.
  ASSERT_EQ(result.best.ontology_additions.size(), 1u);
  EXPECT_EQ(rel.dict().String(result.best.ontology_additions[0].value), "oops");
  EXPECT_EQ(result.best.data_changes, 1);

  // The class-support filter drops the single-class 'rare' before counting.
  OfdCleanConfig filtered = cfg;
  filtered.min_candidate_classes = 2;
  OfdClean cleaner2(rel, ont, sigma, filtered);
  EXPECT_EQ(cleaner2.Run().num_candidates, 1);
}

TEST(OfdCleanTest, BeamResultsIdenticalAcrossThreads) {
  // The parallel beam search must be byte-identical to the serial run: same
  // candidates, node counts, frontier, chosen insertions, and repaired
  // cells, for any thread count.
  DataGenConfig dg;
  dg.num_rows = 400;
  dg.num_senses = 4;
  dg.error_rate = 0.04;
  dg.incompleteness_rate = 0.12;
  dg.seed = 23;
  GeneratedData data = GenerateData(dg);

  auto run = [&](int threads) {
    OfdCleanConfig cfg;
    cfg.num_threads = threads;
    cfg.max_repair_size = 16;
    OfdClean cleaner(data.rel, data.ontology, data.sigma, cfg);
    return cleaner.Run();
  };
  OfdCleanResult reference = run(/*threads=*/1);
  EXPECT_GT(reference.num_candidates, 0);
  EXPECT_FALSE(reference.pareto.empty());

  for (int threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    OfdCleanResult got = run(threads);
    EXPECT_EQ(got.num_candidates, reference.num_candidates);
    EXPECT_EQ(got.nodes_evaluated, reference.nodes_evaluated);
    EXPECT_TRUE(got.pareto == reference.pareto);
    EXPECT_EQ(got.best.data_changes, reference.best.data_changes);
    EXPECT_EQ(got.best.consistent, reference.best.consistent);
    EXPECT_TRUE(got.best.ontology_additions == reference.best.ontology_additions);
    EXPECT_EQ(WriteCsv(got.best.repaired.ToCsv()),
              WriteCsv(reference.best.repaired.ToCsv()));
  }
}

TEST(OfdCleanTest, RejectsOverlappingAntecedentConsequent) {
  Relation rel(Schema({"A", "B", "C"}));
  rel.AppendRow({"1", "2", "3"});
  Ontology ont;
  // B is consequent of the first OFD and antecedent of the second.
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym},
                    {AttrSet::Single(1), 2, OfdKind::kSynonym}};
  EXPECT_DEATH(OfdClean(rel, ont, sigma), "CHECK failed");
}

// ---------------------------------------------------------------------------
// Class histograms (StrippedPartition::HistogramInto).

ClassHistogram HistogramOf(const Relation& rel, const StrippedPartition& p,
                           AttrId attr, ClassHistogram hist = {}) {
  StrippedPartition::HistogramInto(p, rel.Column(attr), rel.dict().size(),
                                   &StrippedPartition::ThreadLocalScratch(), &hist);
  return hist;
}

// Checks the kernel against a std::map tally per class: the same distinct
// values in first-row order, the same counts, summing to the class size.
void ExpectHistogramMatchesReference(const Relation& rel, const StrippedPartition& p,
                                     AttrId attr) {
  ClassHistogram hist = HistogramOf(rel, p, attr);
  ASSERT_EQ(hist.num_classes(), static_cast<size_t>(p.num_classes()));
  ASSERT_EQ(hist.offsets.size(), hist.num_classes() + 1);
  EXPECT_EQ(hist.offsets.front(), 0u);
  EXPECT_EQ(hist.offsets.back(), hist.slots.size());
  for (size_t c = 0; c < hist.num_classes(); ++c) {
    std::map<ValueId, int32_t> counts;
    std::vector<ValueId> first_row_order;
    for (RowId r : p.Class(c)) {
      if (counts[rel.At(r, attr)]++ == 0) first_row_order.push_back(rel.At(r, attr));
    }
    auto slots = hist.Class(c);
    ASSERT_EQ(slots.size(), first_row_order.size());
    int64_t sum = 0;
    for (size_t j = 0; j < slots.size(); ++j) {
      EXPECT_EQ(slots[j].value, first_row_order[j]);
      EXPECT_EQ(slots[j].count, counts[first_row_order[j]]);
      sum += slots[j].count;
    }
    EXPECT_EQ(sum, static_cast<int64_t>(p.Class(c).size()));
  }
}

TEST(ClassHistogramTest, MatchesMapReferenceInFirstRowOrder) {
  DataGenConfig dg;
  dg.num_rows = 600;
  dg.error_rate = 0.05;
  dg.seed = 11;
  GeneratedData data = GenerateData(dg);
  for (const Ofd& ofd : data.sigma) {
    StrippedPartition p = StrippedPartition::BuildForSet(data.rel, ofd.lhs);
    ASSERT_GT(p.num_classes(), 1);
    ExpectHistogramMatchesReference(data.rel, p, ofd.rhs);
  }
}

TEST(ClassHistogramTest, EmptyPartitionAndAllRowsClass) {
  Relation rel(Schema({"K", "V"}));
  for (const char* v : {"b", "a", "b", "c", "a"}) {
    rel.AppendRow({"k" + std::to_string(rel.num_rows()), v});
  }
  // A superkey's partition has no classes; a reused output is reset.
  StrippedPartition key = StrippedPartition::Build(rel, 0);
  ASSERT_TRUE(key.IsSuperkey());
  ClassHistogram stale;
  stale.slots.push_back({0, 9});
  stale.offsets = {0, 1};
  ClassHistogram empty = HistogramOf(rel, key, 1, stale);
  EXPECT_EQ(empty.num_classes(), 0u);
  EXPECT_TRUE(empty.slots.empty());
  EXPECT_EQ(empty.offsets, std::vector<uint32_t>{0});

  // The empty attribute set's single all-rows class.
  StrippedPartition all = StrippedPartition::BuildForSet(rel, AttrSet());
  ASSERT_TRUE(all.IsAllRowsClass());
  ClassHistogram hist = HistogramOf(rel, all, 1);
  ASSERT_EQ(hist.num_classes(), 1u);
  auto slots = hist.Class(0);
  ASSERT_EQ(slots.size(), 3u);
  EXPECT_EQ(slots[0].value, rel.dict().Lookup("b"));
  EXPECT_EQ(slots[0].count, 2);
  EXPECT_EQ(slots[1].value, rel.dict().Lookup("a"));
  EXPECT_EQ(slots[1].count, 2);
  EXPECT_EQ(slots[2].value, rel.dict().Lookup("c"));
  EXPECT_EQ(slots[2].count, 1);
  ExpectHistogramMatchesReference(rel, all, 1);
}

// ---------------------------------------------------------------------------
// Beam-node scoring (BeamScorer).

// Cand(S) with no class filter and no cut.
constexpr int kAllCandidates = std::numeric_limits<int>::max();

// Checks a node's score three ways through AuditNodeScore — incremental,
// full, and a from-scratch RepairData on a materialized index, which runs
// here since every instance is small with distinct consequents.
void ExpectNodeCost(const BeamScorer& scorer, std::vector<int> picks, int64_t expected) {
  std::sort(picks.begin(), picks.end());
  Status audit = scorer.AuditNodeScore(picks, expected);
  EXPECT_TRUE(audit.ok()) << audit.message();
}

TEST(BeamScorerTest, IncrementalFullAndRepairDataAgreeOnRandomNodes) {
  for (uint64_t seed : {3u, 17u, 29u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    DataGenConfig dg;
    dg.num_rows = 500;
    dg.num_senses = 4;
    dg.error_rate = 0.05;
    dg.incompleteness_rate = 0.15;
    dg.seed = seed;
    GeneratedData data = GenerateData(dg);
    // Per-class independence, under which RepairData's count decomposes
    // into the scorer's per-class costs.
    AttrSet lhs_attrs, rhs_attrs;
    for (const Ofd& ofd : data.sigma) {
      ASSERT_FALSE(rhs_attrs.Contains(ofd.rhs));
      lhs_attrs = lhs_attrs.Union(ofd.lhs);
      rhs_attrs = rhs_attrs.With(ofd.rhs);
    }
    ASSERT_FALSE(lhs_attrs.Intersects(rhs_attrs));

    SynonymIndex index(data.ontology, data.rel.dict());
    SenseSelector selector(data.rel, index, data.sigma);
    SenseAssignmentResult assignment = selector.Run();
    BeamScorer scorer(data.rel, index, data.sigma, assignment);
    scorer.CollectCandidates(1, kAllCandidates);
    ASSERT_GE(scorer.candidates().size(), 4u);
    ExpectNodeCost(scorer, {}, scorer.base_cost());
    EXPECT_FALSE(scorer.AuditNodeScore({}, scorer.base_cost() + 1).ok());

    Rng rng(seed);
    BeamScorer::ScoreScratch scratch;  // Reused across nodes, as per worker.
    const int n = static_cast<int>(scorer.candidates().size());
    for (int trial = 0; trial < 30; ++trial) {
      std::vector<int> picks;  // Ascending, as the beam builds them.
      for (int p = 0; p < n; ++p) {
        if (rng.NextBernoulli(std::min(1.0, 4.0 / n))) picks.push_back(p);
      }
      BeamScorer::NodeScore incremental = scorer.ScoreIncremental(picks, &scratch);
      ExpectNodeCost(scorer, picks, incremental.data_changes);
      std::set<uint32_t> flipped;
      for (int p : picks) {
        for (const BeamScorer::Flip& f : scorer.flips(static_cast<size_t>(p))) {
          flipped.insert(f.item);
        }
      }
      EXPECT_EQ(incremental.classes_rescored, static_cast<int64_t>(flipped.size()));
      EXPECT_EQ(scorer.ScoreFull(picks).classes_rescored,
                static_cast<int64_t>(scorer.num_classes()));
    }
  }
}

// One OFD X -> MED over classes and senses a test spells out. Sense S holds
// {g1, g2} and T holds {t1}; singleton padding rows intern those values (and
// any `early` ones) first, so their ids are the smallest and both senses
// have dictionary values.
struct HandBuilt {
  Relation rel{Schema({"X", "MED"})};
  Ontology ont;
  SenseId s = kInvalidSense;
  SenseId t = kInvalidSense;
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym}};

  explicit HandBuilt(const std::vector<std::string>& early = {}) {
    s = ont.AddSense("S");
    ont.AddValue(s, "g1");
    ont.AddValue(s, "g2");
    t = ont.AddSense("T");
    ont.AddValue(t, "t1");
    std::vector<std::string> pad = {"g1", "g2", "t1"};
    pad.insert(pad.end(), early.begin(), early.end());
    for (const std::string& v : pad) {
      rel.AppendRow({"pad" + std::to_string(rel.num_rows()), v});
    }
  }

  // Appends one equivalence class (rows sharing X = x).
  void AddClass(const std::string& x, const std::vector<std::string>& values) {
    for (const std::string& v : values) rel.AppendRow({x, v});
  }

  // The partition of X with the given per-class senses (classes in
  // first-row order).
  SenseAssignmentResult Assign(std::vector<SenseId> senses) const {
    SenseAssignmentResult assignment;
    assignment.partitions.push_back(StrippedPartition::Build(rel, 0));
    EXPECT_EQ(static_cast<size_t>(assignment.partitions[0].num_classes()),
              senses.size());
    assignment.senses.push_back(std::move(senses));
    return assignment;
  }

  // The index of candidate (sense, value) among the scorer's candidates.
  int Pick(const BeamScorer& scorer, SenseId sense, const std::string& value) const {
    const std::vector<OntologyAddition>& candidates = scorer.candidates();
    OntologyAddition add{sense, rel.dict().Lookup(value)};
    auto it = std::find(candidates.begin(), candidates.end(), add);
    EXPECT_NE(it, candidates.end()) << value;
    return static_cast<int>(it - candidates.begin());
  }
};

TEST(BeamScorerTest, SingleValueClassNeverCosts) {
  HandBuilt h;
  h.AddClass("x1", {"u", "u", "u"});  // One value, uncovered by S.
  SynonymIndex index(h.ont, h.rel.dict());
  SenseAssignmentResult assignment = h.Assign({h.s});
  BeamScorer scorer(h.rel, index, h.sigma, assignment);
  scorer.CollectCandidates(1, kAllCandidates);
  EXPECT_EQ(scorer.base_cost(), 0);
  ExpectNodeCost(scorer, {}, 0);
  ExpectNodeCost(scorer, {h.Pick(scorer, h.s, "u")}, 0);
}

TEST(BeamScorerTest, InvalidSenseClassKeepsItsMajority) {
  HandBuilt h;
  h.AddClass("x1", {"a", "a", "b"});  // No sense: majority repair.
  h.AddClass("x2", {"g1", "u"});
  SynonymIndex index(h.ont, h.rel.dict());
  SenseAssignmentResult assignment = h.Assign({kInvalidSense, h.s});
  BeamScorer scorer(h.rel, index, h.sigma, assignment);
  scorer.CollectCandidates(1, kAllCandidates);
  // Only x2 yields candidates; the invalid-sense class never flips.
  ASSERT_EQ(scorer.candidates().size(), 1u);
  EXPECT_EQ(scorer.flips(0).size(), 1u);
  ExpectNodeCost(scorer, {}, 2);
  ExpectNodeCost(scorer, {h.Pick(scorer, h.s, "u")}, 1);
  RepairResult repaired = RepairData(h.rel, index, h.sigma, assignment, 100);
  EXPECT_EQ(repaired.repaired.StringAt(h.rel.num_rows() - 3, 1), "a");
}

TEST(BeamScorerTest, CountTiesBreakToMinimumValueId) {
  // "za" is interned before "zb", but "zb" and "g2" own their classes' first
  // slots: the tie-breaks must follow value ids, not slot order.
  HandBuilt h({"za"});
  h.AddClass("x1", {"g2", "g2", "g1", "g1", "u"});
  h.AddClass("x2", {"zb", "za", "za", "zb", "zc"});
  SynonymIndex index(h.ont, h.rel.dict());
  SenseAssignmentResult assignment = h.Assign({h.s, kInvalidSense});
  BeamScorer scorer(h.rel, index, h.sigma, assignment);
  scorer.CollectCandidates(1, kAllCandidates);
  // x1 rewrites "u" to a covered value; x2 rewrites all but its majority.
  ExpectNodeCost(scorer, {}, 1 + 3);
  ExpectNodeCost(scorer, {h.Pick(scorer, h.s, "u")}, 3);

  RepairResult repaired = RepairData(h.rel, index, h.sigma, assignment, 100);
  const RowId x1 = h.rel.num_rows() - 10;
  const RowId x2 = h.rel.num_rows() - 5;
  EXPECT_EQ(repaired.repaired.StringAt(x1 + 4, 1), "g1");
  for (RowId r = x2; r < x2 + 5; ++r) {
    EXPECT_EQ(repaired.repaired.StringAt(r, 1), "za");
  }
}

TEST(BeamScorerTest, PickCoveringLastUncoveredSlotCostsNothing) {
  HandBuilt h;
  h.AddClass("x1", {"g1", "g1", "u", "u"});  // u is the only uncovered slot.
  h.AddClass("x2", {"u", "v"});  // Nothing covered: keeps u (tie, minimum id).
  SynonymIndex index(h.ont, h.rel.dict());
  SenseAssignmentResult assignment = h.Assign({h.s, h.s});
  BeamScorer scorer(h.rel, index, h.sigma, assignment);
  scorer.CollectCandidates(1, kAllCandidates);
  const int u = h.Pick(scorer, h.s, "u");
  EXPECT_EQ(scorer.flips(static_cast<size_t>(u)).size(), 2u);  // Flips both classes.
  ExpectNodeCost(scorer, {}, 2 + 1);
  ExpectNodeCost(scorer, {u}, 0 + 1);
  ExpectNodeCost(scorer, {u, h.Pick(scorer, h.s, "v")}, 0);
  EXPECT_EQ(scorer.ScoreIncremental({u}).classes_rescored, 2);
}

TEST(BeamScorerTest, TwoPicksInOneClass) {
  HandBuilt h;
  h.AddClass("x1", {"g1", "u", "u", "v"});  // The u group outweighs g1.
  h.AddClass("x2", {"u", "v", "v"});        // Under T: nothing covered.
  SynonymIndex index(h.ont, h.rel.dict());
  SenseAssignmentResult assignment = h.Assign({h.s, h.t});
  BeamScorer scorer(h.rel, index, h.sigma, assignment);
  scorer.CollectCandidates(1, kAllCandidates);
  const int su = h.Pick(scorer, h.s, "u");
  const int sv = h.Pick(scorer, h.s, "v");
  const int tu = h.Pick(scorer, h.t, "u");
  const int tv = h.Pick(scorer, h.t, "v");
  ExpectNodeCost(scorer, {}, 2 + 1);
  ExpectNodeCost(scorer, {su}, 1 + 1);
  ExpectNodeCost(scorer, {sv}, 2 + 1);  // Tie: covered.
  ExpectNodeCost(scorer, {su, sv}, 0 + 1);
  ExpectNodeCost(scorer, {tv}, 2 + 1);
  ExpectNodeCost(scorer, {su, sv, tu, tv}, 0);
  std::vector<int> same_class = {su, sv};
  std::sort(same_class.begin(), same_class.end());
  EXPECT_EQ(scorer.ScoreIncremental(same_class).classes_rescored, 1);
}

TEST(BeamScorerTest, CoveringTheLargestUncoveredGroupStaysExact) {
  // u (3 rows) outweighs the covered g1 (1 row), so the base repair keeps u.
  // Covering u makes the covered part the larger one; the incremental
  // tally's stale largest group must not win against it.
  HandBuilt h;
  h.AddClass("x1", {"g1", "u", "u", "u", "v", "v"});
  SynonymIndex index(h.ont, h.rel.dict());
  SenseAssignmentResult assignment = h.Assign({h.s});
  BeamScorer scorer(h.rel, index, h.sigma, assignment);
  scorer.CollectCandidates(1, kAllCandidates);
  const int u = h.Pick(scorer, h.s, "u");
  const int v = h.Pick(scorer, h.s, "v");
  ExpectNodeCost(scorer, {}, 3);
  ExpectNodeCost(scorer, {u}, 2);
  ExpectNodeCost(scorer, {v}, 3);  // Tie: covered.
  ExpectNodeCost(scorer, {u, v}, 0);
  RepairResult repaired = RepairData(h.rel, index, h.sigma, assignment, 100);
  for (RowId r = h.rel.num_rows() - 6; r < h.rel.num_rows(); ++r) {
    EXPECT_EQ(repaired.repaired.StringAt(r, 1), "u");
  }
}

TEST(BeamScorerTest, AssignedSenseWithoutValuesKeepsLargestGroup) {
  // A class's repair target is always one of its own values, so a sense
  // holding no value yet is scored like any other: insertions into it only
  // flip the slots they name.
  HandBuilt h;
  SenseId empty = h.ont.AddSense("E");
  h.AddClass("x1", {"u", "v", "v"});
  SynonymIndex index(h.ont, h.rel.dict());
  SenseAssignmentResult assignment = h.Assign({empty});
  BeamScorer scorer(h.rel, index, h.sigma, assignment);
  scorer.CollectCandidates(1, kAllCandidates);
  const int u = h.Pick(scorer, empty, "u");
  const int v = h.Pick(scorer, empty, "v");
  ExpectNodeCost(scorer, {}, 1);
  ExpectNodeCost(scorer, {u}, 1);
  ExpectNodeCost(scorer, {v}, 1);
  ExpectNodeCost(scorer, {u, v}, 0);
}

TEST(BeamScorerTest, CandidatesFilteredByClassSupportAndCutByCount) {
  // Under S: a occurs in x1 and x2 (2 rows), b in x1 (2), c in x1 and x2
  // (3), d in x3 (2).
  HandBuilt h;
  h.AddClass("x1", {"g1", "a", "b", "b", "c"});
  h.AddClass("x2", {"g1", "a", "c", "c"});
  h.AddClass("x3", {"g1", "d", "d"});
  SynonymIndex index(h.ont, h.rel.dict());
  SenseAssignmentResult assignment = h.Assign({h.s, h.s, h.s});
  BeamScorer scorer(h.rel, index, h.sigma, assignment);
  auto values = [&] {
    std::vector<std::string> out;
    for (const OntologyAddition& add : scorer.candidates()) {
      EXPECT_EQ(add.sense, h.s);
      out.push_back(h.rel.dict().String(add.value));
    }
    return out;
  };
  using Values = std::vector<std::string>;
  // Uncut: first-occurrence order.
  EXPECT_EQ(scorer.CollectCandidates(1, 24), 4);
  EXPECT_EQ(values(), (Values{"a", "b", "c", "d"}));
  // Single-class values are dropped before counting.
  EXPECT_EQ(scorer.CollectCandidates(2, 24), 2);
  EXPECT_EQ(values(), (Values{"a", "c"}));
  EXPECT_EQ(scorer.flips(1), (std::vector<BeamScorer::Flip>{{0, 3}, {1, 6}}));
  // The cut ranks by count; the 2-row ties keep first-occurrence order.
  EXPECT_EQ(scorer.CollectCandidates(1, 3), 4);
  EXPECT_EQ(values(), (Values{"c", "a", "b"}));
  EXPECT_EQ(scorer.CollectCandidates(2, 1), 2);
  EXPECT_EQ(values(), (Values{"c"}));
  // The flips moved with their candidate: c covers x1 to a tie (kept
  // covered) and x2 down to its one a.
  ExpectNodeCost(scorer, {}, 3 + 2 + 1);
  ExpectNodeCost(scorer, {0}, 3 + 1 + 1);
}

// ---------------------------------------------------------------------------
// Repair oracles: the exact per-class cover against brute force, and a single
// OFD's repair against its approximate support.

constexpr int64_t kUnbounded = std::numeric_limits<int64_t>::max();

// The fewest changed cells over every rewrite of the consequent cells within
// their active domain after which each class holds: it has one distinct
// value, or its sense covers them all. Consequents are distinct.
int64_t BruteForceMinRepair(const Relation& rel, const SynonymIndex& index,
                            const SigmaSet& sigma,
                            const SenseAssignmentResult& assignment) {
  std::vector<std::pair<RowId, AttrId>> cells;
  std::set<ValueId> active;
  for (const Ofd& ofd : sigma) {
    for (RowId r = 0; r < rel.num_rows(); ++r) {
      cells.emplace_back(r, ofd.rhs);
      active.insert(rel.At(r, ofd.rhs));
    }
  }
  const std::vector<ValueId> domain(active.begin(), active.end());
  auto holds = [&](const Relation& out) {
    for (size_t i = 0; i < sigma.size(); ++i) {
      const StrippedPartition& p = assignment.partitions[i];
      for (size_t c = 0; c < static_cast<size_t>(p.num_classes()); ++c) {
        const SenseId sense = assignment.senses[i][c];
        std::set<ValueId> values;
        for (RowId r : p.Class(c)) values.insert(out.At(r, sigma[i].rhs));
        auto uncovered = [&](ValueId v) {
          return sense == kInvalidSense || !index.SenseContains(sense, v);
        };
        if (values.size() > 1 && std::any_of(values.begin(), values.end(), uncovered)) {
          return false;
        }
      }
    }
    return true;
  };
  Relation out = rel;
  int64_t best = std::numeric_limits<int64_t>::max();
  const auto rewrites = static_cast<uint64_t>(std::pow(domain.size(), cells.size()));
  for (uint64_t code = 0; code < rewrites; ++code) {
    int64_t changed = 0;
    uint64_t rest = code;
    for (const auto& [r, a] : cells) {
      out.SetId(r, a, domain[rest % domain.size()]);
      changed += out.At(r, a) != rel.At(r, a);
      rest /= domain.size();
    }
    if (changed < best && holds(out)) best = changed;
  }
  return best;
}

TEST(RepairOracleTest, ExactCoverMatchesBruteForceOptimum) {
  // S = {v0, v1} and T = {v1, v2} overlap; v3 is in no sense. X -> A alone
  // over up to 8 rows, or with Y -> B over up to 4, so at most 8 consequent
  // cells over at most 4 values: at most 4^8 rewrites.
  Ontology ont;
  const SenseId s = ont.AddSense("S"), t = ont.AddSense("T");
  for (const char* v : {"v0", "v1"}) ont.AddValue(s, v);
  for (const char* v : {"v1", "v2"}) ont.AddValue(t, v);
  const std::vector<std::string> pool = {"v0", "v1", "v2", "v3"};
  const std::vector<SenseId> senses = {s, t, kInvalidSense};
  int nonzero = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    const bool two_ofds = seed % 2 == 0;
    SigmaSet sigma = {{AttrSet::Single(0), 2, OfdKind::kSynonym}};
    if (two_ofds) sigma.push_back({AttrSet::Single(1), 3, OfdKind::kSynonym});
    Relation rel(Schema({"X", "Y", "A", "B"}));
    const uint64_t rows = two_ofds ? 3 + rng.NextUint(2) : 4 + rng.NextUint(5);
    for (uint64_t r = 0; r < rows; ++r) {
      rel.AppendRow({"x" + std::to_string(rng.NextUint(2)),
                     "y" + std::to_string(rng.NextUint(2)), pool[rng.NextUint(4)],
                     pool[rng.NextUint(4)]});
    }
    SynonymIndex index(ont, rel.dict());
    SenseAssignmentResult assignment;
    for (const Ofd& ofd : sigma) {
      assignment.partitions.push_back(StrippedPartition::Build(rel, ofd.lhs.First()));
      assignment.senses.emplace_back();
      for (int64_t c = 0; c < assignment.partitions.back().num_classes(); ++c) {
        assignment.senses.back().push_back(senses[rng.NextUint(senses.size())]);
      }
    }
    const int64_t optimum = BruteForceMinRepair(rel, index, sigma, assignment);
    nonzero += optimum > 0;
    EXPECT_EQ(RepairData(rel, index, sigma, assignment, kUnbounded).data_changes,
              optimum);
    EXPECT_EQ(BeamScorer(rel, index, sigma, assignment).base_cost(), optimum);
  }
  EXPECT_GE(nonzero, 15);  // The instances are mostly dirty.
}

TEST(RepairOracleTest, SingleOfdRepairMatchesSupport) {
  // For one OFD, giving each class its best-covering sense is optimal, and
  // the repair then keeps exactly the rows approximate support counts.
  int64_t dirty = 0;
  for (uint64_t seed : {5u, 13u, 31u}) {
    DataGenConfig dg;
    dg.num_rows = 400;
    dg.num_senses = 4;
    dg.error_rate = 0.08;
    dg.incompleteness_rate = 0.5;  // Some classes' largest group is unknown.
    dg.seed = seed;
    GeneratedData data = GenerateData(dg);
    SynonymIndex index(data.ontology, data.rel.dict());
    OfdVerifier verifier(data.rel, index);
    const int64_t n = data.rel.num_rows();
    for (const Ofd& ofd : data.sigma) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " rhs=" + std::to_string(ofd.rhs));
      const SigmaSet single = {ofd};
      SenseAssignmentResult best;
      best.partitions.push_back(StrippedPartition::BuildForSet(data.rel, ofd.lhs));
      best.senses.emplace_back();
      for (RowSpan cls : best.partitions[0].classes()) {
        best.senses[0].push_back(verifier.Tally(cls, ofd.rhs).best_sense);
      }
      const double support = verifier.Support(ofd, best.partitions[0]);
      const int64_t optimum = n - std::llround(support * static_cast<double>(n));
      dirty += optimum;
      EXPECT_EQ(RepairData(data.rel, index, single, best, kUnbounded).data_changes,
                optimum);
      SenseAssignmentResult selected = SenseSelector(data.rel, index, single).Run();
      EXPECT_GE(RepairData(data.rel, index, single, selected, kUnbounded).data_changes,
                optimum);
    }
  }
  EXPECT_GT(dirty, 0);
}

// ---------------------------------------------------------------------------
// HoloCleanLite.

TEST(HoloCleanLiteTest, RepairsLowConfidenceCellToMajorityValue) {
  Relation rel(Schema({"X", "Y"}));
  for (int i = 0; i < 5; ++i) rel.AppendRow({"x", "a"});
  rel.AppendRow({"x", "b"});
  Ontology dict;
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym}};
  HoloCleanLiteResult result = HoloCleanLite(rel, dict, sigma);
  EXPECT_EQ(result.cells_changed, 1);
  EXPECT_EQ(result.repaired.StringAt(5, 1), "a");
}

TEST(HoloCleanLiteTest, ConfidenceMarginKeepsCompetitiveValues) {
  // A near-balanced class is left alone: neither value dominates by the
  // posterior margin (this is what keeps real HoloClean's precision up).
  Relation rel(Schema({"X", "Y"}));
  rel.AppendRow({"x", "a"});
  rel.AppendRow({"x", "a"});
  rel.AppendRow({"x", "b"});
  Ontology dict;
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym}};
  HoloCleanLiteResult result = HoloCleanLite(rel, dict, sigma);
  EXPECT_EQ(result.cells_changed, 0);
  EXPECT_GT(result.cells_flagged, 0);
}

TEST(HoloCleanLiteTest, DictionaryBoostBreaksTies) {
  Relation rel(Schema({"X", "Y"}));
  rel.AppendRow({"x", "indict"});
  rel.AppendRow({"x", "outdict"});
  Ontology dict;
  SenseId s = dict.AddSense("s");
  dict.AddValue(s, "indict");
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym}};
  HoloCleanLiteConfig cfg;
  cfg.repair_margin = 1.5;  // Low margin: let the dictionary signal decide.
  HoloCleanLiteResult result = HoloCleanLite(rel, dict, sigma, cfg);
  EXPECT_EQ(result.repaired.StringAt(1, 1), "indict");
}

TEST(HoloCleanLiteTest, FlagsSynonymVariationAsErrors) {
  // The defining difference vs OFDClean: on a *clean* instance whose classes
  // contain synonyms, HoloCleanLite makes (false-positive) changes while
  // OFDClean changes nothing.
  DataGenConfig cfg;
  cfg.num_rows = 300;
  cfg.error_rate = 0.0;
  cfg.seed = 17;
  GeneratedData data = GenerateData(cfg);
  HoloCleanLiteResult hc = HoloCleanLite(data.rel, data.ontology, data.sigma);
  EXPECT_GT(hc.cells_changed, 0);
  RepairScore hc_score = ScoreRepair(data, hc.repaired);
  EXPECT_LT(hc_score.precision(), 0.5);  // All changes are false positives.

  OfdClean cleaner(data.rel, data.ontology, data.sigma);
  OfdCleanResult oc = cleaner.Run();
  EXPECT_EQ(oc.best.data_changes, 0);
}

}  // namespace
}  // namespace fastofd
