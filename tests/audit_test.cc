// Tests for the deep invariant auditors (common/audit.h).
//
// The validators are compiled in every build mode, so these tests run under
// plain ctest too; what FASTOFD_AUDIT adds is the hot-path hooks that abort
// on violation. Each suite checks both directions: honestly built state
// passes, and deliberately corrupted state is detected.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/audit.h"
#include "common/status.h"
#include "ofd/incremental.h"
#include "ofd/ofd.h"
#include "ontology/ontology.h"
#include "ontology/synonym_index.h"
#include "relation/partition.h"
#include "relation/relation.h"

namespace fastofd {
namespace {

Relation SmallRelation() {
  auto rel = Relation::FromRows(Schema({"CC", "CTRY", "MED"}),
                                {{"us", "United States", "ASA"},
                                 {"us", "USA", "aspirin"},
                                 {"ca", "Canada", "ASA"},
                                 {"ca", "Canada", "ibuprofen"},
                                 {"mx", "Mexico", "advil"},
                                 {"us", "United States", "aspirin"}});
  FASTOFD_CHECK(rel.ok());
  return std::move(rel).value();
}

Ontology SmallOntology() {
  Ontology ont;
  ConceptId root = ont.AddConcept("root");
  ConceptId med = ont.AddConcept("medicine", root);
  SenseId aspirin = ont.AddSense("aspirin_sense", med);
  ont.AddValue(aspirin, "ASA");
  ont.AddValue(aspirin, "aspirin");
  SenseId ibu = ont.AddSense("ibuprofen_sense", med);
  ont.AddValue(ibu, "ibuprofen");
  ont.AddValue(ibu, "advil");
  SenseId country = ont.AddSense("country_sense");
  ont.AddValue(country, "United States");
  ont.AddValue(country, "USA");
  ont.AddValue(country, "Canada");
  ont.AddValue(country, "Mexico");
  return ont;
}

// ---------------------------------------------------------------------------
// StrippedPartition.

TEST(PartitionAuditTest, HonestPartitionsPass) {
  Relation rel = SmallRelation();
  for (AttrId a = 0; a < rel.num_attrs(); ++a) {
    StrippedPartition p = StrippedPartition::Build(rel, a);
    EXPECT_TRUE(p.AuditInvariants(rel, AttrSet().With(a)).ok());
  }
  AttrSet both = AttrSet().With(0).With(1);
  StrippedPartition product = StrippedPartition::Product(
      StrippedPartition::Build(rel, 0), StrippedPartition::Build(rel, 1));
  EXPECT_TRUE(product.AuditInvariants(rel, both).ok());
  EXPECT_TRUE(StrippedPartition::BuildForSet(rel, both)
                  .AuditInvariants(rel, both)
                  .ok());
}

TEST(PartitionAuditTest, DetectsSingletonClass) {
  Relation rel = SmallRelation();
  Status s = StrippedPartition::AuditStrippedPartitionParts(
      rel, AttrSet().With(0), {{0, 1, 5}, {2}}, 4, rel.num_rows());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("singleton"), std::string::npos) << s.message();
}

TEST(PartitionAuditTest, DetectsUnsortedClass) {
  Relation rel = SmallRelation();
  Status s = StrippedPartition::AuditStrippedPartitionParts(
      rel, AttrSet().With(0), {{1, 0, 5}, {2, 3}}, 5, rel.num_rows());
  EXPECT_FALSE(s.ok());
}

TEST(PartitionAuditTest, DetectsOverlappingClasses) {
  Relation rel = SmallRelation();
  // Row 2 appears in both classes.
  Status s = StrippedPartition::AuditStrippedPartitionParts(
      rel, AttrSet().With(0), {{0, 1, 5}, {2, 3}, {2, 3}}, 7, rel.num_rows());
  EXPECT_FALSE(s.ok());
}

TEST(PartitionAuditTest, DetectsRowOutOfRange) {
  Relation rel = SmallRelation();
  Status s = StrippedPartition::AuditStrippedPartitionParts(
      rel, AttrSet().With(0), {{0, 99}}, 2, rel.num_rows());
  EXPECT_FALSE(s.ok());
}

TEST(PartitionAuditTest, DetectsClassMixingAttributeValues) {
  Relation rel = SmallRelation();
  // Rows 0 (us) and 2 (ca) do not agree on attribute 0.
  Status s = StrippedPartition::AuditStrippedPartitionParts(
      rel, AttrSet().With(0), {{0, 2}, {3, 4}}, 4, rel.num_rows());
  EXPECT_FALSE(s.ok());
}

TEST(PartitionAuditTest, DetectsWrongSumSizes) {
  Relation rel = SmallRelation();
  Status s = StrippedPartition::AuditStrippedPartitionParts(
      rel, AttrSet().With(0), {{0, 1, 5}, {2, 3}}, 6, rel.num_rows());
  EXPECT_FALSE(s.ok());
}

TEST(PartitionAuditTest, DeepRebuildDetectsMissingClass) {
  Relation rel = SmallRelation();
  // {2,3} ("ca") is a genuine class of Π*_CC; omitting it keeps every
  // structural invariant intact, so only the naive-rebuild cross-check
  // (active because the relation is below kDeepAuditMaxRows) catches it.
  Status s = StrippedPartition::AuditStrippedPartitionParts(
      rel, AttrSet().With(0), {{0, 1, 5}}, 3, rel.num_rows());
  ASSERT_FALSE(s.ok());
}

TEST(PartitionAuditTest, CountsChecks) {
  Relation rel = SmallRelation();
  int64_t before = audit::ChecksRun();
  StrippedPartition p = StrippedPartition::Build(rel, 0);
  EXPECT_TRUE(p.AuditInvariants(rel, AttrSet().With(0)).ok());
  EXPECT_GT(audit::ChecksRun(), before);
}

// ---------------------------------------------------------------------------
// PartitionCache.

TEST(PartitionCacheAuditTest, PassesThroughChurn) {
  Relation rel = SmallRelation();
  PartitionCache cache(rel, /*budget_bytes=*/1 << 10);
  EXPECT_TRUE(cache.AuditInvariants().ok());
  for (int round = 0; round < 3; ++round) {
    for (AttrId a = 0; a < rel.num_attrs(); ++a) {
      cache.Get(AttrSet().With(a));
      cache.Get(AttrSet().With(0).With(a));
      EXPECT_TRUE(cache.AuditInvariants().ok());
    }
    cache.Invalidate(AttrSet().With(round % rel.num_attrs()));
    EXPECT_TRUE(cache.AuditInvariants().ok());
  }
  cache.Clear();
  EXPECT_TRUE(cache.AuditInvariants().ok());
}

// ---------------------------------------------------------------------------
// Ontology / SynonymIndex.

TEST(OntologyAuditTest, CompiledIndexPasses) {
  Relation rel = SmallRelation();
  Ontology ont = SmallOntology();
  SynonymIndex index(ont, rel.dict());
  EXPECT_TRUE(AuditOntologyIndex(ont, rel.dict(), index).ok());
}

TEST(OntologyAuditTest, DetectsIndexDriftFromOntology) {
  Relation rel = SmallRelation();
  Ontology ont = SmallOntology();
  SynonymIndex index(ont, rel.dict());
  // Claim "Canada" belongs to the aspirin sense in the index only: the
  // ontology was never repaired, so the audit must flag the divergence.
  SenseId aspirin = ont.FindSense("aspirin_sense");
  ASSERT_GE(aspirin, 0);
  index.AddValue(aspirin, rel.dict().Lookup("Canada"));
  EXPECT_FALSE(AuditOntologyIndex(ont, rel.dict(), index).ok());
}

TEST(OntologyAuditTest, MirroredRepairStillPasses) {
  Relation rel = SmallRelation();
  Ontology ont = SmallOntology();
  SynonymIndex index(ont, rel.dict());
  // An ontology repair applied to *both* sides stays consistent.
  SenseId aspirin = ont.FindSense("aspirin_sense");
  ASSERT_TRUE(ont.AddValue(aspirin, "advil"));
  index.AddValue(aspirin, rel.dict().Lookup("advil"));
  EXPECT_TRUE(AuditOntologyIndex(ont, rel.dict(), index).ok());
}

TEST(OntologyAuditTest, RelaxedModeToleratesPostLoadValues) {
  Relation rel = SmallRelation();
  Ontology ont = SmallOntology();
  SynonymIndex index(ont, rel.dict());
  // A service `update` interns a value the ontology knows but the compiled
  // snapshot does not cover. Strict mode flags it; relaxed mode (what
  // Session::Audit uses) accepts it.
  SenseId aspirin = ont.FindSense("aspirin_sense");
  ASSERT_TRUE(ont.AddValue(aspirin, "acetylsalicylic acid"));
  rel.mutable_dict().Intern("acetylsalicylic acid");
  EXPECT_FALSE(AuditOntologyIndex(ont, rel.dict(), index).ok());
  EXPECT_TRUE(AuditOntologyIndex(ont, rel.dict(), index,
                                 /*allow_unindexed_values=*/true)
                  .ok());
}

// ---------------------------------------------------------------------------
// IncrementalVerifier.

SigmaSet SmallSigma() {
  SigmaSet sigma;
  sigma.push_back(Ofd{AttrSet().With(0), 1, OfdKind::kSynonym});
  sigma.push_back(Ofd{AttrSet().With(0).With(1), 2, OfdKind::kSynonym});
  return sigma;
}

TEST(IncrementalAuditTest, FreshAndUpdatedStatePasses) {
  Relation rel = SmallRelation();
  Ontology ont = SmallOntology();
  SynonymIndex index(ont, rel.dict());
  IncrementalVerifier verifier(&rel, index, SmallSigma());
  EXPECT_TRUE(verifier.AuditState().ok());
  // Consequent update, antecedent update, and a no-op, audited after each.
  verifier.UpdateCell(0, 1, rel.mutable_dict().Intern("USA"));
  EXPECT_TRUE(verifier.AuditState().ok());
  verifier.UpdateCell(2, 0, rel.mutable_dict().Intern("us"));
  EXPECT_TRUE(verifier.AuditState().ok());
  verifier.UpdateCell(2, 0, rel.At(2, 0));
  EXPECT_TRUE(verifier.AuditState().ok());
}

TEST(IncrementalAuditTest, DetectsOutOfBandRelationMutation) {
  Relation rel = SmallRelation();
  Ontology ont = SmallOntology();
  SynonymIndex index(ont, rel.dict());
  IncrementalVerifier verifier(&rel, index, SmallSigma());
  ASSERT_TRUE(verifier.AuditState().ok());
  // Mutating the relation behind the verifier's back (the exact bug class
  // the audit exists for: every write must go through UpdateCell) leaves
  // row 0 filed under a stale antecedent key.
  rel.Set(0, 0, "ca");
  EXPECT_FALSE(verifier.AuditState().ok());
}

// A consequent written behind the verifier's back can leave a class's
// verdict unchanged and still lower its kept rows: only the deep support
// cross-check sees the drift.
TEST(IncrementalAuditTest, DetectsSupportDriftBehindUnchangedVerdict) {
  auto made = Relation::FromRows(Schema({"X", "MED"}),
                                 {{"x", "p"}, {"x", "p"}, {"x", "q"}});
  ASSERT_TRUE(made.ok());
  Relation rel = std::move(made).value();
  Ontology ont;
  SynonymIndex index(ont, rel.dict());
  IncrementalVerifier verifier(&rel, index,
                               {Ofd{AttrSet::Single(0), 1, OfdKind::kSynonym}});
  ASSERT_TRUE(verifier.AuditState().ok());
  EXPECT_FALSE(verifier.Holds(0));
  EXPECT_EQ(verifier.Support(0), 2.0 / 3.0);
  rel.Set(1, 1, "r");  // Still violated; now one row is kept, not two.
  Status audit = verifier.AuditState();
  ASSERT_FALSE(audit.ok());
  EXPECT_NE(audit.message().find("support"), std::string::npos)
      << audit.message();
}

// Above audit::kDeepAuditMaxRows rows there is no full re-verification, so
// a consequent written behind the verifier's back must show up in the
// structural recount: the row's group histogram no longer matches it.
TEST(IncrementalAuditTest, DetectsOutOfBandConsequentWriteOnLargeRelation) {
  Relation rel(Schema({"X", "MED"}));
  for (int64_t r = 0; r < audit::kDeepAuditMaxRows + 100; ++r) {
    rel.AppendRow({"x" + std::to_string(r % 10), "p"});
  }
  Ontology ont;
  SynonymIndex index(ont, rel.dict());
  IncrementalVerifier verifier(&rel, index,
                               {Ofd{AttrSet::Single(0), 1, OfdKind::kSynonym}});
  ASSERT_TRUE(verifier.AuditState().ok());
  rel.Set(7, 1, "q");
  Status audit = verifier.AuditState();
  ASSERT_FALSE(audit.ok());
  EXPECT_NE(audit.message().find("recount"), std::string::npos)
      << audit.message();
}

}  // namespace
}  // namespace fastofd
