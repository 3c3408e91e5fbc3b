// Unit tests for the ontology substrate: core model, text format, synonym
// index, descendants, repairs, and the random generator.

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/dictionary.h"
#include "ontology/generator.h"
#include "ontology/ontology.h"
#include "ontology/synonym_index.h"

namespace fastofd {
namespace {

Ontology MakeDrugOntology() {
  auto result = ReadOntologyFile(std::string(FASTOFD_DATA_DIR) + "/drug_ontology.txt");
  EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.status().message());
  return std::move(result).value();
}

TEST(OntologyTest, BuildsConceptsAndSenses) {
  Ontology ont;
  ConceptId root = ont.AddConcept("drug");
  ConceptId child = ont.AddConcept("nsaid", root);
  EXPECT_EQ(ont.parent(child), root);
  EXPECT_EQ(ont.children(root), std::vector<ConceptId>{child});
  SenseId s = ont.AddSense("fda", child);
  EXPECT_EQ(ont.sense_concept(s), child);
  EXPECT_EQ(ont.FindSense("fda"), s);
  EXPECT_EQ(ont.FindSense("nope"), kInvalidSense);
  EXPECT_EQ(ont.FindConcept("nsaid"), child);
}

TEST(OntologyTest, AddValueIdempotentAndCountsRepairs) {
  Ontology ont;
  SenseId s = ont.AddSense("s");
  EXPECT_TRUE(ont.AddValue(s, "a"));
  EXPECT_FALSE(ont.AddValue(s, "a"));
  EXPECT_TRUE(ont.AddValue(s, "b"));
  EXPECT_EQ(ont.num_added_values(), 2);
  ont.MarkPristine();
  EXPECT_EQ(ont.num_added_values(), 0);
  EXPECT_TRUE(ont.AddValue(s, "c"));
  EXPECT_EQ(ont.num_added_values(), 1);  // dist(S, S') == 1
}

TEST(OntologyTest, NamesOfReturnsAllSenses) {
  Ontology ont = MakeDrugOntology();
  // cartia belongs to both FDA diltiazem and MoH aspirin senses.
  auto senses = ont.NamesOf("cartia");
  EXPECT_EQ(senses.size(), 2u);
  // tiazac only to FDA.
  EXPECT_EQ(ont.NamesOf("tiazac").size(), 1u);
  // unknown value has no names.
  EXPECT_TRUE(ont.NamesOf("adizem").empty());
  EXPECT_TRUE(ont.ContainsValue("ASA"));
  EXPECT_FALSE(ont.ContainsValue("adizem"));
}

TEST(OntologyTest, PaperExample22HasNoCommonSense) {
  // {ASA, cartia, tiazac, adizem} must share no sense (Example 1.2).
  Ontology ont = MakeDrugOntology();
  std::vector<std::string> vals = {"ASA", "cartia", "tiazac", "adizem"};
  std::set<SenseId> common;
  bool first = true;
  for (const auto& v : vals) {
    auto names = ont.NamesOf(v);
    std::set<SenseId> s(names.begin(), names.end());
    if (first) {
      common = s;
      first = false;
    } else {
      std::set<SenseId> inter;
      std::set_intersection(common.begin(), common.end(), s.begin(), s.end(),
                            std::inserter(inter, inter.begin()));
      common = inter;
    }
  }
  EXPECT_TRUE(common.empty());
  // But after the paper's ontology repair (add ASA + adizem under FDA),
  // a common sense exists.
  SenseId fda = ont.FindSense("fda_diltiazem");
  ASSERT_NE(fda, kInvalidSense);
  ont.AddValue(fda, "ASA");
  ont.AddValue(fda, "adizem");
  for (const auto& v : vals) {
    auto names = ont.NamesOf(v);
    EXPECT_TRUE(std::find(names.begin(), names.end(), fda) != names.end()) << v;
  }
  EXPECT_EQ(ont.num_added_values(), 2);
}

TEST(OntologyTest, DescendantsWalksSubtree) {
  Ontology ont = MakeDrugOntology();
  ConceptId analgesic = ont.FindConcept("analgesic");
  ASSERT_NE(analgesic, kInvalidConcept);
  auto desc = ont.Descendants(analgesic);
  std::set<std::string> set(desc.begin(), desc.end());
  // analgesic subtree includes acetaminophen family and salicylates.
  EXPECT_TRUE(set.count("tylenol"));
  EXPECT_TRUE(set.count("aspirin"));
  EXPECT_TRUE(set.count("analgesic"));
  // but not the calcium channel blockers.
  EXPECT_FALSE(set.count("tiazac"));
}

TEST(OntologyIoTest, ParsesAndRoundTrips) {
  Ontology ont = MakeDrugOntology();
  std::string text = WriteOntology(ont);
  auto round = ParseOntology(text);
  ASSERT_TRUE(round.ok());
  const Ontology& ont2 = round.value();
  EXPECT_EQ(ont2.num_senses(), ont.num_senses());
  EXPECT_EQ(ont2.num_concepts(), ont.num_concepts());
  EXPECT_EQ(ont2.num_values(), ont.num_values());
  for (SenseId s = 0; s < ont.num_senses(); ++s) {
    EXPECT_EQ(ont2.SenseValues(s), ont.SenseValues(s));
    EXPECT_EQ(ont2.sense_name(s), ont.sense_name(s));
  }
}

TEST(OntologyIoTest, ParseErrors) {
  EXPECT_FALSE(ParseOntology("sense s a b c\n").ok());             // missing colon
  EXPECT_FALSE(ParseOntology("concept a\nconcept a\n").ok());      // duplicate
  EXPECT_FALSE(ParseOntology("concept a parent=zzz\n").ok());      // bad parent
  EXPECT_FALSE(ParseOntology("sense s concept=zzz : a\n").ok());   // bad concept
  EXPECT_FALSE(ParseOntology("bogus directive\n").ok());
  EXPECT_TRUE(ParseOntology("# only comments\n\n").ok());
}

TEST(OntologyIoTest, ValuesWithSpaces) {
  auto r = ParseOntology("sense s : joint pain | chest pain\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().SenseValues(0),
            (std::vector<std::string>{"joint pain", "chest pain"}));
}

TEST(SynonymIndexTest, CompilesAgainstDictionary) {
  Ontology ont = MakeDrugOntology();
  Dictionary dict;
  ValueId cartia = dict.Intern("cartia");
  ValueId tiazac = dict.Intern("tiazac");
  ValueId asa = dict.Intern("ASA");
  ValueId adizem = dict.Intern("adizem");  // not in ontology
  SynonymIndex index(ont, dict);

  EXPECT_EQ(index.Senses(cartia).size(), 2u);
  EXPECT_EQ(index.Senses(tiazac).size(), 1u);
  EXPECT_TRUE(index.InOntology(asa));
  EXPECT_FALSE(index.InOntology(adizem));

  SenseId fda = ont.FindSense("fda_diltiazem");
  EXPECT_TRUE(index.SenseContains(fda, cartia));
  EXPECT_FALSE(index.SenseContains(fda, asa));
  // Sense values restricted to the dictionary: cardizem was never interned.
  const auto& vals = index.SenseValues(fda);
  EXPECT_EQ(vals.size(), 2u);
}

TEST(SynonymIndexTest, IncrementalAddMirrorsRepair) {
  Ontology ont = MakeDrugOntology();
  Dictionary dict;
  ValueId adizem = dict.Intern("adizem");
  SynonymIndex index(ont, dict);
  SenseId fda = ont.FindSense("fda_diltiazem");
  EXPECT_FALSE(index.SenseContains(fda, adizem));
  index.AddValue(fda, adizem);
  EXPECT_TRUE(index.SenseContains(fda, adizem));
  index.AddValue(fda, adizem);  // idempotent
  EXPECT_EQ(index.Senses(adizem).size(), 1u);
}

TEST(SynonymIndexTest, AddValueReportsWhetherItInserted) {
  Ontology ont = MakeDrugOntology();
  Dictionary dict;
  ValueId cartia = dict.Intern("cartia");
  ValueId adizem = dict.Intern("adizem");
  SynonymIndex index(ont, dict);
  SenseId fda = ont.FindSense("fda_diltiazem");
  EXPECT_FALSE(index.AddValue(fda, cartia));  // already compiled from the ontology
  EXPECT_TRUE(index.AddValue(fda, adizem));
  EXPECT_FALSE(index.AddValue(fda, adizem));  // second insert is a no-op
}

TEST(SynonymIndexTest, UndoingOnlyRealInsertionsPreservesTheBase) {
  // The beam-search materialization pattern: speculative AddValue calls are
  // undone with RemoveValue, but only for mappings AddValue actually created.
  // A pre-existing (sense, value) pair must survive the round trip — the old
  // unconditional undo deleted it from one map and then corrupted the other.
  Ontology ont = MakeDrugOntology();
  Dictionary dict;
  ValueId cartia = dict.Intern("cartia");
  ValueId adizem = dict.Intern("adizem");
  SynonymIndex index(ont, dict);
  SenseId fda = ont.FindSense("fda_diltiazem");
  std::vector<std::pair<SenseId, ValueId>> applied;
  for (ValueId v : {cartia, adizem}) {
    if (index.AddValue(fda, v)) applied.emplace_back(fda, v);
  }
  for (const auto& [s, v] : applied) index.RemoveValue(s, v);
  EXPECT_TRUE(index.SenseContains(fda, cartia));   // pre-existing: kept
  EXPECT_FALSE(index.SenseContains(fda, adizem));  // speculative: undone
  EXPECT_TRUE(index.Senses(adizem).empty());
  // Removing an absent mapping is a no-op; both directions stay in sync.
  index.RemoveValue(fda, adizem);
  EXPECT_EQ(index.SenseValues(fda).size(), 1u);  // cartia (tiazac not interned)
}

TEST(OntologyGeneratorTest, RespectsConfig) {
  OntologyGenConfig cfg;
  cfg.num_senses = 6;
  cfg.values_per_sense = 5;
  cfg.overlap = 0.0;
  cfg.seed = 7;
  Ontology ont = GenerateOntology(cfg);
  EXPECT_EQ(ont.num_senses(), 6);
  for (SenseId s = 0; s < 6; ++s) {
    EXPECT_EQ(ont.SenseValues(s).size(), 5u);
  }
  // With zero overlap, all values are distinct.
  EXPECT_EQ(ont.num_values(), 30u);
  EXPECT_EQ(ont.num_added_values(), 0);  // generator marks pristine
}

TEST(OntologyGeneratorTest, OverlapCreatesSharedValues) {
  OntologyGenConfig cfg;
  cfg.num_senses = 10;
  cfg.values_per_sense = 10;
  cfg.overlap = 0.5;
  cfg.seed = 11;
  Ontology ont = GenerateOntology(cfg);
  // Significantly fewer distinct values than senses * values_per_sense.
  EXPECT_LT(ont.num_values(), 85u);
  // Some value must have multiple senses.
  bool multi = false;
  for (SenseId s = 0; s < ont.num_senses() && !multi; ++s) {
    for (const auto& v : ont.SenseValues(s)) {
      if (ont.NamesOf(v).size() > 1) {
        multi = true;
        break;
      }
    }
  }
  EXPECT_TRUE(multi);
}

TEST(OntologyGeneratorTest, DeterministicInSeed) {
  OntologyGenConfig cfg;
  cfg.seed = 99;
  Ontology a = GenerateOntology(cfg);
  Ontology b = GenerateOntology(cfg);
  EXPECT_EQ(WriteOntology(a), WriteOntology(b));
}

}  // namespace
}  // namespace fastofd
