// Cross-cutting property tests: invariants that must hold on arbitrary
// instances, swept over seeds with TEST_P. These complement the per-module
// unit tests with the algebraic laws the paper's algorithms rely on.

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "clean/repair.h"
#include "clean/sense_assignment.h"
#include "common/csv.h"
#include "common/rng.h"
#include "datagen/datagen.h"
#include "discovery/fastofd.h"
#include "discovery/set_cover.h"
#include "exec/task_group.h"
#include "exec/thread_pool.h"
#include "ofd/incremental.h"
#include "ofd/inference.h"
#include "ofd/sigma_io.h"
#include "ofd/verifier.h"
#include "ontology/generator.h"
#include "ontology/synonym_index.h"
#include "relation/partition.h"

namespace fastofd {
namespace {

// Shared random instance builder (relation whose consequents draw from a
// generated ontology).
struct Instance {
  Relation rel;
  Ontology ontology;
};

Instance MakeInstance(uint64_t seed, int n_attrs = 4, int n_rows = 40) {
  Rng rng(seed);
  OntologyGenConfig ocfg;
  ocfg.num_senses = 4;
  ocfg.values_per_sense = 5;
  ocfg.overlap = 0.35;
  ocfg.seed = seed * 7 + 3;
  Ontology ont = GenerateOntology(ocfg);
  std::vector<std::string> names;
  for (int a = 0; a < n_attrs; ++a) names.push_back(std::string(1, static_cast<char>('A' + a)));
  Relation rel((Schema(names)));
  for (int r = 0; r < n_rows; ++r) {
    std::vector<std::string> row;
    for (int a = 0; a < n_attrs; ++a) {
      if (rng.NextBernoulli(0.75)) {
        SenseId s = static_cast<SenseId>(rng.NextUint(ont.num_senses()));
        const auto& vals = ont.SenseValues(s);
        row.push_back(vals[rng.NextUint(vals.size())]);
      } else {
        row.push_back("x" + std::to_string(rng.NextUint(5)));
      }
    }
    rel.AppendRow(row);
  }
  return {std::move(rel), std::move(ont)};
}

class PropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PropertyTest, OfdSatisfactionIsClosedUnderAugmentation) {
  // Opt-2's soundness: if X -> A holds, every XY -> A holds.
  Instance inst = MakeInstance(3000 + GetParam());
  SynonymIndex index(inst.ontology, inst.rel.dict());
  OfdVerifier verifier(inst.rel, index);
  const int n = inst.rel.num_attrs();
  for (AttrId a = 0; a < n; ++a) {
    for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
      AttrSet lhs = AttrSet::FromMask(mask);
      if (lhs.Contains(a)) continue;
      if (!verifier.Holds({lhs, a, OfdKind::kSynonym})) continue;
      // All supersets must hold too.
      for (AttrId b = 0; b < n; ++b) {
        if (b == a || lhs.Contains(b)) continue;
        EXPECT_TRUE(verifier.Holds({lhs.With(b), a, OfdKind::kSynonym}))
            << inst.rel.schema().Render(lhs) << " + " << b << " -> " << a;
      }
    }
  }
}

TEST_P(PropertyTest, SupportIsMonotoneUnderAugmentation) {
  Instance inst = MakeInstance(3100 + GetParam());
  SynonymIndex index(inst.ontology, inst.rel.dict());
  OfdVerifier verifier(inst.rel, index);
  const int n = inst.rel.num_attrs();
  for (AttrId a = 0; a < n; ++a) {
    for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
      AttrSet lhs = AttrSet::FromMask(mask);
      if (lhs.Contains(a)) continue;
      Ofd ofd{lhs, a, OfdKind::kSynonym};
      StrippedPartition p = StrippedPartition::BuildForSet(inst.rel, lhs);
      double support = verifier.Support(ofd, p);
      for (AttrId b = 0; b < n; ++b) {
        if (b == a || lhs.Contains(b)) continue;
        StrippedPartition p2 = StrippedPartition::BuildForSet(inst.rel, lhs.With(b));
        EXPECT_GE(verifier.Support({lhs.With(b), a, OfdKind::kSynonym}, p2),
                  support - 1e-12);
      }
    }
  }
}

TEST_P(PropertyTest, PartitionProductIsCommutativeAndAssociative) {
  Instance inst = MakeInstance(3200 + GetParam(), 3, 50);
  StrippedPartition a = StrippedPartition::Build(inst.rel, 0);
  StrippedPartition b = StrippedPartition::Build(inst.rel, 1);
  StrippedPartition c = StrippedPartition::Build(inst.rel, 2);
  auto canon = [](const StrippedPartition& p) {
    std::set<std::set<RowId>> out;
    for (const auto& cls : p.classes()) out.insert({cls.begin(), cls.end()});
    return out;
  };
  EXPECT_EQ(canon(StrippedPartition::Product(a, b)),
            canon(StrippedPartition::Product(b, a)));
  EXPECT_EQ(canon(StrippedPartition::Product(StrippedPartition::Product(a, b), c)),
            canon(StrippedPartition::Product(a, StrippedPartition::Product(b, c))));
  // Idempotence: Π*_X · Π*_X = Π*_X.
  EXPECT_EQ(canon(StrippedPartition::Product(a, a)), canon(a));
}

TEST_P(PropertyTest, PartitionErrorIsMonotone) {
  // Adding attributes refines partitions: error can only decrease, and the
  // number of full classes can only increase.
  Instance inst = MakeInstance(3300 + GetParam(), 5, 60);
  Rng rng(42 + GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    AttrSet x = AttrSet::FromMask(rng.NextUint(31) + 1);
    AttrId extra = static_cast<AttrId>(rng.NextUint(5));
    StrippedPartition px = StrippedPartition::BuildForSet(inst.rel, x);
    StrippedPartition pxa = StrippedPartition::BuildForSet(inst.rel, x.With(extra));
    EXPECT_LE(pxa.error(), px.error());
    EXPECT_GE(pxa.full_num_classes(), px.full_num_classes());
  }
}

TEST_P(PropertyTest, DiscoveredOfdsHoldAndAreMinimalAndComplete) {
  Instance inst = MakeInstance(3400 + GetParam());
  SynonymIndex index(inst.ontology, inst.rel.dict());
  OfdVerifier verifier(inst.rel, index);
  FastOfdResult result = FastOfd(inst.rel, index).Discover();
  std::set<Ofd> found(result.ofds.begin(), result.ofds.end());
  // Sound + minimal.
  for (const Ofd& ofd : result.ofds) {
    EXPECT_TRUE(verifier.Holds(ofd));
    for (AttrId b : ofd.lhs.ToVector()) {
      EXPECT_FALSE(verifier.Holds({ofd.lhs.Without(b), ofd.rhs, ofd.kind}));
    }
  }
  // Complete: every holding dependency is a superset of a found one.
  const int n = inst.rel.num_attrs();
  for (AttrId a = 0; a < n; ++a) {
    for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
      AttrSet lhs = AttrSet::FromMask(mask);
      if (lhs.Contains(a)) continue;
      if (!verifier.Holds({lhs, a, OfdKind::kSynonym})) continue;
      bool covered = false;
      for (const Ofd& ofd : result.ofds) {
        if (ofd.rhs == a && ofd.lhs.IsSubsetOf(lhs)) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << inst.rel.schema().Render(lhs) << " -> " << a;
    }
  }
}

TEST_P(PropertyTest, RepairDataIsIdempotentAndConsistent) {
  DataGenConfig cfg;
  cfg.num_rows = 200;
  cfg.num_senses = 4;
  cfg.error_rate = 0.08;
  cfg.seed = 3500 + static_cast<uint64_t>(GetParam());
  GeneratedData data = GenerateData(cfg);
  SynonymIndex index(data.ontology, data.rel.dict());
  SenseSelector selector(data.rel, index, data.sigma);
  SenseAssignmentResult assignment = selector.Run();
  RepairResult first = RepairData(data.rel, index, data.sigma, assignment, 1 << 20);
  ASSERT_TRUE(first.consistent);
  // Repairing the repaired instance changes nothing.
  RepairResult second =
      RepairData(first.repaired, index, data.sigma, assignment, 1 << 20);
  EXPECT_EQ(second.data_changes, 0);
  EXPECT_TRUE(second.consistent);
}

TEST_P(PropertyTest, OfdCleanProducesConsistentParetoOrderedRepairs) {
  DataGenConfig cfg;
  cfg.num_rows = 250;
  cfg.num_senses = 4;
  cfg.error_rate = 0.05;
  cfg.incompleteness_rate = 0.1;
  cfg.seed = 3600 + static_cast<uint64_t>(GetParam());
  GeneratedData data = GenerateData(cfg);
  OfdClean cleaner(data.rel, data.ontology, data.sigma);
  OfdCleanResult result = cleaner.Run();
  EXPECT_TRUE(result.best.consistent);
  // Pareto points strictly improve data changes as ontology changes grow.
  for (size_t i = 1; i < result.pareto.size(); ++i) {
    EXPECT_GT(result.pareto[i].ontology_changes,
              result.pareto[i - 1].ontology_changes);
    EXPECT_LT(result.pareto[i].data_changes, result.pareto[i - 1].data_changes);
  }
  // Only consequent attributes were touched.
  AttrSet rhs_attrs;
  for (const Ofd& ofd : data.sigma) rhs_attrs = rhs_attrs.With(ofd.rhs);
  for (RowId r = 0; r < data.rel.num_rows(); ++r) {
    for (int a = 0; a < data.rel.num_attrs(); ++a) {
      if (!rhs_attrs.Contains(a)) {
        EXPECT_EQ(data.rel.StringAt(r, a), result.best.repaired.StringAt(r, a));
      }
    }
  }
}

TEST_P(PropertyTest, OfdCleanDeterministicAcrossThreads) {
  // The parallel beam search is an optimization, not a semantics change: on
  // arbitrary dirty instances it must reproduce the serial run byte for
  // byte, and feasible repairs must satisfy Σ under the repaired ontology.
  DataGenConfig cfg;
  cfg.num_rows = 250;
  cfg.num_senses = 4;
  cfg.error_rate = 0.06;
  cfg.incompleteness_rate = 0.1;
  cfg.seed = 3900 + static_cast<uint64_t>(GetParam());
  GeneratedData data = GenerateData(cfg);
  auto run = [&](int threads) {
    OfdCleanConfig ccfg;
    ccfg.num_threads = threads;
    OfdClean cleaner(data.rel, data.ontology, data.sigma, ccfg);
    return cleaner.Run();
  };
  OfdCleanResult reference = run(/*threads=*/1);
  if (reference.best.tau_feasible) {
    EXPECT_TRUE(reference.best.consistent);
    SynonymIndex repaired_index(data.ontology, data.rel.dict());
    for (const OntologyAddition& add : reference.best.ontology_additions) {
      repaired_index.AddValue(add.sense, add.value);
    }
    OfdVerifier verifier(reference.best.repaired, repaired_index);
    for (const Ofd& ofd : data.sigma) {
      EXPECT_TRUE(verifier.Holds(ofd));
    }
  }
  for (int threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    OfdCleanResult got = run(threads);
    EXPECT_EQ(got.num_candidates, reference.num_candidates);
    EXPECT_EQ(got.nodes_evaluated, reference.nodes_evaluated);
    EXPECT_TRUE(got.pareto == reference.pareto);
    EXPECT_EQ(got.best.data_changes, reference.best.data_changes);
    EXPECT_TRUE(got.best.ontology_additions == reference.best.ontology_additions);
    EXPECT_EQ(WriteCsv(got.best.repaired.ToCsv()),
              WriteCsv(reference.best.repaired.ToCsv()));
  }
}

TEST_P(PropertyTest, OfdCleanCountsAndVerifiesOverRandomSigma) {
  // Random Σ over the generated instance's columns: per consequent, an
  // X -> A, often an implied XA' -> A beside it, and sometimes an
  // incomparable Y -> A that still shares the consequent after reduction.
  Rng rng(4000 + static_cast<uint64_t>(GetParam()));
  DataGenConfig cfg;
  cfg.num_rows = 200;
  cfg.num_senses = 4;
  cfg.error_rate = 0.1;
  cfg.incompleteness_rate = 0.1;
  cfg.seed = 4100 + static_cast<uint64_t>(GetParam());
  GeneratedData data = GenerateData(cfg);
  const int n_lhs = cfg.num_antecedents;
  SigmaSet sigma;
  for (int j = 0; j < cfg.num_consequents; ++j) {
    const AttrId rhs = static_cast<AttrId>(n_lhs + j);
    const AttrId x = static_cast<AttrId>(rng.NextUint(static_cast<uint64_t>(n_lhs)));
    const AttrId y = static_cast<AttrId>((x + 1 + rng.NextUint(n_lhs - 1)) % n_lhs);
    sigma.push_back({AttrSet::Single(x), rhs, OfdKind::kSynonym});
    if (rng.NextBernoulli(0.6)) sigma.push_back({AttrSet::Of({x, y}), rhs, OfdKind::kSynonym});
    if (rng.NextBernoulli(0.5)) sigma.push_back({AttrSet::Single(y), rhs, OfdKind::kSynonym});
  }
  OfdCleanConfig ccfg;
  ccfg.max_repair_size = 4;
  OfdClean cleaner(data.rel, data.ontology, sigma, ccfg);
  OfdCleanResult result = cleaner.Run();

  int64_t differing = 0;
  for (RowId r = 0; r < data.rel.num_rows(); ++r) {
    for (AttrId a = 0; a < data.rel.num_attrs(); ++a) {
      differing += data.rel.At(r, a) != result.best.repaired.At(r, a);
    }
  }
  EXPECT_EQ(result.best.data_changes, differing);

  auto index_with = [&](const std::vector<OntologyAddition>& additions) {
    SynonymIndex index(data.ontology, data.rel.dict());
    for (const OntologyAddition& add : additions) index.AddValue(add.sense, add.value);
    return index;
  };
  SynonymIndex repaired_index = index_with(result.best.ontology_additions);
  OfdVerifier verifier(result.best.repaired, repaired_index);
  bool holds = true;
  for (const Ofd& ofd : sigma) holds = holds && verifier.Holds(ofd);
  EXPECT_EQ(result.best.consistent, holds);

  const SigmaSet& reduced = cleaner.reduced_sigma();
  AttrSet rhs_attrs;
  for (const Ofd& ofd : reduced) {
    if (rhs_attrs.Contains(ofd.rhs)) return;  // Shared consequent: estimates.
    rhs_attrs = rhs_attrs.With(ofd.rhs);
  }
  for (const ParetoPoint& point : result.pareto) {
    SCOPED_TRACE("k=" + std::to_string(point.ontology_changes));
    EXPECT_EQ(point.data_changes,
              RepairData(data.rel, index_with(point.ontology_additions), reduced,
                         result.assignment, std::numeric_limits<int64_t>::max())
                  .data_changes);
  }
  EXPECT_TRUE(result.best.consistent || !result.best.tau_feasible);
}

TEST_P(PropertyTest, SigmaRoundTripsThroughText) {
  Rng rng(3700 + GetParam());
  Schema schema({"CC", "CTRY", "SYMP", "DIAG", "MED", "TEST"});
  SigmaSet sigma;
  for (int i = 0; i < 8; ++i) {
    AttrSet lhs;
    for (int a = 0; a < 6; ++a) {
      if (rng.NextBernoulli(0.3)) lhs = lhs.With(a);
    }
    AttrId rhs = static_cast<AttrId>(rng.NextUint(6));
    if (lhs.Contains(rhs)) lhs = lhs.Without(rhs);
    OfdKind kind = rng.NextBernoulli(0.3) ? OfdKind::kInheritance : OfdKind::kSynonym;
    sigma.push_back(Ofd{lhs, rhs, kind});
  }
  auto round = ParseSigma(WriteSigma(sigma, schema), schema);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value(), sigma);
}

TEST_P(PropertyTest, MinimalCoverIsAFixpoint) {
  Rng rng(3800 + GetParam());
  SigmaSet sigma;
  int n = 2 + static_cast<int>(rng.NextUint(8));
  for (int i = 0; i < n; ++i) {
    AttrSet lhs;
    for (int a = 0; a < 6; ++a) {
      if (rng.NextBernoulli(0.35)) lhs = lhs.With(a);
    }
    sigma.push_back({lhs, static_cast<AttrId>(rng.NextUint(6)), OfdKind::kSynonym});
  }
  SigmaSet cover = MinimalCover(sigma);
  EXPECT_EQ(MinimalCover(cover), cover);
}

TEST_P(PropertyTest, TransversalDualityOnSmallFamilies) {
  // Minimal transversals are an involution on antichains:
  // Tr(Tr(F)) = minimal sets of F when F is an antichain.
  Rng rng(3900 + GetParam());
  AttrSet universe = AttrSet::All(5);
  std::vector<AttrSet> family;
  for (int i = 0; i < 4; ++i) {
    AttrSet s;
    for (int a = 0; a < 5; ++a) {
      if (rng.NextBernoulli(0.5)) s = s.With(a);
    }
    if (!s.empty()) family.push_back(s);
  }
  family = MinimalSets(std::move(family));
  if (family.empty()) return;
  std::vector<AttrSet> tr = MinimalTransversals(family, universe);
  std::vector<AttrSet> tr2 = MinimalTransversals(tr, universe);
  std::sort(tr2.begin(), tr2.end());
  std::vector<AttrSet> expected = family;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(tr2, expected);
}

TEST_P(PropertyTest, InheritanceSubsumesSynonymPerClass) {
  // Under theta >= 0 a class satisfied by a common sense is satisfied by a
  // common concept (the sense's own concept) — when senses have concepts.
  Instance inst = MakeInstance(4000 + GetParam());
  SynonymIndex index(inst.ontology, inst.rel.dict());
  OfdVerifier verifier(inst.rel, index, &inst.ontology, /*theta=*/0);
  const int n = inst.rel.num_attrs();
  for (AttrId a = 0; a < n; ++a) {
    for (AttrId x = 0; x < n; ++x) {
      if (x == a) continue;
      StrippedPartition p = StrippedPartition::BuildForSet(inst.rel, AttrSet::Single(x));
      for (const auto& rows : p.classes()) {
        if (verifier.HoldsInClass(rows, a, OfdKind::kSynonym)) {
          EXPECT_TRUE(verifier.HoldsInClass(rows, a, OfdKind::kInheritance));
        }
      }
    }
  }
}

// Test-only transcription of Definition 2.1 and §4 support, independent of
// the verifier's tally: classes of Π_lhs from a std::map over antecedent
// strings, names(v) from the ontology itself, and a class holds iff its
// distinct values are one, or the std::set intersection of their names(v)
// is non-empty.
struct OracleClass {
  std::vector<RowId> rows;
  size_t distinct = 0;
  bool holds = false;
  int64_t kept = 0;  // Rows kept by the best single sense or literal value.
};

std::vector<OracleClass> OracleClasses(const Relation& rel, const Ontology& ontology,
                                       AttrSet lhs, AttrId rhs) {
  std::map<std::vector<std::string>, std::vector<RowId>> groups;
  for (RowId r = 0; r < rel.num_rows(); ++r) {
    std::vector<std::string> key;
    for (AttrId x : lhs.ToVector()) key.push_back(rel.StringAt(r, x));
    groups[key].push_back(r);
  }
  std::vector<OracleClass> out;
  for (const auto& [key, rows] : groups) {
    if (rows.size() < 2) continue;  // Singletons always satisfy.
    OracleClass c;
    c.rows = rows;
    std::map<std::string, int64_t> literal_rows;
    std::map<SenseId, int64_t> sense_rows;
    for (RowId r : rows) {
      const std::string& v = rel.StringAt(r, rhs);
      ++literal_rows[v];
      for (SenseId s : ontology.NamesOf(v)) ++sense_rows[s];
    }
    c.distinct = literal_rows.size();
    std::set<SenseId> common;
    bool first = true;
    for (const auto& [v, n] : literal_rows) {
      std::vector<SenseId> names = ontology.NamesOf(v);
      std::set<SenseId> these(names.begin(), names.end());
      if (first) {
        common = these;
        first = false;
        continue;
      }
      std::set<SenseId> both;
      std::set_intersection(common.begin(), common.end(), these.begin(), these.end(),
                            std::inserter(both, both.begin()));
      common = both;
    }
    c.holds = c.distinct <= 1 || !common.empty();
    for (const auto& [v, n] : literal_rows) c.kept = std::max(c.kept, n);
    for (const auto& [s, n] : sense_rows) c.kept = std::max(c.kept, n);
    out.push_back(std::move(c));
  }
  return out;
}

TEST_P(PropertyTest, VerifierMatchesDefinitionOracle) {
  Instance inst = MakeInstance(5000 + GetParam());
  SynonymIndex index(inst.ontology, inst.rel.dict());
  OfdVerifier verifier(inst.rel, index);
  const int n = inst.rel.num_attrs();
  const int64_t num_rows = inst.rel.num_rows();
  for (AttrId a = 0; a < n; ++a) {
    for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
      AttrSet lhs = AttrSet::FromMask(mask);
      if (lhs.Contains(a)) continue;
      const Ofd ofd{lhs, a, OfdKind::kSynonym};
      const std::string label = inst.rel.schema().Render(lhs) + " -> " +
                                inst.rel.schema().name(a);
      bool holds = true;
      int64_t kept = num_rows;
      SynonymSavings savings;
      for (const OracleClass& c : OracleClasses(inst.rel, inst.ontology, lhs, a)) {
        EXPECT_EQ(verifier.HoldsInClass(c.rows, a, OfdKind::kSynonym), c.holds)
            << label;
        holds = holds && c.holds;
        const int64_t size = static_cast<int64_t>(c.rows.size());
        kept += c.kept - size;
        ++savings.classes;
        savings.class_tuples += size;
        if (c.distinct > 1 && c.holds) {
          ++savings.synonym_classes;
          savings.saved_tuples += size;
        }
      }
      StrippedPartition p = StrippedPartition::BuildForSet(inst.rel, lhs);
      EXPECT_EQ(verifier.Holds(ofd), holds) << label;
      EXPECT_EQ(verifier.Holds(ofd, p), holds) << label;
      SynonymSavings got = verifier.Savings(ofd, p);
      EXPECT_EQ(got.classes, savings.classes) << label;
      EXPECT_EQ(got.synonym_classes, savings.synonym_classes) << label;
      EXPECT_EQ(got.saved_tuples, savings.saved_tuples) << label;
      EXPECT_EQ(got.class_tuples, savings.class_tuples) << label;
      const double support =
          static_cast<double>(kept) / static_cast<double>(num_rows);
      EXPECT_EQ(verifier.Support(ofd, p), support) << label;
      EXPECT_TRUE(verifier.SupportAtLeast(ofd, p, support)) << label;
      EXPECT_TRUE(verifier.SupportAtLeast(ofd, p, std::nextafter(support, 0.0)))
          << label;
      EXPECT_FALSE(verifier.SupportAtLeast(ofd, p, std::nextafter(support, 2.0)))
          << label;
    }
  }
}

TEST_P(PropertyTest, BurstyErrorsRepeatOneValuePerClass) {
  DataGenConfig cfg;
  cfg.num_rows = 300;
  cfg.error_rate = 0.2;
  cfg.in_domain_error_fraction = 1.0;
  cfg.bursty_errors = true;
  cfg.classes_per_antecedent = 4;
  cfg.seed = 4100 + static_cast<uint64_t>(GetParam());
  GeneratedData data = GenerateData(cfg);
  // Within one (class value, consequent) the dirty values are identical.
  std::map<std::string, std::set<std::string>> dirty_by_class;
  for (const InjectedError& e : data.errors) {
    int j = e.attr - cfg.num_antecedents;
    std::string key = std::to_string(j) + ":" +
                      data.rel.StringAt(e.row, static_cast<AttrId>(
                                                   j % cfg.num_antecedents));
    dirty_by_class[key].insert(e.dirty);
  }
  for (const auto& [key, values] : dirty_by_class) {
    // Burst value + a collision slot + (rare) out-of-domain fallbacks.
    EXPECT_LE(values.size(), 3u) << key;
  }
}

TEST_P(PropertyTest, IncrementalVerifierMatchesFullReverification) {
  // A random mixed update stream (merges, ontology values, fresh values,
  // antecedent and consequent attributes) must keep the incremental
  // verifier's cached verdicts, support and violating-class counts equal to
  // a from-scratch verification, and its group histograms must pass the
  // deep audit, after every single step. Fresh values append slots, copies
  // remove a class's last occurrence of a value, and antecedent moves empty
  // groups that later moves reuse; Σ holds an empty antecedent and an
  // inheritance OFD. Updates run as tasks on a pool of 1 or 4 workers.
  for (int threads : {1, 4}) {
    Instance inst = MakeInstance(4200 + GetParam(), 4, 60);
    Rng rng(97 + GetParam());
    SynonymIndex index(inst.ontology, inst.rel.dict());
    SigmaSet sigma;
    sigma.push_back(Ofd{AttrSet::Single(0), 2, OfdKind::kSynonym});
    sigma.push_back(Ofd{AttrSet().With(0).With(1), 3, OfdKind::kSynonym});
    sigma.push_back(Ofd{AttrSet::Single(3), 1, OfdKind::kSynonym});
    sigma.push_back(Ofd{AttrSet(), 2, OfdKind::kSynonym});
    sigma.push_back(Ofd{AttrSet::Single(1), 3, OfdKind::kInheritance});
    IncrementalVerifier inc(&inst.rel, index, sigma, &inst.ontology);
    OfdVerifier full(inst.rel, index, &inst.ontology);
    ThreadPool pool(threads);

    const RowId n = inst.rel.num_rows();
    for (int step = 0; step < 40; ++step) {
      RowId row = static_cast<RowId>(rng.NextUint(static_cast<uint64_t>(n)));
      AttrId attr = static_cast<AttrId>(rng.NextUint(4));
      ValueId value;
      double dice = rng.NextDouble();
      if (dice < 0.5) {
        // Copy from another cell of the same column: merges classes.
        RowId other = static_cast<RowId>(rng.NextUint(static_cast<uint64_t>(n)));
        value = inst.rel.At(other, attr);
      } else if (dice < 0.8) {
        // A value the ontology knows.
        SenseId s = static_cast<SenseId>(
            rng.NextUint(static_cast<uint64_t>(inst.ontology.num_senses())));
        const auto& vals = inst.ontology.SenseValues(s);
        value = inst.rel.mutable_dict().Intern(vals[rng.NextUint(vals.size())]);
      } else {
        // A fresh value: splits its class off.
        value = inst.rel.mutable_dict().Intern("fresh" + std::to_string(step));
      }
      TaskGroup group(&pool);
      group.Submit([&](int) { inc.UpdateCell(row, attr, value); });
      group.Wait();

      const std::string where = "threads " + std::to_string(threads) +
                                " step " + std::to_string(step);
      Status audit = inc.AuditState();
      EXPECT_TRUE(audit.ok()) << where << ": " << audit.message();
      for (size_t i = 0; i < sigma.size(); ++i) {
        StrippedPartition lhs =
            StrippedPartition::BuildForSet(inst.rel, sigma[i].lhs);
        const bool holds = full.Holds(sigma[i], lhs);
        EXPECT_EQ(inc.Holds(i), holds) << where << ", ofd " << i;
        EXPECT_EQ(inc.Support(i), sigma[i].kind == OfdKind::kSynonym
                                      ? full.Support(sigma[i], lhs)
                                      : (holds ? 1.0 : 0.0))
            << where << ", ofd " << i;
        int violating = 0;
        for (RowSpan cls : lhs.classes()) {
          violating += full.HoldsInClass(cls, sigma[i].rhs, sigma[i].kind) ? 0 : 1;
        }
        EXPECT_EQ(inc.violating_classes(i), violating) << where << ", ofd " << i;
      }
      if (HasFailure()) return;  // One diverged step implies cascades; stop.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace fastofd
