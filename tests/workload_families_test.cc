// Property tests for the query-family generator (workload/families.h):
//
//  * determinism — one (spec, seed) pair always materializes the
//    bit-identical query text and database, and MakeFamilySet is
//    reproducible end to end (the acceptance bar for the workload
//    harness: two runs of a seeded workload are the same workload);
//  * label honesty — every family's precomputed FamilyLabel matches the
//    live dichotomy classifier AND the solver's own case counters: a
//    family labeled Universe must actually drive universe_nodes, a hard
//    Boolean family must take the fallback path, etc.;
//  * non-degeneracy — the spine planting guarantees every generated
//    join is non-empty, so the labeled solver path does real work.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "dichotomy/classification.h"
#include "engine/engine.h"
#include "net/server.h"
#include "solver/compute_adp.h"
#include "workload/driver.h"
#include "workload/families.h"

namespace adp::workload {
namespace {

void ExpectSameDatabase(const NamedDatabase& a, const NamedDatabase& b) {
  ASSERT_EQ(a.relation_names, b.relation_names);
  ASSERT_EQ(a.db.num_relations(), b.db.num_relations());
  for (std::size_t r = 0; r < a.db.num_relations(); ++r) {
    const RelationInstance& ra = a.db.rel(r);
    const RelationInstance& rb = b.db.rel(r);
    ASSERT_EQ(ra.size(), rb.size()) << "relation " << a.relation_names[r];
    ASSERT_EQ(ra.arity(), rb.arity());
    for (std::size_t i = 0; i < ra.size(); ++i) {
      ASSERT_EQ(ra.tuple(i), rb.tuple(i))
          << "relation " << a.relation_names[r] << " row " << i;
    }
  }
}

TEST(FamiliesTest, SameSeedBitIdentical) {
  for (const FamilySpec& spec : DefaultFamilyCatalog()) {
    const FamilyInstance a = MakeFamilyInstance(spec, 1234);
    const FamilyInstance b = MakeFamilyInstance(spec, 1234);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.query_text, b.query_text);
    ExpectSameDatabase(a.db, b.db);
  }
}

TEST(FamiliesTest, DifferentSeedDifferentData) {
  // Query text is seed-independent (the shape defines it); the data is
  // not. Deterministic: fixed seeds, fixed generator.
  const FamilySpec spec = DefaultFamilyCatalog().front();
  const FamilyInstance a = MakeFamilyInstance(spec, 1);
  const FamilyInstance b = MakeFamilyInstance(spec, 2);
  EXPECT_EQ(a.query_text, b.query_text);
  bool differs = false;
  for (std::size_t r = 0; r < a.db.db.num_relations() && !differs; ++r) {
    const RelationInstance& ra = a.db.db.rel(r);
    const RelationInstance& rb = b.db.db.rel(r);
    if (ra.size() != rb.size()) {
      differs = true;
      break;
    }
    for (std::size_t i = 0; i < ra.size(); ++i) {
      if (ra.tuple(i) != rb.tuple(i)) {
        differs = true;
        break;
      }
    }
  }
  EXPECT_TRUE(differs);
}

TEST(FamiliesTest, MakeFamilySetReproducible) {
  const std::vector<FamilySpec> catalog = DefaultFamilyCatalog();
  const std::vector<FamilyInstance> a = MakeFamilySet(catalog, 99);
  const std::vector<FamilyInstance> b = MakeFamilySet(catalog, 99);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].query_text, b[i].query_text);
    EXPECT_EQ(a[i].seed, b[i].seed);
    ExpectSameDatabase(a[i].db, b[i].db);
  }
  // Per-family seeds are derived, not shared: no two families use the
  // same stream.
  std::set<std::uint64_t> seeds;
  for (const FamilyInstance& f : a) seeds.insert(f.seed);
  EXPECT_EQ(seeds.size(), a.size());
}

TEST(FamiliesTest, CatalogNamesUniqueAndValid) {
  std::set<std::string> names;
  for (const FamilySpec& spec : DefaultFamilyCatalog()) {
    std::string why;
    EXPECT_TRUE(ValidateFamilySpec(spec, &why)) << why;
    EXPECT_TRUE(names.insert(FamilyName(spec)).second)
        << "duplicate family name " << FamilyName(spec);
  }
}

TEST(FamiliesTest, CatalogCoversEveryCaseAndBothVerdicts) {
  std::set<AdpCase> cases;
  std::set<bool> verdicts;
  for (const FamilySpec& spec : DefaultFamilyCatalog()) {
    const FamilyLabel label = LabelFor(spec);
    cases.insert(label.root_case);
    verdicts.insert(label.ptime);
  }
  EXPECT_EQ(cases.size(), 5u);  // all five Algorithm-2 cases
  EXPECT_EQ(verdicts.size(), 2u);
}

TEST(FamiliesTest, LabelsMatchLiveClassifier) {
  for (const FamilySpec& spec : DefaultFamilyCatalog()) {
    const FamilyInstance inst = MakeFamilyInstance(spec, 7);
    const DichotomyVerdict verdict = ClassifyDichotomy(inst.query);
    EXPECT_EQ(verdict.ptime, inst.label.ptime) << inst.name;
    const AdpOptions options;
    EXPECT_EQ(ClassifyAdpCase(inst.query, options), inst.label.root_case)
        << inst.name;
  }
}

// The deep check: run each family through the engine and require (a) a
// non-empty join (the spine guarantee), and (b) the solver case counter
// the label promises. A label that diverged from the solver would pass
// LabelsMatchLiveClassifier if ClassifyAdpCase drifted too — the AdpStats
// counters are the ground truth of which path actually executed.
TEST(FamiliesTest, LabelsMatchSolverCaseCounters) {
  EngineConfig config;
  config.num_workers = 1;
  AdpEngine engine(config);
  for (const FamilySpec& spec : DefaultFamilyCatalog()) {
    const FamilyInstance inst = MakeFamilyInstance(spec, 11);
    AdpRequest req;
    req.query_text = inst.query_text;
    req.db = engine.RegisterDatabase(inst.db);
    req.k = 1;
    const AdpResponse resp = engine.Execute(req);
    ASSERT_TRUE(resp.ok()) << inst.name << ": " << resp.status.message();
    EXPECT_GT(resp.solution.output_count, 0) << inst.name;
    const AdpStats& stats = resp.stats;
    switch (inst.label.root_case) {
      case AdpCase::kBoolean:
        if (inst.label.ptime) {
          EXPECT_GE(stats.boolean_nodes, 1) << inst.name;
          EXPECT_EQ(stats.boolean_fallbacks, 0) << inst.name;
        } else {
          EXPECT_GE(stats.boolean_fallbacks, 1) << inst.name;
        }
        break;
      case AdpCase::kSingleton:
        EXPECT_GE(stats.singleton_nodes, 1) << inst.name;
        break;
      case AdpCase::kUniverse:
        EXPECT_GE(stats.universe_nodes, 1) << inst.name;
        break;
      case AdpCase::kDecompose:
        EXPECT_GE(stats.decompose_nodes, 1) << inst.name;
        break;
      case AdpCase::kHeuristic:
        EXPECT_GE(stats.greedy_leaves + stats.drastic_leaves, 1)
            << inst.name;
        break;
    }
  }
}

TEST(FamiliesTest, ValidateRejectsBadSpecs) {
  FamilySpec spec;
  spec.shape = FamilyShape::kCycle;
  spec.relations = 2;  // a 2-cycle is not a cycle
  EXPECT_FALSE(ValidateFamilySpec(spec));
  EXPECT_THROW(MakeFamilyInstance(spec, 1), std::invalid_argument);

  spec = FamilySpec{};
  spec.shape = FamilyShape::kStar;
  spec.head = HeadClass::kBoolean;
  EXPECT_FALSE(ValidateFamilySpec(spec));

  spec = FamilySpec{};
  spec.shape = FamilyShape::kDisconnected;
  spec.relations = 1;
  EXPECT_FALSE(ValidateFamilySpec(spec));

  spec = FamilySpec{};
  spec.shape = FamilyShape::kChain;
  spec.head = HeadClass::kProjected;
  spec.relations = 3;  // projected chains are 2-chains only
  EXPECT_FALSE(ValidateFamilySpec(spec));
}

TEST(FamiliesTest, SampledSpecsAlwaysValidAndDeterministic) {
  Rng a(5), b(5);
  for (int i = 0; i < 200; ++i) {
    const FamilySpec sa = SampleFamilySpec(a);
    const FamilySpec sb = SampleFamilySpec(b);
    std::string why;
    EXPECT_TRUE(ValidateFamilySpec(sa, &why)) << why;
    EXPECT_EQ(static_cast<int>(sa.shape), static_cast<int>(sb.shape));
    EXPECT_EQ(sa.relations, sb.relations);
    EXPECT_EQ(static_cast<int>(sa.head), static_cast<int>(sb.head));
    EXPECT_EQ(static_cast<int>(sa.cardinality),
              static_cast<int>(sb.cardinality));
    EXPECT_EQ(static_cast<int>(sa.domain), static_cast<int>(sb.domain));
  }
}

// Driver-plan determinism rides with the generator's: one seed => one op
// sequence, and replaying a cancel-free plan is answer-stable.
TEST(FamiliesTest, DriverPlanAndAnswersDeterministic) {
  const std::vector<FamilySpec> specs = {DefaultFamilyCatalog()[0],
                                         DefaultFamilyCatalog()[3]};
  DriverConfig dc;
  dc.concurrency = 2;
  dc.requests = 40;
  dc.seed = 77;
  dc.mix = {.execute = 0.6, .prepared = 0.4};  // cancel-free: deterministic

  AdpEngine engine_a, engine_b;
  LoadDriver a(engine_a, MakeFamilySet(specs, 77), dc);
  LoadDriver b(engine_b, MakeFamilySet(specs, 77), dc);

  ASSERT_EQ(a.plan().size(), b.plan().size());
  for (std::size_t i = 0; i < a.plan().size(); ++i) {
    EXPECT_EQ(a.plan()[i].family, b.plan()[i].family);
    EXPECT_EQ(static_cast<int>(a.plan()[i].kind),
              static_cast<int>(b.plan()[i].kind));
    EXPECT_EQ(a.plan()[i].k, b.plan()[i].k);
  }

  const DriverReport ra = a.Run();
  const DriverReport rb = b.Run();
  EXPECT_TRUE(OutcomesConsistent(ra.outcomes));
  EXPECT_TRUE(OutcomesConsistent(rb.outcomes));
  EXPECT_EQ(ra.outcomes.ok, rb.outcomes.ok);
  EXPECT_EQ(ra.answer_checksum, rb.answer_checksum);
  // And replaying the same plan on the same driver is stable too.
  EXPECT_EQ(a.Run().answer_checksum, ra.answer_checksum);
}

// One fixed cancel-free plan answers identically in-process and over the
// wire. The Boolean family has |Q(D)| = 1, so every k > 1 op is infeasible:
// the wire's cost:-1 must tally like the in-process infeasible answer.
TEST(FamiliesTest, NetReplayChecksumMatchesInProcess) {
  const std::vector<FamilySpec> specs = {DefaultFamilyCatalog()[0],
                                         DefaultFamilyCatalog()[1]};
  ASSERT_EQ(static_cast<int>(specs[0].head),
            static_cast<int>(HeadClass::kBoolean));
  DriverConfig dc;
  dc.concurrency = 2;
  dc.requests = 40;
  dc.max_k = 3;
  dc.seed = 5;
  dc.mix = {.execute = 0.5, .prepared = 0.5};  // cancel-free: deterministic

  AdpEngine engine;
  LoadDriver driver(engine, MakeFamilySet(specs, dc.seed), dc);
  net::AdpNetServer server(engine);
  ASSERT_TRUE(server.Start().ok());

  const DriverReport local = driver.Run();
  const DriverReport wire = driver.RunOverNet("127.0.0.1", server.port());
  ASSERT_EQ(local.outcomes.ok, local.outcomes.issued);
  ASSERT_EQ(wire.outcomes.ok, wire.outcomes.issued);
  EXPECT_EQ(wire.outcomes.issued, local.outcomes.issued);
  EXPECT_EQ(wire.answer_checksum, local.answer_checksum);
}

}  // namespace
}  // namespace adp::workload
