// Decompose solver tests (Algorithm 5): cross-product accounting, agreement
// of the three strategies (Fig 29), the root single-k fast path, sharded
// component sub-solves (serial/sharded equivalence + cancellation, the
// latter also on the Universe axis that shares the fan-out), an oracle
// sweep, and a witness regression lock over catalog families.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine/thread_pool.h"
#include "query/parser.h"
#include "solver/decompose.h"
#include "solver/plan.h"
#include "solver/solution.h"
#include "solver/universe.h"
#include "test_util.h"
#include "witness_lock.h"
#include "workload/families.h"

namespace adp {
namespace {

using testing::BindRoot;
using testing::MakeDb;
using testing::OracleAdp;
using testing::OracleCount;
using testing::RandomDb;
using testing::WitnessHash;

ConjunctiveQuery TwoParts() {
  return ParseQuery("Q(A,B) :- R1(A), R2(B)");
}

TEST(DecomposeTest, CrossProductCosts) {
  const ConjunctiveQuery q = TwoParts();
  const Database db = MakeDb(q, {{"R1", {{1}, {2}}}, {"R2", {{5}, {6}, {7}}}});
  // |Q(D)| = 6. Removing one R1 tuple removes 3 products; one R2 tuple, 2.
  AdpOptions options;
  const AdpNode node = DecomposeNode(q, db, 6, options,
                                     BuildDispatchPlan(q, options).root());
  EXPECT_TRUE(node.exact);
  EXPECT_EQ(node.profile.At(1), 1);
  EXPECT_EQ(node.profile.At(3), 1);   // one R1 tuple
  EXPECT_EQ(node.profile.At(4), 2);   // R1 tuple + R2 tuple = 3+2-1 = 4? No:
  // k1=1 (R1 outputs), k2=1 (R2 outputs): removed = 1*3 + 1*2 - 1 = 4. Yes.
  EXPECT_EQ(node.profile.At(5), 2);   // 2 R1 tuples = whole factor -> 6
  EXPECT_EQ(node.profile.At(6), 2);
}

TEST(DecomposeTest, StrategiesAgreeOnOptimalCosts) {
  const ConjunctiveQuery q = ParseQuery(
      "Q(A1,B1,A2,B2,A3,B3) :- R11(A1), R12(A1,B1), R21(A2), R22(A2,B2), "
      "R31(A3), R32(A3,B3)");
  // Every component joins, with 3, 6 and 4 outputs of uneven fan-out.
  const Database db = MakeDb(
      q, {{"R11", {{1}, {2}}},
          {"R12", {{1, 1}, {1, 2}, {2, 1}}},
          {"R21", {{1}, {2}, {3}}},
          {"R22", {{1, 1}, {2, 1}, {2, 2}, {3, 1}, {3, 2}, {3, 3}}},
          {"R31", {{1}}},
          {"R32", {{1, 1}, {1, 2}, {1, 3}, {1, 4}}}});
  const std::int64_t total = OracleCount(q, db);
  ASSERT_GT(total, 0);
  const std::int64_t cap = std::min<std::int64_t>(total, 20);

  AdpOptions improved;
  AdpOptions naive;
  naive.decompose_strategy = AdpOptions::DecomposeStrategy::kPairwiseNaive;
  AdpOptions full;
  full.decompose_strategy = AdpOptions::DecomposeStrategy::kFullEnumeration;

  const AdpNode a = DecomposeNode(q, db, cap, improved,
                                  BuildDispatchPlan(q, improved).root());
  const AdpNode b = DecomposeNode(q, db, cap, naive,
                                  BuildDispatchPlan(q, naive).root());
  const AdpNode c = DecomposeNode(q, db, cap, full,
                                  BuildDispatchPlan(q, full).root());
  for (std::int64_t j = 0; j <= cap; ++j) {
    EXPECT_EQ(a.profile.At(j), b.profile.At(j)) << "j=" << j;
    EXPECT_EQ(a.profile.At(j), c.profile.At(j)) << "j=" << j;
  }
}

TEST(DecomposeTest, SingleKMatchesProfile) {
  const ConjunctiveQuery q = TwoParts();
  Rng rng(83);
  for (int iter = 0; iter < 20; ++iter) {
    const Database db = RandomDb(q, rng, 5, 6);
    const std::int64_t total = OracleCount(q, db);
    if (total == 0) continue;
    AdpOptions options;
    const DispatchPlan plan = BuildDispatchPlan(q, options);
    const AdpNode node = DecomposeNode(q, db, total, options, plan.root());
    for (std::int64_t k = 1; k <= total; ++k) {
      const DecomposeSingleResult single =
          SolveDecomposeSingleK(q, db, k, options, plan.root());
      EXPECT_EQ(single.cost, node.profile.At(k)) << "k=" << k;
      EXPECT_GE(CountRemovedOutputs(q, db, single.tuples), k);
    }
  }
}

TEST(DecomposeTest, ThreeComponentsSingleK) {
  const ConjunctiveQuery q =
      ParseQuery("Q(A,B,C) :- R1(A), R2(B), R3(C)");
  const Database db = MakeDb(
      q, {{"R1", {{1}, {2}}}, {"R2", {{1}, {2}}}, {"R3", {{1}, {2}}}});
  // |Q(D)| = 8; removing one tuple removes 4 products.
  AdpOptions options;
  const DispatchPlan plan = BuildDispatchPlan(q, options);
  EXPECT_EQ(SolveDecomposeSingleK(q, db, 4, options, plan.root()).cost, 1);
  EXPECT_EQ(SolveDecomposeSingleK(q, db, 5, options, plan.root()).cost, 2);
  // 2 tuples from different factors: 4+4-2=6; same factor: 8.
  EXPECT_EQ(SolveDecomposeSingleK(q, db, 6, options, plan.root()).cost, 2);
  // whole factor
  EXPECT_EQ(SolveDecomposeSingleK(q, db, 7, options, plan.root()).cost, 2);
  EXPECT_EQ(SolveDecomposeSingleK(q, db, 8, options, plan.root()).cost, 2);
}

// Sharding the component sub-solves across an executor must not change any
// profile entry, witness, or recursion statistic: children land at fixed
// fold-order indices and the cross-product DP runs on the caller exactly as
// in the sequential path. Property-tested over randomly generated instances
// of multi-component query shapes (2..4 components, mixed sub-solver cases).
TEST(DecomposeTest, ShardedComponentsMatchSequential) {
  ThreadPool pool(4);
  Parallelism par;
  par.min_components = 2;
  par.min_groups = 0;  // isolate the Decompose axis (stats compared below)
  par.run_all = [&pool](std::vector<std::function<void()>> tasks) {
    pool.RunAll(std::move(tasks));
  };

  const char* shapes[] = {
      "Q(A,B) :- R1(A), R2(B)",
      "Q(A,B,C) :- R1(A,B), R2(C)",
      "Q(A,B,C) :- R1(A), R2(B), R3(C)",
      "Q(A,B,C,E) :- R1(A), R2(A,B), R3(C), R4(C,E)",
      "Q(A,B,C,E) :- R1(A), R2(B), R3(C), R4(E)",
  };
  Rng rng(85);
  int sharded_nodes = 0;
  for (const char* text : shapes) {
    const ConjunctiveQuery q = ParseQuery(text);
    for (int iter = 0; iter < 8; ++iter) {
      const Database db = RandomDb(q, rng, 4, 3);
      const std::int64_t total = OracleCount(q, db);
      if (total == 0) continue;
      const std::int64_t cap = std::min<std::int64_t>(total, 24);

      AdpOptions sequential;
      AdpStats seq_stats;
      sequential.stats = &seq_stats;
      const AdpNode a = DecomposeNode(q, db, cap, sequential,
                                      BuildDispatchPlan(q, sequential).root());

      AdpOptions sharded = sequential;
      AdpStats shard_stats;
      sharded.stats = &shard_stats;
      sharded.parallelism = &par;
      const AdpNode b = DecomposeNode(q, db, cap, sharded,
                                      BuildDispatchPlan(q, sharded).root());

      for (std::int64_t j = 0; j <= cap; ++j) {
        ASSERT_EQ(a.profile.At(j), b.profile.At(j))
            << text << " iter " << iter << " j " << j;
      }
      EXPECT_EQ(a.exact, b.exact);
      for (std::int64_t j = 1; j <= cap; ++j) {
        EXPECT_EQ(a.report(j), b.report(j))
            << text << " iter " << iter << " j " << j;
      }

      // The root single-target fast path shards its BuildChildren too.
      for (std::int64_t k = 1; k <= cap; k += 3) {
        const DecomposeSingleResult sa =
            SolveDecomposeSingleK(q, db, k, sequential,
                                  BuildDispatchPlan(q, sequential).root());
        const DecomposeSingleResult sb =
            SolveDecomposeSingleK(q, db, k, sharded,
                                  BuildDispatchPlan(q, sharded).root());
        EXPECT_EQ(sa.cost, sb.cost) << text << " iter " << iter << " k " << k;
        EXPECT_EQ(sa.tuples, sb.tuples)
            << text << " iter " << iter << " k " << k;
      }

      sharded_nodes += shard_stats.sharded_decompose_nodes;
      EXPECT_EQ(seq_stats.sharded_decompose_nodes, 0);
      // Sharding must not perturb the recursion accounting: every AdpStats
      // field agrees (also guards MergeAdpStats against dropping a field).
      EXPECT_EQ(seq_stats.boolean_nodes, shard_stats.boolean_nodes) << text;
      EXPECT_EQ(seq_stats.boolean_fallbacks, shard_stats.boolean_fallbacks)
          << text;
      EXPECT_EQ(seq_stats.singleton_nodes, shard_stats.singleton_nodes)
          << text;
      EXPECT_EQ(seq_stats.universe_nodes, shard_stats.universe_nodes) << text;
      EXPECT_EQ(seq_stats.universe_groups, shard_stats.universe_groups)
          << text;
      EXPECT_EQ(seq_stats.greedy_leaves, shard_stats.greedy_leaves) << text;
      EXPECT_EQ(seq_stats.drastic_leaves, shard_stats.drastic_leaves) << text;
      EXPECT_EQ(seq_stats.sharded_universe_nodes,
                shard_stats.sharded_universe_nodes)
          << text;
      // decompose_nodes: the SolveDecomposeSingleK probes above bump the
      // counter identically for both options structs, so plain equality
      // still must hold.
      EXPECT_EQ(seq_stats.decompose_nodes, shard_stats.decompose_nodes)
          << text;
    }
  }
  // The shapes all have >= 2 components: sharding must actually engage.
  EXPECT_GT(sharded_nodes, 0);
}

// Parallelism::min_components == 0 must disable the Decompose axis even
// when an executor is wired up and the other axis is on; likewise
// min_groups == 0 for the Universe axis, which shares the fan-out.
TEST(DecomposeTest, ZeroMinComponentsDisablesSharding) {
  Parallelism par;
  par.min_components = 0;
  par.min_groups = 2;
  std::atomic<int> fanouts{0};
  par.run_all = [&](std::vector<std::function<void()>> tasks) {
    ++fanouts;
    for (auto& t : tasks) t();
  };
  const ConjunctiveQuery q = TwoParts();
  const Database db = MakeDb(q, {{"R1", {{1}, {2}}}, {"R2", {{5}, {6}}}});
  AdpOptions options;
  AdpStats stats;
  options.stats = &stats;
  options.parallelism = &par;
  const AdpNode node = DecomposeNode(q, db, 4, options,
                                     BuildDispatchPlan(q, options).root());
  EXPECT_EQ(node.profile.At(2), 1);
  EXPECT_EQ(fanouts.load(), 0);
  EXPECT_EQ(stats.sharded_decompose_nodes, 0);

  // Universe axis: two partition groups, each a Boolean residual.
  par.min_components = 2;
  par.min_groups = 0;
  const ConjunctiveQuery uq = ParseQuery("Q(A) :- R1(A,B), R2(A,C)");
  const Database udb = MakeDb(uq, {{"R1", {{1, 5}, {2, 5}}},
                                   {"R2", {{1, 7}, {2, 7}, {2, 8}}}});
  const AdpNode unode = UniverseNode(uq, udb, 2, options,
                                     BuildDispatchPlan(uq, options).root());
  EXPECT_EQ(unode.profile.At(2), 2);
  EXPECT_EQ(stats.universe_groups, 2);
  EXPECT_EQ(fanouts.load(), 0);
  EXPECT_EQ(stats.sharded_universe_nodes, 0);
}

// A cancel landing mid-fan-out stops the remaining sub-solves at their node
// boundary: deterministic run_all that cancels after the first task; every
// later shard must abort before doing its work. Checked on the Decompose
// axis (four components) and the Universe axis (four partition groups),
// which share one fan-out.
TEST(DecomposeTest, CancelMidComponentStopsShardedSubSolves) {
  const ConjunctiveQuery components =
      ParseQuery("Q(A,B,C,E) :- R1(A), R2(B), R3(C), R4(E)");
  const ConjunctiveQuery groups = ParseQuery("Q(A) :- R1(A,B), R2(A,C)");
  struct Case {
    ConjunctiveQuery q;
    Database db;
    std::int64_t k;
  };
  const Case cases[] = {
      {components,
       MakeDb(components, {{"R1", {{1}, {2}}},
                           {"R2", {{1}, {2}}},
                           {"R3", {{1}, {2}}},
                           {"R4", {{1}, {2}}}}),
       6},
      {groups,
       MakeDb(groups, {{"R1", {{1, 5}, {2, 5}, {3, 5}, {4, 5}}},
                       {"R2", {{1, 7}, {2, 7}, {3, 7}, {4, 7}}}}),
       3},
  };
  for (const auto& [q, db, k] : cases) {
    const CancelToken token = CancelToken::Make();
    std::atomic<int> ran{0};
    Parallelism par;
    par.min_components = 2;
    par.min_groups = 2;
    par.run_all = [&](std::vector<std::function<void()>> tasks) {
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        tasks[i]();
        ++ran;
        if (i == 0) token.Cancel();
      }
    };

    AdpOptions options;
    AdpStats stats;
    options.stats = &stats;
    options.cancel = &token;
    options.parallelism = &par;
    try {
      // Root-path entry: ComputeAdp takes the single-k fast path for the
      // Decompose query and the full-profile node for the Universe one;
      // both fan out through the same shared sub-solve loop.
      ComputeAdp(q, db, k, options);
      FAIL() << "expected CancelledError";
    } catch (const CancelledError& e) {
      EXPECT_EQ(e.reason(), CancelReason::kCancelled);
    }
    // All tasks were invoked (run_all contract) but only the first solved.
    EXPECT_EQ(ran.load(), 4);
    EXPECT_EQ(stats.sharded_universe_nodes + stats.sharded_decompose_nodes,
              1);
  }
}

class DecomposeOracleSweep : public ::testing::TestWithParam<int> {};

TEST_P(DecomposeOracleSweep, OptimalForAllK) {
  Rng rng(800 + GetParam());
  const ConjunctiveQuery q =
      ParseQuery("Q(A,B,C) :- R1(A,B), R2(C)");
  const Database db = RandomDb(q, rng, 4, 3);
  const std::int64_t total = OracleCount(q, db);
  if (total == 0 || db.TotalTuples() > 12) GTEST_SKIP();
  AdpOptions options;
  const AdpNode node = DecomposeNode(q, db, total, options,
                                     BuildDispatchPlan(q, options).root());
  ASSERT_TRUE(node.exact);
  for (std::int64_t k = 1; k <= total; ++k) {
    EXPECT_EQ(node.profile.At(k), OracleAdp(q, db, k)) << "k=" << k;
    const auto tuples = node.report(k);
    EXPECT_GE(CountRemovedOutputs(q, db, tuples), k);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, DecomposeOracleSweep,
                         ::testing::Range(0, 20));

// --- Witness regression lock ------------------------------------------------
//
// Cost, exactness, AdpStats and the exact witness list of catalog families
// whose solves run through nested Decompose folds, pinned to the values the
// per-target split tables produced before splits were recovered at report
// time. A change to the cross-product DP's evaluation order or tie-break
// shows up here as a changed witness hash.

using workload::CardinalityClass;
using workload::DomainClass;
using workload::FamilyInstance;
using workload::FamilyShape;
using workload::FamilySpec;
using workload::HeadClass;

AdpStats Stats(int singleton, int universe, int decompose,
               std::int64_t groups) {
  AdpStats s;
  s.singleton_nodes = singleton;
  s.universe_nodes = universe;
  s.decompose_nodes = decompose;
  s.universe_groups = groups;
  return s;
}

struct LockedSolve {
  double ratio;
  std::int64_t cost;
  std::uint64_t witness_hash;
};

struct LockedFamily {
  FamilySpec spec;
  AdpStats stats;  // identical at every ratio
  std::vector<LockedSolve> solves;
};

TEST(DecomposeWitnessLock, CatalogFamiliesKeepTheirWitnesses) {
  constexpr std::uint64_t kSeed = 11;
  const LockedFamily kLocked[] = {
      {{FamilyShape::kDisconnected, 2, HeadClass::kFull,
        CardinalityClass::kSmall, DomainClass::kMid},
       Stats(146, 2, 74, 73),
       {{0.10, 3, 0xafdf8ceb171fb018ULL},
        {0.25, 8, 0x230b3999b9129845ULL},
        {0.50, 18, 0xdd889b08ed967ed1ULL},
        {0.75, 32, 0x82736a63968a5ee6ULL}}},
      {{FamilyShape::kDisconnected, 3, HeadClass::kFull,
        CardinalityClass::kSmall, DomainClass::kMid},
       Stats(218, 3, 110, 109),
       {{0.10, 4, 0x462c4a257965c47dULL},
        {0.25, 10, 0x443c8c51a919fa24ULL},
        {0.50, 20, 0x14cd7c388fb06d76ULL},
        {0.75, 35, 0x6af716065a2839a9ULL}}},
      {{FamilyShape::kChain, 2, HeadClass::kFull, CardinalityClass::kMedium,
        DomainClass::kMid},
       Stats(284, 1, 142, 142),
       {{0.10, 13, 0xc70021e1016f36bfULL},
        {0.25, 36, 0x4569aa91aee3aad6ULL},
        {0.50, 84, 0x0355c5d972cc2fc2ULL},
        {0.75, 148, 0xc43e16d5396ecc7fULL}}},
      {{FamilyShape::kStar, 4, HeadClass::kFull, CardinalityClass::kMedium,
        DomainClass::kSparse},
       Stats(76, 1, 19, 19),
       {{0.10, 1, 0x6ed9c10b6699550dULL},
        {0.25, 2, 0xad4d261f4e8a56b1ULL},
        {0.50, 4, 0x826e556ae4579826ULL},
        {0.75, 9, 0x4f7010f87103b60eULL}}},
  };
  for (const LockedFamily& family : kLocked) {
    const FamilyInstance inst = workload::MakeFamilyInstance(family.spec,
                                                             kSeed);
    SCOPED_TRACE(inst.name);
    ASSERT_FALSE(inst.query.HasSelections());
    const Database db = BindRoot(inst);
    const DispatchPlan plan = BuildDispatchPlan(inst.query, AdpOptions{});
    AdpOptions count_options;
    count_options.plan = &plan;
    const std::int64_t total =
        ComputeAdp(inst.query, db, 0, count_options).output_count;
    for (const LockedSolve& want : family.solves) {
      SCOPED_TRACE(want.ratio);
      const std::int64_t k = std::max<std::int64_t>(
          1, static_cast<std::int64_t>(want.ratio * total));
      AdpStats stats;
      AdpOptions options;
      options.plan = &plan;
      options.stats = &stats;
      const AdpSolution sol = ComputeAdp(inst.query, db, k, options);
      EXPECT_EQ(sol.cost, want.cost);
      EXPECT_TRUE(sol.exact);
      EXPECT_EQ(stats, family.stats);
      EXPECT_EQ(WitnessHash(sol.tuples), want.witness_hash);
    }
  }
}

TEST(DecomposeWitnessLock, IntermediateWitnessesMatchTheProfile) {
  // A streamed solve of a root Decompose over Universe components with
  // nested Decompose nodes: every per-k witness group is recovered split by
  // split at report time and must cost exactly the profile entry and remove
  // at least j outputs.
  const FamilyInstance inst = workload::MakeFamilyInstance(
      {FamilyShape::kDisconnected, 2, HeadClass::kFull,
       CardinalityClass::kSmall, DomainClass::kMid},
      11);
  const Database db = BindRoot(inst);
  const DispatchPlan plan = BuildDispatchPlan(inst.query, AdpOptions{});
  AdpOptions options;
  options.plan = &plan;
  constexpr std::int64_t kTargets = 120;

  std::map<std::int64_t, std::int64_t> profile;
  std::map<std::int64_t, std::vector<TupleRef>> witnesses;
  AdpProgress progress;
  progress.intermediate_witnesses = true;
  progress.profile = [&](std::int64_t j, std::int64_t cost) {
    profile[j] = cost;
  };
  progress.witnesses = [&](std::int64_t j, const std::vector<TupleRef>& w) {
    witnesses[j] = w;
  };
  const AdpSolution sol =
      ComputeAdp(inst.query, db, kTargets, options, &progress);
  ASSERT_TRUE(sol.exact);
  ASSERT_EQ(profile.size(), static_cast<std::size_t>(kTargets));
  ASSERT_EQ(witnesses.size(), static_cast<std::size_t>(kTargets));
  for (std::int64_t j = 1; j <= kTargets; ++j) {
    const std::vector<TupleRef>& w = witnesses[j];
    EXPECT_EQ(static_cast<std::int64_t>(w.size()), profile[j]) << "j=" << j;
    EXPECT_GE(CountRemovedOutputs(inst.query, db, w), j) << "j=" << j;
  }
  EXPECT_EQ(sol.cost, profile[kTargets]);
}

}  // namespace
}  // namespace adp
