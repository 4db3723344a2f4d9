// Universe solver tests (Algorithm 4): partitioning correctness, the convex
// merge fast path vs the plain DP, the one-by-one ablation strategy, sharded
// group sub-solves, an oracle sweep, and a witness regression lock over
// catalog families and random instances.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine/thread_pool.h"
#include "query/parser.h"
#include "query/transform.h"
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

// The Universe plan node for `q`: its residual planned as the recursion
// would. Built by hand because some queries below would be claimed by
// another case first (e.g. Singleton) if planned from the root.
PlanNode UniversePlan(const ConjunctiveQuery& q, const AdpOptions& options) {
  PlanNode plan;
  plan.op = AdpCase::kUniverse;
  plan.children.push_back(
      BuildDispatchPlan(RemoveAttributes(q, UniverseAttrs(q, options)),
                        options)
          .root());
  return plan;
}

// Q(A,B,C) :- R1(A,B), R2(A,C): A universal; groups solved independently.
ConjunctiveQuery UQ() { return ParseQuery("Q(A,B,C) :- R1(A,B), R2(A,C)"); }

TEST(UniverseTest, PartitionedOptimum) {
  const ConjunctiveQuery q = UQ();
  const Database db = MakeDb(q, {{"R1", {{1, 5}, {1, 6}, {2, 5}}},
                                 {"R2", {{1, 7}, {2, 7}, {2, 8}}}});
  // Group a=1: 2x1 = 2 outputs; group a=2: 1x2 = 2 outputs.
  AdpOptions options;
  const AdpNode node = UniverseNode(q, db, 4, options,
                                    UniversePlan(q, options));
  EXPECT_TRUE(node.exact);
  // Removing 2 outputs: cheapest is one tuple (R2(1,7) kills group 1;
  // R1(2,5) kills group 2).
  EXPECT_EQ(node.profile.At(1), 1);
  EXPECT_EQ(node.profile.At(2), 1);
  EXPECT_EQ(node.profile.At(4), 2);
  const auto tuples = node.report(4);
  EXPECT_EQ(CountRemovedOutputs(q, db, tuples), 4);
  EXPECT_EQ(tuples.size(), 2u);
}

TEST(UniverseTest, ConvexAndDpPathsAgree) {
  Rng rng(71);
  const ConjunctiveQuery q = UQ();
  for (int iter = 0; iter < 20; ++iter) {
    const Database db = RandomDb(q, rng, 10, 4);
    const std::int64_t total = OracleCount(q, db);
    if (total == 0) continue;
    AdpOptions fast;
    AdpOptions slow;
    slow.universe_convex_merge = false;
    const AdpNode a = UniverseNode(q, db, total, fast, UniversePlan(q, fast));
    const AdpNode b = UniverseNode(q, db, total, slow, UniversePlan(q, slow));
    for (std::int64_t j = 0; j <= total; ++j) {
      EXPECT_EQ(a.profile.At(j), b.profile.At(j)) << "iter " << iter;
    }
  }
}

TEST(UniverseTest, OneByOneStrategySameCosts) {
  // Two universal attributes: peeling one at a time must agree with the
  // combined removal on optimal costs (it is just slower).
  const ConjunctiveQuery q =
      ParseQuery("Q(A,B,C) :- R1(A,B,C), R2(A,B)");
  Rng rng(72);
  const Database db = RandomDb(q, rng, 12, 3);
  const std::int64_t total = OracleCount(q, db);
  if (total == 0) GTEST_SKIP();
  AdpOptions combined;
  AdpOptions one_by_one;
  one_by_one.universe_strategy = AdpOptions::UniverseStrategy::kOneByOne;
  const AdpNode a = UniverseNode(q, db, total, combined,
                                 UniversePlan(q, combined));
  const AdpNode b = UniverseNode(q, db, total, one_by_one,
                                 UniversePlan(q, one_by_one));
  for (std::int64_t j = 0; j <= total; ++j) {
    EXPECT_EQ(a.profile.At(j), b.profile.At(j)) << "j=" << j;
  }
}

// Sharding the partition groups across an executor must not change any
// profile entry or witness: children land at fixed indices and are combined
// in partition order.
TEST(UniverseTest, ShardedGroupsMatchSequential) {
  ThreadPool pool(4);
  Parallelism par;
  par.min_groups = 2;
  par.run_all = [&pool](std::vector<std::function<void()>> tasks) {
    pool.RunAll(std::move(tasks));
  };

  Rng rng(73);
  const ConjunctiveQuery q = UQ();
  int sharded_nodes = 0;
  for (int iter = 0; iter < 20; ++iter) {
    const Database db = RandomDb(q, rng, 10, 4);
    const std::int64_t total = OracleCount(q, db);
    if (total == 0) continue;

    AdpOptions sequential;
    AdpStats seq_stats;
    sequential.stats = &seq_stats;
    const AdpNode a = UniverseNode(q, db, total, sequential,
                                   UniversePlan(q, sequential));

    AdpOptions sharded = sequential;
    AdpStats shard_stats;
    sharded.stats = &shard_stats;
    sharded.parallelism = &par;
    const AdpNode b = UniverseNode(q, db, total, sharded,
                                   UniversePlan(q, sharded));

    for (std::int64_t j = 0; j <= total; ++j) {
      ASSERT_EQ(a.profile.At(j), b.profile.At(j))
          << "iter " << iter << " j " << j;
    }
    EXPECT_EQ(a.exact, b.exact);
    for (std::int64_t j = 1; j <= total; ++j) {
      EXPECT_EQ(a.report(j), b.report(j)) << "iter " << iter << " j " << j;
    }
    sharded_nodes += shard_stats.sharded_universe_nodes;
    EXPECT_EQ(seq_stats.sharded_universe_nodes, 0);
    // Sharding must not perturb the recursion accounting: every AdpStats
    // field agrees (also guards MergeAdpStats against dropping a field).
    EXPECT_EQ(seq_stats.boolean_nodes, shard_stats.boolean_nodes)
        << "iter " << iter;
    EXPECT_EQ(seq_stats.boolean_fallbacks, shard_stats.boolean_fallbacks)
        << "iter " << iter;
    EXPECT_EQ(seq_stats.singleton_nodes, shard_stats.singleton_nodes)
        << "iter " << iter;
    EXPECT_EQ(seq_stats.universe_nodes, shard_stats.universe_nodes)
        << "iter " << iter;
    EXPECT_EQ(seq_stats.decompose_nodes, shard_stats.decompose_nodes)
        << "iter " << iter;
    EXPECT_EQ(seq_stats.greedy_leaves, shard_stats.greedy_leaves)
        << "iter " << iter;
    EXPECT_EQ(seq_stats.drastic_leaves, shard_stats.drastic_leaves)
        << "iter " << iter;
    EXPECT_EQ(seq_stats.universe_groups, shard_stats.universe_groups)
        << "iter " << iter;
  }
  EXPECT_GT(sharded_nodes, 0);
}

// The disjoint-union fold polls cancel once per level: a token that fires
// after the last group's sub-solve (here from inside run_all, once every
// shard has finished) stops the DP fold instead of letting it run on.
TEST(UniverseTest, CancelAfterLastShardStopsTheFold) {
  const ConjunctiveQuery q = UQ();
  const Database db = MakeDb(q, {{"R1", {{1, 5}, {1, 6}, {2, 5}}},
                                 {"R2", {{1, 7}, {2, 7}, {2, 8}}}});
  const CancelToken token = CancelToken::Make();
  std::atomic<int> ran{0};
  Parallelism par;
  par.min_groups = 2;
  par.run_all = [&](std::vector<std::function<void()>> tasks) {
    for (auto& t : tasks) {
      t();
      ++ran;
    }
    token.Cancel();
  };
  AdpOptions options;
  options.universe_convex_merge = false;
  options.cancel = &token;
  options.parallelism = &par;
  try {
    UniverseNode(q, db, 4, options, UniversePlan(q, options));
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kCancelled);
  }
  EXPECT_EQ(ran.load(), 2);  // both groups were solved before the fold
}

class UniverseOracleSweep : public ::testing::TestWithParam<int> {};

TEST_P(UniverseOracleSweep, OptimalForAllK) {
  Rng rng(700 + GetParam());
  const ConjunctiveQuery q = UQ();
  const Database db = RandomDb(q, rng, 6, 3);
  const std::int64_t total = OracleCount(q, db);
  if (total == 0 || db.TotalTuples() > 14) GTEST_SKIP();
  AdpOptions options;
  const AdpNode node = UniverseNode(q, db, total, options,
                                    UniversePlan(q, options));
  ASSERT_TRUE(node.exact);
  for (std::int64_t k = 1; k <= total; ++k) {
    EXPECT_EQ(node.profile.At(k), OracleAdp(q, db, k)) << "k=" << k;
    const auto tuples = node.report(k);
    EXPECT_GE(CountRemovedOutputs(q, db, tuples), k);
    EXPECT_LE(static_cast<std::int64_t>(tuples.size()), node.profile.At(k));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, UniverseOracleSweep,
                         ::testing::Range(0, 20));

// --- Witness regression lock ------------------------------------------------
//
// Cost, exactness, AdpStats and the exact witness list of seeded Universe
// solves — the catalog families whose root case is Universe, plus random
// UQ() instances — pinned to the values the per-fold split tables produced
// before splits were recovered at report time. Every solve runs on both
// combine paths (the convex marginal merge and the plain Eq. 1 DP), each
// serial and with the partition groups sharded across a pool. A change to
// the disjoint-union DP's tie-break, or to the order a fold reports its
// children, shows up here as a changed witness hash.

using workload::CardinalityClass;
using workload::DomainClass;
using workload::FamilyInstance;
using workload::FamilyShape;
using workload::FamilySpec;
using workload::HeadClass;

struct LockedSolve {
  double ratio;
  std::int64_t cost;
  std::uint64_t convex_hash;  // universe_convex_merge = true
  std::uint64_t dp_hash;      // universe_convex_merge = false
};

struct LockedInstance {
  std::string name;
  ConjunctiveQuery query;
  Database db;
  AdpStats stats;  // serial; identical at every ratio and on both paths
  int sharded_decompose_nodes;  // under the min_groups = 2 pool
  std::vector<LockedSolve> solves;
};

LockedInstance Family(const FamilySpec& spec, AdpStats stats,
                      int sharded_decompose_nodes,
                      std::vector<LockedSolve> solves) {
  const FamilyInstance inst = workload::MakeFamilyInstance(spec, 11);
  return {inst.name, inst.query, BindRoot(inst), stats,
          sharded_decompose_nodes, std::move(solves)};
}

LockedInstance RandomUq(std::uint64_t seed, AdpStats stats,
                        std::vector<LockedSolve> solves) {
  Rng rng(seed);
  const ConjunctiveQuery q = UQ();
  Database db = RandomDb(q, rng, 40, 6);
  return {"uq" + std::to_string(seed), q, std::move(db), stats, 0,
          std::move(solves)};
}

TEST(UniverseWitnessLock, SeededSolvesKeepTheirWitnesses) {
  const LockedInstance kLocked[] = {
      Family({FamilyShape::kChain, 2, HeadClass::kFull,
              CardinalityClass::kSmall, DomainClass::kMid},
             AdpStats{.singleton_nodes = 66, .universe_nodes = 1,
                      .decompose_nodes = 33, .universe_groups = 33},
             0,
             {{0.10, 4, 0x6411586e19bc9215ULL, 0xdae0fe9adea62618ULL},
              {0.25, 10, 0x7aba8a9e27c3d3e7ULL, 0xfba86bbc432e32c7ULL},
              {0.50, 21, 0x288b4b32ed5f2ac1ULL, 0x0b2d995f280c692bULL},
              {0.75, 36, 0x27dd3d8eb6a38ca5ULL, 0x251adafa01338633ULL}}),
      Family({FamilyShape::kChain, 2, HeadClass::kProjected,
              CardinalityClass::kSmall, DomainClass::kDense},
             AdpStats{.boolean_nodes = 12, .universe_nodes = 1,
                      .universe_groups = 12},
             0,
             {{0.10, 3, 0x72fc3680e2451d1bULL, 0x72fc3680e2451d1bULL},
              {0.25, 10, 0xa21c57295503eebaULL, 0xa21c57295503eebaULL},
              {0.50, 23, 0x929d60ac38ba9820ULL, 0x929d60ac38ba9820ULL},
              {0.75, 38, 0xafb847ec00aff7c8ULL, 0xafb847ec00aff7c8ULL}}),
      Family({FamilyShape::kStar, 4, HeadClass::kFull,
              CardinalityClass::kTiny, DomainClass::kSparse},
             AdpStats{.singleton_nodes = 16, .universe_nodes = 1,
                      .decompose_nodes = 4, .universe_groups = 4},
             4,
             {{0.10, 1, 0x6c0dc0f9bab413e2ULL, 0x6c0dc0f9bab413e2ULL},
              {0.25, 1, 0x6c0740f9baaeceb4ULL, 0x6c0740f9baaeceb4ULL},
              {0.50, 1, 0x6c0740f9baaeceb4ULL, 0x6c0740f9baaeceb4ULL},
              {0.75, 2, 0x39cad33d0497bf68ULL, 0x39cad33d0497bf68ULL}}),
      RandomUq(74,
               AdpStats{.singleton_nodes = 12, .universe_nodes = 1,
                        .decompose_nodes = 6, .universe_groups = 6},
               {{0.10, 2, 0x12185ccbe7352364ULL, 0x0685df79e9ab5a95ULL},
                {0.25, 5, 0x37dae073e4fc805cULL, 0x14f224252ca95598ULL},
                {0.50, 10, 0x3d4928aedaa081e8ULL, 0x74269d197e8bba45ULL},
                {0.75, 16, 0x27e66e27020e58f2ULL, 0x50e4d778bdc03961ULL}}),
      RandomUq(75,
               AdpStats{.singleton_nodes = 12, .universe_nodes = 1,
                        .decompose_nodes = 6, .universe_groups = 6},
               {{0.10, 3, 0x6e01dac800f457c2ULL, 0x253dcd59305d017bULL},
                {0.25, 6, 0xdd24e5b1d7970c11ULL, 0x96d75a0a8fdba5b2ULL},
                {0.50, 12, 0xe9d67fdc8b1c149eULL, 0xc20e86ed1eecce10ULL},
                {0.75, 17, 0x4a1adb255c529356ULL, 0xeaff56cdd6d2445aULL}}),
  };
  ThreadPool pool(4);
  Parallelism par;
  par.min_groups = 2;
  par.run_all = [&pool](std::vector<std::function<void()>> tasks) {
    pool.RunAll(std::move(tasks));
  };
  for (const LockedInstance& locked : kLocked) {
    SCOPED_TRACE(locked.name);
    ASSERT_EQ(ClassifyAdpCase(locked.query, AdpOptions{}),
              AdpCase::kUniverse);
    const DispatchPlan plan = BuildDispatchPlan(locked.query, AdpOptions{});
    AdpOptions count_options;
    count_options.plan = &plan;
    const std::int64_t total =
        ComputeAdp(locked.query, locked.db, 0, count_options).output_count;
    AdpStats sharded_stats = locked.stats;
    sharded_stats.sharded_universe_nodes = 1;
    sharded_stats.sharded_decompose_nodes = locked.sharded_decompose_nodes;
    for (const LockedSolve& want : locked.solves) {
      SCOPED_TRACE(want.ratio);
      const std::int64_t k = std::max<std::int64_t>(
          1, static_cast<std::int64_t>(want.ratio * total));
      for (const bool convex : {true, false}) {
        for (const bool sharded : {false, true}) {
          SCOPED_TRACE(std::string(convex ? "convex" : "dp") +
                       (sharded ? " sharded" : " serial"));
          AdpStats stats;
          AdpOptions options;
          options.plan = &plan;
          options.stats = &stats;
          options.universe_convex_merge = convex;
          if (sharded) options.parallelism = &par;
          const AdpSolution sol =
              ComputeAdp(locked.query, locked.db, k, options);
          EXPECT_EQ(sol.cost, want.cost);
          EXPECT_TRUE(sol.exact);
          EXPECT_EQ(stats, sharded ? sharded_stats : locked.stats);
          EXPECT_EQ(WitnessHash(sol.tuples),
                    convex ? want.convex_hash : want.dp_hash);
        }
      }
    }
  }
}

TEST(UniverseWitnessLock, IntermediateWitnessesOnTheDpPath) {
  // A streamed solve of a root Universe node combined by the plain DP:
  // every per-k witness group is recovered from the fold at report time,
  // must cost exactly the profile entry and remove at least j outputs, and
  // the whole witness sequence is pinned.
  const FamilyInstance inst = workload::MakeFamilyInstance(
      {FamilyShape::kChain, 2, HeadClass::kFull, CardinalityClass::kSmall,
       DomainClass::kMid},
      11);
  const Database db = BindRoot(inst);
  const DispatchPlan plan = BuildDispatchPlan(inst.query, AdpOptions{});
  AdpOptions options;
  options.plan = &plan;
  options.universe_convex_merge = false;
  constexpr std::int64_t kTargets = 60;

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
  std::vector<TupleRef> all;
  for (std::int64_t j = 1; j <= kTargets; ++j) {
    const std::vector<TupleRef>& w = witnesses[j];
    EXPECT_EQ(static_cast<std::int64_t>(w.size()), profile[j]) << "j=" << j;
    EXPECT_GE(CountRemovedOutputs(inst.query, db, w), j) << "j=" << j;
    all.insert(all.end(), w.begin(), w.end());
  }
  EXPECT_EQ(sol.cost, 13);
  EXPECT_EQ(sol.cost, profile[kTargets]);
  EXPECT_EQ(all.size(), 396u);
  EXPECT_EQ(WitnessHash(all), 0xa3a09a99dbacf2c1ULL);
}

}  // namespace
}  // namespace adp
