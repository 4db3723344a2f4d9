// DispatchPlan: one tree per query, walked by position. The tree must hold
// the recursion's decisions, a plan built from a renamed copy must walk
// alike, and every root case must keep its answers whether the solve plans
// the query itself or is handed the engine's plan.

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <string>
#include <vector>

#include "dichotomy/linearize.h"
#include "query/fingerprint.h"
#include "query/parser.h"
#include "query/transform.h"
#include "solver/compute_adp.h"
#include "solver/plan.h"
#include "test_util.h"
#include "util/rng.h"
#include "witness_lock.h"
#include "workload/families.h"

namespace adp {
namespace {

using testing::BindRoot;
using testing::MakeDb;
using testing::RandomDb;
using testing::RandomQuery;
using testing::WitnessHash;

TEST(DispatchPlanTest, LinearBooleanChainCachesArrangement) {
  const auto q = ParseQuery("Q() :- R1(A,B), R2(B,C), R3(C,E)");
  const DispatchPlan plan = BuildDispatchPlan(q, AdpOptions{});
  const PlanNode& root = plan.root();
  EXPECT_EQ(root.op, AdpCase::kBoolean);
  EXPECT_TRUE(root.children.empty());
  ASSERT_TRUE(root.linear_order.has_value());
  EXPECT_TRUE(IsLinearOrder(q, *root.linear_order));
}

TEST(DispatchPlanTest, TriangleBooleanProvesNoArrangement) {
  const auto q = ParseQuery("Q() :- R1(A,B), R2(B,C), R3(C,A)");
  const DispatchPlan plan = BuildDispatchPlan(q, AdpOptions{});
  EXPECT_EQ(plan.root().op, AdpCase::kBoolean);
  EXPECT_FALSE(plan.root().linear_order.has_value());
}

TEST(DispatchPlanTest, UniverseAndDecomposeRecurseIntoResiduals) {
  // A is universal; the residual Q(B,C) :- R1(B), R2(C) is disconnected and
  // splits into two single-atom components, so the tree is the whole chain
  // universe -> decompose -> one leaf per component.
  const auto q = ParseQuery("Q(A,B,C) :- R1(A,B), R2(A,C)");
  const DispatchPlan plan = BuildDispatchPlan(q, AdpOptions{});
  const PlanNode& root = plan.root();
  EXPECT_EQ(root.op, AdpCase::kUniverse);
  EXPECT_EQ(root.key, CanonicalQueryKey(q));
  ASSERT_EQ(root.children.size(), 1u);
  const PlanNode& residual = root.children[0];
  EXPECT_EQ(residual.op, AdpCase::kDecompose);
  EXPECT_EQ(residual.key,
            CanonicalQueryKey(RemoveAttributes(q, q.UniversalAttrs())));
  ASSERT_EQ(residual.children.size(), 2u);
  for (const PlanNode& component : residual.children) {
    EXPECT_EQ(component.op, AdpCase::kSingleton);
    EXPECT_TRUE(component.children.empty());
  }
  EXPECT_EQ(plan.ToString(),
            "universe " + root.key + "\n  decompose " + residual.key +
                "\n    singleton " + residual.children[0].key +
                "\n    singleton " + residual.children[1].key + "\n");
}

TEST(DispatchPlanTest, OneByOneUniversePeelsOneAttributePerLevel) {
  // A and B are both universal: one-by-one removes A, then B, then reaches
  // the disconnected residual.
  const auto q = ParseQuery("Q(A,B,C,E) :- R1(A,B,C), R2(A,B,E)");
  AdpOptions options;
  options.universe_strategy = AdpOptions::UniverseStrategy::kOneByOne;
  options.use_singleton = false;
  const DispatchPlan plan = BuildDispatchPlan(q, options);
  const PlanNode* node = &plan.root();
  for (int level = 0; level < 2; ++level) {
    ASSERT_EQ(node->op, AdpCase::kUniverse) << level;
    ASSERT_EQ(node->children.size(), 1u) << level;
    node = &node->children[0];
  }
  EXPECT_EQ(node->op, AdpCase::kDecompose);
  EXPECT_EQ(node->children.size(), 2u);
}

TEST(DispatchPlanTest, PlanFromRenamedQueryIsInterchangeable) {
  const auto q = ParseQuery("Q(A,B,C,E) :- R1(A,B), R2(B,C), R3(C,E)");
  const auto renamed = ParseQuery("Q(X,Y,Z,W) :- S1(X,Y), S2(Y,Z), S3(Z,W)");
  ASSERT_EQ(CanonicalQueryKey(q), CanonicalQueryKey(renamed));
  const DispatchPlan plan = BuildDispatchPlan(renamed, AdpOptions{});

  const Database db = MakeDb(q, {{"R1", {{11, 21}, {12, 22}, {13, 23}}},
                                 {"R2", {{21, 31}, {22, 32}, {22, 33}, {23, 33}}},
                                 {"R3", {{31, 41}, {32, 43}, {33, 43}}}});
  AdpOptions with_plan;
  with_plan.plan = &plan;
  const AdpSolution planned = ComputeAdp(q, db, 2, with_plan);
  const AdpSolution direct = ComputeAdp(q, db, 2, AdpOptions{});
  EXPECT_EQ(planned.cost, direct.cost);
  EXPECT_EQ(planned.exact, direct.exact);
  EXPECT_EQ(planned.feasible, direct.feasible);
  EXPECT_EQ(planned.output_count, direct.output_count);
  EXPECT_EQ(planned.tuples, direct.tuples);
}

// `q` with every attribute renamed and the attribute ids assigned in
// reverse, so the copy shares q's canonical key but none of its ids.
ConjunctiveQuery RenamedCopy(const ConjunctiveQuery& q) {
  ConjunctiveQuery out;
  const int n = q.num_attributes();
  for (int a = n - 1; a >= 0; --a) out.AddAttribute("x" + q.attr_name(a));
  const auto map = [n](AttrId a) { return static_cast<AttrId>(n - 1 - a); };
  for (int i = 0; i < q.num_relations(); ++i) {
    std::vector<AttrId> attrs;
    for (AttrId a : q.relation(i).attrs) attrs.push_back(map(a));
    out.AddRelation(q.relation(i).name, std::move(attrs));
  }
  AttrSet head;
  for (AttrId a : q.head()) head.Add(map(a));
  out.SetHead(head);
  return out;
}

// Property: the recursion walks the plan by position, so the plan of a
// renamed copy with the same canonical key must give bit-identical answers
// to the query's own plan — the sharing the engine's plan cache relies on.
TEST(DispatchPlanTest, RenamedCopyPlanWalksLikeOwnPlanProperty) {
  Rng rng(20260731);
  for (int trial = 0; trial < 120; ++trial) {
    const ConjunctiveQuery q = RandomQuery(rng, 4, 3);
    const Database db = RandomDb(q, rng, 4, 3);
    const std::int64_t k = static_cast<std::int64_t>(rng.Uniform(4));
    const ConjunctiveQuery copy = RenamedCopy(q);
    ASSERT_EQ(CanonicalQueryKey(copy), CanonicalQueryKey(q))
        << "trial " << trial;

    AdpOptions base;
    if (trial % 3 == 1) base.use_singleton = false;
    if (trial % 4 == 2) {
      base.universe_strategy = AdpOptions::UniverseStrategy::kOneByOne;
    }

    const DispatchPlan own = BuildDispatchPlan(q, base);
    const DispatchPlan renamed = BuildDispatchPlan(copy, base);
    ASSERT_EQ(renamed.ToString(), own.ToString()) << "trial " << trial;
    AdpOptions own_options = base;
    own_options.plan = &own;
    AdpOptions renamed_options = base;
    renamed_options.plan = &renamed;

    const AdpSolution want = ComputeAdp(q, db, k, own_options);
    const AdpSolution got = ComputeAdp(q, db, k, renamed_options);
    ASSERT_EQ(got.cost, want.cost)
        << "trial " << trial << " query " << q.ToString();
    ASSERT_EQ(got.exact, want.exact) << "trial " << trial;
    ASSERT_EQ(got.feasible, want.feasible) << "trial " << trial;
    ASSERT_EQ(got.output_count, want.output_count) << "trial " << trial;
    ASSERT_EQ(got.tuples, want.tuples) << "trial " << trial;
  }
}

// --- Catalog lock -------------------------------------------------------------
//
// Every DefaultFamilyCatalog family (all five root cases) at k = |Q(D)|/4
// and k = |Q(D)|, pinned to the values the solver produced when dispatch
// still looked each node up by canonical key. Each solve runs twice: with
// no plan (ComputeAdp plans the query) and with the engine's plan of the
// residual. Boolean roots have |Q(D)| = 1, so their two targets coincide.

struct CatalogSolve {
  std::int64_t k;
  std::int64_t cost;
  bool exact;
  AdpStats stats;
  std::uint64_t witness_hash;
};

struct CatalogLock {
  const char* name;
  std::int64_t total;
  CatalogSolve solves[2];
};

TEST(DispatchPlanCatalogLock, EveryRootCaseKeepsItsAnswers) {
  const AdpStats kChain2Full{.singleton_nodes = 66, .universe_nodes = 1,
                             .decompose_nodes = 33, .universe_groups = 33};
  const AdpStats kChain2Proj{.boolean_nodes = 12, .universe_nodes = 1,
                             .universe_groups = 12};
  const AdpStats kStar4Full{.singleton_nodes = 16, .universe_nodes = 1,
                            .decompose_nodes = 4, .universe_groups = 4};
  const AdpStats kDisc3Full{.singleton_nodes = 218, .universe_nodes = 3,
                            .decompose_nodes = 110, .universe_groups = 109};
  const AdpStats kGreedyLeaf{.greedy_leaves = 1};
  const CatalogLock kLocked[] = {
      {"chain3.bool.small.mid", 1,
       {{1, 49, true, {.boolean_nodes = 1}, 0x7e262544ebd655e6ULL},
        {1, 49, true, {.boolean_nodes = 1}, 0x7e262544ebd655e6ULL}}},
      {"chain2.full.small.mid", 187,
       {{46, 10, true, kChain2Full, 0x7aba8a9e27c3d3e7ULL},
        {187, 57, true, kChain2Full, 0xa32ad09c72cbc4beULL}}},
      {"chain2.proj.small.dense", 12,
       {{3, 10, true, kChain2Proj, 0xa21c57295503eebaULL},
        {12, 57, true, kChain2Proj, 0x042636f496b08a00ULL}}},
      {"star3.proj.small.mid", 33,
       {{8, 8, true, {.singleton_nodes = 1}, 0x43d8d380adbff466ULL},
        {33, 33, true, {.singleton_nodes = 1}, 0xaa0d63b617a092dfULL}}},
      {"star4.full.tiny.sparse", 13,
       {{3, 1, true, kStar4Full, 0x6c0740f9baaeceb4ULL},
        {13, 4, true, kStar4Full, 0x3573f28fe6807af1ULL}}},
      {"disc3.full.small.mid", 7524000,
       {{1881000, 10, true, kDisc3Full, 0x443c8c51a919fa24ULL},
        {7524000, 58, true, kDisc3Full, 0xbcb20a1b208f31c6ULL}}},
      {"cycle3.bool.tiny.dense", 1,
       {{1, 14, false,
         {.boolean_nodes = 1, .boolean_fallbacks = 1, .greedy_leaves = 1},
         0x8e44752bd9beb035ULL},
        {1, 14, false,
         {.boolean_nodes = 1, .boolean_fallbacks = 1, .greedy_leaves = 1},
         0x8e44752bd9beb035ULL}}},
      {"chain3.full.tiny.sparse", 10,
       {{2, 1, false, kGreedyLeaf, 0x6c0a38f9bab0f6f3ULL},
        {10, 8, false, kGreedyLeaf, 0xde0ee21c25cb60efULL}}},
      {"cycle3.full.tiny.sparse", 4,
       {{1, 1, false, kGreedyLeaf, 0x6c0dc0f9bab413e2ULL},
        {4, 4, false, kGreedyLeaf, 0x3573f28fe6807af1ULL}}},
  };
  const std::vector<workload::FamilySpec> catalog =
      workload::DefaultFamilyCatalog();
  ASSERT_EQ(catalog.size(), std::size(kLocked));
  for (std::size_t f = 0; f < catalog.size(); ++f) {
    const CatalogLock& locked = kLocked[f];
    const workload::FamilyInstance inst =
        workload::MakeFamilyInstance(catalog[f], 11);
    ASSERT_EQ(inst.name, locked.name);
    SCOPED_TRACE(inst.name);
    const Database db = BindRoot(inst);
    const ConjunctiveQuery residual =
        RemoveAttributes(inst.query, inst.query.SelectedAttrs());
    const DispatchPlan plan = BuildDispatchPlan(residual, AdpOptions{});
    const std::int64_t total = ComputeAdp(inst.query, db, 0).output_count;
    ASSERT_EQ(total, locked.total);
    const std::int64_t targets[] = {std::max<std::int64_t>(1, total / 4),
                                    total};
    for (int t = 0; t < 2; ++t) {
      const CatalogSolve& want = locked.solves[t];
      ASSERT_EQ(want.k, targets[t]);
      for (const DispatchPlan* given :
           std::initializer_list<const DispatchPlan*>{nullptr, &plan}) {
        SCOPED_TRACE(std::string("k=") + std::to_string(want.k) +
                     (given == nullptr ? " unplanned" : " planned"));
        AdpStats stats;
        AdpOptions options;
        options.stats = &stats;
        options.plan = given;
        const AdpSolution sol = ComputeAdp(inst.query, db, want.k, options);
        EXPECT_TRUE(sol.feasible);
        EXPECT_EQ(sol.cost, want.cost);
        EXPECT_EQ(sol.exact, want.exact);
        EXPECT_EQ(stats, want.stats);
        EXPECT_EQ(WitnessHash(sol.tuples), want.witness_hash);
      }
    }
  }
}

}  // namespace
}  // namespace adp
