// CostProfile tests: invariants, convexity, and both combination semantics
// against brute-force convolutions, plus DisjointSplit's and ProductSplit's
// witness splits against the split tables and per-target scans they
// replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "solver/profile.h"
#include "util/rng.h"

namespace adp {
namespace {

TEST(ProfileTest, TrivialProfile) {
  CostProfile p;
  EXPECT_EQ(p.kmax(), 0);
  EXPECT_EQ(p.At(0), 0);
  EXPECT_EQ(p.At(1), kInfCost);
  EXPECT_FALSE(p.Feasible(1));
}

TEST(ProfileTest, AtAndMaxRemovedWithin) {
  CostProfile p({0, 1, 1, 3, 7});
  EXPECT_EQ(p.kmax(), 4);
  EXPECT_EQ(p.At(2), 1);
  EXPECT_EQ(p.MaxRemovedWithin(0), 0);
  EXPECT_EQ(p.MaxRemovedWithin(1), 2);
  EXPECT_EQ(p.MaxRemovedWithin(3), 3);
  EXPECT_EQ(p.MaxRemovedWithin(100), 4);
}

TEST(ProfileTest, ConvexityDetection) {
  EXPECT_TRUE(CostProfile({0, 1, 2, 3}).IsConvex());
  EXPECT_TRUE(CostProfile({0, 0, 1, 3, 6}).IsConvex());
  EXPECT_FALSE(CostProfile({0, 3, 3, 4}).IsConvex());  // inc 3 then 0
  EXPECT_TRUE(CostProfile({0}).IsConvex());
}

TEST(ProfileTest, TruncateTo) {
  CostProfile p({0, 1, 2, 3});
  p.TruncateTo(2);
  EXPECT_EQ(p.kmax(), 2);
  p.TruncateTo(10);  // no-op
  EXPECT_EQ(p.kmax(), 2);
}

TEST(ProfileTest, SaturatingArithmetic) {
  EXPECT_EQ(SatMul(kMaxOutputs, 2), kMaxOutputs);
  EXPECT_EQ(SatMul(3, 4), 12);
  EXPECT_EQ(SatMul(0, kMaxOutputs), 0);
  EXPECT_EQ(SatAdd(kMaxOutputs, 1), kMaxOutputs);
  EXPECT_EQ(SatAdd(3, 4), 7);
}

TEST(CombineDisjointTest, SimpleMerge) {
  // a removes outputs at cost 1 each; b removes 2 outputs for cost 1.
  const CostProfile a({0, 1, 2});
  const CostProfile b({0, 1, 1});
  const CostProfile c = CombineDisjoint(a, b, 4);
  EXPECT_EQ(c.At(1), 1);
  EXPECT_EQ(c.At(2), 1);  // take b's pair
  EXPECT_EQ(c.At(3), 2);  // b pair + one from a
  EXPECT_EQ(c.At(4), 3);
  const SplitChoice split = DisjointSplit(a, b, 2);
  EXPECT_EQ(split.cost, 1);
  EXPECT_EQ(split.k2, 2);  // 2 outputs from b
  EXPECT_EQ(split.k1, 0);
}

TEST(CombineDisjointTest, MatchesBruteForce) {
  Rng rng(77);
  for (int iter = 0; iter < 50; ++iter) {
    auto random_profile = [&](int len) {
      std::vector<std::int64_t> c = {0};
      for (int i = 1; i <= len; ++i) {
        c.push_back(c.back() + static_cast<std::int64_t>(rng.Uniform(4)));
      }
      return CostProfile(c);
    };
    const CostProfile a = random_profile(static_cast<int>(rng.Uniform(6)));
    const CostProfile b = random_profile(static_cast<int>(rng.Uniform(6)));
    const std::int64_t cap = a.kmax() + b.kmax();
    const CostProfile c = CombineDisjoint(a, b, cap);
    for (std::int64_t j = 0; j <= cap; ++j) {
      std::int64_t want = kInfCost;
      for (std::int64_t m = 0; m <= j; ++m) {
        if (a.Feasible(j - m) && b.Feasible(m)) {
          want = std::min(want, a.At(j - m) + b.At(m));
        }
      }
      EXPECT_EQ(c.At(j), want) << "j=" << j;
    }
  }
}

TEST(CombineProductTest, TwoByTwoCrossProduct) {
  // Two factors with 2 outputs each, unit cost per removed output.
  const CostProfile a({0, 1, 2});
  const CostProfile b({0, 1, 2});
  const CostProfile c =
      CombineProduct(a, 2, b, 2, 4, /*naive_inner=*/false);
  // Removing 1 of a's outputs removes 2 products.
  EXPECT_EQ(c.At(1), 1);
  EXPECT_EQ(c.At(2), 1);
  // 3 products: kill one whole factor output (2 products) + one more needs
  // k1=1,k2=1 -> removed = 1*2+1*2-1 = 3, cost 2.
  EXPECT_EQ(c.At(3), 2);
  // All 4: cheapest is both outputs of one factor (cost 2).
  EXPECT_EQ(c.At(4), 2);
}

TEST(CombineProductTest, ImprovedMatchesNaive) {
  Rng rng(99);
  for (int iter = 0; iter < 60; ++iter) {
    auto random_profile = [&](std::int64_t m) {
      std::vector<std::int64_t> c = {0};
      for (std::int64_t i = 1; i <= m; ++i) {
        c.push_back(c.back() + 1 +
                    static_cast<std::int64_t>(rng.Uniform(3)));
      }
      return CostProfile(c);
    };
    const std::int64_t ma = 1 + static_cast<std::int64_t>(rng.Uniform(5));
    const std::int64_t mb = 1 + static_cast<std::int64_t>(rng.Uniform(5));
    const CostProfile a = random_profile(ma);
    const CostProfile b = random_profile(mb);
    const std::int64_t cap = ma * mb;
    const CostProfile fast =
        CombineProduct(a, ma, b, mb, cap, /*naive_inner=*/false);
    const CostProfile slow =
        CombineProduct(a, ma, b, mb, cap, /*naive_inner=*/true);
    for (std::int64_t j = 0; j <= cap; ++j) {
      EXPECT_EQ(fast.At(j), slow.At(j)) << "iter " << iter << " j=" << j;
    }
  }
}

TEST(CombineProductTest, ChoiceReconstructsCost) {
  const CostProfile a({0, 2, 5});
  const CostProfile b({0, 1, 4, 6});
  const CostProfile c = CombineProduct(a, 2, b, 3, 6, false);
  for (std::int64_t j = 1; j <= c.kmax(); ++j) {
    const SplitChoice split = ProductSplit(a, 2, b, 3, j);
    EXPECT_EQ(split.cost, c.At(j)) << j;
    EXPECT_EQ(a.At(split.k1) + b.At(split.k2), c.At(j)) << j;
    EXPECT_GE(split.k1 * 3 + split.k2 * 2 - split.k1 * split.k2, j) << j;
  }
}

// The per-target scan CombineProduct's improved path ran before it switched
// to pair enumeration, kept here as the tie-break reference: ProductSplit
// must pick the very split this loop recorded, or witnesses would change.
SplitChoice ReferenceSplit(const CostProfile& a, std::int64_t ma,
                           const CostProfile& b, std::int64_t mb,
                           std::int64_t j) {
  auto removed = [&](std::int64_t k1, std::int64_t k2) {
    return SatAdd(SatMul(k1, mb - k2), SatMul(k2, ma));
  };
  SplitChoice best;
  const std::int64_t k2_hi = std::min(b.kmax(), std::min(mb, j));
  for (std::int64_t k2 = 0; k2 <= k2_hi; ++k2) {
    const std::int64_t cb = b.At(k2);
    if (cb >= kInfCost) break;
    std::int64_t k1;
    if (k2 >= mb) {
      k1 = 0;
    } else {
      const std::int64_t need = j - SatMul(k2, ma);
      if (need <= 0) {
        k1 = 0;
      } else {
        const std::int64_t den = mb - k2;
        k1 = (need + den - 1) / den;
      }
    }
    if (k1 > ma || k1 > a.kmax()) continue;
    if (removed(k1, k2) < j) continue;
    const std::int64_t c = a.At(k1) + cb;
    if (c < best.cost) best = {c, k1, k2};
  }
  return best;
}

// The root single-target loop SolveDecomposeSingleK ran before it called
// ProductSplit: k2 up to b.kmax(), no k1 <= ma bound, no removed >= j guard.
SplitChoice ReferenceRootSplit(const CostProfile& a, std::int64_t ma,
                               const CostProfile& b, std::int64_t mb,
                               std::int64_t j) {
  SplitChoice best;
  for (std::int64_t k2 = 0; k2 <= b.kmax(); ++k2) {
    std::int64_t k1;
    if (k2 >= mb) {
      k1 = 0;
    } else {
      const std::int64_t need = j - SatMul(k2, ma);
      if (need <= 0) {
        k1 = 0;
      } else {
        const std::int64_t den = mb - k2;
        k1 = (need + den - 1) / den;
      }
    }
    if (k1 > a.kmax()) continue;
    const std::int64_t c = a.At(k1) + b.At(k2);
    if (c < best.cost) best = {c, k1, k2};
  }
  return best;
}

void ExpectSameChoice(const SplitChoice& got, const SplitChoice& want,
                      std::int64_t j) {
  EXPECT_EQ(got.cost, want.cost) << "j=" << j;
  EXPECT_EQ(got.k1, want.k1) << "j=" << j;
  EXPECT_EQ(got.k2, want.k2) << "j=" << j;
}

// A profile for a factor with `m` outputs covering kmax <= m, with runs of
// zero increments (ties) and, sometimes, a kInfCost suffix (targets a
// restricted leaf cannot reach).
CostProfile TieHeavyProfile(Rng& rng, std::int64_t m) {
  const std::int64_t kmax =
      rng.Uniform(3) == 0 ? static_cast<std::int64_t>(rng.Uniform(m + 1)) : m;
  const std::int64_t inf_from =
      rng.Uniform(4) == 0 ? 1 + static_cast<std::int64_t>(rng.Uniform(m + 1))
                          : kmax + 1;
  std::vector<std::int64_t> c = {0};
  for (std::int64_t i = 1; i <= kmax; ++i) {
    if (i >= inf_from) {
      c.push_back(kInfCost);
    } else {
      const bool tie = rng.Uniform(2) == 0;
      c.push_back(c.back() +
                  (tie ? 0 : 1 + static_cast<std::int64_t>(rng.Uniform(3))));
    }
  }
  return CostProfile(c);
}

// CombineProduct (both paths) against the literal all-pairs minimum, and
// ProductSplit against the reference scan, at every target up to `cap`.
void ExpectMatchesAllPairs(const CostProfile& a, std::int64_t ma,
                           const CostProfile& b, std::int64_t mb,
                           std::int64_t cap) {
  std::vector<std::pair<std::int64_t, std::int64_t>> pairs;  // removed, cost
  for (std::int64_t k1 = 0; k1 <= a.kmax(); ++k1) {
    for (std::int64_t k2 = 0; k2 <= b.kmax(); ++k2) {
      if (!a.Feasible(k1) || !b.Feasible(k2)) continue;
      pairs.push_back({k1 * mb + k2 * ma - k1 * k2, a.At(k1) + b.At(k2)});
    }
  }
  const CostProfile fast = CombineProduct(a, ma, b, mb, cap, false);
  const CostProfile naive = CombineProduct(a, ma, b, mb, cap, true);
  ASSERT_EQ(fast.kmax(), cap);
  ASSERT_EQ(naive.kmax(), cap);
  for (std::int64_t j = 0; j <= cap; ++j) {
    std::int64_t want = kInfCost;
    for (const auto& [removed, cost] : pairs) {
      if (removed >= j) want = std::min(want, cost);
    }
    ASSERT_EQ(fast.At(j), want) << "j=" << j;
    ASSERT_EQ(naive.At(j), want) << "j=" << j;
    const SplitChoice split = ProductSplit(a, ma, b, mb, j);
    ExpectSameChoice(split, ReferenceSplit(a, ma, b, mb, j), j);
    ASSERT_EQ(split.cost, want) << "j=" << j;
  }
}

// CombineDisjoint's split table before splits moved to report time, kept
// as the tie-break reference: choice[j] is the m taken from `b`, the first
// strict minimum of an ascending scan. DisjointSplit must pick the very
// same m, or Universe witnesses would change.
std::vector<std::int64_t> ReferenceDisjointChoices(const CostProfile& a,
                                                   const CostProfile& b,
                                                   std::int64_t cap) {
  const std::int64_t out_kmax = std::min(cap, a.kmax() + b.kmax());
  std::vector<std::int64_t> out(static_cast<std::size_t>(out_kmax) + 1,
                                kInfCost);
  std::vector<std::int64_t> choice(out.size(), 0);
  for (std::int64_t j = 0; j <= out_kmax; ++j) {
    const std::int64_t mmax = std::min(j, b.kmax());
    const std::int64_t mmin = std::max<std::int64_t>(0, j - a.kmax());
    for (std::int64_t m = mmin; m <= mmax; ++m) {
      const std::int64_t c = a.At(j - m) + b.At(m);
      if (c < out[j]) {
        out[j] = c;
        choice[j] = m;
      }
    }
  }
  return choice;
}

TEST(DisjointSplitTest, MatchesTheSplitTable) {
  // Tie-heavy profiles with kInfCost suffixes, caps mostly below
  // a.kmax() + b.kmax().
  Rng rng(4242);
  for (int iter = 0; iter < 200; ++iter) {
    SCOPED_TRACE(iter);
    const CostProfile a =
        TieHeavyProfile(rng, static_cast<std::int64_t>(rng.Uniform(30)));
    const CostProfile b =
        TieHeavyProfile(rng, static_cast<std::int64_t>(rng.Uniform(30)));
    const std::int64_t full = a.kmax() + b.kmax();
    const std::int64_t cap =
        rng.Uniform(4) == 0 ? full
                            : static_cast<std::int64_t>(rng.Uniform(full + 1));
    const CostProfile c = CombineDisjoint(a, b, cap);
    const std::vector<std::int64_t> choice =
        ReferenceDisjointChoices(a, b, cap);
    ASSERT_EQ(c.kmax(), std::min(cap, full));
    for (std::int64_t j = 0; j <= c.kmax(); ++j) {
      std::int64_t want = kInfCost;
      for (std::int64_t m = 0; m <= j; ++m) {
        if (a.Feasible(j - m) && b.Feasible(m)) {
          want = std::min(want, a.At(j - m) + b.At(m));
        }
      }
      const SplitChoice split = DisjointSplit(a, b, j);
      ASSERT_EQ(c.At(j), want) << "j=" << j;
      ASSERT_EQ(split.cost, want) << "j=" << j;
      ASSERT_EQ(split.k2, choice[j]) << "j=" << j;
      ASSERT_EQ(split.k1, j - choice[j]) << "j=" << j;
      if (want < kInfCost) {
        ASSERT_EQ(a.At(split.k1) + b.At(split.k2), want) << "j=" << j;
      }
    }
  }
}

TEST(CombineProductTest, MatchesExhaustivePairEnumeration) {
  Rng rng(123);
  for (int iter = 0; iter < 40; ++iter) {
    SCOPED_TRACE(iter);
    auto random_profile = [&](std::int64_t m) {
      std::vector<std::int64_t> c = {0};
      for (std::int64_t i = 1; i <= m; ++i) {
        c.push_back(c.back() + static_cast<std::int64_t>(rng.Uniform(4)));
      }
      return CostProfile(c);
    };
    const std::int64_t ma = 1 + static_cast<std::int64_t>(rng.Uniform(4));
    const std::int64_t mb = 1 + static_cast<std::int64_t>(rng.Uniform(4));
    const CostProfile a = random_profile(ma);
    const CostProfile b = random_profile(mb);
    ExpectMatchesAllPairs(a, ma, b, mb, ma * mb);
  }
  // Sizes where the early k1 break and the cap both bite: ma, mb up to 60,
  // caps mostly below ma*mb, tie-heavy profiles, kInfCost suffixes.
  Rng big(2024);
  for (int iter = 0; iter < 60; ++iter) {
    SCOPED_TRACE(100 + iter);
    const std::int64_t ma = 1 + static_cast<std::int64_t>(big.Uniform(60));
    const std::int64_t mb = 1 + static_cast<std::int64_t>(big.Uniform(60));
    const CostProfile a = TieHeavyProfile(big, ma);
    const CostProfile b = TieHeavyProfile(big, mb);
    const std::int64_t cap =
        big.Uniform(4) == 0
            ? ma * mb
            : 1 + static_cast<std::int64_t>(big.Uniform(ma * mb));
    ExpectMatchesAllPairs(a, ma, b, mb, cap);
  }
}

TEST(ProductSplitTest, MatchesRootLoopWithinItsPreconditions) {
  // The root path folds children capped at min(m, k), so b.kmax() <=
  // min(mb, k), a.kmax() <= ma and 1 <= k <= ma*mb: there the old root loop
  // and ProductSplit pick the same split.
  Rng rng(31);
  for (int iter = 0; iter < 200; ++iter) {
    const std::int64_t ma = 1 + static_cast<std::int64_t>(rng.Uniform(12));
    const std::int64_t mb = 1 + static_cast<std::int64_t>(rng.Uniform(12));
    const std::int64_t k = 1 + static_cast<std::int64_t>(rng.Uniform(ma * mb));
    CostProfile a = TieHeavyProfile(rng, ma);
    CostProfile b = TieHeavyProfile(rng, mb);
    a.TruncateTo(k);
    b.TruncateTo(k);
    ExpectSameChoice(ProductSplit(a, ma, b, mb, k),
                     ReferenceRootSplit(a, ma, b, mb, k), k);
  }
}

TEST(ProductSplitTest, ScansK2OnlyUpToTarget) {
  // b covers more removals than the target needs. k2 = 2 already kills
  // 2*ma >= j outputs with k1 = 0; larger k2 can only tie, so the split
  // stops at k2 <= j and still agrees with the unbounded root loop.
  const CostProfile a({0, 5});
  const CostProfile b({0, 3, 3, 3, 3});
  const SplitChoice split = ProductSplit(a, 1, b, 4, 2);
  EXPECT_EQ(split.cost, 3);
  EXPECT_EQ(split.k1, 0);
  EXPECT_EQ(split.k2, 2);
  ExpectSameChoice(split, ReferenceRootSplit(a, 1, b, 4, 2), 2);
}

TEST(ProductSplitTest, RejectsK1BeyondFactorSize) {
  // a claims more removals (kmax 5) than its factor has outputs (ma = 2).
  // Target 3 exceeds the 2 products: k1 = 3 > ma is rejected and k2 = mb
  // removes only ma*mb = 2 < 3, so the target is unreachable. The root
  // loop, which lacks both checks, would report a bogus cost-1 split.
  const CostProfile a({0, 1, 2, 3, 4, 5});
  const CostProfile b({0, 1});
  const SplitChoice split = ProductSplit(a, 2, b, 1, 3);
  EXPECT_EQ(split.cost, kInfCost);
  EXPECT_EQ(ReferenceRootSplit(a, 2, b, 1, 3).cost, 1);
}

TEST(ProductSplitTest, SaturatedRemovalsDoNotReachBeyondTheCap) {
  // ma*mb saturates at kMaxOutputs. Target kMaxOutputs is reachable by
  // removing one b output (k2 = 1 kills ma = kMaxOutputs products); target
  // kMaxOutputs + 1 is not, and only the removed >= j guard says so: the
  // closed form's k1 = 1 at k2 = 1 looks feasible before saturation.
  const CostProfile a({0, 1, 2});
  const CostProfile b({0, 1, 2});
  const SplitChoice at_cap = ProductSplit(a, kMaxOutputs, b, 2, kMaxOutputs);
  EXPECT_EQ(at_cap.cost, 1);
  EXPECT_EQ(at_cap.k1, 0);
  EXPECT_EQ(at_cap.k2, 1);
  EXPECT_EQ(ProductSplit(a, kMaxOutputs, b, 2, kMaxOutputs + 1).cost,
            kInfCost);
  EXPECT_EQ(ReferenceRootSplit(a, kMaxOutputs, b, 2, kMaxOutputs + 1).cost,
            2);
}

}  // namespace
}  // namespace adp
