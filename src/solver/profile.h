// Cost profiles: the common currency of the ComputeADP dynamic programs.
//
// A CostProfile for a subproblem (Q', D') stores, for j = 0..kmax,
//   cost[j] = number of input tuples the sub-solver needs to delete to
//             remove at least j outputs from Q'(D').
// Profiles are nondecreasing with cost[0] = 0. For exact sub-solvers the
// entries are optimal; for heuristic leaves they are feasible upper bounds.
//
// Two combination semantics occur in the paper:
//   * disjoint union (Universe, Eq. 1): removed outputs add up;
//   * cross product (Decompose, Alg. 5): removing k1 of m1 and k2 of m2
//     outputs removes k1*m2 + k2*m1 - k1*k2 of the m1*m2 products.
//
// CombineProduct evaluates the §7.3 "improved" cross-product DP output-
// sensitively: every feasible pair (k1, k2) is visited once, its cost lands
// in the bucket r = min(removed, K), and one suffix-min pass turns the
// buckets into the profile. The k1 loop stops once r reaches K (removed is
// nondecreasing in k1), so the work is O(min(ka, K+1)*kb + K) rather than
// one kb-long scan per target. No split table is kept: DisjointSplit and
// ProductSplit recover the split of the one target a reporter asks for.

#ifndef ADP_SOLVER_PROFILE_H_
#define ADP_SOLVER_PROFILE_H_

#include <cstdint>
#include <vector>

#include "util/saturating.h"

namespace adp {

/// Sentinel for "not achievable at this node".
inline constexpr std::int64_t kInfCost = std::int64_t{1} << 60;

class CostProfile {
 public:
  /// The trivial profile {0}: nothing to remove, nothing removable.
  CostProfile() : cost_(1, 0) {}

  /// Wraps an explicit cost vector. Requires cost[0] == 0 and entries
  /// nondecreasing (checked in debug builds).
  explicit CostProfile(std::vector<std::int64_t> cost);

  /// Largest j the profile covers.
  std::int64_t kmax() const {
    return static_cast<std::int64_t>(cost_.size()) - 1;
  }

  /// cost[j], or kInfCost beyond kmax.
  std::int64_t At(std::int64_t j) const {
    return (j >= 0 && j <= kmax()) ? cost_[j] : kInfCost;
  }

  bool Feasible(std::int64_t j) const { return At(j) < kInfCost; }

  /// Largest j with cost[j] <= budget (profiles are nondecreasing).
  std::int64_t MaxRemovedWithin(std::int64_t budget) const;

  /// True if marginal costs are nonincreasing in value terms — i.e. the
  /// increments cost[j+1]-cost[j] are nondecreasing in j.
  bool IsConvex() const;

  /// True if the gains-per-unit-budget sequence
  ///   g_c = MaxRemovedWithin(c) - MaxRemovedWithin(c-1)
  /// is nonincreasing. Such profiles behave like a list of unit-cost items
  /// with nonincreasing profits (Singleton case 1, vacuum relations), which
  /// is exactly the precondition for the greedy marginal-merge combination
  /// under disjoint union (classic concave resource allocation).
  bool HasConcaveGains() const;

  /// Shrinks the profile to kmax = cap (no-op if already smaller).
  void TruncateTo(std::int64_t cap);

  const std::vector<std::int64_t>& costs() const { return cost_; }

 private:
  std::vector<std::int64_t> cost_;
};

/// The cheapest split of one combined target j: k1 from the `a` operand,
/// k2 from the `b` operand.
struct SplitChoice {
  std::int64_t cost = kInfCost;  // a[k1] + b[k2]; kInfCost if unreachable
  std::int64_t k1 = 0;
  std::int64_t k2 = 0;
};

/// Disjoint-union combination up to `cap`:
///   out[j] = min over m of a[j-m] + b[m].
CostProfile CombineDisjoint(const CostProfile& a, const CostProfile& b,
                            std::int64_t cap);

/// The split behind CombineDisjoint(a, b, ...)[j], k2 = m from `b`: the
/// first strict minimum of CombineDisjoint's ascending scan over m, so
/// witnesses are deterministic. Unreachable j gives {kInfCost, j, 0}.
SplitChoice DisjointSplit(const CostProfile& a, const CostProfile& b,
                          std::int64_t j);

/// Cross-product combination up to `cap`, where `a` governs a factor with
/// `ma` outputs and `b` a factor with `mb` outputs:
///   out[j] = min over (k1,k2) with k1*mb + k2*ma - k1*k2 >= j
///            of a[k1] + b[k2].
/// `naive_inner` selects the paper's original per-target O(j^2) enumeration
/// instead of the pair-bucketed scan (used by the Fig. 29 ablation).
CostProfile CombineProduct(const CostProfile& a, std::int64_t ma,
                           const CostProfile& b, std::int64_t mb,
                           std::int64_t cap, bool naive_inner);

/// Recovers the split behind CombineProduct(a, ma, b, mb, ...)[j]: for each
/// k2 ascending, the minimal feasible k1 in closed form; the first strict
/// minimum wins, which keeps witnesses deterministic. O(min(kb, j)).
SplitChoice ProductSplit(const CostProfile& a, std::int64_t ma,
                         const CostProfile& b, std::int64_t mb,
                         std::int64_t j);

}  // namespace adp

#endif  // ADP_SOLVER_PROFILE_H_
