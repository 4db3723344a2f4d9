// Decompose(Q, D, k) (Algorithm 5): solve each connected subquery
// recursively and combine under cross-product semantics.
//
// Three combination strategies are provided (Figure 29 ablation):
//   * kImprovedDP       — §7.3 recurrence evaluated over (k1, k2) pairs,
//                         each visited once (CombineProduct);
//   * kPairwiseNaive    — Algorithm 5 as printed, enumerating (k1, k2);
//   * kFullEnumeration  — Eq. 2 of Lemma 3: enumerate all (k1..ks) vectors.
//
// Witness splits are not tabulated: the fold shared with Universe
// (solver/children.h) re-derives the (k1, k2) split of the one target a
// reporter serves with ProductSplit, level by level.
//
// The root of a ComputeADP call additionally uses a single-target split
// (SolveDecomposeSingleK) that avoids materializing a profile of length k —
// essential when k is a fraction of a cross-product-sized |Q(D)|.
//
// When AdpOptions::parallelism is set (Parallelism::min_components > 0),
// the per-component sub-solves of a node with enough components fan out
// through the fan-out shared with Universe; the cross-product DP that
// combines their profiles stays on the calling thread, so results are
// bitwise-identical (AdpStats::sharded_decompose_nodes reports engagement).

#ifndef ADP_SOLVER_DECOMPOSE_H_
#define ADP_SOLVER_DECOMPOSE_H_

#include <cstdint>
#include <vector>

#include "query/query.h"
#include "relational/database.h"
#include "solver/compute_adp.h"

namespace adp {

/// Builds the recursion node with a full profile up to `cap`.
/// Precondition: q is disconnected (>= 2 components) and `plan` is q's
/// Decompose plan node; component i solves its child i.
AdpNode DecomposeNode(const ConjunctiveQuery& q, const Database& db,
                      std::int64_t cap, const AdpOptions& options,
                      const PlanNode& plan);

/// Result of the root-optimized single-target solve.
struct DecomposeSingleResult {
  std::int64_t cost = kInfCost;
  bool exact = true;
  std::vector<TupleRef> tuples;  // empty when counting_only
};

/// Solves exactly one target k at the recursion root. Preconditions as for
/// DecomposeNode, and 1 <= k <= |Q(D)|.
DecomposeSingleResult SolveDecomposeSingleK(const ConjunctiveQuery& q,
                                            const Database& db,
                                            std::int64_t k,
                                            const AdpOptions& options,
                                            const PlanNode& plan);

}  // namespace adp

#endif  // ADP_SOLVER_DECOMPOSE_H_
