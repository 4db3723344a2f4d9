// Universe(Q, D, k) (Algorithm 4): partition the instance by the universal
// attributes, solve each class recursively, and combine the per-class cost
// profiles under disjoint-union semantics (Eq. 1).
//
// Optimizations (§7.3):
//   * all universal attributes are removed as one combined attribute
//     (UniverseStrategy::kAllAtOnce); the one-by-one strategy is kept for
//     the Figure 28 ablation;
//   * when every class profile is convex (e.g. classes solved by Singleton)
//     the DP degenerates to a global merge of marginal gains, which is what
//     makes the paper's "improved" strategy near-linear.
//
// The per-class sub-solves are independent (disjoint sub-instances). They
// share Decompose's child template (solver/children.h): one fan-out, sharded
// with AdpOptions::parallelism, and one fold whose reporters recover each
// split at report time with DisjointSplit instead of a split table.

#ifndef ADP_SOLVER_UNIVERSE_H_
#define ADP_SOLVER_UNIVERSE_H_

#include "query/query.h"
#include "relational/database.h"
#include "solver/compute_adp.h"

namespace adp {

/// The attributes a Universe node over `q` partitions on and removes: every
/// universal attribute, or under UniverseStrategy::kOneByOne (Figure 28
/// strategy 1) the first one in body order — a choice made on query
/// structure alone, so plans built from renamed copies walk alike.
AttrSet UniverseAttrs(const ConjunctiveQuery& q, const AdpOptions& options);

/// Builds the recursion node. Precondition: q.UniversalAttrs() nonempty and
/// `plan` is q's Universe plan node; every group solves its child 0.
AdpNode UniverseNode(const ConjunctiveQuery& q, const Database& db,
                     std::int64_t cap, const AdpOptions& options,
                     const PlanNode& plan);

}  // namespace adp

#endif  // ADP_SOLVER_UNIVERSE_H_
