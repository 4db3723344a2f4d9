// Cacheable dispatch plans for ComputeADP (Algorithm 2).
//
// Every decision Algorithm 2 makes about *which* case to apply is a function
// of query structure alone: the boolean test, the singleton test, universal
// attributes, and connectivity never look at the data. The recursion's
// derived queries are likewise data-independent — all Universe groups share
// one residual query, and Decompose's components are fixed by the body's
// join graph. A DispatchPlan is that skeleton as one tree: each node holds
// the case chosen for its query and, for boolean nodes, the linear
// arrangement found by the exhaustive permutation search in §7.1 — the
// single most expensive piece of query-complexity work — plus one child per
// derived query.
//
// The recursion walks the tree by position: a Universe node hands child 0 to
// every partition group, a Decompose node hands child i to component i.
// Nothing is classified, hashed or looked up at solve time; ComputeAdp
// builds the plan itself when AdpOptions::plan is null. Plans are immutable
// after construction, so one instance may serve any number of concurrent
// solves.

#ifndef ADP_SOLVER_PLAN_H_
#define ADP_SOLVER_PLAN_H_

#include <optional>
#include <string>
#include <vector>

#include "query/query.h"
#include "solver/compute_adp.h"

namespace adp {

/// The decision for one node of the ComputeADP recursion.
struct PlanNode {
  AdpCase op = AdpCase::kHeuristic;

  /// Canonical key of the node's query (query/fingerprint.h), for ToString.
  std::string key;

  /// Boolean nodes only: the linear arrangement, or nullopt if the
  /// permutation search proved none exists (the solver then goes straight
  /// to the greedy fallback).
  std::optional<std::vector<int>> linear_order;

  /// One per derived query, in the order the solver derives them: Universe
  /// has one (the residual every group solves), Decompose one per
  /// DecomposeQuery component. Leaves have none.
  std::vector<PlanNode> children;
};

/// The data-independent skeleton of one ComputeADP recursion.
class DispatchPlan {
 public:
  /// The node of the query the plan was built for.
  const PlanNode& root() const { return root_; }

  /// Indented rendering of the dispatch tree, for diagnostics/EXPLAIN.
  std::string ToString() const;

 private:
  friend DispatchPlan BuildDispatchPlan(const ConjunctiveQuery& q,
                                        const AdpOptions& options);

  PlanNode root_;
};

/// Builds the plan for `q`, which must be selection-free (the engine plans
/// the residual query after Lemma-12 pushdown, matching what ComputeAdp
/// recurses on). `options` must carry the same classification-relevant knobs
/// as the solves the plan will serve.
DispatchPlan BuildDispatchPlan(const ConjunctiveQuery& q,
                               const AdpOptions& options);

/// Short name of a dispatch case ("boolean", "singleton", ...).
const char* AdpCaseName(AdpCase c);

}  // namespace adp

#endif  // ADP_SOLVER_PLAN_H_
