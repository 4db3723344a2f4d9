// ComputeADP (Algorithm 2): the unified poly-time algorithm. Exact on
// poly-time-solvable queries, a heuristic on NP-hard ones.
//
// Dispatch order follows the paper:
//   1. Boolean       — resilience via minimum vertex cut (§7.1);
//   2. Singleton     — direct sorting algorithm (Algorithm 3, §7.2);
//   3. Universe      — partition on universal attributes + DP (Algorithm 4);
//   4. Decompose     — connected components + cross-product DP (Algorithm 5);
//   5. Greedy leaf   — GreedyForCQ (Alg 6) or DrasticGreedy (Alg 7).
// Selections are pushed down first (Lemma 12).
//
// Internally every recursion node produces a CostProfile plus a lazy
// reporter; see solver/profile.h for the combination semantics.

#ifndef ADP_SOLVER_COMPUTE_ADP_H_
#define ADP_SOLVER_COMPUTE_ADP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "query/query.h"
#include "relational/database.h"
#include "solver/profile.h"
#include "solver/restrictions.h"
#include "solver/solution.h"
#include "util/cancel.h"

namespace adp {

class DispatchPlan;
struct PlanNode;

namespace obs {
class TraceSink;  // obs/trace.h; forward-declared to keep the solver light
}  // namespace obs

/// The per-node decision of Algorithm 2. Data-independent: it is a function
/// of the (selection-free) query structure and the option knobs alone, which
/// is what makes dispatch plans cacheable (solver/plan.h).
enum class AdpCase { kBoolean, kSingleton, kUniverse, kDecompose, kHeuristic };

/// Recursion statistics, filled when AdpOptions::stats is set. Useful for
/// understanding which of Algorithm 2's cases a query exercises.
/// When adding a field, extend MergeAdpStats (compute_adp.cc) too, or
/// sharded solves will silently drop its per-shard contributions.
struct AdpStats {
  int boolean_nodes = 0;
  int boolean_fallbacks = 0;  // triad-free but not linearizable -> greedy
  int singleton_nodes = 0;
  int universe_nodes = 0;
  int decompose_nodes = 0;
  int greedy_leaves = 0;
  int drastic_leaves = 0;
  std::int64_t universe_groups = 0;
  /// Universe nodes whose partition groups were solved in parallel via
  /// AdpOptions::parallelism.
  int sharded_universe_nodes = 0;
  /// Decompose nodes whose connected-component sub-solves were solved in
  /// parallel via AdpOptions::parallelism.
  int sharded_decompose_nodes = 0;
};

/// Field-wise accumulation, used to fold per-shard statistics back into the
/// parent solve's AdpStats. Every field is an additive tally, so the merge
/// is commutative and associative: the folded total is independent of the
/// order the shards finished in (asserted by stats_test's order-independence
/// test — keep new fields additive, or give them an order-independent merge).
void MergeAdpStats(AdpStats& into, const AdpStats& from);

/// Field-wise equality.
bool operator==(const AdpStats& a, const AdpStats& b);
inline bool operator!=(const AdpStats& a, const AdpStats& b) {
  return !(a == b);
}

/// True iff `a` and `b` agree on every field except the sharding-engagement
/// markers (sharded_universe_nodes / sharded_decompose_nodes) — the one
/// intended difference between a serial and a sharded run of the same solve.
bool StatsAgreeModuloSharding(const AdpStats& a, const AdpStats& b);

/// Intra-request parallelism hook. When AdpOptions::parallelism is set,
/// recursion nodes whose subproblems are independent — the Universe case's
/// partition groups (Algorithm 4) and the Decompose case's connected
/// components (Algorithm 5) — dispatch them through `run_all`, typically
/// backed by a worker pool, instead of solving sequentially; both cases
/// share one fan-out (solver/children.h). Results are bitwise-identical to
/// the sequential path: shard outputs land at fixed indices, are combined
/// in the same order the sequential fold would use (partition order /
/// ascending-|Q_i(D)| fold order), and each shard gets a private AdpStats
/// that is merged afterwards.
struct Parallelism {
  /// Executes every task exactly once and returns when all have finished.
  /// Must be safe to invoke from inside one of its own tasks (nested
  /// Universe/Decompose nodes shard recursively); ThreadPool::RunAll — whose
  /// calling thread helps drain the batch — qualifies.
  std::function<void(std::vector<std::function<void()>>)> run_all;

  /// Shard only Universe nodes with at least this many partition groups;
  /// smaller nodes stay sequential (dispatch overhead would dominate).
  /// 0 disables Universe sharding entirely.
  std::size_t min_groups = 4;

  /// Shard only Decompose nodes with at least this many connected
  /// components. 0 disables Decompose sharding entirely.
  std::size_t min_components = 4;
};

/// Tuning knobs. Defaults reproduce the paper's recommended configuration;
/// the alternate strategies exist for the Figure 28/29 ablations.
struct AdpOptions {
  /// Heuristic used on NP-hard leaves.
  enum class Heuristic { kGreedy, kDrastic };
  Heuristic heuristic = Heuristic::kGreedy;

  /// Skip materializing the witness tuples (the paper's "counting version").
  bool counting_only = false;

  /// Re-evaluate the query after deletion and fill removed_outputs.
  bool verify = false;

  /// Universe: remove all universal attributes as one combined attribute
  /// (default, §7.3) or one at a time (Fig 28 strategy 1).
  enum class UniverseStrategy { kAllAtOnce, kOneByOne };
  UniverseStrategy universe_strategy = UniverseStrategy::kAllAtOnce;

  /// Universe: allow the greedy marginal-merge fast path when every group
  /// profile is convex. Disable to force the plain DP (Fig 28 strategy 2).
  bool universe_convex_merge = true;

  /// Decompose: improved DP (§7.3), the paper's original O(k^2)-inner-loop
  /// DP, or full enumeration of (k1..ks) vectors (Fig 29 strategies 3/2/1).
  enum class DecomposeStrategy { kImprovedDP, kPairwiseNaive,
                                 kFullEnumeration };
  DecomposeStrategy decompose_strategy = DecomposeStrategy::kImprovedDP;

  /// Enable the Singleton base case (§7.2 optimization). When disabled the
  /// recursion falls through to Universe/Decompose as in the un-optimized
  /// variant.
  bool use_singleton = true;

  /// §9 extension: tuples that may not be deleted (root coordinates).
  /// Boolean subproblems stay exact; other leaves become heuristic — see
  /// solver/restrictions.h for the support matrix. Not owned.
  const DeletionRestrictions* restrictions = nullptr;

  /// If set, receives recursion statistics. Not owned.
  AdpStats* stats = nullptr;

  /// Dispatch plan of the query's selection-free residual (solver/plan.h),
  /// or null: ComputeAdp then plans the query itself. The recursion walks
  /// the plan by position, so a plan built from a copy with relations and
  /// attributes renamed serves equally well. It must have been built with
  /// this request's classification-relevant knobs (use_singleton,
  /// universe_strategy, presence of restrictions). Not owned; must outlive
  /// the solve. Read-only, so one plan may serve many concurrent solves.
  const DispatchPlan* plan = nullptr;

  /// Intra-request parallelism (see Parallelism above). Not owned; must
  /// outlive the solve. Engine-managed on requests that go through
  /// AdpEngine (like `plan` and `stats`).
  const Parallelism* parallelism = nullptr;

  /// Cooperative cancellation/deadline token, polled at recursion node
  /// boundaries — including sharded sub-solves and every fold level of the
  /// Universe and Decompose combines. A fired token aborts the solve by
  /// throwing CancelledError (util/cancel.h). Not owned; must outlive the
  /// solve. Engine-managed on requests that go through AdpEngine.
  const CancelToken* cancel = nullptr;

  /// Span sink for per-node tracing (obs/trace.h). Null — the default —
  /// disables tracing at the cost of one pointer compare per recursion
  /// node, checked at the same boundaries that poll `cancel`. Not owned;
  /// must outlive the solve. Engine-managed on requests that go through
  /// AdpEngine (AdpRequest::collect_trace).
  obs::TraceSink* trace = nullptr;

  /// Span id the next recursion node should parent under (0 = trace root).
  /// Maintained by the recursion itself; callers only seed the root value.
  std::uint32_t trace_parent = 0;
};

/// Polls options.cancel and throws CancelledError iff it has fired. Called
/// at every recursion node boundary; sub-solvers with long internal loops
/// poll it themselves.
inline void ThrowIfCancelled(const AdpOptions& options) {
  if (options.cancel != nullptr) options.cancel->ThrowIfCancelled();
}

/// By-value copy of the solve's cancel token for reporter lambdas to
/// capture: reporters can run long after the profile solve returned (the
/// engine's streaming path drives them incrementally), outliving the
/// AdpOptions that configured them — tokens are cheap shared handles, so a
/// copy stays valid and lets a cancelled stream stop mid-enumeration.
inline CancelToken ReporterToken(const AdpOptions& options) {
  return options.cancel != nullptr ? *options.cancel : CancelToken();
}

/// Incremental delivery of one ComputeAdp solve — the engine's streaming
/// path (AdpEngine::StreamAdp) hands these in to receive the single DP's
/// results as they are read off, instead of only the final AdpSolution.
/// Both callbacks must be set; either may throw to abort the solve.
struct AdpProgress {
  /// Called once per target j = 1..k, ascending, with the profile cost
  /// (kInfCost when the target is unreachable). Not called when the
  /// k <= 0 or k > |Q(D)| gates answer without a DP.
  std::function<void(std::int64_t j, std::int64_t cost)> profile;

  /// Called with the witness set removing >= j outputs, in enumeration
  /// order (not normalized): for the final target k when it is feasible,
  /// and — with `intermediate_witnesses` — right after the profile call of
  /// every feasible intermediate target j < k. Never called under
  /// AdpOptions::counting_only.
  std::function<void(std::int64_t j, const std::vector<TupleRef>& witnesses)>
      witnesses;

  bool intermediate_witnesses = false;
};

/// Solves ADP(Q, D, k). `q` may carry selections; `db` must be the root
/// database (instances indexed as in `q`). This is the one solve pipeline:
/// Lemma-12 selection pushdown, the |Q(D)| count, the k > |Q(D)| and
/// k <= 0 gates, the DP, the witness report, normalization and verify.
/// With `progress` set, the root always runs the full-profile DP (every
/// target's cost is delivered), and the returned tuples are the final
/// witnesses exactly as handed to progress->witnesses — un-normalized.
AdpSolution ComputeAdp(const ConjunctiveQuery& q, const Database& db,
                       std::int64_t k, const AdpOptions& options = {},
                       const AdpProgress* progress = nullptr);

/// Algorithm 2's dispatch decision for a selection-free query. Called only
/// while building a dispatch plan (solver/plan.h); the recursion reads the
/// decision off its plan node.
AdpCase ClassifyAdpCase(const ConjunctiveQuery& q, const AdpOptions& options);

// --- Internal recursion interface (exposed for sub-solvers and tests) -----

/// Lazy witness producer: report(j) returns root-coordinate tuples whose
/// removal removes >= j outputs of the node's subproblem, at profile cost.
using Reporter = std::function<std::vector<TupleRef>(std::int64_t)>;

/// One node of the ComputeADP recursion.
struct AdpNode {
  /// Profile with kmax == min(cap, |Q'(D')|); entries all finite.
  CostProfile profile;
  /// True iff every sub-solver on this subtree was exact.
  bool exact = true;
  /// Null iff counting_only.
  Reporter report;
};

/// Recursion entry point; `q` must be selection-free and `plan` the dispatch
/// plan node of its structure.
AdpNode ComputeAdpNode(const ConjunctiveQuery& q, const Database& db,
                       std::int64_t cap, const AdpOptions& options,
                       const PlanNode& plan);

}  // namespace adp

#endif  // ADP_SOLVER_COMPUTE_ADP_H_
