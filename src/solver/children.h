// The child template of Algorithm 2's combining cases. Universe
// (Algorithm 4, disjoint union, Eq. 1) and Decompose (Algorithm 5, cross
// product, Lemma 3) both solve independent subproblems, fold the child
// profiles left to right, and walk the fold back to report witnesses. Each
// step lives here once; a case supplies its combine and split
// (solver/profile.h). Used only by universe.cc and decompose.cc.

#ifndef ADP_SOLVER_CHILDREN_H_
#define ADP_SOLVER_CHILDREN_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "solver/compute_adp.h"

namespace adp {

/// Picks the Parallelism threshold (min_groups / min_components), shard
/// span and sharded-node counter of a fan-out.
enum class ChildAxis { kUniverseGroups, kDecomposeComponents };

/// Returns solve(i, options) for i = 0..n-1 at index i. Sequential unless
/// options.parallelism has a run_all and n reaches the axis' threshold
/// (treated as >= 2; 0 disables the axis). Sharded, each child is one
/// run_all task with a private AdpStats (merged in index order), a shard
/// span tagged `shard` = i (and `component` = (*components)[i] if given)
/// and a cancel poll; the lowest-index task exception is rethrown once all
/// tasks finished. The result is bitwise-identical either way.
std::vector<AdpNode> SolveChildren(
    ChildAxis axis, std::size_t n, const AdpOptions& options,
    const std::function<AdpNode(std::size_t, const AdpOptions&)>& solve,
    const std::vector<std::size_t>* components = nullptr);

/// A fold of children[0..i]: its profile and output count (read only by
/// the cross product).
struct Fold {
  CostProfile profile;
  std::int64_t m = 0;
};

/// One node's children plus what its reporters need.
struct ChildFold {
  std::vector<AdpNode> children;  // in fold order
  std::vector<std::int64_t> m;    // per-child output count, in fold order
  /// Folds the next child (profile b, output count mb) into `a` up to cap.
  std::function<Fold(const Fold& a, const CostProfile& b, std::int64_t mb,
                     std::int64_t cap)>
      combine;
  /// Recovers target j's split of one level: k1 from `a`, k2 from b.
  std::function<SplitChoice(const Fold& a, const CostProfile& b,
                            std::int64_t mb, std::int64_t j)>
      split;
  /// levels[i - 1] is the `a` operand level i combined with children[i];
  /// kept instead of a split table. Empty when counting_only.
  std::vector<Fold> levels;
};

/// Folds children[0..count-1] with s.combine, each level capped at `cap`,
/// keeping every `a` operand unless counting_only. Polls cancel once per
/// level.
Fold FoldChildren(ChildFold& s, std::size_t count, std::int64_t cap,
                  const AdpOptions& options);

/// The witnesses of target j of the fold over children[0..levels.size()],
/// walking the levels back and recovering each one's split with s.split.
/// Polls `cancel` before each child's report, so a cancelled stream stops
/// mid-enumeration.
std::vector<TupleRef> ReportFold(const ChildFold& s, std::int64_t j,
                                 const CancelToken& cancel);

}  // namespace adp

#endif  // ADP_SOLVER_CHILDREN_H_
