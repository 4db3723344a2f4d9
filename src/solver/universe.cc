#include "solver/universe.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "obs/trace.h"
#include "query/transform.h"
#include "solver/children.h"
#include "solver/plan.h"

namespace adp {
namespace {

// Convex path: the children plus all marginal steps, by gain descending.
struct ConvexMerge {
  std::vector<AdpNode> children;
  struct Step {
    std::int64_t gain;
    int child;
  };
  std::vector<Step> steps;
};

// Global greedy over marginal gains: the c-th unit of budget spent on a
// child buys MaxRemovedWithin(c) - MaxRemovedWithin(c-1) outputs; for
// convex profiles these gains are nonincreasing per child, so merging all
// steps by gain is optimal for the disjoint union.
AdpNode MergeConvex(std::vector<AdpNode> children, std::int64_t cap,
                    const AdpOptions& options) {
  auto state = std::make_shared<ConvexMerge>();
  state->children = std::move(children);
  AdpNode node;
  for (const AdpNode& c : state->children) node.exact &= c.exact;
  for (std::size_t i = 0; i < state->children.size(); ++i) {
    const CostProfile& prof = state->children[i].profile;
    const std::int64_t budget_max = prof.At(prof.kmax());
    std::int64_t prev = 0;
    for (std::int64_t c = 1; c <= budget_max; ++c) {
      const std::int64_t now = prof.MaxRemovedWithin(c);
      if (now > prev) {
        state->steps.push_back(
            ConvexMerge::Step{now - prev, static_cast<int>(i)});
      }
      prev = now;
    }
  }
  std::sort(state->steps.begin(), state->steps.end(),
            [](const auto& a, const auto& b) { return a.gain > b.gain; });
  std::vector<std::int64_t> cost;
  cost.push_back(0);
  std::int64_t removed = 0;
  for (std::size_t s = 0;
       s < state->steps.size() &&
       static_cast<std::int64_t>(cost.size()) <= cap;
       ++s) {
    const std::int64_t next = removed + state->steps[s].gain;
    for (std::int64_t j = removed + 1;
         j <= next && static_cast<std::int64_t>(cost.size()) <= cap; ++j) {
      cost.push_back(static_cast<std::int64_t>(s) + 1);
    }
    removed = next;
  }
  node.profile = CostProfile(std::move(cost));

  if (!options.counting_only) {
    // Polled per child report so a cancelled stream stops mid-enumeration
    // instead of finishing the whole witness walk (see ReporterToken).
    node.report = [s = std::shared_ptr<const ConvexMerge>(state),
                   cancel = ReporterToken(options)](std::int64_t j) {
      // Budget per child from the sorted step prefix covering j.
      std::vector<std::int64_t> budget(s->children.size(), 0);
      std::int64_t removed = 0;
      for (const auto& step : s->steps) {
        if (removed >= j) break;
        ++budget[step.child];
        removed += step.gain;
      }
      std::vector<TupleRef> out;
      for (std::size_t i = 0; i < s->children.size(); ++i) {
        if (budget[i] == 0) continue;
        cancel.ThrowIfCancelled();
        const std::int64_t ji =
            s->children[i].profile.MaxRemovedWithin(budget[i]);
        std::vector<TupleRef> part = s->children[i].report(ji);
        out.insert(out.end(), part.begin(), part.end());
      }
      return out;
    };
  }
  return node;
}

}  // namespace

AttrSet UniverseAttrs(const ConjunctiveQuery& q, const AdpOptions& options) {
  const AttrSet universal = q.UniversalAttrs();
  if (options.universe_strategy != AdpOptions::UniverseStrategy::kOneByOne) {
    return universal;
  }
  // Peel a single universal attribute; the residual query still has the
  // rest, so the recursion stacks partitions. Every universal attribute
  // occurs in the first atom.
  for (AttrId a : q.relation(0).attrs) {
    if (universal.Contains(a)) return AttrSet::Of(a);
  }
  return universal;
}

AdpNode UniverseNode(const ConjunctiveQuery& q, const Database& db,
                     std::int64_t cap, const AdpOptions& options,
                     const PlanNode& plan) {
  const AttrSet to_remove = UniverseAttrs(q, options);
  const ConjunctiveQuery residual = RemoveAttributes(q, to_remove);
  std::vector<UniverseGroup> groups = PartitionByAttrs(q, db, to_remove);
  if (options.stats) {
    ++options.stats->universe_nodes;
    options.stats->universe_groups +=
        static_cast<std::int64_t>(groups.size());
  }
  if (options.trace != nullptr) {
    // options.trace_parent is this node's own span (ComputeAdpNode opened
    // it before dispatching here); the tag lands on that span.
    options.trace->Annotate(options.trace_parent, "groups",
                            std::to_string(groups.size()));
  }

  auto fold = std::make_shared<ChildFold>();
  fold->children = SolveChildren(
      ChildAxis::kUniverseGroups, groups.size(), options,
      [&](std::size_t i, const AdpOptions& child_options) {
        return ComputeAdpNode(residual, groups[i].db, cap, child_options,
                              plan.children[0]);
      });
  if (fold->children.empty()) {
    // No complete class: Q(D) is empty.
    return AdpNode{CostProfile(), true,
                   options.counting_only
                       ? Reporter()
                       : [](std::int64_t) { return std::vector<TupleRef>(); }};
  }

  bool all_convex = options.universe_convex_merge;
  for (const AdpNode& c : fold->children) {
    all_convex = all_convex && c.profile.HasConcaveGains();
  }
  if (all_convex) return MergeConvex(std::move(fold->children), cap, options);

  AdpNode node;
  for (const AdpNode& c : fold->children) node.exact &= c.exact;
  // Eq. 1 as a fold; the disjoint union reads no output counts.
  fold->m.assign(fold->children.size(), 0);
  fold->combine = [](const Fold& a, const CostProfile& b, std::int64_t,
                     std::int64_t cap) {
    return Fold{CombineDisjoint(a.profile, b, cap)};
  };
  fold->split = [](const Fold& a, const CostProfile& b, std::int64_t,
                   std::int64_t j) { return DisjointSplit(a.profile, b, j); };
  node.profile =
      FoldChildren(*fold, fold->children.size(), cap, options).profile;
  if (!options.counting_only) {
    node.report = [fold, cancel = ReporterToken(options)](std::int64_t j) {
      return ReportFold(*fold, j, cancel);
    };
  }
  return node;
}

}  // namespace adp
