#include "solver/children.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "obs/names.h"
#include "obs/trace.h"

namespace adp {

std::vector<AdpNode> SolveChildren(
    ChildAxis axis, std::size_t n, const AdpOptions& options,
    const std::function<AdpNode(std::size_t, const AdpOptions&)>& solve,
    const std::vector<std::size_t>* components) {
  const bool groups = axis == ChildAxis::kUniverseGroups;
  const Parallelism* par = options.parallelism;
  const std::size_t min_children =
      par == nullptr ? 0 : groups ? par->min_groups : par->min_components;
  std::vector<AdpNode> children(n);
  if (min_children == 0 || par->run_all == nullptr ||
      n < std::max<std::size_t>(min_children, 2)) {
    for (std::size_t i = 0; i < n; ++i) {
      ThrowIfCancelled(options);
      children[i] = solve(i, options);
    }
    return children;
  }

  // Sharded path: children land at fixed indices, so the caller folds them
  // in the sequential order. Each shard writes a private AdpStats (the
  // shared pointer would race); the merge is commutative, so the
  // index-order merge equals any completion order.
  if (options.stats) {
    ++(groups ? options.stats->sharded_universe_nodes
              : options.stats->sharded_decompose_nodes);
  }
  std::vector<AdpStats> shard_stats(options.stats ? n : 0);
  std::vector<std::exception_ptr> errors(n);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    tasks.push_back([&, i] {
      try {
        AdpOptions shard = options;
        if (options.stats) shard.stats = &shard_stats[i];
        // Shards run on arbitrary pool threads: the explicit parent link
        // to the node's span keeps the trace a tree.
        obs::Span span(options.trace,
                       groups ? obs::kSpanShardUniverse
                              : obs::kSpanShardDecompose,
                       options.trace_parent);
        span.Tag("shard", static_cast<std::int64_t>(i));
        if (components != nullptr) {
          span.Tag("component", static_cast<std::int64_t>((*components)[i]));
        }
        shard.trace_parent = span.id();
        // A cancel landing mid-fan-out stops the remaining shards.
        ThrowIfCancelled(shard);
        children[i] = solve(i, shard);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  par->run_all(std::move(tasks));
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  if (options.stats) {
    for (const AdpStats& s : shard_stats) MergeAdpStats(*options.stats, s);
  }
  return children;
}

Fold FoldChildren(ChildFold& s, std::size_t count, std::int64_t cap,
                  const AdpOptions& options) {
  Fold acc{s.children[0].profile, s.m[0]};
  acc.profile.TruncateTo(cap);
  for (std::size_t i = 1; i < count; ++i) {
    ThrowIfCancelled(options);
    Fold next = s.combine(acc, s.children[i].profile, s.m[i], cap);
    if (!options.counting_only) s.levels.push_back(std::move(acc));
    acc = std::move(next);
  }
  return acc;
}

std::vector<TupleRef> ReportFold(const ChildFold& s, std::int64_t j,
                                 const CancelToken& cancel) {
  std::vector<TupleRef> out;
  std::int64_t target = j;
  for (std::size_t i = s.levels.size(); i >= 1; --i) {
    const SplitChoice split =
        s.split(s.levels[i - 1], s.children[i].profile, s.m[i], target);
    if (split.k2 > 0) {
      cancel.ThrowIfCancelled();
      std::vector<TupleRef> part = s.children[i].report(split.k2);
      out.insert(out.end(), part.begin(), part.end());
    }
    target = split.k1;
  }
  if (target > 0) {
    cancel.ThrowIfCancelled();
    std::vector<TupleRef> part = s.children[0].report(target);
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

}  // namespace adp
