#include "solver/decompose.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "obs/names.h"
#include "obs/trace.h"
#include "query/transform.h"
#include "relational/join.h"

namespace adp {
namespace {

// Profiles longer than this indicate a target k proportional to a
// cross-product-sized output; the root single-k path avoids them, so hitting
// the limit means the caller nested Decompose under an enormous cap.
constexpr std::int64_t kProfileLimit = std::int64_t{1} << 25;

struct Components {
  std::vector<Subquery> subs;
  std::vector<Database> dbs;
  std::vector<std::int64_t> m;       // |Q_i(D)| per component
  std::vector<std::size_t> order;    // fold order: ascending m, largest last
  std::int64_t total = 1;            // saturated product of m
};

Components SplitComponents(const ConjunctiveQuery& q, const Database& db) {
  Components parts;
  parts.subs = DecomposeQuery(q);
  for (const Subquery& sub : parts.subs) {
    parts.dbs.push_back(SubDatabase(sub, db));
    parts.m.push_back(static_cast<std::int64_t>(CountOutputs(
        sub.query.body(), sub.query.head(), parts.dbs.back())));
    parts.total = SatMul(parts.total, parts.m.back());
  }
  parts.order.resize(parts.subs.size());
  std::iota(parts.order.begin(), parts.order.end(), 0);
  std::sort(parts.order.begin(), parts.order.end(),
            [&](std::size_t a, std::size_t b) {
              return parts.m[a] < parts.m[b];
            });
  return parts;
}

void CheckProfileLimit(std::int64_t len) {
  if (len > kProfileLimit) {
    throw std::runtime_error(
        "Decompose: requested profile length exceeds the supported limit; "
        "the target k is proportional to a cross-product-sized output count");
  }
}

// A fold of children[0..i]: its profile and output count.
struct Fold {
  CostProfile profile;
  std::int64_t m = 0;
};

// State shared with reporters.
struct DecomposeState {
  std::vector<AdpNode> children;  // in fold order
  std::vector<std::int64_t> m;    // in fold order
  // levels[i - 1] is the `a` operand fold level i combined with children[i];
  // reporters re-derive the split of the one target they need from it.
  // Empty when counting_only.
  std::vector<Fold> levels;
};

// Reconstructs tuples for target `j` of the fold prefix ending at `level`
// (inclusive). Level 0 means children[0] alone. `cancel` is polled before
// each per-component report so a cancelled stream stops mid-enumeration
// (reporters run after the profile solve, possibly much later).
void ReportFold(const DecomposeState& s, std::size_t level, std::int64_t j,
                const CancelToken& cancel, std::vector<TupleRef>& out) {
  std::int64_t target = j;
  for (std::size_t i = level; i >= 1; --i) {
    const Fold& a = s.levels[i - 1];
    const ProductChoice split = ProductSplit(
        a.profile, a.m, s.children[i].profile, s.m[i], target);
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
}

// Folds children[0..count-1] left to right with the cross-product DP, each
// level capped at `cap`, keeping every level's `a` operand for ReportFold
// unless counting_only.
Fold FoldChildren(DecomposeState& s, std::size_t count, std::int64_t cap,
                  const AdpOptions& options) {
  const bool naive = options.decompose_strategy ==
                     AdpOptions::DecomposeStrategy::kPairwiseNaive;
  Fold acc{s.children[0].profile, s.m[0]};
  acc.profile.TruncateTo(cap);
  for (std::size_t i = 1; i < count; ++i) {
    ThrowIfCancelled(options);
    CheckProfileLimit(std::min(cap, SatMul(acc.m, s.m[i])));
    CostProfile next = CombineProduct(acc.profile, acc.m,
                                      s.children[i].profile, s.m[i], cap,
                                      naive);
    const std::int64_t next_m = SatMul(acc.m, s.m[i]);
    if (!options.counting_only) s.levels.push_back(std::move(acc));
    acc = {std::move(next), next_m};
  }
  return acc;
}

// Full-enumeration (Eq. 2) support: finds the cheapest (k1..ks) vector with
// >= j outputs removed; returns its cost and (optionally) the vector.
//
// This is deliberately the *literal* enumeration of Lemma 3's proof — every
// k_i ranges over [0, j] with no pruning, Θ(k^s) combinations — because the
// Figure 29 ablation measures exactly that strategy. Vectors with
// k_i beyond a component's removable outputs carry infinite cost and are
// skipped at the comparison, not in the loop bounds.
std::int64_t EnumerateVectors(const DecomposeState& s, std::int64_t j,
                              std::vector<std::int64_t>* best_vec) {
  const std::size_t n = s.children.size();
  std::vector<std::int64_t> vec(n, 0);
  std::int64_t best = kInfCost;
  std::int64_t total = 1;
  for (std::int64_t mi : s.m) total = SatMul(total, mi);

  // Depth-first enumeration over per-component removal counts; `surviving`
  // is the partial product of (m_i - k_i), so removed = total - surviving.
  std::function<void(std::size_t, std::int64_t, std::int64_t)> rec =
      [&](std::size_t i, std::int64_t cost, std::int64_t surviving) {
        if (i == n) {
          if (cost < best && total - surviving >= j) {
            best = cost;
            if (best_vec) *best_vec = vec;
          }
          return;
        }
        for (std::int64_t ki = 0; ki <= j; ++ki) {
          vec[i] = ki;
          rec(i + 1, cost + s.children[i].profile.At(ki),
              SatMul(surviving, std::max<std::int64_t>(0, s.m[i] - ki)));
        }
      };
  rec(0, 0, 1);
  return best;
}

std::shared_ptr<DecomposeState> BuildChildren(const Components& parts,
                                              std::int64_t cap,
                                              const AdpOptions& options) {
  auto state = std::make_shared<DecomposeState>();
  const std::size_t n = parts.order.size();
  const Parallelism* par = options.parallelism;
  if (par != nullptr && par->run_all != nullptr && par->min_components > 0 &&
      n >= std::max<std::size_t>(par->min_components, 2)) {
    // Sharded path: the components are independent subproblems (Lemma 3),
    // so their per-k profiles can be solved concurrently. Children land at
    // fixed fold-order indices and are combined by the caller's
    // cross-product DP in that same order, keeping the result
    // bitwise-identical to the sequential path. Each shard writes a private
    // AdpStats (the shared pointer would race) merged afterwards.
    if (options.stats) ++options.stats->sharded_decompose_nodes;
    state->children.resize(n);
    state->m.resize(n);
    std::vector<AdpStats> shard_stats(options.stats ? n : 0);
    std::vector<std::exception_ptr> errors(n);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      tasks.push_back([&, i] {
        const std::size_t idx = parts.order[i];
        try {
          AdpOptions shard = options;
          if (options.stats) shard.stats = &shard_stats[i];
          // One span per shard, parented under this Decompose node's span;
          // the explicit parent link keeps the trace a tree even though
          // shards run on arbitrary pool threads.
          obs::Span span(options.trace, obs::kSpanShardDecompose,
                         options.trace_parent);
          span.Tag("shard", static_cast<std::int64_t>(i));
          span.Tag("component", static_cast<std::int64_t>(idx));
          shard.trace_parent = span.id();
          // Sharded sub-solves poll the token too: a cancel that lands
          // mid-fan-out stops the remaining components at their boundary.
          ThrowIfCancelled(shard);
          const std::int64_t child_cap = std::min(parts.m[idx], cap);
          state->children[i] = ComputeAdpNode(parts.subs[idx].query,
                                              parts.dbs[idx], child_cap,
                                              shard);
          state->m[i] = parts.m[idx];
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
    return state;
  }
  for (std::size_t idx : parts.order) {
    ThrowIfCancelled(options);
    const std::int64_t child_cap = std::min(parts.m[idx], cap);
    state->children.push_back(ComputeAdpNode(
        parts.subs[idx].query, parts.dbs[idx], child_cap, options));
    state->m.push_back(parts.m[idx]);
  }
  return state;
}

}  // namespace

AdpNode DecomposeNode(const ConjunctiveQuery& q, const Database& db,
                      std::int64_t cap, const AdpOptions& options) {
  if (options.stats) ++options.stats->decompose_nodes;
  const Components parts = SplitComponents(q, db);
  if (options.trace != nullptr) {
    // options.trace_parent is this node's own span (opened by
    // ComputeAdpNode before dispatching here).
    options.trace->Annotate(options.trace_parent, "components",
                            std::to_string(parts.subs.size()));
  }
  const std::int64_t out_kmax = std::min(cap, parts.total);
  CheckProfileLimit(out_kmax);
  auto state = BuildChildren(parts, out_kmax, options);

  AdpNode node;
  for (const AdpNode& c : state->children) node.exact &= c.exact;

  if (options.decompose_strategy ==
      AdpOptions::DecomposeStrategy::kFullEnumeration) {
    // Build the profile by probing every target (ablation-only path).
    std::vector<std::int64_t> cost(static_cast<std::size_t>(out_kmax) + 1, 0);
    for (std::int64_t j = 1; j <= out_kmax; ++j) {
      ThrowIfCancelled(options);
      cost[j] = EnumerateVectors(*state, j, nullptr);
    }
    node.profile = CostProfile(std::move(cost));
    if (!options.counting_only) {
      auto s = state;
      node.report = [s, cancel = ReporterToken(options)](std::int64_t j) {
        std::vector<std::int64_t> vec(s->children.size(), 0);
        EnumerateVectors(*s, j, &vec);
        std::vector<TupleRef> out;
        for (std::size_t i = 0; i < vec.size(); ++i) {
          if (vec[i] == 0) continue;
          cancel.ThrowIfCancelled();
          std::vector<TupleRef> part = s->children[i].report(vec[i]);
          out.insert(out.end(), part.begin(), part.end());
        }
        return out;
      };
    }
    return node;
  }

  node.profile = FoldChildren(*state, state->children.size(), out_kmax,
                              options).profile;

  if (!options.counting_only) {
    auto s = state;
    node.report = [s, cancel = ReporterToken(options)](std::int64_t j) {
      std::vector<TupleRef> out;
      ReportFold(*s, s->children.size() - 1, j, cancel, out);
      return out;
    };
  }
  return node;
}

DecomposeSingleResult SolveDecomposeSingleK(const ConjunctiveQuery& q,
                                            const Database& db,
                                            std::int64_t k,
                                            const AdpOptions& options) {
  if (options.stats) ++options.stats->decompose_nodes;
  const Components parts = SplitComponents(q, db);
  if (options.trace != nullptr) {
    options.trace->Annotate(options.trace_parent, "components",
                            std::to_string(parts.subs.size()));
  }
  DecomposeSingleResult result;

  if (options.decompose_strategy ==
      AdpOptions::DecomposeStrategy::kFullEnumeration) {
    auto state = BuildChildren(parts, k, options);
    for (const AdpNode& c : state->children) result.exact &= c.exact;
    std::vector<std::int64_t> vec(state->children.size(), 0);
    result.cost = EnumerateVectors(*state, k,
                                   options.counting_only ? nullptr : &vec);
    if (!options.counting_only) {
      for (std::size_t i = 0; i < vec.size(); ++i) {
        if (vec[i] == 0) continue;
        ThrowIfCancelled(options);
        std::vector<TupleRef> part = state->children[i].report(vec[i]);
        result.tuples.insert(result.tuples.end(), part.begin(), part.end());
      }
    }
    return result;
  }

  // Fold all but the largest component into a prefix profile, then split
  // the one target k between the prefix and the largest component. This
  // never materializes an array of length k.
  auto state = BuildChildren(parts, k, options);
  for (const AdpNode& c : state->children) result.exact &= c.exact;
  const std::size_t n = state->children.size();
  const Fold prefix = FoldChildren(*state, n - 1, k, options);
  const AdpNode& last = state->children[n - 1];
  ThrowIfCancelled(options);
  const ProductChoice split =
      ProductSplit(prefix.profile, prefix.m, last.profile, state->m[n - 1], k);
  result.cost = split.cost;

  if (!options.counting_only && result.cost < kInfCost) {
    const CancelToken cancel = ReporterToken(options);
    if (split.k2 > 0) {
      cancel.ThrowIfCancelled();
      std::vector<TupleRef> part = last.report(split.k2);
      result.tuples.insert(result.tuples.end(), part.begin(), part.end());
    }
    if (split.k1 > 0) {
      ReportFold(*state, n - 2, split.k1, cancel, result.tuples);
    }
  }
  return result;
}

}  // namespace adp
