#include "solver/decompose.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "obs/trace.h"
#include "query/transform.h"
#include "relational/join.h"
#include "solver/children.h"
#include "solver/plan.h"

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

// Counts the node, splits it into components and tags the node's span.
Components SplitComponents(const ConjunctiveQuery& q, const Database& db,
                           const AdpOptions& options) {
  if (options.stats) ++options.stats->decompose_nodes;
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
  if (options.trace != nullptr) {
    options.trace->Annotate(options.trace_parent, "components",
                            std::to_string(parts.subs.size()));
  }
  return parts;
}

void CheckProfileLimit(std::int64_t len) {
  if (len > kProfileLimit) {
    throw std::runtime_error(
        "Decompose: requested profile length exceeds the supported limit; "
        "the target k is proportional to a cross-product-sized output count");
  }
}

// Full-enumeration (Eq. 2) support: finds the cheapest (k1..ks) vector with
// >= j outputs removed and returns its cost; with `out` set, also appends
// its witnesses, one child report per nonzero k_i.
//
// This is deliberately the *literal* enumeration of Lemma 3's proof — every
// k_i ranges over [0, j] with no pruning, Θ(k^s) combinations — because the
// Figure 29 ablation measures exactly that strategy. Vectors with
// k_i beyond a component's removable outputs carry infinite cost and are
// skipped at the comparison, not in the loop bounds.
std::int64_t EnumerateVectors(const ChildFold& s, std::int64_t j,
                              const CancelToken& cancel,
                              std::vector<TupleRef>* out) {
  const std::size_t n = s.children.size();
  std::vector<std::int64_t> vec(n, 0);
  std::vector<std::int64_t> best_vec(n, 0);
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
            if (out) best_vec = vec;
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
  for (std::size_t i = 0; out != nullptr && i < n; ++i) {
    if (best_vec[i] == 0) continue;
    cancel.ThrowIfCancelled();
    std::vector<TupleRef> part = s.children[i].report(best_vec[i]);
    out->insert(out->end(), part.begin(), part.end());
  }
  return best;
}

// Solves the components in fold order; the fold combines by cross product
// (§7.3, or Algorithm 5's naive inner loop for the Fig. 29 ablation).
std::shared_ptr<ChildFold> BuildChildren(const Components& parts,
                                         std::int64_t cap,
                                         const AdpOptions& options,
                                         const PlanNode& plan) {
  auto fold = std::make_shared<ChildFold>();
  fold->children = SolveChildren(
      ChildAxis::kDecomposeComponents, parts.order.size(), options,
      [&](std::size_t i, const AdpOptions& child_options) {
        const std::size_t idx = parts.order[i];
        return ComputeAdpNode(parts.subs[idx].query, parts.dbs[idx],
                              std::min(parts.m[idx], cap), child_options,
                              plan.children[idx]);
      },
      &parts.order);
  for (std::size_t idx : parts.order) fold->m.push_back(parts.m[idx]);
  const bool naive = options.decompose_strategy ==
                     AdpOptions::DecomposeStrategy::kPairwiseNaive;
  fold->combine = [naive](const Fold& a, const CostProfile& b,
                          std::int64_t mb, std::int64_t cap) {
    const std::int64_t m = SatMul(a.m, mb);
    CheckProfileLimit(std::min(cap, m));
    return Fold{CombineProduct(a.profile, a.m, b, mb, cap, naive), m};
  };
  fold->split = [](const Fold& a, const CostProfile& b, std::int64_t mb,
                   std::int64_t j) {
    return ProductSplit(a.profile, a.m, b, mb, j);
  };
  return fold;
}

}  // namespace

AdpNode DecomposeNode(const ConjunctiveQuery& q, const Database& db,
                      std::int64_t cap, const AdpOptions& options,
                      const PlanNode& plan) {
  const Components parts = SplitComponents(q, db, options);
  const std::int64_t out_kmax = std::min(cap, parts.total);
  CheckProfileLimit(out_kmax);
  auto state = BuildChildren(parts, out_kmax, options, plan);

  AdpNode node;
  for (const AdpNode& c : state->children) node.exact &= c.exact;

  if (options.decompose_strategy ==
      AdpOptions::DecomposeStrategy::kFullEnumeration) {
    // Build the profile by probing every target (ablation-only path).
    std::vector<std::int64_t> cost(static_cast<std::size_t>(out_kmax) + 1, 0);
    for (std::int64_t j = 1; j <= out_kmax; ++j) {
      ThrowIfCancelled(options);
      cost[j] = EnumerateVectors(*state, j, CancelToken(), nullptr);
    }
    node.profile = CostProfile(std::move(cost));
    if (!options.counting_only) {
      node.report = [s = state, cancel = ReporterToken(options)](
                        std::int64_t j) {
        std::vector<TupleRef> out;
        EnumerateVectors(*s, j, cancel, &out);
        return out;
      };
    }
    return node;
  }

  node.profile = FoldChildren(*state, state->children.size(), out_kmax,
                              options).profile;
  if (!options.counting_only) {
    node.report = [state, cancel = ReporterToken(options)](std::int64_t j) {
      return ReportFold(*state, j, cancel);
    };
  }
  return node;
}

DecomposeSingleResult SolveDecomposeSingleK(const ConjunctiveQuery& q,
                                            const Database& db,
                                            std::int64_t k,
                                            const AdpOptions& options,
                                            const PlanNode& plan) {
  const Components parts = SplitComponents(q, db, options);
  DecomposeSingleResult result;
  auto state = BuildChildren(parts, k, options, plan);
  for (const AdpNode& c : state->children) result.exact &= c.exact;

  if (options.decompose_strategy ==
      AdpOptions::DecomposeStrategy::kFullEnumeration) {
    result.cost =
        EnumerateVectors(*state, k, ReporterToken(options),
                         options.counting_only ? nullptr : &result.tuples);
    return result;
  }

  // Fold all but the largest component into a prefix profile, then split
  // the one target k between the prefix and the largest component. This
  // never materializes an array of length k. The prefix is the last
  // level's `a` operand, so the report is the ordinary fold walk.
  const std::size_t n = state->children.size();
  Fold prefix = FoldChildren(*state, n - 1, k, options);
  ThrowIfCancelled(options);
  result.cost = state->split(prefix, state->children[n - 1].profile,
                                 state->m[n - 1], k).cost;
  if (!options.counting_only && result.cost < kInfCost) {
    state->levels.push_back(std::move(prefix));
    result.tuples = ReportFold(*state, k, ReporterToken(options));
  }
  return result;
}

}  // namespace adp
