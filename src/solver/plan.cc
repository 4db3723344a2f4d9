#include "solver/plan.h"

#include <utility>

#include "dichotomy/linearize.h"
#include "query/fingerprint.h"
#include "query/transform.h"
#include "solver/universe.h"

namespace adp {
namespace {

// Classifies `q` and recurses into the queries the solver derives from it,
// in the order it derives them.
PlanNode BuildNode(const ConjunctiveQuery& q, const AdpOptions& options) {
  PlanNode node;
  node.key = CanonicalQueryKey(q);
  node.op = ClassifyAdpCase(q, options);
  switch (node.op) {
    case AdpCase::kBoolean:
      node.linear_order = FindLinearOrder(q);
      break;
    case AdpCase::kUniverse:
      node.children.push_back(
          BuildNode(RemoveAttributes(q, UniverseAttrs(q, options)), options));
      break;
    case AdpCase::kDecompose:
      for (const Subquery& sub : DecomposeQuery(q)) {
        node.children.push_back(BuildNode(sub.query, options));
      }
      break;
    case AdpCase::kSingleton:
    case AdpCase::kHeuristic:
      break;  // leaves of the query-structure recursion
  }
  return node;
}

void Render(const PlanNode& node, int depth, std::string& out) {
  out.append(static_cast<std::size_t>(2 * depth), ' ');
  out += AdpCaseName(node.op);
  out += ' ';
  out += node.key;
  out += '\n';
  for (const PlanNode& child : node.children) Render(child, depth + 1, out);
}

}  // namespace

const char* AdpCaseName(AdpCase c) {
  switch (c) {
    case AdpCase::kBoolean: return "boolean";
    case AdpCase::kSingleton: return "singleton";
    case AdpCase::kUniverse: return "universe";
    case AdpCase::kDecompose: return "decompose";
    case AdpCase::kHeuristic: return "heuristic";
  }
  return "?";
}

std::string DispatchPlan::ToString() const {
  std::string out;
  Render(root_, 0, out);
  return out;
}

DispatchPlan BuildDispatchPlan(const ConjunctiveQuery& q,
                               const AdpOptions& options) {
  DispatchPlan plan;
  plan.root_ = BuildNode(q, options);
  return plan;
}

}  // namespace adp
