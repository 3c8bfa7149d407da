#include "lp/ilp.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "util/common.h"
#include "util/timer.h"

namespace etlopt {
namespace {

struct Node {
  double bound;  // LP relaxation objective (lower bound for minimization)
  std::vector<std::pair<int, std::pair<double, double>>> bound_changes;

  bool operator<(const Node& other) const {
    return bound > other.bound;  // min-heap by bound
  }
};

// Returns the variable (from integer_vars) whose value is farthest from
// integral, preferring values near 0.5; -1 when all are integral.
int PickBranchVariable(const std::vector<double>& values,
                       const std::vector<int>& integer_vars, double tol) {
  int best = -1;
  double best_score = -1.0;
  for (int var : integer_vars) {
    const double v = values[static_cast<size_t>(var)];
    const double frac = std::fabs(v - std::round(v));
    if (frac <= tol) continue;
    const double score = 0.5 - std::fabs(frac - 0.5);  // max at frac == 0.5
    if (score > best_score) {
      best_score = score;
      best = var;
    }
  }
  return best;
}

}  // namespace

IlpSolution SolveIlp(const LinearProgram& lp,
                     const std::vector<int>& integer_vars,
                     const IlpOptions& options) {
  Timer timer;
  IlpSolution best;
  best.status = LpStatus::kInfeasible;
  double incumbent_obj = LinearProgram::kInfinity;
  if (!options.initial_incumbent.empty()) {
    ETLOPT_CHECK(static_cast<int>(options.initial_incumbent.size()) ==
                 lp.num_variables());
    double obj = 0.0;
    for (int i = 0; i < lp.num_variables(); ++i) {
      obj += lp.costs()[static_cast<size_t>(i)] *
             options.initial_incumbent[static_cast<size_t>(i)];
    }
    incumbent_obj = obj;
    best.status = LpStatus::kOptimal;
    best.objective = obj;
    best.values = options.initial_incumbent;
  }

  // Working program: original constraints plus any no-good cuts added when
  // the incumbent filter rejects a candidate. Adding cuts never invalidates
  // node bounds (it can only raise objectives), so open nodes stay usable.
  LinearProgram work = lp;

  std::priority_queue<Node> open;
  {
    Node root;
    root.bound = -LinearProgram::kInfinity;
    open.push(std::move(root));
  }

  int explored = 0;
  bool truncated = false;
  while (!open.empty()) {
    if (explored >= options.max_nodes ||
        timer.ElapsedSeconds() > options.time_limit_seconds) {
      truncated = true;
      break;
    }
    Node node = open.top();
    open.pop();
    if (node.bound >= incumbent_obj - 1e-9) continue;
    ++explored;

    // Apply this node's bound changes on top of the original bounds.
    for (int v = 0; v < lp.num_variables(); ++v) {
      work.SetBounds(v, lp.lower_bounds()[static_cast<size_t>(v)],
                     lp.upper_bounds()[static_cast<size_t>(v)]);
    }
    for (const auto& [var, bounds] : node.bound_changes) {
      work.SetBounds(var, bounds.first, bounds.second);
    }

    const LpSolution relax = SolveLp(work, options.simplex);
    ++best.lp_solves;
    best.simplex_pivots += relax.pivots;
    if (relax.status != LpStatus::kOptimal) continue;  // prune (or numeric)
    if (relax.objective >= incumbent_obj - 1e-9) continue;

    const int var = PickBranchVariable(relax.values, integer_vars,
                                       options.integrality_tolerance);
    if (var < 0) {
      // Integral candidate.
      if (!options.incumbent_filter ||
          options.incumbent_filter(relax.values)) {
        incumbent_obj = relax.objective;
        best.status = LpStatus::kOptimal;
        best.objective = relax.objective;
        best.values = relax.values;
        continue;
      }
      // Semantically rejected: forbid this 0/1 assignment and all of its
      // subsets with a no-good cut (valid because feasibility is monotone in
      // the observed set). Then re-expand this node under the cut.
      LpConstraint cut;
      cut.sense = ConstraintSense::kGreaterEqual;
      cut.rhs = 1.0;
      for (int iv : integer_vars) {
        if (relax.values[static_cast<size_t>(iv)] < 0.5) {
          cut.terms.push_back({iv, 1.0});
        }
      }
      if (cut.terms.empty()) continue;  // Everything observed yet infeasible.
      work.AddConstraint(cut);
      // lp's constraints are fixed, so remember the cut for future node
      // rebuilds by re-adding to `work` — `work` persists across nodes and
      // only its *bounds* are reset above, so the cut stays in force.
      Node retry = node;
      retry.bound = relax.objective;
      open.push(std::move(retry));
      continue;
    }

    // Branch on the fractional variable: floor / ceil children.
    const double v = relax.values[static_cast<size_t>(var)];
    const double lo = lp.lower_bounds()[static_cast<size_t>(var)];
    const double hi = lp.upper_bounds()[static_cast<size_t>(var)];

    Node down = node;
    down.bound = relax.objective;
    down.bound_changes.push_back({var, {lo, std::floor(v)}});
    open.push(std::move(down));

    Node up = node;
    up.bound = relax.objective;
    up.bound_changes.push_back({var, {std::ceil(v), hi}});
    open.push(std::move(up));
  }

  best.explored_nodes = explored;
  best.proven_optimal = !truncated && best.status == LpStatus::kOptimal;
  return best;
}

}  // namespace etlopt
