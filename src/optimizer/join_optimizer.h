#ifndef ETLOPT_OPTIMIZER_JOIN_OPTIMIZER_H_
#define ETLOPT_OPTIMIZER_JOIN_OPTIMIZER_H_

#include "optimizer/plan_cost.h"
#include "planspace/plan_space.h"
#include "util/status.h"

namespace etlopt {

// The chosen join tree for a block: for every multi-relation SE reachable
// from the root, the split used to build it.
struct JoinChoice {
  RelMask left = 0;
  RelMask right = 0;
  AttrId attr = kInvalidAttr;
};

struct OptimizedPlan {
  double cost = 0.0;
  // Split per SE on the chosen tree (keyed by SE mask; leaves absent).
  std::unordered_map<RelMask, JoinChoice> choices;
  // The designed (initial) plan's cost under the same cardinalities, for
  // comparison.
  double initial_cost = 0.0;
};

// Step 7 of the framework (Fig. 2): textbook dynamic-programming join-order
// optimization over the block's plan space, driven by the SE cardinalities
// learned from the selected statistics.
Result<OptimizedPlan> OptimizeJoins(const BlockContext& ctx,
                                    const PlanSpace& plan_space,
                                    const CardMap& cards,
                                    const CostParams& params = {});

}  // namespace etlopt

#endif  // ETLOPT_OPTIMIZER_JOIN_OPTIMIZER_H_
