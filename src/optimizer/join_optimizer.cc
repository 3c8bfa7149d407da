#include "optimizer/join_optimizer.h"

#include <algorithm>

namespace etlopt {

Result<OptimizedPlan> OptimizeJoins(const BlockContext& ctx,
                                    const PlanSpace& plan_space,
                                    const CardMap& cards,
                                    const CostParams& params) {
  OptimizedPlan out;
  auto card = [&](RelMask se) -> Result<int64_t> {
    auto it = cards.find(se);
    if (it == cards.end()) {
      return Status::NotFound("no cardinality for SE mask " +
                              std::to_string(se));
    }
    return it->second;
  };

  // DP over connected subsets (already sorted children-first).
  std::unordered_map<RelMask, double> best;
  for (RelMask se : plan_space.subexpressions()) {
    if (IsSingleton(se)) {
      best[se] = 0.0;  // chain tops are free inputs to the join ordering
      continue;
    }
    double se_best = -1.0;
    JoinChoice se_choice;
    ETLOPT_ASSIGN_OR_RETURN(const int64_t out_rows, card(se));
    for (const PlanAlt& plan : plan_space.plans(se)) {
      ETLOPT_ASSIGN_OR_RETURN(const int64_t left_rows, card(plan.left));
      ETLOPT_ASSIGN_OR_RETURN(const int64_t right_rows, card(plan.right));
      // Orient the smaller input to the build side.
      const double step =
          JoinStepCost(std::max(left_rows, right_rows),
                       std::min(left_rows, right_rows), out_rows, params);
      const double total = best.at(plan.left) + best.at(plan.right) + step;
      if (se_best < 0.0 || total < se_best) {
        se_best = total;
        se_choice.left = left_rows >= right_rows ? plan.left : plan.right;
        se_choice.right = left_rows >= right_rows ? plan.right : plan.left;
        se_choice.attr = plan.attr;
      }
    }
    if (se_best < 0.0) {
      return Status::Internal("SE has no plan");
    }
    best[se] = se_best;
    out.choices[se] = se_choice;
  }
  out.cost = best.at(ctx.full_mask());

  // Cost of the designed plan under the same cardinalities.
  double initial = 0.0;
  for (const BlockJoin& j : ctx.block().joins) {
    ETLOPT_ASSIGN_OR_RETURN(const int64_t left_rows, card(j.left));
    ETLOPT_ASSIGN_OR_RETURN(const int64_t right_rows, card(j.right));
    ETLOPT_ASSIGN_OR_RETURN(const int64_t out_rows, card(j.left | j.right));
    initial += JoinStepCost(std::max(left_rows, right_rows),
                            std::min(left_rows, right_rows), out_rows, params);
  }
  out.initial_cost = initial;
  return out;
}

}  // namespace etlopt
