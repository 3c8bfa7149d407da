#ifndef ETLOPT_OPTIMIZER_PLAN_COST_H_
#define ETLOPT_OPTIMIZER_PLAN_COST_H_

#include <cstdint>
#include <unordered_map>

#include "util/bitmask.h"

namespace etlopt {

// Operator cost parameters for the classic hash-join cost model:
//   cost(L ⋈ R) = build·|R| + probe·|L| + output·|L ⋈ R|
// summed over the join tree. Cardinalities come from the learned statistics
// (the whole point of the framework: with exact cardinalities for every SE,
// every plan is costed exactly).
struct CostParams {
  double build = 2.0;   // per build-side row (hash table insert)
  double probe = 1.0;   // per probe-side row
  double output = 1.0;  // per produced row
};

using CardMap = std::unordered_map<RelMask, int64_t>;

// Cost of joining two already-available inputs with a hash join
// (probe = left, build = right).
double JoinStepCost(int64_t left_rows, int64_t right_rows, int64_t out_rows,
                    const CostParams& params);

}  // namespace etlopt

#endif  // ETLOPT_OPTIMIZER_PLAN_COST_H_
