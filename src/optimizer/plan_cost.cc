#include "optimizer/plan_cost.h"

namespace etlopt {

double JoinStepCost(int64_t left_rows, int64_t right_rows, int64_t out_rows,
                    const CostParams& params) {
  return params.probe * static_cast<double>(left_rows) +
         params.build * static_cast<double>(right_rows) +
         params.output * static_cast<double>(out_rows);
}

}  // namespace etlopt
