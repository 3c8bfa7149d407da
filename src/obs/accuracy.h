#ifndef ETLOPT_OBS_ACCURACY_H_
#define ETLOPT_OBS_ACCURACY_H_

#include <cstdint>
#include <vector>

namespace etlopt {
namespace obs {

// Q-error of a cardinality estimate: max(est/actual, actual/est) with both
// sides clamped to >= 1 row (the convention of the cardinality-estimation
// benchmarking literature; exact estimates give 1.0).
double QError(double estimated, double actual);

struct QErrorSummary {
  int64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

// Count, mean, max and linearly interpolated quantiles of a set of q-error
// samples (all zero when there are none). Samples are kept raw — one per
// sub-expression or operator per run — so the quantiles are exact.
QErrorSummary SummarizeQErrors(std::vector<double> qerrors);

}  // namespace obs
}  // namespace etlopt

#endif  // ETLOPT_OBS_ACCURACY_H_
