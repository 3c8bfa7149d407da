#include "obs/accuracy.h"

#include <algorithm>

namespace etlopt {
namespace obs {
namespace {

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace

double QError(double estimated, double actual) {
  const double e = std::max(estimated, 1.0);
  const double a = std::max(actual, 1.0);
  return std::max(e / a, a / e);
}

QErrorSummary SummarizeQErrors(std::vector<double> qerrors) {
  std::sort(qerrors.begin(), qerrors.end());
  QErrorSummary s;
  s.count = static_cast<int64_t>(qerrors.size());
  if (qerrors.empty()) return s;
  double sum = 0.0;
  for (double q : qerrors) sum += q;
  s.mean = sum / static_cast<double>(qerrors.size());
  s.p50 = Quantile(qerrors, 0.50);
  s.p90 = Quantile(qerrors, 0.90);
  s.p95 = Quantile(qerrors, 0.95);
  s.p99 = Quantile(qerrors, 0.99);
  s.max = qerrors.back();
  return s;
}

}  // namespace obs
}  // namespace etlopt
