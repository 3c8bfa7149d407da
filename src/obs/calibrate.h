#ifndef ETLOPT_OBS_CALIBRATE_H_
#define ETLOPT_OBS_CALIBRATE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/ledger.h"
#include "obs/profile.h"
#include "util/json.h"
#include "util/status.h"

namespace etlopt {
namespace obs {

// Measured cost-model overlay: nanoseconds per row for each operator class,
// regressed from the per-operator profiles of prior ledger runs. The fit is
// a ratio estimator — ns_per_row = total self ns / total rows per class —
// which minimizes the per-plan prediction error on the fitting data and is
// robust to the per-op timing noise of short operators.
//
// An *unfitted* class predicts with a deliberately pessimistic default
// (kDefaultNsPerRow), the same philosophy as the selection cost model's
// default_se_size: before measurement the model should over-budget, and the
// first calibrated run should visibly shrink the cost q-error.
struct CostCalibration {
  struct ClassFit {
    int64_t rows = 0;       // total profiled weight the fit saw
    int64_t ns = 0;         // total self ns
    double ns_per_row = 0.0;
  };

  // Operator class ("Join", "Filter", ...) -> fit. The pseudo-class "tap"
  // carries the instrumentation overhead fit (observe ns per tapped row),
  // which is what the selection cost table consumes.
  std::map<std::string, ClassFit> classes;
  int runs = 0;              // ledger records that contributed
  std::string fingerprint;   // workflow the fit came from ("" = mixed)

  static constexpr double kDefaultNsPerRow = 10000.0;

  bool empty() const { return classes.empty(); }

  // Fitted ns/row for a class; kDefaultNsPerRow when unfitted.
  double NsPerRow(const std::string& op) const;
  // Predicted operator cost for `rows` of profiled weight.
  double PredictNs(const std::string& op, int64_t rows) const;

  Json ToJson() const;
  static Result<CostCalibration> FromJson(const Json& j);

  // JSON file round trip (Save is plain write — the overlay is a derived
  // artifact, regenerable from the ledger).
  Status Save(const std::string& path) const;
  static Result<CostCalibration> Load(const std::string& path);

  // ETLOPT_CALIBRATION names an overlay file to load at startup; unset (or
  // unreadable) yields an empty calibration.
  static CostCalibration FromEnv();

  std::string ToText() const;
};

// Fits a calibration from every record carrying a non-empty profile.
// Records without profiles are skipped; the result's `runs` counts the
// contributors. The fit is work-based, not wall-time-based: a parallel
// run's merged profile sums per-worker self times at the merge barrier, so
// each op's self_ns is total CPU work regardless of how many threads ran
// it, and ns/row from a --threads=N run is directly comparable with a
// serial one. (Wall times are NOT — the report flags threads-mismatch.)
CostCalibration FitCalibration(const std::vector<RunRecord>& records);

// Stamps each op's pred_ns (and nothing else) with the calibrated
// prediction, making the profile self-contained for offline cost q-error:
// `advisor report` recomputes accuracy from the ledger without knowing
// which overlay was active at run time.
void AnnotatePredictions(const CostCalibration& calibration,
                         RunProfile* profile);

// Per-plan cost q-error: q(sum of predictions, sum of measured self ns)
// over annotated ops. 0.0 when nothing is annotated.
double PlanCostQError(const RunProfile& profile);

}  // namespace obs
}  // namespace etlopt

#endif  // ETLOPT_OBS_CALIBRATE_H_
