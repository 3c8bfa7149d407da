#ifndef ETLOPT_OBS_GUARD_H_
#define ETLOPT_OBS_GUARD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/bitmask.h"
#include "util/json.h"
#include "util/status.h"

namespace etlopt {
namespace obs {

// Forward declarations (obs/calibrate.h and obs/profile.h include the
// ledger, which embeds GuardRecord — keep this header cycle-free).
struct CostCalibration;
struct RunProfile;

// The plan-regression guard: before a re-optimized plan replaces the
// designed one, the evidence behind its cardinality estimates is scored —
// per-SE provenance (exact observation vs sketch-backed vs drift-flagged),
// whether the selection was seeded from a partial run's salvage, and the
// calibration coverage of the cost model that priced the plans. A plan that
// cannot justify itself is a regression risk: the designed plan is the one
// the workflow author shipped and is always safe to keep running.
//
// Modes:
//   off    — the gate and the runtime monitors are disabled entirely; the
//            re-optimized plan is adopted unconditionally (seed behavior).
//   warn   — evidence is scored and recorded (ledger guard section, metrics,
//            obs-summary), but the plan is adopted regardless. The default.
//   strict — a failing verdict keeps the designed plan, and a runtime
//            monitor violation aborts the run through the salvage path.
enum class GuardMode : uint8_t { kOff = 0, kWarn, kStrict };

const char* GuardModeName(GuardMode mode);
Result<GuardMode> ParseGuardMode(const std::string& text);

struct GuardOptions {
  GuardMode mode = GuardMode::kWarn;
  // Minimum aggregate evidence score (min over per-SE confidences, times
  // the partial-history and calibration-coverage factors) required to adopt
  // a plan that differs from the designed one. A single drift-flagged
  // statistic halves its dependent SEs' confidence to 0.5, which falls
  // below this default — drift alone is enough to block adoption.
  double min_evidence = 0.6;
  // Minimum predicted relative improvement of the proposed plan over the
  // designed plan, (initial - optimized) / max(initial, 1). A proposal that
  // is predicted barely better is not worth the regression risk.
  double min_margin = 0.0;
  // Runtime monitor bound: max(expected/actual, actual/expected) of an
  // adopted plan's priced cardinality vs the observed one, above which the
  // plan is marked unsafe for reuse (and strict mode aborts the run).
  double monitor_qerror = 4.0;
  // Confidence multiplier applied per drift-flagged observed leaf feeding
  // an SE estimate.
  double drift_penalty = 0.5;
  // Evidence multiplier when the selection cost model was seeded from a
  // partial (salvaged) run.
  double partial_penalty = 0.5;

  // Defaults overridden by ETLOPT_GUARD_MODE (off|warn|strict),
  // ETLOPT_GUARD_MIN_EVIDENCE, ETLOPT_GUARD_MIN_MARGIN,
  // ETLOPT_GUARD_MONITOR_QERROR, ETLOPT_GUARD_DRIFT_PENALTY and
  // ETLOPT_GUARD_PARTIAL_PENALTY.
  static GuardOptions FromEnv();
};

// Confidence evidence for one SE cardinality estimate: 1.0 for a value
// derived purely from exact observations, degraded by sketch error bounds
// and by drift-flagged feeding statistics (see
// Estimator::CardinalityConfidence).
struct SeEvidence {
  int block = 0;
  RelMask se = 0;
  double confidence = 1.0;
};

// Everything the adoption decision is made from. Pure data, so the verdict
// is unit-testable without a pipeline.
struct GuardInputs {
  // True when the optimizer's proposal differs from the designed plan; an
  // identical plan is trivially adoptable (there is nothing to regress to).
  bool plan_changed = false;
  double initial_cost = 0.0;    // designed plan, under learned stats
  double optimized_cost = 0.0;  // proposed plan, under learned stats
  std::vector<SeEvidence> evidence;
  // Fraction of the run's profiled operator classes the live calibration
  // has fits for; 1.0 when calibration is not in play.
  double calibration_coverage = 1.0;
  // The selection cost model was seeded from a partial run's salvage.
  bool partial_history = false;
  // Fingerprint of the proposed plan, and the signatures of plans a prior
  // run's monitors marked unsafe for reuse.
  std::string proposed_signature;
  std::vector<std::string> unsafe_signatures;
};

// The adoption decision plus the evidence trail behind it.
struct GuardVerdict {
  bool adopt = true;
  double evidence_score = 1.0;  // min SE confidence x penalty factors
  double margin = 0.0;          // predicted relative improvement
  std::vector<std::string> reasons;  // each failed criterion, human-readable
};

// Scores the evidence and decides adoption under `options.mode`. In kOff
// the verdict always adopts with no reasons; in kWarn the reasons are
// recorded but `adopt` stays true; in kStrict any failed criterion flips
// `adopt` to false. The cycle's record derives its etlopt.guard.* counts
// from the verdict (MakeRunRecord).
GuardVerdict EvaluateAdoption(const GuardOptions& options,
                              const GuardInputs& inputs);

// Fraction of the profile's operator-class weight the calibration has fits
// for. 1.0 when the calibration is empty (not in play) or the profile is
// empty (nothing was priced from measurements).
double CalibrationCoverage(const CostCalibration& calibration,
                           const RunProfile& profile);

// The guard section of a ledger record: the adoption verdict of the cycle
// plus any runtime monitor violations its execution raised. Serialized only
// when engaged(), so clean-run ledger lines are unchanged.
struct GuardRecord {
  std::string mode;          // "off" | "warn" | "strict"
  bool adopted = true;       // did the cycle adopt the optimizer's proposal
  bool fell_back = false;    // strict gate kept the designed plan
  double evidence = 1.0;
  double margin = 0.0;
  std::string proposed_signature;  // the rejected plan, when fell_back
  std::vector<std::string> reasons;

  // One runtime monitor violation: the plan was priced expecting
  // `expected` rows at the SE's pipeline point and observed `actual`.
  struct Monitor {
    int block = 0;
    RelMask se = 0;
    int64_t node = 0;
    double expected = 0.0;
    double actual = 0.0;
    double qerror = 1.0;
  };
  std::vector<Monitor> violations;
  // Monitors exceeded the bound: the estimates the last proposal was priced
  // with are wrong at runtime, so that proposal must not be adopted again.
  bool plan_unsafe = false;
  // The plan signature the violations condemn (the prior record's
  // proposal); later adoption gates reject a proposal matching it.
  std::string unsafe_signature;

  bool engaged() const {
    return fell_back || plan_unsafe || !violations.empty() ||
           !reasons.empty();
  }

  Json ToJson() const;
  static GuardRecord FromJson(const Json& j);

  std::string ToText() const;
};

}  // namespace obs
}  // namespace etlopt

#endif  // ETLOPT_OBS_GUARD_H_
