#include "obs/guard.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "obs/calibrate.h"
#include "obs/profile.h"
#include "util/env.h"
#include "util/logging.h"

namespace etlopt {
namespace obs {
const char* GuardModeName(GuardMode mode) {
  switch (mode) {
    case GuardMode::kOff:
      return "off";
    case GuardMode::kWarn:
      return "warn";
    case GuardMode::kStrict:
      return "strict";
  }
  return "unknown";
}

Result<GuardMode> ParseGuardMode(const std::string& text) {
  if (text == "off") return GuardMode::kOff;
  if (text == "warn") return GuardMode::kWarn;
  if (text == "strict") return GuardMode::kStrict;
  return Status::InvalidArgument("unknown guard mode '" + text +
                                 "' (expected off|warn|strict)");
}

GuardOptions GuardOptions::FromEnv() {
  GuardOptions options;
  const char* mode = std::getenv("ETLOPT_GUARD_MODE");
  if (mode != nullptr && *mode != '\0') {
    const Result<GuardMode> parsed = ParseGuardMode(mode);
    if (parsed.ok()) {
      options.mode = *parsed;
    } else {
      ETLOPT_LOG(Warning) << "ETLOPT_GUARD_MODE='" << mode
                          << "' ignored: " << parsed.status().ToString();
    }
  }
  options.min_evidence =
      EnvDouble("ETLOPT_GUARD_MIN_EVIDENCE", options.min_evidence);
  options.min_margin = EnvDouble("ETLOPT_GUARD_MIN_MARGIN", options.min_margin);
  options.monitor_qerror =
      EnvDouble("ETLOPT_GUARD_MONITOR_QERROR", options.monitor_qerror);
  options.drift_penalty =
      EnvDouble("ETLOPT_GUARD_DRIFT_PENALTY", options.drift_penalty);
  options.partial_penalty =
      EnvDouble("ETLOPT_GUARD_PARTIAL_PENALTY", options.partial_penalty);
  return options;
}

GuardVerdict EvaluateAdoption(const GuardOptions& options,
                              const GuardInputs& inputs) {
  GuardVerdict verdict;
  if (options.mode == GuardMode::kOff) return verdict;

  double min_confidence = 1.0;
  for (const SeEvidence& se : inputs.evidence) {
    min_confidence = std::min(min_confidence, se.confidence);
  }
  verdict.evidence_score = min_confidence;
  if (inputs.partial_history) {
    verdict.evidence_score *= options.partial_penalty;
  }
  // Unfitted operator classes price with the pessimistic default; a plan
  // chosen under mostly-default costs carries proportionally less evidence.
  const double coverage =
      std::clamp(inputs.calibration_coverage, 0.0, 1.0);
  verdict.evidence_score *= 0.5 + 0.5 * coverage;

  const double denom = std::max(std::abs(inputs.initial_cost), 1.0);
  verdict.margin = (inputs.initial_cost - inputs.optimized_cost) / denom;

  if (!inputs.plan_changed) {
    // The proposal IS the designed plan; adoption is a no-op and cannot
    // regress. Record the score, skip the criteria.
    return verdict;
  }

  auto fail = [&](std::string reason) {
    verdict.reasons.push_back(std::move(reason));
  };
  if (verdict.evidence_score < options.min_evidence) {
    std::ostringstream msg;
    msg << "evidence " << verdict.evidence_score << " below threshold "
        << options.min_evidence;
    fail(msg.str());
  }
  if (verdict.margin < options.min_margin) {
    std::ostringstream msg;
    msg << "predicted margin " << verdict.margin << " below threshold "
        << options.min_margin;
    fail(msg.str());
  }
  if (!inputs.proposed_signature.empty()) {
    for (const std::string& sig : inputs.unsafe_signatures) {
      if (sig == inputs.proposed_signature) {
        fail("plan " + sig +
             " was marked unsafe by a prior run's monitors");
        break;
      }
    }
  }
  if (!verdict.reasons.empty() && options.mode == GuardMode::kStrict) {
    verdict.adopt = false;
  }
  return verdict;
}

double CalibrationCoverage(const CostCalibration& calibration,
                           const RunProfile& profile) {
  if (calibration.empty() || profile.empty()) return 1.0;
  int64_t fitted = 0;
  int64_t total = 0;
  for (const OpProfile& op : profile.ops) {
    const int64_t weight = std::max<int64_t>(RunProfile::Weight(op), 1);
    total += weight;
    if (calibration.classes.count(op.op) > 0) fitted += weight;
  }
  if (total <= 0) return 1.0;
  return static_cast<double>(fitted) / static_cast<double>(total);
}

Json GuardRecord::ToJson() const {
  Json j = Json::Object();
  j.Set("mode", Json::Str(mode));
  j.Set("adopted", Json::Bool(adopted));
  if (fell_back) j.Set("fell_back", Json::Bool(true));
  j.Set("evidence", Json::Double(evidence));
  j.Set("margin", Json::Double(margin));
  if (!proposed_signature.empty()) {
    j.Set("proposed_sig", Json::Str(proposed_signature));
  }
  if (!reasons.empty()) {
    Json jr = Json::Array();
    for (const std::string& reason : reasons) jr.push_back(Json::Str(reason));
    j.Set("reasons", std::move(jr));
  }
  if (!violations.empty()) {
    Json jv = Json::Array();
    for (const Monitor& m : violations) {
      Json jm = Json::Object();
      jm.Set("block", Json::Int(m.block));
      jm.Set("se", Json::Int(static_cast<int64_t>(m.se)));
      jm.Set("node", Json::Int(m.node));
      jm.Set("expected", Json::Double(m.expected));
      jm.Set("actual", Json::Double(m.actual));
      jm.Set("qerror", Json::Double(m.qerror));
      jv.push_back(std::move(jm));
    }
    j.Set("violations", std::move(jv));
  }
  if (plan_unsafe) j.Set("plan_unsafe", Json::Bool(true));
  if (!unsafe_signature.empty()) {
    j.Set("unsafe_sig", Json::Str(unsafe_signature));
  }
  return j;
}

GuardRecord GuardRecord::FromJson(const Json& j) {
  GuardRecord record;
  if (!j.is_object()) return record;
  record.mode = j.GetString("mode");
  if (const Json* adopted = j.Find("adopted");
      adopted != nullptr && adopted->is_bool()) {
    record.adopted = adopted->bool_value();
  }
  if (const Json* fell = j.Find("fell_back");
      fell != nullptr && fell->is_bool() && fell->bool_value()) {
    record.fell_back = true;
  }
  record.evidence = j.GetDouble("evidence", 1.0);
  record.margin = j.GetDouble("margin", 0.0);
  record.proposed_signature = j.GetString("proposed_sig");
  if (const Json* jr = j.Find("reasons");
      jr != nullptr && jr->is_array()) {
    for (const Json& reason : jr->array()) {
      if (reason.is_string()) record.reasons.push_back(reason.string_value());
    }
  }
  if (const Json* jv = j.Find("violations");
      jv != nullptr && jv->is_array()) {
    for (const Json& jm : jv->array()) {
      if (!jm.is_object()) continue;
      Monitor m;
      m.block = static_cast<int>(jm.GetInt("block"));
      m.se = static_cast<RelMask>(jm.GetInt("se"));
      m.node = jm.GetInt("node");
      m.expected = jm.GetDouble("expected");
      m.actual = jm.GetDouble("actual");
      m.qerror = jm.GetDouble("qerror", 1.0);
      record.violations.push_back(m);
    }
  }
  if (const Json* unsafe = j.Find("plan_unsafe");
      unsafe != nullptr && unsafe->is_bool() && unsafe->bool_value()) {
    record.plan_unsafe = true;
  }
  record.unsafe_signature = j.GetString("unsafe_sig");
  return record;
}

std::string GuardRecord::ToText() const {
  std::ostringstream out;
  out << "guard (" << mode << "): "
      << (fell_back ? "fell back to designed plan"
                    : (adopted ? "adopted" : "not adopted"))
      << ", evidence " << evidence << ", margin " << margin << "\n";
  for (const std::string& reason : reasons) {
    out << "  reason: " << reason << "\n";
  }
  for (const Monitor& m : violations) {
    out << "  monitor: block " << m.block << " se " << m.se << " node "
        << m.node << " expected " << m.expected << " actual " << m.actual
        << " qerror " << m.qerror << "\n";
  }
  if (plan_unsafe) out << "  plan marked unsafe for reuse\n";
  return out.str();
}

}  // namespace obs
}  // namespace etlopt
