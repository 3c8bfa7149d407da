#include "obs/calibrate.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/accuracy.h"
#include "util/logging.h"

namespace etlopt {
namespace obs {

double CostCalibration::NsPerRow(const std::string& op) const {
  const auto it = classes.find(op);
  if (it == classes.end() || it->second.ns_per_row <= 0.0) {
    return kDefaultNsPerRow;
  }
  return it->second.ns_per_row;
}

double CostCalibration::PredictNs(const std::string& op, int64_t rows) const {
  return NsPerRow(op) * static_cast<double>(rows > 0 ? rows : 1);
}

Json CostCalibration::ToJson() const {
  Json j = Json::Object();
  j.Set("kind", Json::Str("etlopt-calibration"));
  j.Set("runs", Json::Int(runs));
  if (!fingerprint.empty()) j.Set("fingerprint", Json::Str(fingerprint));
  Json jc = Json::Object();
  for (const auto& [op, fit] : classes) {
    Json jf = Json::Object();
    jf.Set("rows", Json::Int(fit.rows));
    jf.Set("ns", Json::Int(fit.ns));
    jf.Set("ns_per_row", Json::Double(fit.ns_per_row));
    jc.Set(op, std::move(jf));
  }
  j.Set("classes", std::move(jc));
  return j;
}

Result<CostCalibration> CostCalibration::FromJson(const Json& j) {
  if (!j.is_object()) {
    return Status::InvalidArgument("calibration is not a JSON object");
  }
  CostCalibration cal;
  cal.runs = static_cast<int>(j.GetInt("runs"));
  cal.fingerprint = j.GetString("fingerprint");
  const Json* jc = j.Find("classes");
  if (jc != nullptr && jc->is_object()) {
    for (const auto& [op, jf] : jc->members()) {
      if (!jf.is_object()) continue;
      ClassFit fit;
      fit.rows = jf.GetInt("rows");
      fit.ns = jf.GetInt("ns");
      fit.ns_per_row = jf.GetDouble("ns_per_row");
      // A malformed overlay silently corrupts every cost prediction (and the
      // adoption gate's coverage score), so bad fits are a config error, not
      // something to clamp: the operator who wrote the file must fix it.
      if (!std::isfinite(fit.ns_per_row) || fit.ns_per_row < 0.0) {
        return Status::InvalidArgument(
            "calibration class '" + op + "' has invalid ns_per_row " +
            std::to_string(fit.ns_per_row) + " (must be finite and >= 0)");
      }
      if (fit.rows < 0 || fit.ns < 0) {
        return Status::InvalidArgument(
            "calibration class '" + op + "' has negative rows/ns (rows=" +
            std::to_string(fit.rows) + ", ns=" + std::to_string(fit.ns) +
            ")");
      }
      cal.classes.emplace(op, fit);
    }
  }
  return cal;
}

Status CostCalibration::Save(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open calibration file '" + path +
                                   "' for writing");
  }
  out << ToJson().Dump() << "\n";
  out.flush();
  if (!out.good()) {
    return Status::Internal("write to calibration file '" + path +
                            "' failed");
  }
  return Status::OK();
}

Result<CostCalibration> CostCalibration::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("calibration file not found: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  ETLOPT_ASSIGN_OR_RETURN(const Json j, Json::Parse(buf.str()));
  return FromJson(j);
}

CostCalibration CostCalibration::FromEnv() {
  const char* path = std::getenv("ETLOPT_CALIBRATION");
  if (path == nullptr || *path == '\0') return {};
  Result<CostCalibration> loaded = Load(path);
  if (!loaded.ok()) {
    ETLOPT_LOG(Warning) << "ETLOPT_CALIBRATION='" << path
                        << "' not loaded: " << loaded.status().ToString();
    return {};
  }
  return *loaded;
}

std::string CostCalibration::ToText() const {
  std::ostringstream out;
  out << "cost calibration (" << runs << " run(s)";
  if (!fingerprint.empty()) out << ", workflow " << fingerprint;
  out << "):\n";
  if (classes.empty()) {
    out << "  (unfitted; every class predicts the pessimistic default "
        << kDefaultNsPerRow << " ns/row)\n";
    return out.str();
  }
  char line[120];
  for (const auto& [op, fit] : classes) {
    std::snprintf(line, sizeof(line), "  %-14s %10.1f ns/row (%lld rows)\n",
                  op.c_str(), fit.ns_per_row,
                  static_cast<long long>(fit.rows));
    out << line;
  }
  return out.str();
}

CostCalibration FitCalibration(const std::vector<RunRecord>& records) {
  CostCalibration cal;
  bool mixed = false;
  for (const RunRecord& record : records) {
    if (record.profile.empty()) continue;
    ++cal.runs;
    if (cal.fingerprint.empty()) {
      cal.fingerprint = record.fingerprint;
    } else if (cal.fingerprint != record.fingerprint) {
      mixed = true;
    }
    for (const OpProfile& op : record.profile.ops) {
      // self_ns is per-worker work time (parallel runs sum worker times at
      // the merge barrier), never wall time — so ns/row fitted here mixes
      // serial and --threads=N runs without conflating speedup with cost.
      CostCalibration::ClassFit& fit = cal.classes[op.op];
      fit.rows += RunProfile::Weight(op);
      fit.ns += op.self_ns;
    }
    if (record.profile.tap_ns > 0) {
      // Instrumentation overhead fit: observe ns per row available at the
      // taps' pipeline points (the sum of operator outputs — the tables
      // ObserveStatistics reads). This is the per-tuple price the selection
      // cost table charges for an observation point.
      int64_t tap_rows = 0;
      for (const OpProfile& op : record.profile.ops) {
        tap_rows += op.rows_out;
      }
      CostCalibration::ClassFit& fit = cal.classes["tap"];
      fit.rows += tap_rows > 0 ? tap_rows : 1;
      fit.ns += record.profile.tap_ns;
    }
  }
  if (mixed) cal.fingerprint.clear();
  for (auto& [op, fit] : cal.classes) {
    (void)op;
    if (fit.rows > 0) {
      fit.ns_per_row =
          static_cast<double>(fit.ns) / static_cast<double>(fit.rows);
    }
  }
  return cal;
}

void AnnotatePredictions(const CostCalibration& calibration,
                         RunProfile* profile) {
  if (profile == nullptr) return;
  for (OpProfile& op : profile->ops) {
    op.pred_ns = calibration.PredictNs(op.op, RunProfile::Weight(op));
  }
}

double PlanCostQError(const RunProfile& profile) {
  double predicted = 0.0;
  double measured = 0.0;
  bool any = false;
  for (const OpProfile& op : profile.ops) {
    if (op.pred_ns < 0.0) continue;
    predicted += op.pred_ns;
    measured += static_cast<double>(op.self_ns);
    any = true;
  }
  return any ? QError(predicted, measured) : 0.0;
}

}  // namespace obs
}  // namespace etlopt
