#ifndef ETLOPT_OBS_RUN_REPORT_H_
#define ETLOPT_OBS_RUN_REPORT_H_

#include <string>
#include <utility>
#include <vector>

#include "obs/ledger.h"
#include "util/json.h"

namespace etlopt {
namespace obs {

struct RunReportOptions {
  // Worst-calibrated operator classes listed per workflow.
  int top_k = 5;
};

// The advisor's offline accuracy dashboard: everything below is computed
// from ledger records alone (profiles carry the predictions that were live
// at run time), so the report needs neither the workflow file nor the
// sources. Per workflow fingerprint it renders, across runs:
//   - cardinality q-error (estimated vs actual SE rows) and plan cost
//     q-error (predicted vs measured operator ns) trends,
//   - the top-k worst-calibrated operator classes against a calibration
//     re-fit from the same records,
//   - drift events, recomputed by replaying the drift detector over each
//     run against its history prefix,
//   - sketch/partial/build-provenance annotations that qualify how much the
//     numbers can be trusted.
std::string FormatRunReportMarkdown(const std::vector<RunRecord>& records,
                                    const RunReportOptions& options = {});

// The same dashboard as a machine-readable document (one "workflows" entry
// per fingerprint).
Json RunReportJson(const std::vector<RunRecord>& records,
                   const RunReportOptions& options = {});

// Q-error of each SE card that carries ground truth (estimated and actual
// both set), in record order and paired with its SE: the card samples that
// both the runs table here and the --obs-summary q-error table read.
std::vector<std::pair<RelMask, double>> CardQErrors(const RunRecord& record);

// One run's counters (RunRecord::metrics) and the gauges its fields carry
// (plan costs, guard evidence, parallel fan-out, peak RSS) — the advisor's
// --metrics-out. Prometheus text exposition: one `name value` sample per
// line, dots in the base name mapped to underscores, a {label="v"} suffix
// passed through.
std::string RunMetricsPrometheus(const RunRecord& record);
// The same as one JSON object: {"counters":{...},"gauges":{...}}.
std::string RunMetricsJson(const RunRecord& record);

}  // namespace obs
}  // namespace etlopt

#endif  // ETLOPT_OBS_RUN_REPORT_H_
