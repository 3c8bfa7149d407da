#ifndef ETLOPT_CORE_REPORT_H_
#define ETLOPT_CORE_REPORT_H_

#include <string>
#include <vector>

#include "core/pipeline.h"

namespace etlopt {

struct ReportOptions {
  // Max observed statistics listed per block (the rest summarized).
  int max_listed_stats = 24;
  // Include the Figure-12-style execution-cover comparison per block.
  bool include_exec_cover = true;
};

// Human-readable rendering of one block's analysis: inputs, join graph,
// plan-space size, CSS counts, the chosen statistics and their cost.
std::string FormatBlockReport(const BlockAnalysis& block,
                              const AttrCatalog& catalog,
                              const ReportOptions& options = {});

// Whole-workflow advisor report (used by the etlopt_advisor CLI).
std::string FormatAnalysisReport(const Analysis& analysis,
                                 const ReportOptions& options = {});

// One sample of the --obs-summary q-error table, keyed by operator type
// ("join", "chain", "cost", "plan_cost", "sketch") and join depth.
struct QErrorSample {
  std::string op;
  int depth = 0;
  double qerror = 1.0;
};

// The q-error samples a record carries: every SE card with ground truth
// ("join" by join depth, "chain" for single inputs), and every operator of
// an annotated profile ("cost", predicted vs measured self time) plus the
// plan total ("plan_cost").
std::vector<QErrorSample> RecordQErrorSamples(const obs::RunRecord& record);

// Observability summary of one run, rendered from its record alone:
// headline counts, phase times, peak RSS, the robustness / parallelism /
// guard sections when they fired, and the estimator q-error quantile table
// over RecordQErrorSamples plus `extra` samples the caller measured outside
// the record (the advisor's sketch re-observation). Rendered by the
// advisor's --obs-summary flag.
std::string FormatObsSummary(const obs::RunRecord& record,
                             const std::vector<QErrorSample>& extra = {});

}  // namespace etlopt

#endif  // ETLOPT_CORE_REPORT_H_
