#ifndef ETLOPT_CORE_LIFECYCLE_H_
#define ETLOPT_CORE_LIFECYCLE_H_

#include "core/pipeline.h"
#include "obs/drift.h"
#include "opt/resource.h"

namespace etlopt {

// The full Section 6.1 lifecycle, executed: when the memory budget cannot
// hold the optimal statistics set, the first instrumented run observes the
// affordable subset and the remaining SE cardinalities are collected as
// trivial counters across additional runs with re-ordered plans (the
// repeated-execution strategy of [pay-as-you-go], reduced to only the SEs
// that statistics could not cover).
struct BudgetedLifecycleResult {
  // Per block: the budgeted selection (first run) and the complete SE
  // cardinality map after all runs.
  std::vector<BudgetedSelection> selections;
  std::vector<CardMap> block_cards;
  // Total workflow executions performed (1 + re-ordered runs).
  int executions = 0;
  // The re-optimized workflow from the completed statistics.
  Workflow optimized;
  double initial_cost = 0.0;
  double optimized_cost = 0.0;
  // Statistics observed during the first (instrumented) run, per block.
  std::vector<StatStore> block_stats;
  // SE cardinalities the analysis seeded from a partial last history
  // record (Analysis::partial_feedback_keys); 0 without one.
  int64_t partial_feedback_keys = 0;
  // When ledger history was supplied: how this run's observations compare,
  // including which statistic taps to re-enable on the next run (the
  // report Pipeline::Optimize returns as OptimizeOutcome::drift). Drifted
  // keys feed PipelineOptions::force_observe of the following cycle.
  obs::DriftReport drift;
  // Plan-regression guard outcome: the adoption verdict for the
  // re-optimized plan (strict rejections keep the designed plan and set
  // fell_back) plus any runtime estimate-monitor violations the first run
  // raised against the last clean history record's estimates.
  obs::GuardRecord guard;
  // Per-operator profile of the first (instrumented) run, annotated with
  // calibrated predictions when PipelineOptions::calibration is set. Empty
  // unless obs::ProfilerEnabled().
  obs::RunProfile profile;

  // ---- robustness state (defaults describe a clean lifecycle) ----
  // When the first (instrumented) run aborted: block_stats and block_cards
  // hold only what the completed prefix salvaged, the re-ordered runs are
  // skipped (they would hit the same fault), and `optimized` carries the
  // designed plan unchanged. When a re-ordered run aborted instead, the
  // abort kind and reason are that run's, completion stays 1.0, and
  // block_cards hold what the counts gathered so far reach. Either way the
  // caller appends a partial=true ledger record, which the next lifecycle
  // or RunCycle consumes as low-confidence feedback.
  AbortKind abort_kind = AbortKind::kNone;
  std::string abort_reason;
  double completion = 1.0;  // nodes completed / nodes total of the first run
  std::vector<std::pair<std::string, int64_t>> source_rows_read;
  std::vector<std::pair<std::string, int64_t>> source_retries;
  int64_t quarantined_rows = 0;

  bool aborted() const { return abort_kind != AbortKind::kNone; }
};

// Runs the budgeted lifecycle to completion on a Pipeline built from
// `options`: Analyze, a budgeted re-selection per block, RunAndObserve,
// the re-ordered runs, then Optimize. Each block gets the full
// `memory_budget` for its collectors (blocks run at different pipeline
// stages, so collector memory is not held concurrently). `history`, when
// given, holds prior ledger records of the same workflow (oldest first) and
// is consumed as by Pipeline::RunCycle.
Result<BudgetedLifecycleResult> RunBudgetedLifecycle(
    const Workflow& workflow, const SourceMap& sources, double memory_budget,
    const PipelineOptions& options = {},
    const std::vector<obs::RunRecord>* history = nullptr);

}  // namespace etlopt

#endif  // ETLOPT_CORE_LIFECYCLE_H_
