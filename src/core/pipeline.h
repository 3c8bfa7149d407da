#ifndef ETLOPT_CORE_PIPELINE_H_
#define ETLOPT_CORE_PIPELINE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "css/generator.h"
#include "engine/instrumentation.h"
#include "estimator/estimator.h"
#include "obs/calibrate.h"
#include "obs/drift.h"
#include "obs/guard.h"
#include "obs/ledger.h"
#include "opt/greedy_selector.h"
#include "opt/ilp_selector.h"
#include "optimizer/rewrite.h"
#include "util/thread_pool.h"

namespace etlopt {

// Which statistics selector drives step 4 of the framework.
enum class SelectorKind {
  kGreedy,      // Section 5.3 heuristic
  kIlp,         // Section 5.2 integer program (greedy fallback on size)
};

struct PipelineOptions {
  CssGenOptions css;
  PlanSpaceOptions plan_space;
  CostModelOptions cost;
  SelectorKind selector = SelectorKind::kGreedy;
  IlpSelectorOptions ilp;
  CostParams optimizer_cost;
  // Statistics already known from the source systems, free to use (§6.2).
  std::vector<StatKey> free_source_stats;
  // Drift-flagged statistics to force back into every block's selection
  // (re-instrumentation after the drift detector declared them stale).
  std::vector<StatKey> force_observe;
  // Memory budget for the instrumentation taps (bytes). <= 0 means exact
  // collection always (and the Pipeline constructor then consults
  // ETLOPT_TAP_BUDGET for a default). A positive budget makes RunAndObserve
  // switch distinct/histogram taps to streaming sketches whenever the
  // estimated exact footprint exceeds it, and makes Analyze cap the
  // selection cost model's per-statistic memory charge at the sketch sizes.
  int64_t tap_memory_budget_bytes = 0;
  // Robustness knobs for the executor (retry/backoff policy, quarantine
  // error-rate bound). Defaults come from the environment; with no
  // ETLOPT_RETRY_* / ETLOPT_MAX_ERROR_RATE variables set they reproduce
  // the seed behavior exactly.
  ExecutorOptions executor = ExecutorOptions::FromEnv();
  // Tap checkpoint sidecar: when non-empty, RunAndObserve snapshots the
  // partial tap state there every `checkpoint_every_rows` tapped rows
  // (crash-safe tmp+fsync+rename), discards the sidecar on clean
  // completion, and leaves a final partial=true snapshot behind when the
  // run aborts. The Pipeline constructor consults ETLOPT_CHECKPOINT_EVERY
  // when checkpoint_every_rows is not positive.
  std::string checkpoint_path;
  int64_t checkpoint_every_rows = 0;
  // Worker threads for the partitioned executor (engine/parallel/). 1 runs
  // the serial executor unchanged — the default path, bit-identical to the
  // seed. > 1 partitions eligible operator chains across a worker pool the
  // Pipeline owns (reused across runs); the taps read the gathered tables,
  // so observed statistics are identical to a serial run's. <= 0
  // consults ETLOPT_THREADS (default 1).
  int num_threads = 0;
  // Cost-model calibration fit from profiled ledger runs (obs/calibrate.h).
  // When non-empty, Analyze scales the selection cost model's CPU charge to
  // calibrated tap nanoseconds, and RunAndObserve annotates the run profile
  // with per-operator predicted times (the "cost" / "plan_cost" rows of the
  // --obs-summary q-error table). The Pipeline constructor consults
  // ETLOPT_CALIBRATION (a file path) when this is empty.
  obs::CostCalibration calibration;
  // Plan-regression guard (obs/guard.h): adoption gate thresholds and
  // runtime estimate-monitor policy. Mode defaults to `warn` (evidence
  // scored and recorded, plans still adopted — behaviorally identical to
  // the seed on clean runs); `strict` keeps the designed plan on weak
  // evidence and aborts on a monitor violation; `off` disables everything.
  // Defaults come from ETLOPT_GUARD_* via GuardOptions::FromEnv.
  obs::GuardOptions guard = obs::GuardOptions::FromEnv();
};

// History-free artifacts of one block (steps 1-3 of Fig. 2): they depend on
// the workflow alone.
struct BlockStructure {
  Block block;
  BlockContext ctx;
  PlanSpace plan_space;
  CssCatalog catalog;
};

// The history-free part of an analysis. Immutable once built and shared
// (std::shared_ptr<const WorkflowAnalysis>) by every Analysis of the same
// workflow. Owns a stable copy of the workflow that the block contexts
// point into.
struct WorkflowAnalysis {
  std::unique_ptr<Workflow> workflow;
  std::vector<std::unique_ptr<BlockStructure>> blocks;
};

// Per-block analysis artifacts (steps 1-4 of Fig. 2): references into the
// shared BlockStructure, plus this cycle's selection problem and result.
struct BlockAnalysis {
  explicit BlockAnalysis(const BlockStructure& structure)
      : block(structure.block),
        ctx(structure.ctx),
        plan_space(structure.plan_space),
        catalog(structure.catalog) {}

  const Block& block;
  const BlockContext& ctx;
  const PlanSpace& plan_space;
  const CssCatalog& catalog;
  SelectionProblem problem;  // references `catalog`
  SelectionResult selection;
};

// Whole-workflow analysis of one cycle.
struct Analysis {
  // The workflow copy the block contexts point into. It shares ownership of
  // the WorkflowAnalysis that holds it, so the block structures `blocks`
  // reference live as long as this analysis does, whatever the Pipeline
  // that built it analyzes next.
  std::shared_ptr<const Workflow> workflow;
  std::vector<std::unique_ptr<BlockAnalysis>> blocks;
  // SE sizes salvaged from a partial last history record that seeded the
  // selection cost model (0 when the last record was clean or absent).
  int64_t partial_feedback_keys = 0;
  // Whether Analyze took the block structures (`analysis_reused`) and the
  // selections (`selection_reused`) from the Pipeline's previous analysis
  // instead of building them.
  bool analysis_reused = false;
  bool selection_reused = false;
};

// One instrumented run (steps 5-6). When the execution aborted mid-flight
// (exec.aborted()), block_stats holds the statistics salvaged from the
// completed prefix — keys whose pipeline points fell past the abort are
// simply absent (tap_report.salvage_skipped counts them).
struct RunOutcome {
  ExecutionResult exec;
  std::vector<StatStore> block_stats;  // aligned with Analysis::blocks
  // Tap collection accounting across all blocks: how many taps ran exact
  // vs. sketch, and the bytes each mode held.
  TapReport tap_report;
  // Tap checkpoint sidecar writes that succeeded (the final partial
  // snapshot of an aborted run included).
  int64_t checkpoint_flushes = 0;

  bool aborted() const { return exec.aborted(); }
};

// Step 7: cost-based re-optimization from the learned statistics. After an
// aborted run it carries the designed plan and the salvage cards instead.
struct OptimizeOutcome {
  Workflow optimized;
  std::vector<CardMap> block_cards;  // estimated SE cardinalities per block
  double initial_cost = 0.0;         // designed plan, under learned stats
  double optimized_cost = 0.0;       // chosen plan, under learned stats
  // Adoption verdict of the plan-regression guard, plus any runtime monitor
  // violations the execution raised. When the strict gate rejected the
  // proposal, `optimized` carries the designed workflow, optimized_cost
  // equals initial_cost, and guard.fell_back is true with the rejected
  // plan's signature and the failed criteria recorded.
  obs::GuardRecord guard;
  // When ledger history was supplied: this run's observed statistics and
  // on-path actuals compared against it. Drifted keys feed
  // PipelineOptions::force_observe of the following cycle.
  obs::DriftReport drift;
  // Derived values the estimators' sanitization pass clamped, all blocks.
  int64_t clamped_values = 0;
};

struct CycleOutcome {
  std::unique_ptr<Analysis> analysis;
  RunOutcome run;
  OptimizeOutcome opt;
  // Per-phase wall times, for the run ledger.
  double analyze_ms = 0.0;
  double execute_ms = 0.0;
  double optimize_ms = 0.0;

  // True when the run aborted: `opt` then carries the designed plan
  // unchanged (there is no complete statistics set to re-optimize from) and
  // MakeRunRecord emits a partial=true record.
  bool aborted() const { return run.aborted(); }
};

// The end-to-end optimization loop of Figure 2: analyze the workflow,
// determine the cheapest sufficient statistics, instrument + run, estimate
// every SE cardinality, and emit the re-optimized workflow for the next run.
class Pipeline {
 public:
  explicit Pipeline(PipelineOptions options = {});

  // Steps 1-4. `size_feedback` optionally provides SE sizes from a previous
  // run for the CPU cost metric (Section 5.4's circularity fix). `history`
  // (prior ledger records of this workflow, oldest first) adds two
  // selection inputs: the SEs the last record's monitors caught out are
  // force-observed, and a partial last record seeds the cost model with its
  // salvaged SE sizes scaled by 1/completion (`size_feedback` wins where
  // both give a size).
  //
  // The Pipeline keeps the last analysis it built. When `workflow` writes
  // the same workflow text (and node names) as that one, the block
  // structures are reused; when the selection inputs (force-observed keys,
  // partial-record feedback, `size_feedback`) are also the same, so are the
  // selection problems and results. A workflow that cannot be written as
  // text is analyzed afresh every time. Safe to call from several threads.
  Result<std::unique_ptr<Analysis>> Analyze(
      const Workflow& workflow,
      const std::vector<CardMap>* size_feedback = nullptr,
      const std::vector<obs::RunRecord>* history = nullptr) const;

  // Steps 5-6: execute the designed plan and observe the selected
  // statistics. `history` (prior ledger records of this workflow, oldest
  // first) arms the guard's runtime estimate monitors: the last clean
  // record's per-SE estimates become per-node expected cardinalities the
  // executor checks at its tap points.
  Result<RunOutcome> RunAndObserve(
      const Analysis& analysis, const SourceMap& sources,
      const std::vector<obs::RunRecord>* history = nullptr) const;

  // Step 7: derive all SE cardinalities and rewrite the join orders.
  // `history` yields the drift report and feeds the guard's adoption gate
  // (drift-flagged statistics distrust their dependent estimates; plans a
  // prior run's monitors marked unsafe are rejected outright). An aborted
  // run keeps the designed plan: its salvaged statistics are a prefix, so
  // the outcome only carries every SE cardinality they reach, plus the
  // on-path actuals of the completed prefix, for the partial ledger record.
  Result<OptimizeOutcome> Optimize(
      const Analysis& analysis, const RunOutcome& run,
      const std::vector<obs::RunRecord>* history = nullptr) const;

  // One full cycle: Analyze, RunAndObserve and Optimize, all given the
  // same `history`.
  Result<CycleOutcome> RunCycle(
      const Workflow& workflow, const SourceMap& sources,
      const std::vector<obs::RunRecord>* history = nullptr) const;

  const PipelineOptions& options() const { return options_; }

 private:
  PipelineOptions options_;
  // The last analysis Analyze built and the inputs it was built from.
  struct AnalysisCache;

  // Worker pool for partitioned execution, spun up once when
  // num_threads > 1 and reused by every RunAndObserve.
  std::unique_ptr<ThreadPool> pool_;
  mutable std::mutex cache_mu_;
  mutable std::shared_ptr<const AnalysisCache> cache_;  // guarded by cache_mu_
};

// Sorted (name, value) view of a string->int64 map, for deterministic
// records, checkpoints and results.
std::vector<std::pair<std::string, int64_t>> SortedCounts(
    const std::unordered_map<std::string, int64_t>& counts);

// The analysis's own counters (plan space, CSS, selection effort, partial
// feedback), sorted by name, zero counts omitted: what `analyze` reports,
// and the analysis share of MakeRunRecord's metrics.
std::vector<std::pair<std::string, int64_t>> AnalysisCounters(
    const Analysis& analysis);

// Condenses a completed cycle into a ledger record: workflow fingerprint,
// chosen plan signature, per-SE estimated (and, when `truth` per-block
// ground-truth cardinalities are given, actual) rows, the observed
// statistics, phase timings, the process's peak RSS so far, and this
// cycle's counters (RunRecord::metrics). The record is the one source of a
// run's numbers: --obs-summary, --metrics-out, the ledger line and the
// advisor's report all render it. `run_id` typically comes from
// RunLedger::NextRunId.
obs::RunRecord MakeRunRecord(const CycleOutcome& cycle, std::string run_id,
                             const std::vector<CardMap>* truth = nullptr);

}  // namespace etlopt

#endif  // ETLOPT_CORE_PIPELINE_H_
