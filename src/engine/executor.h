#ifndef ETLOPT_ENGINE_EXECUTOR_H_
#define ETLOPT_ENGINE_EXECUTOR_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "engine/table.h"
#include "etl/workflow.h"
#include "obs/profile.h"
#include "util/bitmask.h"
#include "util/status.h"

namespace etlopt {

namespace fault {
class FaultInjector;
}  // namespace fault
class Rng;

// Source bindings: table name -> data.
using SourceMap = std::unordered_map<std::string, Table>;

// Retry policy for transient source failures (io_error / timeout): attempt,
// back off exponentially with jitter, attempt again. Backoff durations are
// drawn deterministically from a seeded stream so fault-injected runs are
// reproducible.
struct RetryPolicy {
  int max_attempts = 4;            // total attempts per source read
  double initial_backoff_ms = 1.0; // delay before the 2nd attempt
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 100.0;
  double jitter_fraction = 0.25;   // +/- uniform share of the delay

  // Defaults overridden by ETLOPT_RETRY_MAX_ATTEMPTS /
  // ETLOPT_RETRY_BACKOFF_MS / ETLOPT_RETRY_MAX_BACKOFF_MS.
  static RetryPolicy FromEnv();
};

// A runtime plan monitor attached to one node: the cardinality the current
// plan was priced with at this pipeline point (obs/guard.h wires these from
// ledger history). The executor compares the node's observed output rows
// against `expected_rows` and records a violation when the q-error exceeds
// ExecutorOptions::monitor_qerror_bound.
struct PlanMonitor {
  double expected_rows = -1.0;  // < 0 disables the monitor
  int block = 0;
  RelMask se = 0;
};

// Which of a join's reject tables (ExecutionResult::join_rejects*) a run
// builds.
struct RejectSides {
  bool left = false;   // probe rows without a match
  bool right = false;  // build rows no probe row hit
};

// Robustness knobs of one Executor. The defaults reproduce the seed
// behavior exactly when no fault injector is installed.
struct ExecutorOptions {
  RetryPolicy retry;
  // Fraction of a source's rows allowed to divert to the quarantine sink
  // before the run aborts (the paper's reject-link semantics, bounded): a
  // few malformed rows are an expected property of foreign sources, a
  // majority means the extract is garbage and continuing would poison every
  // statistic downstream.
  double max_error_rate = 0.05;
  // Error-rate enforcement only kicks in past this many read rows, so a
  // single bad row in a tiny table does not abort the run.
  int64_t min_rows_for_error_rate = 20;

  // ---- plan-regression monitors (empty = disabled, zero overhead) ----
  // Estimate monitors per node: observed output rows are compared against
  // the cardinality the running plan was priced with. The map is consulted
  // only when non-empty, so the unguarded hot path pays one branch.
  std::unordered_map<NodeId, PlanMonitor> monitors;
  // q-error bound above which a monitor raises a violation.
  double monitor_qerror_bound = 4.0;
  // Strict guard: the first violation aborts the run (kGuard) through the
  // salvage path instead of merely recording it.
  bool monitor_abort = false;

  // Per-join build-side cardinality hints (node id -> predicted build
  // rows), derived from the same ledger estimates that arm the monitors:
  // the hash join sizes its table from the prediction instead of the row
  // count when an annotation is present (see BuildSideCardHints). Purely a
  // performance hint — outputs never depend on it.
  std::unordered_map<NodeId, int64_t> build_rows_hints;

  // Keep every node's output in ExecutionResult::node_outputs. Off by
  // default: Execute drops a non-target node's output once its last
  // consumer has run, so a production run holds only the tables still
  // ahead of it. Callers that read node_outputs after the run (the
  // statistics taps, salvage, tests inspecting intermediates) set it.
  bool retain_node_outputs = false;

  // Join reject tables to build beyond the designed ones, by join node.
  // Every run builds the left rejects of a join whose plan declares
  // JoinSpec::left_reject_link; an entry here adds the sides it names.
  // Empty (a production run), no other reject table is built and no join
  // builds right rejects. Pipeline::RunAndObserve names the sides its
  // selected reject-join taps read (AddRejectTableDemand); a test that
  // reads every reject table names every join. A reject table costs a scan
  // of one join side and, on the partitioned path, a merge barrier, so a
  // table nobody reads is not built. Independent of retain_node_outputs.
  std::unordered_map<NodeId, RejectSides> reject_sides;

  // Defaults overridden by ETLOPT_MAX_ERROR_RATE.
  static ExecutorOptions FromEnv();
};

// Why an execution stopped early. kNone means the run completed.
enum class AbortKind : uint8_t {
  kNone = 0,
  kCrash,          // injected crash fault (process-death stand-in)
  kErrorRate,      // quarantine exceeded ExecutorOptions::max_error_rate
  kSourceFailed,   // transient source errors outlived the retry budget
  kGuard,          // strict plan monitor: estimate q-error exceeded bound
};

// One raised estimate monitor: the running plan expected `expected` rows at
// this node's pipeline point and observed `actual`.
struct MonitorViolation {
  NodeId node = kInvalidNode;
  int block = 0;
  RelMask se = 0;
  double expected = 0.0;
  double actual = 0.0;
  double qerror = 1.0;
};

const char* AbortKindName(AbortKind kind);

// Everything produced by one run of a workflow. With
// ExecutorOptions::retain_node_outputs, `node_outputs` caches every node's
// output so the instrumentation layer can observe any pipeline point after
// the fact — semantically equivalent to the per-tuple handlers that
// commercial engines expose (Section 3.2.5) while keeping the engine simple.
// Without it, only the outputs nothing consumed are left at the end: the
// sink, materialized targets, and nodes without consumers.
struct ExecutionResult {
  std::unordered_map<NodeId, Table> node_outputs;
  // Rows that found no match, per join node and side, for the sides the
  // run built (JoinRejectSides): a designed reject link's left rejects on
  // every run, plus on the instrumented run the sides the selected
  // reject-join taps read (ExecutorOptions::reject_sides). A join side not
  // built has no entry. Left rejects are the probe rows without a match, in probe
  // order; right rejects are the build rows no probe row hit, in build
  // order. Both come out of the join's one hash probe (HashJoin, and the
  // partitioned join's shared hit marks).
  std::unordered_map<NodeId, Table> join_rejects;        // left-side rejects
  std::unordered_map<NodeId, Table> join_rejects_right;  // right-side rejects
  // Materialize / Sink outputs, by target name.
  std::unordered_map<std::string, Table> targets;
  // Total tuples flowing through all operators: a machine-independent proxy
  // for the run's work, used to compare initial vs optimized plans.
  int64_t rows_processed = 0;
  // Total bytes those tuples occupied (8 bytes per value, per the row
  // layout): the denominator for per-MB instrumentation overhead reporting.
  int64_t bytes_processed = 0;

  // Per-operator profile (self wall time, rows, bytes), populated only when
  // obs::ProfilerEnabled() — empty otherwise. tap_ns is filled in later by
  // the pipeline once instrumentation has run over the cached outputs.
  obs::RunProfile profile;

  // ---- robustness accounting (all empty/zero on a clean, un-faulted run) --
  // Malformed rows diverted per source — the error-sink tables mirroring
  // the paper's reject links, kept for audit instead of silently dropped.
  std::unordered_map<std::string, Table> quarantined;
  // Transient-failure retries absorbed per source.
  std::unordered_map<std::string, int64_t> source_retries;
  // Failed source opens across all sources, by kind; the failures that
  // were retried also count in source_retries.
  int64_t source_timeouts = 0;
  int64_t source_io_errors = 0;
  // Rows scanned per source (quarantined rows included) — the per-source
  // progress watermarks a partial ledger record carries.
  std::unordered_map<std::string, int64_t> source_rows_read;

  // Estimate monitors that exceeded the q-error bound during the run
  // (ExecutorOptions::monitors). Under monitor_abort the first violation
  // also aborts with kGuard; otherwise the run completes and the guard
  // layer marks the plan unsafe for reuse.
  std::vector<MonitorViolation> monitor_violations;

  // When the run stopped early: what happened and where. node_outputs then
  // holds only the operators that completed before the abort — the salvage
  // surface for partial-statistics collection.
  AbortKind abort_kind = AbortKind::kNone;
  std::string abort_reason;
  NodeId abort_node = kInvalidNode;
  // Nodes the workflow has in total vs. nodes that completed: the coarse
  // run-completion watermark.
  int nodes_total = 0;
  int nodes_completed = 0;

  // ---- parallelism accounting (all zero on the serial path) ----
  // Worker threads and partition fan-out of the run (engine/parallel/).
  int num_workers = 0;
  int partitions_total = 0;
  int partitions_completed = 0;
  // Nodes whose output covers only the completed partitions — the
  // partition-granular salvage surface after a partition-scoped crash.
  int nodes_partial = 0;
  // Time spent at the merge barrier reassembling partition slices.
  int64_t merge_ns = 0;
  // max / mean partition cardinality over the partitioned source rows.
  double partition_skew = 0.0;
  // Source rows assigned to each partition — the per-partition progress
  // watermarks a partial checkpoint carries.
  std::vector<int64_t> partition_rows;

  bool aborted() const { return abort_kind != AbortKind::kNone; }
  int64_t quarantined_rows() const {
    int64_t total = 0;
    for (const auto& [name, table] : quarantined) total += table.num_rows();
    return total;
  }
  double completion_fraction() const {
    if (nodes_total <= 0) return 1.0;
    double completed = nodes_completed;
    // A partially-gathered node counts by its completed-partition share,
    // so a partition-scoped crash reports finer progress than whole nodes.
    if (partitions_total > 0 && nodes_partial > 0) {
      completed += nodes_partial * static_cast<double>(partitions_completed) /
                   partitions_total;
    }
    return completed / nodes_total;
  }
};

// Fixes glibc's malloc thresholds once per process: mmap at 32 MiB, the
// ceiling glibc's dynamic mmap threshold climbs to, and trim at 512 MiB, so
// a run's freed buffers stay in the process for the next run instead of
// being returned at the heap top and faulted in again. Left dynamic, both
// thresholds rise only after a large block is freed, so whether a run's
// buffers reuse heap that is already faulted in, or are mapped and faulted
// afresh, would depend on what ran earlier in the process. Both executors
// call it on entry; a no-op off glibc.
void PinAllocatorThresholds();

// Single-threaded executor for ETL workflows, running the columnar
// kernels one operator at a time in topological order.
//
// Failure semantics: unrecoverable *configuration* errors (unbound source,
// schema mismatch) return a non-OK Result as before. Injected *runtime*
// faults that stop the run mid-flight (crash points, quarantine overflow,
// retry exhaustion) return an OK Result whose ExecutionResult carries
// abort_kind != kNone plus everything computed up to the abort — callers
// salvage statistics from the completed prefix instead of losing the run.
class Executor {
 public:
  explicit Executor(const Workflow* workflow, ExecutorOptions options = {});

  Result<ExecutionResult> Execute(const SourceMap& sources) const;

  const ExecutorOptions& options() const { return options_; }

 private:
  const Workflow* wf_;
  ExecutorOptions options_;
};

// ---- shared per-node execution steps ----------------------------------
// The serial loop body, split in two so the partitioned executor
// (engine/parallel/) runs the exact same semantics: kPre/kPost nodes go
// through the full step, while partitioned nodes compute their output on
// the worker pool and re-join the serial bookkeeping at the merge barrier
// via FinishNodeStep. Everything an operator touches travels through the
// context, so a step never reaches for globals the caller didn't choose.

// The fault-injection identity of an operator: lowercased OpKindName +
// node id ("join5"), shared by fault specs and profile frame labels.
std::string OpFaultName(const WorkflowNode& node);

struct NodeStepContext {
  const Workflow* wf = nullptr;
  const SourceMap* sources = nullptr;
  const ExecutorOptions* options = nullptr;
  fault::FaultInjector* inj = nullptr;  // null = fault layer disabled
  bool profiling = false;
  Rng* backoff_rng = nullptr;  // deterministic retry jitter
  ExecutionResult* result = nullptr;
};

// Records an early stop on ctx.result (abort kind/reason/node) and logs it.
void AbortRun(const NodeStepContext& ctx, AbortKind kind, std::string reason,
              const WorkflowNode& node);

// Runs the operator itself: reads inputs from result->node_outputs, fills
// `out`, and does the in-switch bookkeeping (rows_processed, targets,
// join rejects, source retry/quarantine). Configuration errors come back
// as a non-OK Status; runtime aborts land in result->abort_*.
Status ComputeNodeOutput(const NodeStepContext& ctx, const WorkflowNode& node,
                         Table* out);

// What entered an operator: its inputs' rows, and the bytes they occupy
// (8 bytes per value).
struct NodeInputSize {
  int64_t rows = 0;
  int64_t bytes = 0;
};

// The post-operator half: crash-fault consult, plan monitor, byte
// accounting and profile op. `in` and `rows_out` size the
// operator (a partitioned node sums its partitions); `self_ns` is its
// measured self time (summed across workers when the node ran
// partitioned). Returns whether the output may be published: false when the
// run aborted, before or inside this step. The caller publishes it into
// result->node_outputs.
bool FinishNodeStep(const NodeStepContext& ctx, const WorkflowNode& node,
                    NodeInputSize in, int64_t rows_out, int64_t self_ns);

// ComputeNodeOutput + self-time measurement + FinishNodeStep, under the
// operator's trace span: one full serial node step.
Status ExecuteNodeStep(const NodeStepContext& ctx, const WorkflowNode& node);

// Executes a join of two tables on a shared attribute (hash join; build on
// the right input), the engine's one join kernel. When `rejects` is
// non-null it receives the left rows with no match, in probe order; when
// `right_rejects` is non-null it receives the right rows no left row hit,
// in build order (from the build rows' hit marks, MarkHit). Exposed for the
// instrumentation side-joins of the union-division statistics.
// `build_rows_hint` > 0 presizes the build table from the estimator's
// predicted build cardinality (ExecutorOptions::build_rows_hints); <= 0
// falls back to the row count.
Table HashJoin(const Table& left, const Table& right, AttrId attr,
               Table* rejects, int64_t build_rows_hint = -1,
               Table* right_rejects = nullptr);

// The reject tables `join` builds under `options`: its designed reject
// link's left side, plus the sides ExecutorOptions::reject_sides names.
// Both executors ask it, so they build the same tables.
RejectSides JoinRejectSides(const ExecutorOptions& options,
                            const WorkflowNode& join);

// Derives ExecutorOptions::build_rows_hints from armed plan monitors: for
// every join node whose build (right) input carries an expected
// cardinality, the hash join reserves from the prediction instead of
// discovering the size row by row.
std::unordered_map<NodeId, int64_t> BuildSideCardHints(
    const Workflow& wf,
    const std::unordered_map<NodeId, PlanMonitor>& monitors);

}  // namespace etlopt

#endif  // ETLOPT_ENGINE_EXECUTOR_H_
