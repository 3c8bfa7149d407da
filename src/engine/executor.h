#ifndef ETLOPT_ENGINE_EXECUTOR_H_
#define ETLOPT_ENGINE_EXECUTOR_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/table.h"
#include "etl/workflow.h"
#include "obs/profile.h"
#include "util/bitmask.h"
#include "util/random.h"
#include "util/status.h"

namespace etlopt {

namespace fault {
class FaultInjector;
}  // namespace fault

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

// How one run of either executor goes beyond computing the plan: retry
// and quarantine limits, plan monitors, output retention, and the reject
// tables it builds. Executor reads it directly, parallel::ParallelExecutor
// through ParallelOptions::executor. No option changes the rows a node
// produces.
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
// What an operator does and what finishing a node means live here only.
// The serial executor runs ExecuteNodeStep for every node. The partitioned
// executor (engine/parallel/) runs it for its serial nodes, runs
// ApplyRowOperator per partition slice, and brings each partitioned node's
// gathered product back through FinishNodeStep at the merge barrier.
// Everything a step touches travels through the context, so a step never
// reaches for globals the caller didn't choose.

// The fault-injection identity of an operator: lowercased OpKindName +
// node id ("join5"), shared by fault specs and profile frame labels.
std::string OpFaultName(const WorkflowNode& node);

// One run's step context. The constructor is the run setup both executors
// share: it reads the installed fault injector and the profiler switch
// once, seeds the retry-jitter stream, and sets result->nodes_total.
struct NodeStepContext {
  NodeStepContext(const Workflow* wf, const SourceMap* sources,
                  const ExecutorOptions* options, ExecutionResult* result);
  NodeStepContext(const NodeStepContext&) = delete;
  NodeStepContext& operator=(const NodeStepContext&) = delete;

  const Workflow* wf;
  const SourceMap* sources;
  const ExecutorOptions* options;
  fault::FaultInjector* inj;  // null = fault layer disabled
  bool profiling;
  mutable Rng backoff_rng;  // deterministic retry jitter
  ExecutionResult* result;
};

// Records an early stop on ctx.result (abort kind/reason/node) and logs it.
void AbortRun(const NodeStepContext& ctx, AbortKind kind, std::string reason,
              const WorkflowNode& node);

// The row operators: filter, project, transform and target pass-through,
// applied to `in` (a whole input or one partition's slice of it). A filter
// leaves the input rows it keeps in `sel`; every other operator keeps all
// rows and leaves `sel` alone. A transform maps its column; an aggregate
// UDF's reduction of the mapped rows is the caller's.
Table ApplyRowOperator(const WorkflowNode& node, const Schema& out_schema,
                       const Table& in, SelVector* sel);

// What one node step leaves for publication: its output (absent for a
// partitioned node nothing reads in serial order) and the join reject
// tables it built (JoinRejectSides).
struct NodeProduct {
  std::optional<Table> output;
  std::optional<Table> rejects;        // left side
  std::optional<Table> right_rejects;  // right side
};

// Moves `product` into the result: the output into node_outputs and, for
// a target, into targets; the reject tables into join_rejects*. Called by
// FinishNodeStep once a node passed its checks, and by partition salvage
// for the partial products of the completed partitions.
void PublishNodeProduct(const WorkflowNode& node, NodeProduct* product,
                        ExecutionResult* result);

// What entered an operator: its inputs' rows, and the bytes they occupy
// (8 bytes per value).
struct NodeInputSize {
  int64_t rows = 0;
  int64_t bytes = 0;
};

// Finishing a node, the same on both paths: adds `in.rows` to
// rows_processed, consults the crash fault, checks the plan monitor, adds
// `in.bytes` to bytes_processed, records the profile op, and publishes
// `product` (PublishNodeProduct). `in` and `rows_out` size the operator (a
// partitioned node sums its partitions); `self_ns` is its measured self
// time (summed across workers when the node ran partitioned). A run that
// aborts here, or had aborted before, publishes nothing: the salvage
// surface is the completed prefix.
void FinishNodeStep(const NodeStepContext& ctx, const WorkflowNode& node,
                    NodeInputSize in, int64_t rows_out, int64_t self_ns,
                    NodeProduct* product);

// Runs the operator on its inputs in result->node_outputs, measures its
// self time and finishes it (FinishNodeStep), under the operator's trace
// span: one full serial node step. Configuration errors (unbound source,
// schema mismatch) come back as a non-OK Status; runtime aborts land in
// result->abort_*.
Status ExecuteNodeStep(const NodeStepContext& ctx, const WorkflowNode& node);

// The last-consumer release rule: unless the run retains every output
// (ExecutorOptions::retain_node_outputs), a non-target node's output
// leaves node_outputs once its last consumer ran.
class OutputRelease {
 public:
  OutputRelease(const Workflow& wf, bool retain);

  // `node` completed: drops the inputs it was the last consumer of.
  void After(const WorkflowNode& node, ExecutionResult* result);

 private:
  const Workflow& wf_;
  std::vector<int> pending_;  // consumers still to run; empty = retain all
};

// Executes a join of two tables on a shared attribute (hash join; build on
// the right input), the serial executor's join kernel. When `rejects` is
// non-null it receives the left rows with no match, in probe order; when
// `right_rejects` is non-null it receives the right rows no left row hit,
// in build order (from the build rows' hit marks, MarkHit). Outside the
// executor, MaterializeSubexpression joins the chain of a subexpression
// with it.
Table HashJoin(const Table& left, const Table& right, AttrId attr,
               Table* rejects, Table* right_rejects = nullptr);

// The reject tables `join` builds under `options`: its designed reject
// link's left side, plus the sides ExecutorOptions::reject_sides names.
// Both executors ask it, so they build the same tables.
RejectSides JoinRejectSides(const ExecutorOptions& options,
                            const WorkflowNode& join);

}  // namespace etlopt

#endif  // ETLOPT_ENGINE_EXECUTOR_H_
