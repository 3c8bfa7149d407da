#ifndef ETLOPT_OBS_LEDGER_H_
#define ETLOPT_OBS_LEDGER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "etl/workflow.h"
#include "obs/build_info.h"
#include "obs/guard.h"
#include "obs/profile.h"
#include "stats/stat_store.h"
#include "util/status.h"

namespace etlopt {
namespace obs {

// One executed run of a workflow, as remembered across processes. The
// paper's deployment model is design-once / run-repeatedly: statistics
// instrumented in run N drive the optimizer in run N+1, which may be hours
// later in a different process — the ledger is the durable carrier of that
// feedback loop, and the provenance source for the advisor's `explain`.
struct RunRecord {
  std::string run_id;        // e.g. "run-3"; unique within a fingerprint
  std::string fingerprint;   // 16-hex FNV-1a of the canonical workflow text
  std::string workflow;      // display name
  int64_t timestamp_ms = 0;  // unix wall clock
  std::string selector;      // statistics-selection method ("greedy", "ilp")
  std::string plan_signature;  // 16-hex fingerprint of the optimized plan
  double initial_cost = 0.0;
  double optimized_cost = 0.0;
  // Per-phase wall times of the cycle (milliseconds).
  double analyze_ms = 0.0;
  double execute_ms = 0.0;
  double optimize_ms = 0.0;

  // Estimated vs. actual cardinality of one sub-expression. `actual` is -1
  // when no ground truth was available for the run.
  struct SeCard {
    int block = 0;
    RelMask se = 0;
    double estimated = -1.0;
    double actual = -1.0;
  };
  std::vector<SeCard> cards;

  // The statistics observed in this run, per block — complete values
  // (histograms included), so a later process can re-derive every estimate
  // this run could have made. Each value carries its collection mode (exact
  // vs sketch, with the sketch's relative-error parameter) through the
  // stat_io codec, so cross-run drift comparisons know when they are
  // comparing approximations rather than exact observations.
  std::vector<StatStore> block_stats;

  // This run's counters (sorted name -> value, zero counts omitted): rows,
  // taps, selection effort, robustness and guard events. Records written
  // before the counters were per-run hold the process's cumulative counts
  // here; they still load.
  std::vector<std::pair<std::string, int64_t>> metrics;

  // ---- robustness fields (defaults describe a clean run; serialized only
  // when they deviate, so clean-run ledger lines are unchanged) ----
  // True when the run aborted mid-flight (crash fault, quarantine overflow,
  // retry exhaustion) and block_stats holds statistics salvaged from the
  // completed prefix. Consumers treat such statistics as low-confidence:
  // the estimator scales them by the completion watermark and the drift
  // detector widens its thresholds (DriftOptions::partial_widen_factor).
  bool partial = false;
  std::string abort_reason;  // human-readable cause, empty when clean
  // Fraction of workflow nodes that completed before the abort (1.0 clean).
  double completion = 1.0;
  // Per-source rows-read watermarks and absorbed retries (sorted by name).
  std::vector<std::pair<std::string, int64_t>> source_rows_read;
  std::vector<std::pair<std::string, int64_t>> source_retries;
  // Malformed rows diverted to the quarantine sink across all sources.
  int64_t quarantined_rows = 0;
  // Worker threads the run executed with (1 = serial; serialized only when
  // different). Profiled self times are per-worker work time, so they stay
  // comparable across thread counts, but phase wall times do not — the
  // advisor's report flags cross-thread-count comparisons like it flags
  // cross-build ones.
  int num_threads = 1;
  // Partition fan-out and max/mean partition cardinality of a partitioned
  // run (serialized only when partitions > 0).
  int partitions = 0;
  double partition_skew = 0.0;
  // Peak resident set size of the producing process when the record was
  // made, in bytes (serialized only when set). One cycle per process makes
  // it the run's peak.
  int64_t peak_rss_bytes = 0;

  // Per-operator profile of the run (self time, rows, bytes, tap overhead,
  // and the calibrated prediction that was live when the run executed).
  // Empty when profiling was off; serialized only when non-empty, so
  // unprofiled ledger lines are unchanged. This is the raw material for
  // offline cost-model calibration and the advisor's accuracy report.
  RunProfile profile;

  // Identity of the binary that produced the run (git sha, compiler, build
  // type, sanitizers). Empty git_sha means a pre-provenance record; the
  // advisor's report uses BuildInfo::ComparableWith to flag cross-build
  // timing comparisons. Serialized only when populated.
  BuildInfo build;

  // Plan-regression guard section: the adoption verdict of this cycle plus
  // any runtime estimate-monitor violations its execution raised.
  // Serialized only when engaged() — clean guarded runs leave the ledger
  // line unchanged.
  GuardRecord guard;

  // Adds `value` to the named counter of `metrics`, keeping names sorted.
  void AddMetric(const std::string& name, int64_t value);
  // The named counter of `metrics`, 0 when absent.
  int64_t Metric(const std::string& name) const;

  std::string ToJsonLine() const;
  static Result<RunRecord> FromJsonLine(const std::string& line);
};

// Canonical workflow identity: 16 hex chars of FNV-1a 64 over the workflow's
// serialized text (falls back to the structural ToString for workflows with
// non-serializable UDFs). Two processes loading the same workflow file agree
// on the fingerprint; editing the workflow changes it.
std::string FingerprintWorkflow(const Workflow& workflow);

// FNV-1a 64 of an arbitrary string, rendered as 16 hex chars (the same
// encoding FingerprintWorkflow uses — exposed for plan signatures).
std::string FingerprintText(const std::string& text);

struct LedgerLoadResult {
  std::vector<RunRecord> records;  // file order = append order
  int skipped_lines = 0;           // corrupt/truncated lines tolerated
};

// Append-only JSONL store, one RunRecord per line. Appends are crash-safe:
// the new content is written to "<path>.tmp", flushed and fsynced, then
// renamed over the ledger, so a reader never sees a half-written record
// from a completed append (a record lost mid-append shows up as a
// truncated last line, which Load tolerates and reports).
class RunLedger {
 public:
  explicit RunLedger(std::string path) : path_(std::move(path)) {}

  const std::string& path() const { return path_; }

  // Missing file loads as an empty ledger (a workflow's first run).
  Result<LedgerLoadResult> Load() const;

  Status Append(const RunRecord& record);

  // Records matching one workflow fingerprint, oldest first.
  static std::vector<RunRecord> HistoryFor(
      const std::vector<RunRecord>& records, const std::string& fingerprint);

  // Next run id for a fingerprint: "run-<N>" with N = prior runs + 1.
  static std::string NextRunId(const std::vector<RunRecord>& records,
                               const std::string& fingerprint);

 private:
  std::string path_;
};

}  // namespace obs
}  // namespace etlopt

#endif  // ETLOPT_OBS_LEDGER_H_
