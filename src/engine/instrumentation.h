#ifndef ETLOPT_ENGINE_INSTRUMENTATION_H_
#define ETLOPT_ENGINE_INSTRUMENTATION_H_

#include <functional>
#include <unordered_map>
#include <vector>

#include "engine/executor.h"
#include "planspace/block.h"
#include "stats/stat_key.h"
#include "stats/stat_store.h"

namespace etlopt {

// Collection policy for the instrumentation taps. The default (no memory
// budget) materializes exact collectors — O(distinct) memory per
// distinct/histogram tap. With a positive budget, ObserveStatistics checks
// whether the estimated exact-tap footprint fits; when it does not, the
// distinct/histogram taps switch to streaming sketches (src/sketch: HLL,
// Count-Min + KMV key sample) whose memory is bounded by the per-tap budget
// share, and the observed StatValues carry their relative-error parameter.
// Count taps (Card, RejectJoinCard) are O(1)/streaming either way and stay
// exact.
struct TapOptions {
  // <= 0: always exact (the seed behavior).
  int64_t memory_budget_bytes = 0;

  // ---- robustness wiring (off by default) ----
  // Periodic tap checkpointing: after every `checkpoint_every_rows` tapped
  // rows, `on_checkpoint` receives the statistics observed so far, so a
  // caller (core/pipeline) can flush them to a crash-safe sidecar. <= 0 or
  // a null callback disables checkpointing.
  int64_t checkpoint_every_rows = 0;
  std::function<void(const StatStore& partial)> on_checkpoint;

  // Defaults overridden by ETLOPT_TAP_BUDGET (bytes).
  static TapOptions FromEnv();
};

// What the taps of one ObserveStatistics call cost: how many taps ran in
// each mode, the estimated bytes exact collectors would have held, and the
// bytes the chosen collectors actually held.
struct TapReport {
  int exact_taps = 0;
  int sketch_taps = 0;
  int64_t exact_bytes_estimate = 0;
  int64_t tap_bytes = 0;
  // ---- robustness accounting ----
  // Exact taps that hit an injected allocation failure and fell back to the
  // bounded-memory sketch collector.
  int downgraded_taps = 0;
  // Taps lost entirely (allocation failed for sketch too, or the tap kind
  // has no sketch form): the run continued un-instrumented for these keys.
  int disabled_taps = 0;
  // Keys skipped on an aborted run because their inputs fell past the abort.
  int salvage_skipped = 0;
  // Rows fed through taps (the checkpoint cadence counter).
  int64_t rows_tapped = 0;
  // on_checkpoint invocations.
  int64_t checkpoint_flushes = 0;
  // Wall time ObserveStatistics spent inside the taps — the measured
  // instrumentation overhead, kept separate from operator self time in the
  // run profile (RunProfile::tap_ns) and fit as the "tap" pseudo-class by
  // the cost-model calibration.
  int64_t observe_ns = 0;

  void Accumulate(const TapReport& other) {
    exact_taps += other.exact_taps;
    sketch_taps += other.sketch_taps;
    exact_bytes_estimate += other.exact_bytes_estimate;
    tap_bytes += other.tap_bytes;
    downgraded_taps += other.downgraded_taps;
    disabled_taps += other.disabled_taps;
    salvage_skipped += other.salvage_skipped;
    rows_tapped += other.rows_tapped;
    checkpoint_flushes += other.checkpoint_flushes;
    observe_ns += other.observe_ns;
  }
};

// Observes the requested (observable) statistics from a run of the initial
// plan (steps 5-6 of the framework, Fig. 2). Every key must satisfy
// IsObservable for this block. Each tap reads the one serial-order table at
// its pipeline point, so serial and partitioned runs observe identical
// statistics. Counters and histograms read the cached node outputs;
// reject-join statistics attach to the designed join of L with k (adding
// the reject link the paper describes for Fig. 5: the run must have built
// that reject table, see AddRejectTableDemand) and stream the reject rows
// against an R-side hash table over the on-path R table, never
// materializing the side join.
//
// On an aborted run (exec.aborted()) the observation salvages: keys whose
// pipeline-point tables fell past the abort are skipped (and counted in
// TapReport::salvage_skipped) instead of failing the whole observation —
// the completed prefix still yields its statistics.
//
// What the taps cost goes to `report` only; the cycle's record renders its
// etlopt.tap.* counts from RunOutcome::tap_report. A second observation of
// the same run (an exact re-check of sketch-backed keys) therefore counts
// nothing toward the run.
Result<StatStore> ObserveStatistics(const BlockContext& ctx,
                                    const ExecutionResult& exec,
                                    const std::vector<StatKey>& keys,
                                    const TapOptions& taps = {},
                                    TapReport* report = nullptr);

// Adds to `sides` the join reject tables the reject-join taps among `keys`
// read: the designed join of L with k, on the side L takes there. This is
// what Pipeline::RunAndObserve names in ExecutorOptions::reject_sides, so
// the instrumented run builds no reject table its taps do not read. A key
// whose designed join is not on-path adds nothing; observing it fails.
void AddRejectTableDemand(const BlockContext& ctx,
                          const std::vector<StatKey>& keys,
                          std::unordered_map<NodeId, RejectSides>* sides);

// Ground truth for testing and experiments: the exact cardinality of every
// SE in the plan space, counted over the block's chain-top tables without
// materializing any join. Each SE is rooted at its lowest relation; every
// other relation sends its parent a per-key count of the rows its side of
// the SE joins to (messages shared across SEs). The SEs of one root are
// counted in one pass over the root's top that groups its rows by their
// tuple of incoming message values. The cost is O(rows of the tops) per
// message and per root, plus O(SEs × groups). A missing top is Internal, a
// disconnected SE InvalidArgument, and a count beyond int64 OutOfRange.
Result<std::unordered_map<RelMask, int64_t>> ComputeGroundTruthCards(
    const BlockContext& ctx, const std::vector<RelMask>& subexpressions,
    const ExecutionResult& exec);

// Directly materializes one SE (join of the chain tops in `rels` along the
// designed join edges): the test oracle for ComputeGroundTruthCards and
// the reference table of the histogram property tests.
Result<Table> MaterializeSubexpression(const BlockContext& ctx, RelMask rels,
                                       const ExecutionResult& exec);

}  // namespace etlopt

#endif  // ETLOPT_ENGINE_INSTRUMENTATION_H_
