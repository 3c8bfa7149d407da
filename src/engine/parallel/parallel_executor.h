#ifndef ETLOPT_ENGINE_PARALLEL_PARALLEL_EXECUTOR_H_
#define ETLOPT_ENGINE_PARALLEL_PARALLEL_EXECUTOR_H_

#include "engine/executor.h"
#include "util/thread_pool.h"

namespace etlopt {
namespace parallel {

// Knobs of one partitioned execution. The serial ExecutorOptions ride along
// unchanged: retry, quarantine, and error-rate semantics are identical on
// both paths (sources are always read serially, see below).
struct ParallelOptions {
  // Worker threads; <= 1 delegates to the serial Executor outright.
  int num_threads = 1;
  // Partition fan-out; 0 = one partition per worker. Output is bit-identical
  // for every partition count, so this only shapes load balance — pin it
  // when comparing runs that must consult partition-scoped faults alike.
  int num_partitions = 0;
  ExecutorOptions executor;
};

// What a partitioned run produces beyond the serial ExecutionResult. The
// per-partition output slices stay inside the executor: each node's slices
// are dropped once its last partition-local consumer ran (a node without
// one, once gathered), so a caller reads only the gathered, serial-order
// node_outputs.
struct ParallelResult {
  ExecutionResult exec;
  AttrId partition_attr = kInvalidAttr;
  // False when the run delegated to the serial executor (num_threads <= 1,
  // or no partitionable operator chain under any candidate key).
  bool used_parallel_path = false;
};

// Partition-driven parallel executor.
//
// Plan shape: one partition attribute is chosen (the candidate key that
// partitions the most operators); sources carrying it are hash-partitioned
// after a fully serial read (so retry/quarantine semantics are untouched);
// filter/project/row-transform chains, co-partitioned hash joins on that
// key, and hash joins whose build side is a serial ("broadcast") chain run
// partition-local on the worker pool; blocking operators (aggregates,
// aggregate UDF transforms) gather first and run serially, exactly like
// every node does on the serial path.
//
// Determinism and equivalence: partition placement is a pure hash of the
// key value, and every partition-local row carries one int64 rank: its
// position in the serial output (a source row's rank is its row index).
// Filters, projects, transforms and sinks keep their parent's ranks. A
// partitioned join counts the matches of each probe row, prefix-sums the
// counts over the probe rank space, and ranks each match offset[probe
// rank] + j, j its index among its key's build rows — the serial emission
// order (probe order x build-insertion order), exact because a
// co-partitioned build holds all of a key's rows in one partition and a
// broadcast build holds all rows. The merge barrier scatters every slice
// row to the position of its rank, without comparisons, so node outputs,
// targets, reject tables, and therefore every observed statistic are
// bit-identical to a serial run, for any worker or partition count. Right
// rejects come from the same build-row hit marks (MarkHit) the serial
// HashJoin sets. A join builds only the reject sides JoinRejectSides names
// (ExecutorOptions::reject_sides), as the serial executor does: a side
// nobody reads costs no hit marks, no reject scan and no merge barrier.
//
// Execution: the partitioned chain runs node by node, one ParallelFor over
// the partitions per node (plus the join's prefix-sum barrier). A node is
// gathered into serial order only when something reads it that way: a
// target, a post-phase consumer, a node without consumers, or a caller
// that sets ExecutorOptions::retain_node_outputs (every node is then in
// node_outputs, as on the serial path). Without retention, an aborted
// run's node_outputs holds only what was gathered; salvage callers retain.
//
// Failure semantics mirror the serial executor, partition-granular: a
// partition-scoped crash ("partition:1:crash") drops that partition from
// its failure node onward, the merge barrier gathers the completed
// partitions into partial node outputs, targets and reject tables
// (PublishNodeProduct; nodes_partial / partition_rows watermarks record the
// salvage surface), and the run aborts with kCrash before any downstream
// serial node runs.
//
// Operator semantics are the serial executor's (engine/executor.h): serial
// nodes run ExecuteNodeStep, partitioned row operators run ApplyRowOperator
// on each slice, and a partitioned node is finished and published by
// FinishNodeStep at the barrier. This executor owns only the partitioning:
// the attribute choice, ranked slices, the morsel join, the barrier and
// partition salvage.
class ParallelExecutor {
 public:
  explicit ParallelExecutor(const Workflow* workflow,
                            ParallelOptions options = {});

  // Runs the workflow. `pool` lets a caller amortize worker threads across
  // runs; null spins up a pool for this execution only.
  Result<ParallelResult> Execute(const SourceMap& sources,
                                 ThreadPool* pool = nullptr) const;

  const ParallelOptions& options() const { return options_; }

 private:
  const Workflow* wf_;
  ParallelOptions options_;
};

}  // namespace parallel
}  // namespace etlopt

#endif  // ETLOPT_ENGINE_PARALLEL_PARALLEL_EXECUTOR_H_
