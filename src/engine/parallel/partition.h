#ifndef ETLOPT_ENGINE_PARALLEL_PARTITION_H_
#define ETLOPT_ENGINE_PARALLEL_PARTITION_H_

#include <cstdint>
#include <vector>

#include "engine/table.h"
#include "etl/types.h"
#include "util/thread_pool.h"

namespace etlopt {
namespace parallel {

// Deterministic 64-bit mix of a key value (splitmix64 finalizer). Partition
// placement depends only on the value and the partition count — never on
// pointers, thread ids, or iteration order — so repeated runs land every row
// in the same partition and two co-partitioned inputs agree on placement.
uint64_t PartitionHashValue(Value v);

// Partition index of `v` under `num_partitions`-way hash partitioning.
int HashPartitionIndex(Value v, int num_partitions);

// A table split into disjoint slices. `row_index[p][i]` is the position the
// i-th row of slice p held in the original table, so each slice's indices
// ascend. The parallel executor takes them as the rows' serial ranks: a
// source row's rank is its row index.
struct TablePartitions {
  std::vector<Table> parts;
  std::vector<std::vector<int64_t>> row_index;

  int num_partitions() const { return static_cast<int>(parts.size()); }
  int64_t total_rows() const {
    int64_t total = 0;
    for (const Table& t : parts) total += t.num_rows();
    return total;
  }
};

// Hash-partitions `table` on `attr` (which must be in the schema) into
// `num_partitions` slices, column by column; `pool`, when given, gathers the
// slices in parallel. Rows keep their relative order inside each slice.
TablePartitions HashPartition(const Table& table, AttrId attr,
                              int num_partitions, ThreadPool* pool = nullptr);

// Range-partitions `table` on `attr`: slice p receives rows with
// value <= upper_bounds[p] (and the last slice everything above the final
// bound), so the caller controls skew directly. Used by the benchmark's
// worst-case-skew scenario; the executor itself partitions by hash.
TablePartitions RangePartition(const Table& table, AttrId attr,
                               const std::vector<Value>& upper_bounds);

// max / mean slice cardinality — the skew statistic surfaced in
// `--obs-summary` (1.0 = perfectly balanced; 0 when all slices are empty).
double PartitionSkew(const TablePartitions& partitions);

}  // namespace parallel
}  // namespace etlopt

#endif  // ETLOPT_ENGINE_PARALLEL_PARTITION_H_
