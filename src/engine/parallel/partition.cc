#include "engine/parallel/partition.h"

#include <algorithm>

#include "util/logging.h"

namespace etlopt {
namespace parallel {

uint64_t PartitionHashValue(Value v) {
  // splitmix64 finalizer: full-avalanche, constant-time, and stable across
  // platforms — unlike std::hash, whose result is implementation-defined.
  // Shared with the columnar join kernels (engine/column.h), so partition
  // placement and hash-table slotting agree on the same mix.
  return Hash64(v);
}

int HashPartitionIndex(Value v, int num_partitions) {
  ETLOPT_CHECK(num_partitions > 0);
  return static_cast<int>(PartitionHashValue(v) %
                          static_cast<uint64_t>(num_partitions));
}

namespace {

// Splits `table` column by column: one pass assigns every row its
// partition id and counts the rows per partition, a second lays out each
// partition's row indices (exactly sized, ascending), and every column is
// then gathered once per partition — one task per partition on `pool`,
// when given.
template <typename PartitionOf>
TablePartitions SplitColumnar(const Table& table, int num_partitions,
                              ThreadPool* pool, PartitionOf partition_of) {
  const int64_t n = table.num_rows();
  std::vector<int32_t> pid(static_cast<size_t>(n));
  std::vector<int64_t> counts(static_cast<size_t>(num_partitions), 0);
  for (int64_t r = 0; r < n; ++r) {
    const int p = partition_of(r);
    pid[static_cast<size_t>(r)] = p;
    ++counts[static_cast<size_t>(p)];
  }
  TablePartitions out;
  out.row_index.resize(static_cast<size_t>(num_partitions));
  for (int p = 0; p < num_partitions; ++p) {
    out.row_index[static_cast<size_t>(p)].reserve(
        static_cast<size_t>(counts[static_cast<size_t>(p)]));
  }
  for (int64_t r = 0; r < n; ++r) {
    out.row_index[static_cast<size_t>(pid[static_cast<size_t>(r)])]
        .push_back(r);
  }
  out.parts.resize(static_cast<size_t>(num_partitions));
  auto gather = [&](int p) {
    const size_t sp = static_cast<size_t>(p);
    out.parts[sp] = Table::Gather(table, out.row_index[sp]);
    return Status::OK();
  };
  if (pool == nullptr) {
    for (int p = 0; p < num_partitions; ++p) gather(p);
  } else {
    const Status status = pool->ParallelFor(num_partitions, gather);
    ETLOPT_CHECK_MSG(status.ok(), "partition gather failed");
  }
  return out;
}

}  // namespace

TablePartitions HashPartition(const Table& table, AttrId attr,
                              int num_partitions, ThreadPool* pool) {
  ETLOPT_CHECK(num_partitions > 0);
  const int col = table.schema().IndexOf(attr);
  ETLOPT_CHECK_MSG(col >= 0, "partition attribute missing from schema");
  const Value* keys = table.column_data(col);
  const uint64_t fanout = static_cast<uint64_t>(num_partitions);
  return SplitColumnar(table, num_partitions, pool, [&](int64_t r) {
    return static_cast<int>(PartitionHashValue(keys[r]) % fanout);
  });
}

TablePartitions RangePartition(const Table& table, AttrId attr,
                               const std::vector<Value>& upper_bounds) {
  ETLOPT_CHECK(!upper_bounds.empty());
  const int col = table.schema().IndexOf(attr);
  ETLOPT_CHECK_MSG(col >= 0, "partition attribute missing from schema");
  const int num_partitions = static_cast<int>(upper_bounds.size()) + 1;
  const Value* keys = table.column_data(col);
  return SplitColumnar(table, num_partitions, nullptr, [&](int64_t r) {
    const Value v = keys[r];
    for (size_t b = 0; b < upper_bounds.size(); ++b) {
      if (v <= upper_bounds[b]) return static_cast<int>(b);
    }
    return num_partitions - 1;
  });
}

double PartitionSkew(const TablePartitions& partitions) {
  if (partitions.parts.empty()) return 0.0;
  int64_t max_rows = 0;
  int64_t total = 0;
  for (const Table& t : partitions.parts) {
    max_rows = std::max(max_rows, t.num_rows());
    total += t.num_rows();
  }
  if (total == 0) return 0.0;
  const double mean =
      static_cast<double>(total) / partitions.num_partitions();
  return static_cast<double>(max_rows) / mean;
}

}  // namespace parallel
}  // namespace etlopt
