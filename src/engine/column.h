#ifndef ETLOPT_ENGINE_COLUMN_H_
#define ETLOPT_ENGINE_COLUMN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "etl/predicate.h"
#include "util/common.h"

namespace etlopt {

// One attribute's values, contiguous in row order. Tables share columns by
// pointer (copy-on-write), which is what makes Source fan-out, Project, and
// Materialize O(#columns) instead of O(#rows).
using Column = std::vector<Value>;
using ColumnPtr = std::shared_ptr<Column>;

// Row positions selected by a vectorized predicate or join probe, in
// ascending row order. Kernels communicate through selection vectors and
// materialize late via GatherColumn.
using SelVector = std::vector<int64_t>;

// Deterministic 64-bit mix of a key value (splitmix64 finalizer): full
// avalanche, constant time, stable across platforms — unlike std::hash,
// whose result is implementation-defined. Shared by the join hash table and
// partition placement (parallel::PartitionHashValue), so the two agree.
inline uint64_t Hash64(Value v) {
  uint64_t x = static_cast<uint64_t>(v) + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Appends to `sel` the row positions in [0, n) whose value satisfies
// `pred`. One tight comparison loop per operator so the compiler can
// vectorize; semantics match Predicate::Matches exactly.
void BuildSelection(const Predicate& pred, const Value* data, int64_t n,
                    SelVector* sel);

// out[i] = src[sel[i]].
void GatherColumn(const Column& src, const SelVector& sel, Column* out);

// out[i] = fn(in[i]) for i in [0, n): the batched UDF transform kernel.
void MapColumn(const std::function<Value(Value)>& fn, const Value* in,
               int64_t n, Column* out);

// Open-addressing hash table over a build-side key column, laid out for the
// cache-friendly probe loop of the vectorized hash join: one pass assigns
// every build row to a key group (precomputing Hash64 per key), a prefix
// sum over group sizes then scatters the row ids into one contiguous array,
// so Lookup returns a contiguous range of build row ids *in build row
// order* — the emission-order invariant the bit-identical contract needs.
class JoinHashTable {
 public:
  // Builds over keys[0..n); the slot directory is sized from n, which is
  // exact: both executors build over a fully materialized build side.
  JoinHashTable(const Value* keys, int64_t n);

  struct RowRange {
    const int64_t* begin = nullptr;
    const int64_t* end = nullptr;
    bool empty() const { return begin == end; }
    int64_t size() const { return end - begin; }
  };

  // Build row ids holding `key`, in build row order; empty when absent.
  RowRange Lookup(Value key) const;

  int64_t num_keys() const { return static_cast<int64_t>(group_key_.size()); }
  int64_t num_rows() const { return static_cast<int64_t>(row_ids_.size()); }
  int64_t capacity() const { return static_cast<int64_t>(slot_group_.size()); }

 private:
  uint64_t mask_ = 0;
  std::vector<int64_t> slot_group_;   // slot -> group id, -1 = empty
  std::vector<Value> group_key_;      // group id -> key value
  std::vector<int64_t> group_start_;  // group id -> offset into row_ids_
  std::vector<int64_t> row_ids_;      // build row ids, grouped, build order
};

// A set of rows (or ranks) as a bitmap, one bit each.
using RowBits = std::vector<uint64_t>;

// The empty set over [0, rows).
RowBits MakeRowBits(int64_t rows);
inline bool TestBit(const RowBits& bits, int64_t r) {
  return (bits[static_cast<size_t>(r >> 6)] >> (r & 63)) & 1;
}
inline void SetBit(RowBits* bits, int64_t r) {
  (*bits)[static_cast<size_t>(r >> 6)] |= uint64_t{1} << (r & 63);
}

// Rows of `bits`' domain [0, rows) whose bit is clear, ascending.
SelVector ClearRows(const RowBits& bits, int64_t rows);

// Marks every build row of a probe hit `range` in `hit`. The marks are
// atomic, so the morsels of a partitioned join can share one bitmap. A
// key's build rows are marked together, so the first row of a range tells
// whether the whole key is marked. The build rows left clear after the
// probe are the join's right-side rejects.
inline void MarkHit(const JoinHashTable::RowRange& range, RowBits* hit) {
  auto word = [hit](int64_t r) {
    return std::atomic_ref<uint64_t>((*hit)[static_cast<size_t>(r >> 6)]);
  };
  const int64_t first = *range.begin;
  if ((word(first).load(std::memory_order_relaxed) >> (first & 63)) & 1) {
    return;
  }
  for (const int64_t* r = range.begin; r != range.end; ++r) {
    word(*r).fetch_or(uint64_t{1} << (*r & 63), std::memory_order_relaxed);
  }
}

// Interns strings to dense ids so string-typed source attributes flow
// through the engine as ordinary Value columns (the dictionary encoding of
// the columnar layout). Ids are assigned 1..N in first-seen order, matching
// the {1..domain} convention of catalog attribute domains; 0 means absent.
class StringDictionary {
 public:
  // Returns the id of `s`, interning it first when new.
  Value Intern(const std::string& s);
  // Id of `s`, or 0 when it was never interned.
  Value Find(const std::string& s) const;
  // The string behind an interned id (1-based; checked).
  const std::string& LookupId(Value id) const;

  int64_t size() const { return static_cast<int64_t>(strings_.size()); }

 private:
  std::unordered_map<std::string, Value> ids_;
  std::vector<std::string> strings_;
};

}  // namespace etlopt

#endif  // ETLOPT_ENGINE_COLUMN_H_
