#ifndef ETLOPT_SKETCH_TAP_H_
#define ETLOPT_SKETCH_TAP_H_

#include <cstdint>
#include <vector>

#include "sketch/countmin.h"
#include "sketch/hll.h"
#include "sketch/kmv.h"
#include "stats/histogram.h"
#include "util/common.h"

namespace etlopt {
namespace sketch {

// Shape of the sketches one approximate tap is allowed to allocate. Derived
// from the per-tap share of PipelineOptions::tap_memory_budget_bytes.
struct TapSketchConfig {
  int hll_precision = 12;  // 4 KiB, ~1.6% standard error
  int cm_width = 1024;     // with depth 4: 32 KiB
  int cm_depth = 4;
  int kmv_k = 1024;

  // Largest shapes that fit `bytes_per_tap` (floored at usable minimums —
  // a tap never fails for want of budget, its error bound just widens).
  // `arity` is the attribute count of histogram taps, which sizes the KMV
  // payload entries.
  static TapSketchConfig ForBudget(int64_t bytes_per_tap, int arity);

  int64_t DistinctTapBytes() const;
  int64_t HistTapBytes(int arity) const;
};

// What an exact tap would hold in memory, estimated before observing (the
// fallback-vs-sketch decision input). Exact distinct/histogram collectors
// hash every distinct attribute combination: ~one hash-table entry plus the
// key values per distinct row, bounded above by the row count.
int64_t EstimateExactDistinctBytes(int64_t rows, int arity);
int64_t EstimateExactHistBytes(int64_t rows, int arity);

// Streaming distinct-count tap: HLL over hashed attribute combinations.
class DistinctTap {
 public:
  explicit DistinctTap(const TapSketchConfig& config)
      : hll_(config.hll_precision) {}

  void AddRow(const std::vector<Value>& key);
  // Columnar feed: hashes rows [0, rows) straight off the key-column
  // arrays (values in attribute order). Bit-identical state to AddRow per
  // row — same hash chain, no per-row key materialization.
  void AddColumns(const std::vector<const Value*>& cols, int64_t rows);

  int64_t Estimate() const { return hll_.Estimate(); }
  double RelError() const { return hll_.StandardError(); }
  int64_t MemoryBytes() const { return hll_.MemoryBytes(); }
  const Hll& hll() const { return hll_; }

 private:
  Hll hll_;
};

// Streaming frequency-histogram tap: Count-Min for per-key counts plus a
// KMV bottom-k whose payloads are a uniform sample of the distinct bucket
// keys. Build() re-assembles an approximate Histogram: one bucket per
// sampled key, counts from Count-Min, rescaled so the total mass matches
// the observed row count when the key sample is partial (keeps |H| == |T|,
// the identity the estimator's I1 rule depends on).
class HistTap {
 public:
  explicit HistTap(const TapSketchConfig& config);

  void AddRow(const std::vector<Value>& key);
  // Columnar feed, bit-identical to AddRow per row: Count-Min and the
  // row counter consume the column-pass hash directly; the KMV key payload
  // is materialized only for rows its admission test would retain (the
  // rejected-row saturation bookkeeping still runs).
  void AddColumns(const std::vector<const Value*>& cols, int64_t rows);

  Histogram Build(AttrMask attrs) const;
  int64_t rows_seen() const { return rows_; }
  // Combined one-sided CM error and (when the key sample is partial) KMV
  // sampling error — the tap's relative error annotation.
  double RelError() const;
  int64_t MemoryBytes() const {
    return cm_.MemoryBytes() + kmv_.MemoryBytes();
  }

  const CountMin& cm() const { return cm_; }
  const Kmv& kmv() const { return kmv_; }

 private:
  CountMin cm_;
  Kmv kmv_;
  int64_t rows_ = 0;
};

}  // namespace sketch
}  // namespace etlopt

#endif  // ETLOPT_SKETCH_TAP_H_
