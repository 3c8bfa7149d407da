#include "sketch/tap.h"

#include <algorithm>
#include <cmath>

#include "sketch/sketch.h"

namespace etlopt {
namespace sketch {
namespace {

// Approximate per-entry footprint of an unordered hash-table collector:
// bucket pointer + node header + hash + the key values.
int64_t HashEntryBytes(int arity) {
  return 40 + 8 * static_cast<int64_t>(arity);
}

}  // namespace

TapSketchConfig TapSketchConfig::ForBudget(int64_t bytes_per_tap, int arity) {
  TapSketchConfig config;
  // HLL: largest precision whose register file fits half the share.
  config.hll_precision = Hll::kMinPrecision;
  for (int p = 16; p >= Hll::kMinPrecision; --p) {
    if ((int64_t{1} << p) <= std::max<int64_t>(bytes_per_tap, 64)) {
      config.hll_precision = p;
      break;
    }
  }
  // Histogram taps split the share between the Count-Min counters and the
  // KMV key sample.
  const int64_t half = std::max<int64_t>(bytes_per_tap / 2, 512);
  config.cm_depth = 4;
  config.cm_width = static_cast<int>(std::clamp<int64_t>(
      half / (config.cm_depth * static_cast<int64_t>(sizeof(int64_t))), 16,
      1 << 20));
  const int64_t kmv_entry = 48 + 8 * static_cast<int64_t>(std::max(arity, 1));
  config.kmv_k = static_cast<int>(
      std::clamp<int64_t>(half / kmv_entry, 16, 1 << 20));
  return config;
}

int64_t TapSketchConfig::DistinctTapBytes() const {
  return (int64_t{1} << hll_precision) + 64;
}

int64_t TapSketchConfig::HistTapBytes(int arity) const {
  return static_cast<int64_t>(cm_width) * cm_depth *
             static_cast<int64_t>(sizeof(int64_t)) +
         static_cast<int64_t>(kmv_k) *
             (48 + 8 * static_cast<int64_t>(std::max(arity, 1))) +
         128;
}

int64_t EstimateExactDistinctBytes(int64_t rows, int arity) {
  return rows * HashEntryBytes(arity);
}

int64_t EstimateExactHistBytes(int64_t rows, int arity) {
  // Exact histograms also carry a count per bucket.
  return rows * (HashEntryBytes(arity) + 8);
}

namespace {

// The canonical composite-key hash (HashValues) computed from column
// pointers: same FNV accumulation over the attribute-ordered values, same
// Mix64 finalizer, so columnar feeds agree with per-row feeds bit for bit.
inline uint64_t HashColumnsAt(const std::vector<const Value*>& cols,
                              int64_t r) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const Value* col : cols) {
    h ^= static_cast<uint64_t>(col[r]);
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

}  // namespace

void DistinctTap::AddRow(const std::vector<Value>& key) {
  hll_.AddHash(HashValues(key));
}

void DistinctTap::AddColumns(const std::vector<const Value*>& cols,
                             int64_t rows) {
  for (int64_t r = 0; r < rows; ++r) {
    hll_.AddHash(HashColumnsAt(cols, r));
  }
}

HistTap::HistTap(const TapSketchConfig& config)
    : cm_(config.cm_width, config.cm_depth), kmv_(config.kmv_k) {}

void HistTap::AddRow(const std::vector<Value>& key) {
  const uint64_t hash = HashValues(key);
  cm_.AddHash(hash, 1);
  kmv_.AddHashWithKey(hash, key);
  ++rows_;
}

void HistTap::AddColumns(const std::vector<const Value*>& cols,
                         int64_t rows) {
  std::vector<Value> key(cols.size());
  for (int64_t r = 0; r < rows; ++r) {
    const uint64_t hash = HashColumnsAt(cols, r);
    cm_.AddHash(hash, 1);
    if (kmv_.WouldAdmit(hash)) {
      for (size_t c = 0; c < cols.size(); ++c) key[c] = cols[c][r];
      kmv_.AddHashWithKey(hash, key);
    } else {
      // Duplicate or over-threshold hash: AddHash runs the same rejection
      // path (including the sticky saturation flag) without a key payload.
      kmv_.AddHash(hash);
    }
    ++rows_;
  }
}

Histogram HistTap::Build(AttrMask attrs) const {
  Histogram hist(attrs);
  int64_t sampled_mass = 0;
  for (const auto& [hash, key] : kmv_.entries()) {
    sampled_mass += cm_.Estimate(hash);
  }
  // When the sample covers every distinct key the CM estimates stand as-is
  // (over by at most eps * N); with a partial sample, rescale so the bucket
  // mass sums back to the observed row count.
  const double scale =
      (kmv_.saturated() && sampled_mass > 0)
          ? static_cast<double>(rows_) / static_cast<double>(sampled_mass)
          : 1.0;
  for (const auto& [hash, key] : kmv_.entries()) {
    const double scaled =
        static_cast<double>(cm_.Estimate(hash)) * scale;
    hist.Add(key, std::max<int64_t>(1, static_cast<int64_t>(scaled + 0.5)));
  }
  return hist;
}

double HistTap::RelError() const {
  return cm_.EpsilonFraction() + kmv_.StandardError();
}

}  // namespace sketch
}  // namespace etlopt
