#ifndef ETLOPT_STATS_STAT_STORE_H_
#define ETLOPT_STATS_STAT_STORE_H_

#include <unordered_map>
#include <utility>

#include "stats/histogram.h"
#include "stats/stat_key.h"
#include "util/status.h"

namespace etlopt {

// How a statistic value was collected. Exact values come from full
// materialization (the seed behavior); sketch values come from streaming
// approximate taps (src/sketch) and carry a relative-error parameter.
enum class CollectionMode : uint8_t { kExact = 0, kSketch };

// The value of a statistic: a count (Card / Distinct / RejectJoinCard) or a
// histogram (Hist / RejectJoinHist), annotated with its collection mode and
// (for sketch-backed or derived-from-sketch values) a relative error bound.
// `rel_error` is the 1-sigma relative standard error for HLL/KMV-backed
// counts and the one-sided overestimate fraction for Count-Min-backed
// histograms; derivation through CSS rules accumulates input errors
// first-order (sums), a conservative bound for the rules' products, ratios
// and dot products.
class StatValue {
 public:
  StatValue() : is_count_(true), count_(0) {}
  static StatValue Count(int64_t count) {
    StatValue v;
    v.is_count_ = true;
    v.count_ = count;
    return v;
  }
  static StatValue Hist(Histogram hist) {
    StatValue v;
    v.is_count_ = false;
    v.hist_ = std::move(hist);
    return v;
  }
  static StatValue CountApprox(int64_t count, double rel_error) {
    StatValue v = Count(count);
    v.mode_ = CollectionMode::kSketch;
    v.rel_error_ = rel_error;
    return v;
  }
  static StatValue HistApprox(Histogram hist, double rel_error) {
    StatValue v = Hist(std::move(hist));
    v.mode_ = CollectionMode::kSketch;
    v.rel_error_ = rel_error;
    return v;
  }

  bool is_count() const { return is_count_; }
  int64_t count() const {
    ETLOPT_CHECK(is_count_);
    return count_;
  }
  const Histogram& hist() const {
    ETLOPT_CHECK(!is_count_);
    return hist_;
  }

  CollectionMode mode() const { return mode_; }
  bool is_approx() const { return mode_ == CollectionMode::kSketch; }
  double rel_error() const { return rel_error_; }
  // Marks a derived value as inheriting approximation error from its
  // inputs (the estimator's first-order propagation).
  void SetApprox(double rel_error) {
    mode_ = CollectionMode::kSketch;
    rel_error_ = rel_error;
  }

 private:
  bool is_count_;
  int64_t count_ = 0;
  Histogram hist_;
  CollectionMode mode_ = CollectionMode::kExact;
  double rel_error_ = 0.0;
};

// Observed and derived statistic values, keyed by StatKey. One store per
// (block, run).
class StatStore {
 public:
  void Set(const StatKey& key, StatValue value) {
    values_[key] = std::move(value);
  }

  bool Contains(const StatKey& key) const {
    return values_.find(key) != values_.end();
  }

  const StatValue* Find(const StatKey& key) const {
    auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
  }

  Result<int64_t> GetCount(const StatKey& key) const {
    const StatValue* v = Find(key);
    if (v == nullptr) return Status::NotFound(key.ToString());
    if (!v->is_count()) {
      return Status::Internal("statistic is not a count: " + key.ToString());
    }
    return v->count();
  }

  // The stored histogram, valid until the store is next modified.
  Result<const Histogram*> GetHist(const StatKey& key) const {
    const StatValue* v = Find(key);
    if (v == nullptr) return Status::NotFound(key.ToString());
    if (v->is_count()) {
      return Status::Internal("statistic is not a histogram: " +
                              key.ToString());
    }
    return &v->hist();
  }

  size_t size() const { return values_.size(); }

  const std::unordered_map<StatKey, StatValue, StatKeyHash>& values() const {
    return values_;
  }

 private:
  std::unordered_map<StatKey, StatValue, StatKeyHash> values_;
};

}  // namespace etlopt

#endif  // ETLOPT_STATS_STAT_STORE_H_
