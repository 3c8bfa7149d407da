#ifndef ETLOPT_SKETCH_KMV_H_
#define ETLOPT_SKETCH_KMV_H_

#include <cstdint>
#include <map>
#include <vector>

#include "util/common.h"

namespace etlopt {
namespace sketch {

// KMV (k minimum values) bottom-k distinct sketch (Bar-Yossef et al. 2002,
// Beyer et al. 2007). Keeps the k smallest distinct hashes seen; while
// under k the distinct count is exact, once saturated the estimator is
// (k-1) / h_(k) with h scaled to (0,1). The retained hashes are a uniform
// sample of the distinct keys, so each entry optionally carries its bucket
// key as payload — that sample seeds approximate histograms.
class Kmv {
 public:
  explicit Kmv(int k = 1024);

  void AddHash(uint64_t hash) { AddHashWithKey(hash, {}); }
  // Retains `key` as the payload of `hash` while it stays in the bottom-k.
  void AddHashWithKey(uint64_t hash, std::vector<Value> key);

  // Whether AddHashWithKey(hash, ...) would retain a new entry right now.
  // Pure admission test, no state change: columnar feeds use it to skip
  // materializing key payloads for rows the sketch will reject (the
  // rejection's saturation bookkeeping still needs an AddHash call).
  bool WouldAdmit(uint64_t hash) const;

  int64_t Estimate() const;

  // 1-sigma relative standard error once saturated: ~ 1 / sqrt(k - 2);
  // 0 while the sketch is still exact.
  double StandardError() const;

  bool saturated() const { return saturated_; }
  int k() const { return k_; }
  size_t size() const { return entries_.size(); }

  // Bottom-k entries in increasing hash order.
  const std::map<uint64_t, std::vector<Value>>& entries() const {
    return entries_;
  }

  int64_t MemoryBytes() const;

 private:
  int k_;
  bool saturated_ = false;
  std::map<uint64_t, std::vector<Value>> entries_;
};

}  // namespace sketch
}  // namespace etlopt

#endif  // ETLOPT_SKETCH_KMV_H_
