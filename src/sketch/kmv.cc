#include "sketch/kmv.h"

#include <cmath>

namespace etlopt {
namespace sketch {

Kmv::Kmv(int k) : k_(k) {
  ETLOPT_CHECK_MSG(k >= 4, "KMV k must be >= 4");
}

void Kmv::AddHashWithKey(uint64_t hash, std::vector<Value> key) {
  if (static_cast<int>(entries_.size()) >= k_) {
    // Only hashes below the current k-th minimum can enter.
    const uint64_t kth = entries_.rbegin()->first;
    if (hash >= kth) {
      // A rejected hash that is not already retained is a distinct value
      // the sketch will never count exactly — from here on Estimate must
      // extrapolate. (Once saturated the lookup is skipped: the flag is
      // sticky.)
      if (!saturated_ && hash != kth && entries_.count(hash) == 0) {
        saturated_ = true;
      }
      return;
    }
    if (entries_.emplace(hash, std::move(key)).second) {
      entries_.erase(std::prev(entries_.end()));
      saturated_ = true;
    }
    return;
  }
  entries_.emplace(hash, std::move(key));
}

bool Kmv::WouldAdmit(uint64_t hash) const {
  if (static_cast<int>(entries_.size()) < k_) {
    return entries_.count(hash) == 0;
  }
  return hash < entries_.rbegin()->first && entries_.count(hash) == 0;
}

int64_t Kmv::Estimate() const {
  const size_t m = entries_.size();
  if (!saturated_ || m < 2) {
    return static_cast<int64_t>(m);  // exact: nothing was ever dropped
  }
  // (m-1) / h_(m) with the largest retained hash scaled to (0,1); a
  // saturated sketch holds m == k entries.
  const uint64_t mth = entries_.rbegin()->first;
  const double h = (static_cast<double>(mth) + 1.0) / std::ldexp(1.0, 64);
  if (h <= 0.0) return static_cast<int64_t>(m);
  return static_cast<int64_t>(static_cast<double>(m - 1) / h + 0.5);
}

double Kmv::StandardError() const {
  if (!saturated_) return 0.0;
  return 1.0 / std::sqrt(static_cast<double>(k_ - 2));
}

int64_t Kmv::MemoryBytes() const {
  int64_t bytes = static_cast<int64_t>(sizeof(Kmv));
  for (const auto& [hash, key] : entries_) {
    (void)hash;
    // Node overhead (red-black node + hash) plus the payload values.
    bytes += 48 + static_cast<int64_t>(key.size() * sizeof(Value));
  }
  return bytes;
}

}  // namespace sketch
}  // namespace etlopt
