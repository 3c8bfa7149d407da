#include "sketch/countmin.h"

#include <algorithm>
#include <cmath>

#include "sketch/sketch.h"
#include "util/common.h"

namespace etlopt {
namespace sketch {

CountMin::CountMin(int width, int depth) : width_(width), depth_(depth) {
  ETLOPT_CHECK_MSG(width >= 1 && depth >= 1 && depth <= 16,
                   "Count-Min shape out of range");
  counters_.assign(static_cast<size_t>(width_) * static_cast<size_t>(depth_),
                   0);
}

size_t CountMin::Index(int row, uint64_t hash) const {
  // Double hashing: row hashes h1 + i*h2 are pairwise independent enough
  // for the CM bound; h2 is forced odd so every row permutes the space.
  const uint64_t h1 = hash;
  const uint64_t h2 = Mix64(hash ^ 0x9e3779b97f4a7c15ULL) | 1;
  const uint64_t combined = h1 + static_cast<uint64_t>(row) * h2;
  return static_cast<size_t>(row) * static_cast<size_t>(width_) +
         static_cast<size_t>(combined % static_cast<uint64_t>(width_));
}

void CountMin::AddHash(uint64_t hash, int64_t count) {
  for (int d = 0; d < depth_; ++d) {
    counters_[Index(d, hash)] += count;
  }
  total_ += count;
}

int64_t CountMin::Estimate(uint64_t hash) const {
  int64_t best = INT64_MAX;
  for (int d = 0; d < depth_; ++d) {
    best = std::min(best, counters_[Index(d, hash)]);
  }
  return best == INT64_MAX ? 0 : best;
}

double CountMin::EpsilonFraction() const {
  return std::exp(1.0) / static_cast<double>(width_);
}

int64_t CountMin::MemoryBytes() const {
  return static_cast<int64_t>(counters_.size() * sizeof(int64_t)) +
         static_cast<int64_t>(sizeof(CountMin));
}

}  // namespace sketch
}  // namespace etlopt
