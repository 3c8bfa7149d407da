#include "sketch/hll.h"

#include <cmath>

#include "util/common.h"

namespace etlopt {
namespace sketch {
namespace {

double AlphaM(int m) {
  switch (m) {
    case 16:
      return 0.673;
    case 32:
      return 0.697;
    case 64:
      return 0.709;
    default:
      return 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
  }
}

}  // namespace

Hll::Hll(int precision) : precision_(precision) {
  ETLOPT_CHECK_MSG(
      precision >= kMinPrecision && precision <= kMaxPrecision,
      "HLL precision out of range");
  registers_.assign(size_t{1} << precision_, 0);
}

void Hll::AddHash(uint64_t hash) {
  const size_t idx = static_cast<size_t>(hash >> (64 - precision_));
  // Rank of the first set bit in the remaining 64-p bits (1-based); an
  // all-zero suffix ranks 64-p+1.
  const uint64_t suffix = hash << precision_;
  int rank = 1;
  if (suffix == 0) {
    rank = 64 - precision_ + 1;
  } else {
    uint64_t probe = uint64_t{1} << 63;
    while ((suffix & probe) == 0) {
      ++rank;
      probe >>= 1;
    }
  }
  if (rank > registers_[idx]) {
    registers_[idx] = static_cast<uint8_t>(rank);
  }
}

int64_t Hll::Estimate() const {
  const int m = num_registers();
  double sum = 0.0;
  int zeros = 0;
  for (uint8_t r : registers_) {
    sum += std::ldexp(1.0, -static_cast<int>(r));
    if (r == 0) ++zeros;
  }
  double estimate = AlphaM(m) * static_cast<double>(m) *
                    static_cast<double>(m) / sum;
  // Small-range correction: linear counting while empty registers remain.
  if (estimate <= 2.5 * m && zeros > 0) {
    estimate = static_cast<double>(m) *
               std::log(static_cast<double>(m) / static_cast<double>(zeros));
  }
  return static_cast<int64_t>(estimate + 0.5);
}

double Hll::StandardError() const {
  return 1.04 / std::sqrt(static_cast<double>(num_registers()));
}

int64_t Hll::MemoryBytes() const {
  return static_cast<int64_t>(registers_.size()) +
         static_cast<int64_t>(sizeof(Hll));
}

}  // namespace sketch
}  // namespace etlopt
