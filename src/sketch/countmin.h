#ifndef ETLOPT_SKETCH_COUNTMIN_H_
#define ETLOPT_SKETCH_COUNTMIN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace etlopt {
namespace sketch {

// Count-Min frequency sketch (Cormode & Muthukrishnan 2005). `depth` rows of
// `width` counters; each update increments one counter per row (double
// hashing derives the row hashes from one 64-bit hash). Estimates are the
// row-wise minimum and NEVER underestimate — collisions only add mass — with
// overestimate <= (e / width) * TotalCount() at probability >= 1 - e^-depth.
class CountMin {
 public:
  CountMin(int width = 1024, int depth = 4);

  void AddHash(uint64_t hash, int64_t count = 1);

  // Upper-bound frequency estimate (min over rows).
  int64_t Estimate(uint64_t hash) const;

  int64_t TotalCount() const { return total_; }

  // Fraction of TotalCount an estimate may overshoot by: e / width.
  double EpsilonFraction() const;

  int width() const { return width_; }
  int depth() const { return depth_; }
  int64_t MemoryBytes() const;

 private:
  size_t Index(int row, uint64_t hash) const;

  int width_;
  int depth_;
  int64_t total_ = 0;
  std::vector<int64_t> counters_;  // row-major depth x width
};

}  // namespace sketch
}  // namespace etlopt

#endif  // ETLOPT_SKETCH_COUNTMIN_H_
