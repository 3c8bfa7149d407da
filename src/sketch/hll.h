#ifndef ETLOPT_SKETCH_HLL_H_
#define ETLOPT_SKETCH_HLL_H_

#include <cstdint>
#include <vector>

namespace etlopt {
namespace sketch {

// HyperLogLog distinct-count sketch (Flajolet et al. 2007) with the
// small-range linear-counting correction. Constant memory: m = 2^precision
// one-byte registers, independent of stream length. Standard relative error
// is 1.04 / sqrt(m) (so precision 12 -> 4 KiB -> ~1.6%); Add is one hash +
// one register max.
class Hll {
 public:
  static constexpr int kMinPrecision = 4;
  static constexpr int kMaxPrecision = 18;

  explicit Hll(int precision = 12);

  void AddHash(uint64_t hash);

  int64_t Estimate() const;

  // 1-sigma relative standard error of Estimate: 1.04 / sqrt(m).
  double StandardError() const;

  int precision() const { return precision_; }
  int num_registers() const { return static_cast<int>(registers_.size()); }
  int64_t MemoryBytes() const;

  const std::vector<uint8_t>& registers() const { return registers_; }

 private:
  int precision_;
  std::vector<uint8_t> registers_;
};

}  // namespace sketch
}  // namespace etlopt

#endif  // ETLOPT_SKETCH_HLL_H_
