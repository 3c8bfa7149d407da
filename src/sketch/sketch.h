#ifndef ETLOPT_SKETCH_SKETCH_H_
#define ETLOPT_SKETCH_SKETCH_H_

#include <cstdint>
#include <vector>

#include "util/common.h"

namespace etlopt {
namespace sketch {

// 64-bit finalizer (splitmix64): turns the weakly-mixed FNV accumulation of
// a composite key into bits uniform enough for register selection and
// leading-zero ranks. All sketches hash through this, so two sketches built
// over the same stream agree bit-for-bit — the property the row-vs-column
// feed tests pin down.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Canonical hash of a composite bucket key (values in attribute order).
inline uint64_t HashValues(const std::vector<Value>& key) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (Value v : key) {
    h ^= static_cast<uint64_t>(v);
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

inline uint64_t HashValue(Value v) {
  return Mix64(static_cast<uint64_t>(v) ^ 0xcbf29ce484222325ULL);
}

}  // namespace sketch
}  // namespace etlopt

#endif  // ETLOPT_SKETCH_SKETCH_H_
