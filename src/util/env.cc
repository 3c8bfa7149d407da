#include "util/env.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace etlopt {

int64_t EnvInt64(const char* name, int64_t lo, int64_t hi, int64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value, &end, 10);
  if (end == value || errno == ERANGE || parsed < lo || parsed > hi) {
    return fallback;
  }
  return parsed;
}

double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  return end != value && std::isfinite(parsed) ? parsed : fallback;
}

}  // namespace etlopt
