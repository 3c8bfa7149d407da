#ifndef ETLOPT_UTIL_ENV_H_
#define ETLOPT_UTIL_ENV_H_

#include <cstdint>

namespace etlopt {

// Numeric settings from the environment. Each reads the leading number of
// variable `name` (trailing characters are ignored: "8x" reads as 8) and
// returns `fallback` when the variable is unset or empty, holds no leading
// number, or holds a value the setting cannot take.

// A decimal integer in [lo, hi]; one that overflows int64 is out of range.
int64_t EnvInt64(const char* name, int64_t lo, int64_t hi, int64_t fallback);

// A finite double: "inf", "nan" and values beyond double's range fall back.
double EnvDouble(const char* name, double fallback);

}  // namespace etlopt

#endif  // ETLOPT_UTIL_ENV_H_
