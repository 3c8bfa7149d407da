#include "obs/metrics.h"

#include <atomic>
#include <cstdlib>

namespace etlopt {
namespace obs {

#ifndef ETLOPT_OBS_DISABLED
namespace {

bool InitialEnabledFromEnv() {
  const char* v = std::getenv("ETLOPT_OBS_DISABLED");
  const bool disabled = v != nullptr && v[0] != '\0' &&
                        !(v[0] == '0' && v[1] == '\0');
  return !disabled;
}

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled{InitialEnabledFromEnv()};
  return enabled;
}

}  // namespace

bool ObsEnabled() { return EnabledFlag().load(std::memory_order_relaxed); }

void SetObsEnabled(bool on) {
  EnabledFlag().store(on, std::memory_order_relaxed);
}
#endif  // ETLOPT_OBS_DISABLED

}  // namespace obs
}  // namespace etlopt
