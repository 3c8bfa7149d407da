#ifndef ETLOPT_OBS_METRICS_H_
#define ETLOPT_OBS_METRICS_H_

namespace etlopt {
namespace obs {

// Process-wide switch for the instrumentation that costs a run time or
// memory: the tracer's spans and the per-operator profiler. A run's own
// numbers (rows, taps, guard verdict, q-error — everything in its
// RunRecord) are results of the run, not instrumentation, and are always
// rendered. Compiling with -DETLOPT_OBS_DISABLED turns the spans into
// no-ops the optimizer can delete; at runtime the ETLOPT_OBS_DISABLED
// environment variable (non-empty, not "0") starts the process disabled,
// and SetObsEnabled flips it on the fly.
#ifdef ETLOPT_OBS_DISABLED
inline constexpr bool ObsEnabled() { return false; }
inline void SetObsEnabled(bool) {}
#else
bool ObsEnabled();
void SetObsEnabled(bool on);
#endif

}  // namespace obs
}  // namespace etlopt

#endif  // ETLOPT_OBS_METRICS_H_
