#ifndef ETLOPT_OBS_BUILD_INFO_H_
#define ETLOPT_OBS_BUILD_INFO_H_

#include <cstdint>
#include <string>

namespace etlopt {
namespace obs {

// Identity of the binary that produced a run: which source revision, which
// compiler, which build type, and whether sanitizers were baked in. Ledger
// records carry this so cross-run comparisons (drift, calibration, the
// advisor's accuracy report) can flag apples-to-oranges pairs — a Debug+asan
// run profiles an order of magnitude slower than a Release run of the same
// workflow, and its timings must not silently calibrate a Release cost model.
struct BuildInfo {
  std::string git_sha;     // short revision; "unknown" outside a checkout
  std::string compiler;    // id + version ("GNU 13.2.0")
  std::string build_type;  // CMAKE_BUILD_TYPE ("Release", "Debug", ...)
  std::string sanitizers;  // "address,undefined" or "" for a plain build

  // One-line rendering for the --obs-summary header.
  std::string Summary() const;

  // True when the fields that change performance characteristics differ
  // (git sha is identity, not performance — two shas of the same build type
  // are comparable; a Debug vs Release pair is not).
  bool ComparableWith(const BuildInfo& other) const {
    return compiler == other.compiler && build_type == other.build_type &&
           sanitizers == other.sanitizers;
  }
};

// The build info of this binary, assembled from compile definitions the
// build system injects (ETLOPT_GIT_SHA, ETLOPT_BUILD_TYPE,
// ETLOPT_COMPILER_ID) and compiler feature macros for the sanitizer flags.
const BuildInfo& CurrentBuildInfo();

// Peak resident set size of this process so far, in bytes (getrusage's
// ru_maxrss); 0 where the platform does not report it.
int64_t PeakRssBytes();

}  // namespace obs
}  // namespace etlopt

#endif  // ETLOPT_OBS_BUILD_INFO_H_
