#include "obs/build_info.h"

#include <sys/resource.h>

#include <sstream>

namespace etlopt {
namespace obs {
namespace {

std::string DetectCompiler() {
#ifdef ETLOPT_COMPILER_ID
  return ETLOPT_COMPILER_ID;
#elif defined(__clang__)
  std::ostringstream out;
  out << "Clang " << __clang_major__ << "." << __clang_minor__ << "."
      << __clang_patchlevel__;
  return out.str();
#elif defined(__GNUC__)
  std::ostringstream out;
  out << "GNU " << __GNUC__ << "." << __GNUC_MINOR__ << "."
      << __GNUC_PATCHLEVEL__;
  return out.str();
#else
  return "unknown";
#endif
}

std::string DetectSanitizers() {
  std::string flags;
#if defined(__SANITIZE_ADDRESS__)
  flags += "address";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  flags += "address";
#endif
#endif
#if defined(__SANITIZE_THREAD__)
  if (!flags.empty()) flags += ",";
  flags += "thread";
#endif
  // UBSan exposes no feature macro; the build injects it alongside asan
  // here (see src/CMakeLists.txt), so asan presence implies the pair.
  if (flags == "address") flags = "address,undefined";
  return flags;
}

BuildInfo MakeBuildInfo() {
  BuildInfo info;
#ifdef ETLOPT_GIT_SHA
  info.git_sha = ETLOPT_GIT_SHA;
#endif
  if (info.git_sha.empty()) info.git_sha = "unknown";
#ifdef ETLOPT_BUILD_TYPE
  info.build_type = ETLOPT_BUILD_TYPE;
#endif
  if (info.build_type.empty()) {
#ifdef NDEBUG
    info.build_type = "Release";
#else
    info.build_type = "Debug";
#endif
  }
  info.compiler = DetectCompiler();
  info.sanitizers = DetectSanitizers();
  return info;
}

}  // namespace

std::string BuildInfo::Summary() const {
  std::ostringstream out;
  out << git_sha << " (" << compiler << ", " << build_type;
  if (!sanitizers.empty()) out << ", sanitizers: " << sanitizers;
  out << ")";
  return out.str();
}

const BuildInfo& CurrentBuildInfo() {
  static const BuildInfo* info = new BuildInfo(MakeBuildInfo());
  return *info;
}

int64_t PeakRssBytes() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;  // Linux: KiB
}

}  // namespace obs
}  // namespace etlopt
