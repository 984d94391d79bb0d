#pragma once

// Build provenance: which sources, compiler, and instrumentation produced
// this binary. Embedded in `uswsim --version`, diagnostic dumps, and
// BENCH_*.json so benchmark baselines and crash reports stay traceable to
// the build that produced them.

#include <string>

namespace usw {

struct BuildInfo {
  const char* version;    // project version
  const char* git_sha;    // short sha of the commit built, or "unknown"
  const char* compiler;   // compiler id + version string
  const char* build_type; // CMAKE_BUILD_TYPE, or "unspecified"
  const char* sanitizers; // USW_SANITIZE cmake option value, or "none"
};

const BuildInfo& build_info();

/// One-line human-readable banner, e.g.
/// "uswsim 0.1.0 (abc1234) gcc 13.2.0 build=Release sanitizers=none".
std::string build_info_line();

}  // namespace usw
