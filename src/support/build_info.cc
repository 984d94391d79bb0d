#include "support/build_info.h"

// build_sha.h defines USW_BUILD_GIT_SHA; src/support/CMakeLists.txt writes
// it at configure time and rewrites it at build time when the checked-out
// commit changes. The other USW_BUILD_* macros are injected at configure
// time, with neutral fallbacks.
#include "build_sha.h"

#ifndef USW_BUILD_VERSION
#define USW_BUILD_VERSION "0.0.0"
#endif
#ifndef USW_BUILD_TYPE
#define USW_BUILD_TYPE "unspecified"
#endif
#ifndef USW_BUILD_SANITIZE
#define USW_BUILD_SANITIZE "none"
#endif

#define USW_STR2(x) #x
#define USW_STR(x) USW_STR2(x)

namespace usw {

namespace {

const char* compiler_string() {
#if defined(__clang__)
  return "clang " USW_STR(__clang_major__) "." USW_STR(__clang_minor__) "." USW_STR(
      __clang_patchlevel__);
#elif defined(__GNUC__)
  return "gcc " USW_STR(__GNUC__) "." USW_STR(__GNUC_MINOR__) "." USW_STR(
      __GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

}  // namespace

const BuildInfo& build_info() {
  static const BuildInfo info{
      USW_BUILD_VERSION,
      USW_BUILD_GIT_SHA,
      compiler_string(),
      USW_BUILD_TYPE[0] != '\0' ? USW_BUILD_TYPE : "unspecified",
      USW_BUILD_SANITIZE[0] != '\0' ? USW_BUILD_SANITIZE : "none",
  };
  return info;
}

std::string build_info_line() {
  const BuildInfo& b = build_info();
  std::string out;
  out += "uswsim ";
  out += b.version;
  out += " (";
  out += b.git_sha;
  out += ") ";
  out += b.compiler;
  out += " build=";
  out += b.build_type;
  out += " sanitizers=";
  out += b.sanitizers;
  return out;
}

}  // namespace usw
