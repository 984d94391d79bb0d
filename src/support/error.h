#pragma once

// Error handling for uintah-sw.
//
// The runtime distinguishes programmer errors (checked with USW_ASSERT,
// always on: a simulator that silently corrupts virtual time is useless)
// from environment/configuration errors (thrown as usw::Error subclasses).

#include <stdexcept>
#include <string>

namespace usw {

/// Base class for all uintah-sw errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& msg) : std::runtime_error(msg) {}
};

/// A configuration value is out of range or inconsistent.
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& msg) : Error("config error: " + msg) {}
};

/// An operation was attempted in a state that does not allow it.
class StateError : public Error {
 public:
  explicit StateError(const std::string& msg) : Error("state error: " + msg) {}
};

/// A resource limit of the modeled hardware was exceeded (e.g. the 64 KB
/// per-CPE local data memory).
class ResourceError : public Error {
 public:
  explicit ResourceError(const std::string& msg) : Error("resource error: " + msg) {}
};

namespace detail {
[[noreturn]] void assert_fail(const char* expr, const char* file, int line,
                              const std::string& msg);
}  // namespace detail

}  // namespace usw

/// Always-on assertion. Prints expression + location and aborts.
#define USW_ASSERT(expr)                                                   \
  do {                                                                     \
    if (!(expr)) ::usw::detail::assert_fail(#expr, __FILE__, __LINE__, ""); \
  } while (0)

/// Assertion with an explanatory message (streams into a std::string).
#define USW_ASSERT_MSG(expr, msg)                                             \
  do {                                                                        \
    if (!(expr)) ::usw::detail::assert_fail(#expr, __FILE__, __LINE__, (msg)); \
  } while (0)
