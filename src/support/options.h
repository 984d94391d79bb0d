#pragma once

// Tiny command-line option parser for examples and benchmark drivers.
//
// Accepts "--key=value" and bare "--flag" (boolean true). Anything not
// starting with "--" is collected as a positional argument. The space-
// separated "--key value" form is intentionally not supported: it is
// ambiguous against positionals following a bare flag. The parser
// remembers which keys the program asked about, so a driver can reject
// the ones it never reads (typos, removed flags) instead of ignoring them.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace usw {

class Options {
 public:
  Options() = default;
  Options(int argc, const char* const* argv) { parse(argc, argv); }

  void parse(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  std::string get(const std::string& key, const std::string& def = "") const;
  std::int64_t get_int(const std::string& key, std::int64_t def) const;
  double get_double(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// All parsed key/value pairs (for echoing the configuration).
  const std::map<std::string, std::string>& values() const { return values_; }

  /// Keys given on the command line that no has()/get*() call has asked
  /// about yet, in sorted order.
  std::vector<std::string> unread() const;

 private:
  /// Looks `key` up and records that it was asked about.
  const std::string* find(const std::string& key) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;
};

}  // namespace usw
