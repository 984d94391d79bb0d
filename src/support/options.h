#pragma once

// Tiny command-line option parser for examples and benchmark drivers.
//
// Accepts "--key=value" and bare "--flag" (boolean true). The parser
// remembers which keys the program asked about, so a driver can reject
// the ones it never reads (typos, removed flags) instead of ignoring them.
// No program reads an argument that does not start with "--" (the
// space-separated "--key value" form is not supported either), so such a
// word is always unread.

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

  /// Arguments that no has()/get*() call has asked about yet, as written:
  /// "--key" for each such key, in sorted order, then every word that does
  /// not start with "--", in command-line order.
  std::vector<std::string> unread() const;

 private:
  /// Looks `key` up and records that it was asked about.
  const std::string* find(const std::string& key) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> bare_words_;
  mutable std::set<std::string> read_;
};

}  // namespace usw
