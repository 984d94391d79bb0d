#include "support/options.h"

#include <cstdlib>
#include <stdexcept>

#include "support/error.h"

namespace usw {

void Options::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      bare_words_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      values_[arg] = "true";
    }
  }
}

const std::string* Options::find(const std::string& key) const {
  read_.insert(key);
  const auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

bool Options::has(const std::string& key) const { return find(key) != nullptr; }

std::string Options::get(const std::string& key, const std::string& def) const {
  const std::string* v = find(key);
  return v == nullptr ? def : *v;
}

std::int64_t Options::get_int(const std::string& key, std::int64_t def) const {
  const std::string* v = find(key);
  if (v == nullptr) return def;
  // The whole value must parse: "2junk" or "600e6" is an error, not 2 or 600.
  try {
    std::size_t used = 0;
    const std::int64_t out = std::stoll(*v, &used);
    if (used == v->size()) return out;
  } catch (const std::exception&) {  // not a number, or out of range
  }
  throw ConfigError("option --" + key + " expects an integer, got '" + *v + "'");
}

double Options::get_double(const std::string& key, double def) const {
  const std::string* v = find(key);
  if (v == nullptr) return def;
  try {
    std::size_t used = 0;
    const double out = std::stod(*v, &used);
    if (used == v->size()) return out;
  } catch (const std::exception&) {  // not a number, or out of range
  }
  throw ConfigError("option --" + key + " expects a number, got '" + *v + "'");
}

bool Options::get_bool(const std::string& key, bool def) const {
  const std::string* found = find(key);
  if (found == nullptr) return def;
  const std::string& v = *found;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw ConfigError("option --" + key + " expects a boolean, got '" + v + "'");
}

std::vector<std::string> Options::unread() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_)
    if (read_.count(key) == 0) out.push_back("--" + key);
  out.insert(out.end(), bare_words_.begin(), bare_words_.end());
  return out;
}

}  // namespace usw
