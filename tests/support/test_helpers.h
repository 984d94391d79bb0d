#pragma once

// Helpers shared by the test executables: whole-file and whole-tree reads
// for byte-for-byte output comparisons, and string <-> payload conversions
// for the comm tests.

#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

namespace usw::test {

/// The bytes of the file at `path` ("" if it cannot be read).
inline std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

/// Every regular file under `dir`, keyed by its path relative to `dir`.
inline std::map<std::string, std::string> slurp_tree(const std::string& dir) {
  namespace fs = std::filesystem;
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir))
    if (entry.is_regular_file())
      files.emplace(fs::relative(entry.path(), dir).string(),
                    slurp(entry.path().string()));
  return files;
}

inline std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

inline std::string str_of(const std::vector<std::byte>& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

}  // namespace usw::test
