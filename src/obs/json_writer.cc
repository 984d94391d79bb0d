#include "obs/json_writer.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <ostream>

namespace usw::obs {
namespace {

/// Feeds `s` to `sink` JSON-escaped, as runs of unescaped bytes separated by
/// escape sequences; a string with nothing to escape is a single run.
template <typename Sink>
void escape_into(std::string_view s, Sink&& sink) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    sink(s.substr(run, i - run));
    run = i + 1;
    switch (c) {
      case '"': sink("\\\""); break;
      case '\\': sink("\\\\"); break;
      case '\n': sink("\\n"); break;
      case '\r': sink("\\r"); break;
      case '\t': sink("\\t"); break;
      default: {
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        sink(std::string_view(u, sizeof(u)));
      }
    }
  }
  sink(s.substr(run));
}

}  // namespace

JsonWriter::JsonWriter(std::ostream& os, int indent)
    : os_(os), indent_(indent), buf_(new char[kBufferBytes]) {}

JsonWriter::~JsonWriter() { flush(); }

std::string JsonWriter::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  escape_into(s, [&out](std::string_view part) { out += part; });
  return out;
}

void JsonWriter::flush() {
  if (len_ == 0) return;
  os_.write(buf_.get(), static_cast<std::streamsize>(len_));
  len_ = 0;
}

void JsonWriter::put(std::string_view s) {
  while (!s.empty()) {
    const std::size_t n = std::min(s.size(), kBufferBytes);
    std::memcpy(reserve(n), s.data(), n);
    len_ += n;
    s.remove_prefix(n);
  }
}

void JsonWriter::put_quoted(std::string_view s) {
  put('"');
  escape_into(s, [this](std::string_view part) { put(part); });
  put('"');
}

void JsonWriter::pad() {
  if (indent_ <= 0) return;
  put('\n');
  std::size_t n = stack_.size() * static_cast<std::size_t>(indent_);
  while (n > 0) {
    const std::size_t chunk = std::min(n, kBufferBytes);
    std::memset(reserve(chunk), ' ', chunk);
    len_ += chunk;
    n -= chunk;
  }
}

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (stack_.empty()) return;
  if (!stack_.back().empty) put(',');
  stack_.back().empty = false;
  pad();
}

void JsonWriter::close(char bracket) {
  const bool had = !stack_.back().empty;
  stack_.pop_back();
  if (had) pad();
  put(bracket);
  done();
}

JsonWriter& JsonWriter::begin_object() {
  separate();
  put('{');
  stack_.push_back(Frame{false, true});
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  close('}');
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separate();
  put('[');
  stack_.push_back(Frame{true, true});
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  close(']');
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  separate();
  put_quoted(k);
  put(':');
  if (indent_ > 0) put(' ');
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  separate();
  put_quoted(v);
  done();
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  if (!std::isfinite(v)) return value_null();
  separate();
  // to_chars(general, 12) is specified to print what printf's "%.12g"
  // prints; %g may print a bare integer, which is still valid JSON.
  constexpr std::size_t kMax = 32;
  char* p = reserve(kMax);
  len_ += static_cast<std::size_t>(
      std::to_chars(p, p + kMax, v, std::chars_format::general, 12).ptr - p);
  done();
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  separate();
  constexpr std::size_t kMax = 24;
  char* p = reserve(kMax);
  len_ += static_cast<std::size_t>(std::to_chars(p, p + kMax, v).ptr - p);
  done();
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  separate();
  constexpr std::size_t kMax = 24;
  char* p = reserve(kMax);
  len_ += static_cast<std::size_t>(std::to_chars(p, p + kMax, v).ptr - p);
  done();
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  separate();
  put(v ? std::string_view("true") : std::string_view("false"));
  done();
  return *this;
}

JsonWriter& JsonWriter::value_null() {
  separate();
  put("null");
  done();
  return *this;
}

}  // namespace usw::obs
