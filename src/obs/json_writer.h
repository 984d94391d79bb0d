#pragma once

// Minimal streaming JSON emitter for the observability exporters.
//
// Handles comma placement, string escaping, and non-finite doubles (which
// JSON cannot represent; they are emitted as null) so every exporter
// produces output that `python3 -m json.tool` accepts. No DOM, no
// dependencies.
//
// Output goes through a fixed internal buffer (kBufferBytes), not token by
// token through the ostream, and is never held as a whole document: a
// 100 MB Chrome trace streams out in buffer-sized chunks. Flush contract:
// the buffer is written to the ostream whenever it fills, whenever the
// writer returns to depth 0 (a top-level value or container is complete),
// and in the destructor. So after a top-level end_object() the stream holds
// the whole document even while the writer is alive, and callers may write
// to the stream directly between top-level values — but not while a
// container is open. Every call is O(length of what it writes); formatting
// allocates nothing.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace usw::obs {

class JsonWriter {
 public:
  static constexpr std::size_t kBufferBytes = 32 * 1024;

  /// `indent` > 0 pretty-prints with that many spaces per level.
  explicit JsonWriter(std::ostream& os, int indent = 1);
  ~JsonWriter();
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object member key; must be followed by exactly one value or container.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  /// Formatted exactly as printf's "%.12g".
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value_null();

  // Convenience: key + scalar in one call.
  template <typename T>
  JsonWriter& kv(std::string_view k, T v) {
    key(k);
    return value(v);
  }

  /// Verbatim output, for an exporter that formats a hot record itself
  /// (the Chrome trace's spans): raw_value(emit) places the comma as for
  /// any value, then calls emit(Raw&), which must append exactly one
  /// complete, valid JSON value.
  class Raw {
   public:
    /// Appends `s`, of any length.
    void put(std::string_view s) { w_.put(s); }
    /// Room for `n` <= kBufferBytes bytes: write them from the returned
    /// pointer, then hand the end of what was written to commit().
    char* space(std::size_t n) { return w_.reserve(n); }
    void commit(const char* end) {
      w_.len_ = static_cast<std::size_t>(end - w_.buf_.get());
    }

   private:
    friend class JsonWriter;
    explicit Raw(JsonWriter& w) : w_(w) {}
    JsonWriter& w_;
  };

  template <typename Emit>
  JsonWriter& raw_value(Emit&& emit) {
    separate();
    Raw raw(*this);
    emit(raw);
    done();
    return *this;
  }

  /// JSON string escaping, as every string value is written.
  static std::string escape(std::string_view s);

 private:
  void separate();  ///< comma/newline before a new element
  void pad();
  void close(char bracket);
  /// Flushes once the document is back at depth 0.
  void done() {
    if (stack_.empty()) flush();
  }
  void flush();
  /// Makes room for `n` more bytes (n <= kBufferBytes).
  char* reserve(std::size_t n) {
    if (kBufferBytes - len_ < n) flush();
    return buf_.get() + len_;
  }
  void put(char c) {
    *reserve(1) = c;
    ++len_;
  }
  void put(std::string_view s);
  void put_quoted(std::string_view s);

  std::ostream& os_;
  int indent_;
  struct Frame {
    bool array = false;
    bool empty = true;
  };
  std::vector<Frame> stack_;
  bool after_key_ = false;
  std::unique_ptr<char[]> buf_;
  std::size_t len_ = 0;
};

}  // namespace usw::obs
