// JsonWriter: the one emission path of every observability exporter.
//
// The exporters hand-build their JSON (the schemas are small and fixed);
// the writer keeps string escaping and number formatting in one place and
// appends into a std::string instead of paying a std::ostream call per
// token. Numbers go through format_double() (common/format.h): integers
// below 1e15 print exactly, everything else with 17 significant digits,
// and never as bare `nan`/`inf` (which JSON forbids) — non-finite values
// degrade to null.
//
// Two sinks: a caller's std::string, which simply grows (RunReport::to_json
// writes straight into its result), or a std::ostream, which receives the
// text in chunks of about kChunkBytes so an export's transient memory stays
// bounded however large the document is.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>

namespace mron::obs {

class JsonWriter {
 public:
  /// An ostream sink is handed the buffered text once it reaches this size.
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  /// Appends to `out`; nothing needs flushing.
  explicit JsonWriter(std::string& out) : buf_(&out) {}
  /// Buffers for `os`. Call flush() when the document is complete: the
  /// destructor writes nothing, so an export that throws midway sends no
  /// further bytes.
  explicit JsonWriter(std::ostream& os);
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  /// Verbatim text: punctuation, keys and literals the caller knows need
  /// no escaping.
  JsonWriter& raw(std::string_view text) {
    buf_->append(text);
    return maybe_flush();
  }
  JsonWriter& raw(char c) {
    buf_->push_back(c);
    return maybe_flush();
  }
  /// A quoted, escaped JSON string. Bytes >= 0x20 other than `"` and `\`
  /// pass through, so UTF-8 stays as it is.
  JsonWriter& string(std::string_view s);
  /// A JSON number, or null when `v` is not finite.
  JsonWriter& number(double v);
  template <std::integral Int>
  JsonWriter& integer(Int v) {
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return raw(std::string_view(buf, static_cast<std::size_t>(res.ptr - buf)));
  }

  /// Hands everything buffered to the ostream sink (no-op for a string).
  void flush();

 private:
  JsonWriter& maybe_flush() {
    if (os_ != nullptr && buf_->size() >= kChunkBytes) flush();
    return *this;
  }

  std::string chunk_;  ///< the buffer of an ostream sink
  std::string* buf_ = nullptr;
  std::ostream* os_ = nullptr;
};

}  // namespace mron::obs
