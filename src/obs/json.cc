#include "obs/json.h"

#include <cmath>
#include <cstdint>

#include "common/format.h"

namespace mron::obs {

JsonWriter::JsonWriter(std::ostream& os) : buf_(&chunk_), os_(&os) {
  // Room for a full chunk plus the token that tips it over.
  chunk_.reserve(kChunkBytes + 256);
}

JsonWriter& JsonWriter::string(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string& b = *buf_;
  b.push_back('"');
  std::size_t run = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    b.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': b.append("\\\""); break;
      case '\\': b.append("\\\\"); break;
      case '\n': b.append("\\n"); break;
      case '\r': b.append("\\r"); break;
      case '\t': b.append("\\t"); break;
      default: {
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        b.append(u, sizeof(u));
      }
    }
  }
  b.append(s.data() + run, s.size() - run);
  b.push_back('"');
  return maybe_flush();
}

JsonWriter& JsonWriter::number(double v) {
  if (!std::isfinite(v)) return raw("null");
  // Integers print exactly; everything else with round-trip precision.
  if (std::fabs(v) < 1e15) {
    const auto i = static_cast<std::int64_t>(v);
    if (static_cast<double>(i) == v) return integer(i);
  }
  char buf[kFormatDoubleMax];
  const char* end = format_double(buf, v);
  return raw(std::string_view(buf, static_cast<std::size_t>(end - buf)));
}

void JsonWriter::flush() {
  if (os_ == nullptr || chunk_.empty()) return;
  os_->write(chunk_.data(), static_cast<std::streamsize>(chunk_.size()));
  chunk_.clear();
}

}  // namespace mron::obs
