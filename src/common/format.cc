#include "common/format.h"

#include <charconv>

#include "common/check.h"

namespace mron {

char* format_double(char* out, double v) {
  const auto [end, ec] = std::to_chars(out, out + kFormatDoubleMax, v,
                                       std::chars_format::general, 17);
  MRON_CHECK(ec == std::errc{});
  return end;
}

std::string format_double(double v) {
  char buf[kFormatDoubleMax];
  return std::string(buf, format_double(buf, v));
}

}  // namespace mron
