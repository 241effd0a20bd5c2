// The export number contract and the JsonWriter that carries it: doubles
// print exactly as printf's "%.17g" does (the text every artifact has always
// held), integers below 1e15 print as integers, non-finite values as null,
// strings escape every control byte, and a chunked ostream export is the
// same bytes as one written into a std::string.
#include "obs/json.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <streambuf>
#include <string>
#include <vector>

#include "common/format.h"

namespace mron::obs {
namespace {

// The oracle: the formatter format_double() replaced.
std::string printf_17g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_number(double v) {
  std::string out;
  JsonWriter(out).number(v);
  return out;
}

std::string json_string(std::string_view s) {
  std::string out;
  JsonWriter(out).string(s);
  return out;
}

TEST(FormatDouble, MatchesPrintfOnRandomBitPatterns) {
  std::mt19937_64 rng(20140623);
  std::size_t mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t bits = rng();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));  // every class: subnormal, nan, inf
    if (format_double(v) != printf_17g(v) && ++mismatches <= 5) {
      ADD_FAILURE() << "bits " << bits << ": " << format_double(v)
                    << " != " << printf_17g(v);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(FormatDouble, MatchesPrintfOnTypicalMagnitudes) {
  // What exports mostly hold: fractions, sim-times, and millisecond stamps.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> big(0.0, 1e6);
  for (int i = 0; i < 100'000; ++i) {
    for (const double v : {unit(rng), big(rng), std::round(big(rng)) / 1e3}) {
      ASSERT_EQ(format_double(v), printf_17g(v)) << v;
    }
  }
}

TEST(JsonWriter, NumberEdgeCases) {
  const double max_int_path = 1e15 - 1;
  const struct {
    double v;
    const char* want;
  } cases[] = {
      {0.0, "0"},
      {-0.0, "0"},
      {std::numeric_limits<double>::denorm_min(), "4.9406564584124654e-324"},
      {DBL_MAX, "1.7976931348623157e+308"},
      {-DBL_MAX, "-1.7976931348623157e+308"},
      {9007199254740992.0, "9007199254740992"},  // 2^53, printf path
      {max_int_path, "999999999999999"},         // integer fast path
      {-max_int_path, "-999999999999999"},
      {1e15, "1000000000000000"},  // first value past the fast path
      {1e17, "1e+17"},
      {0.1, "0.10000000000000001"},
      {-2.5, "-2.5"},
      {1e-5, "1.0000000000000001e-05"},
      {std::numeric_limits<double>::quiet_NaN(), "null"},
      {std::numeric_limits<double>::infinity(), "null"},
      {-std::numeric_limits<double>::infinity(), "null"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(json_number(c.v), c.want) << printf_17g(c.v);
  }
  // Past the fast path, the number is the oracle's text.
  for (const double v : {1e15, 1e15 + 2, 9007199254740992.0, 1e17}) {
    EXPECT_EQ(json_number(v), printf_17g(v));
  }
}

TEST(JsonWriter, IntegersPrintExactly) {
  std::string out;
  JsonWriter w(out);
  w.integer(0).raw(',').integer(-42).raw(',');
  w.integer(std::numeric_limits<std::int64_t>::min()).raw(',');
  w.integer(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(out, "0,-42,-9223372036854775808,18446744073709551615");
}

TEST(JsonWriter, EscapesEveryControlByteQuoteAndBackslash) {
  for (int c = 0; c < 0x20; ++c) {
    const std::string in(1, static_cast<char>(c));
    std::string want;
    switch (c) {
      case '\n': want = "\\n"; break;
      case '\r': want = "\\r"; break;
      case '\t': want = "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        want = buf;
      }
    }
    EXPECT_EQ(json_string(in), "\"" + want + "\"") << "byte " << c;
  }
  EXPECT_EQ(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json_string(std::string("x\0y", 3)), "\"x\\u0000y\"");
  // Printable ASCII, DEL and UTF-8 multi-byte sequences pass through.
  const std::string utf8 = "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80 ~\x7f";
  EXPECT_EQ(json_string(utf8), "\"" + utf8 + "\"");
  EXPECT_EQ(json_string(""), "\"\"");
}

// Records every write the writer hands to its ostream.
class RecordingBuf : public std::streambuf {
 public:
  std::string text;
  std::vector<std::size_t> writes;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    text.append(s, static_cast<std::size_t>(n));
    writes.push_back(static_cast<std::size_t>(n));
    return n;
  }
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) {
      const char ch = traits_type::to_char_type(c);
      xsputn(&ch, 1);
    }
    return c;
  }
};

// A document of a little over three chunks, laid out so that a string
// token spans stream offset kChunkBytes and a number spans 2 * kChunkBytes.
constexpr std::size_t kChunk = JsonWriter::kChunkBytes;

void write_document(JsonWriter& w) {
  w.raw('[').raw(std::string(kChunk - 11, ' '));
  w.string("spans\tthe \"edge\"");  // 21 bytes escaped
  w.raw(',').raw(std::string(kChunk - 20, ' '));
  w.number(0.1);  // 19 bytes
  for (int i = 0; i < 5000; ++i) {
    w.raw(',').number(i * 0.37).raw(',').string("k\n").raw(',').integer(i);
  }
  w.raw(']');
}

TEST(JsonWriter, ChunkedStreamMatchesStringSink) {
  std::string whole;
  {
    JsonWriter w(whole);
    write_document(w);
  }
  ASSERT_GT(whole.size(), 3 * kChunk);
  EXPECT_EQ(whole.find("\"spans"), kChunk - 10);
  EXPECT_EQ(whole.find("0.10000000000000001"), 2 * kChunk - 8);

  RecordingBuf buf;
  std::ostream os(&buf);
  JsonWriter w(os);
  write_document(w);
  w.flush();
  EXPECT_EQ(buf.text, whole);
  // Full chunks went out as the document grew, each at most a chunk plus
  // the token that filled it; the tail went out on flush().
  ASSERT_GE(buf.writes.size(), 4u);
  for (std::size_t i = 0; i + 1 < buf.writes.size(); ++i) {
    EXPECT_GE(buf.writes[i], kChunk) << "write " << i;
    EXPECT_LT(buf.writes[i], kChunk + 64) << "write " << i;
  }
}

}  // namespace
}  // namespace mron::obs
