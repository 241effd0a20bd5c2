#include "common/flags.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace mron {
namespace {

Flags make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsSyntax) {
  const auto f = make({"--app=terasort", "--size-gb=60.5"});
  EXPECT_EQ(f.get("app", std::string("x")), "terasort");
  EXPECT_DOUBLE_EQ(f.get("size-gb", 0.0), 60.5);
}

TEST(Flags, SpaceSyntax) {
  const auto f = make({"--seed", "42", "--app", "wc"});
  EXPECT_EQ(f.get("seed", 0), 42);
  EXPECT_EQ(f.get("app", std::string("")), "wc");
}

TEST(Flags, BareBoolean) {
  const auto f = make({"--fair", "--verbose=false"});
  EXPECT_TRUE(f.get("fair", false));
  EXPECT_FALSE(f.get("verbose", true));
  EXPECT_FALSE(f.get("absent", false));
  EXPECT_TRUE(f.get("absent", true));
}

TEST(Flags, BooleanSpellings) {
  EXPECT_TRUE(make({"--x=1"}).get("x", false));
  EXPECT_TRUE(make({"--x=true"}).get("x", false));
  EXPECT_TRUE(make({"--x=yes"}).get("x", false));
  EXPECT_FALSE(make({"--x=0"}).get("x", true));
}

TEST(Flags, Fallbacks) {
  const auto f = make({});
  EXPECT_EQ(f.get("missing", std::string("dflt")), "dflt");
  EXPECT_EQ(f.get("missing", 7), 7);
  EXPECT_DOUBLE_EQ(f.get("bad", 1.5), 1.5);
}

TEST(Flags, NumbersMustParseInFull) {
  // Not the fallback, not a truncating cast: a user error.
  for (const char* bad : {"abc", "1.5", "1e10", "3x", "99999999999"}) {
    EXPECT_THROW((void)make({"--n", bad}).get("n", 9), InputError) << bad;
  }
  EXPECT_THROW((void)make({"--x=2.5GB"}).get("x", 1.0), InputError);
  EXPECT_EQ(make({"--n=-3"}).get("n", 9), -3);
}

TEST(Flags, PositionalCollected) {
  const auto f = make({"run", "--app=wc", "fast"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "run");
  EXPECT_EQ(f.positional()[1], "fast");
}

TEST(Flags, UnusedDetectsTypos) {
  const auto f = make({"--app=wc", "--strateegy=none"});
  (void)f.get("app", std::string(""));
  const auto unused = f.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "strateegy");
}

TEST(Flags, HasMarksQueried) {
  const auto f = make({"--x=1"});
  EXPECT_TRUE(f.has("x"));
  EXPECT_TRUE(f.unused().empty());
}

}  // namespace
}  // namespace mron
