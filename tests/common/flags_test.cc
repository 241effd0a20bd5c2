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
  EXPECT_FALSE(make({"--x=no"}).get("x", true));
  // `--fair stray` must not quietly read as false.
  EXPECT_THROW((void)make({"--x", "stray"}).get("x", false), InputError);
}

TEST(Flags, BareValueFlagNeedsAValue) {
  // Bare, empty, or followed by another flag: never the fallback.
  for (const auto& f : {make({"--seed"}), make({"--seed="}),
                        make({"--seed", "--app=wc"})}) {
    EXPECT_THROW((void)f.get("seed", 1), InputError);
    EXPECT_THROW((void)f.get("seed", 1.0), InputError);
    EXPECT_THROW((void)f.get("seed", std::string("x")), InputError);
  }
}

TEST(Flags, PathTakesItsDefaultWhenBare) {
  const auto f = make({"--report-out", "--metrics-out=m.json", "--a="});
  EXPECT_EQ(f.path("report-out", "r.json"), "r.json");
  EXPECT_EQ(f.path("metrics-out", "x.json"), "m.json");
  EXPECT_EQ(f.path("a", "a.json"), "a.json");
  EXPECT_EQ(f.path("absent", "y.json"), "");
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

TEST(Flags, RejectUnusedNamesFlagsThenStrayArguments) {
  const auto f = make({"--app=wc", "stray"});
  EXPECT_THROW(f.reject_unused(), InputError);  // --app was never read
  (void)f.has("app");
  EXPECT_THROW(f.reject_unused(), InputError);  // the stray argument
  const auto read = make({"--app=wc"});
  (void)read.has("app");
  EXPECT_NO_THROW(read.reject_unused());
}

TEST(Flags, HasMarksQueried) {
  const auto f = make({"--x=1"});
  EXPECT_TRUE(f.has("x"));
  EXPECT_TRUE(f.unused().empty());
}

}  // namespace
}  // namespace mron
