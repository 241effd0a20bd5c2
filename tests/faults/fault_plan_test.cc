// FaultPlan text format: parsing, round-tripping, and validation. Plans are
// the declarative half of fault injection (FAULTS.md); everything here is
// pure description — no engine involved.
#include "faults/fault_plan.h"

#include <gtest/gtest.h>

#include <string>

#include "common/check.h"

namespace mron::faults {
namespace {

const char* kFullPlan =
    "# canned plan\n"
    "seed 42\n"
    "heartbeat period=0.5 timeout=3\n"
    "taskfail prob=0.02\n"
    "crash node=4 at=120 restart=300\n"
    "crash node=9 at=200\n"
    "degrade node=7 from=60 until=180 disk=0.25 nic=0.5\n"
    "degrade node=3 from=10 until=40 cpu=0.8\n";

TEST(FaultPlan, ParsesEveryDirective) {
  const FaultPlan p = FaultPlan::parse(kFullPlan);
  EXPECT_EQ(p.seed, 42u);
  EXPECT_DOUBLE_EQ(p.task_fail_prob, 0.02);
  EXPECT_DOUBLE_EQ(p.heartbeat_period, 0.5);
  EXPECT_DOUBLE_EQ(p.heartbeat_timeout, 3.0);
  ASSERT_EQ(p.crashes.size(), 2u);
  EXPECT_EQ(p.crashes[0].node, 4);
  EXPECT_DOUBLE_EQ(p.crashes[0].at, 120.0);
  EXPECT_DOUBLE_EQ(p.crashes[0].restart_at, 300.0);
  // No restart= means the node never comes back.
  EXPECT_EQ(p.crashes[1].node, 9);
  EXPECT_LT(p.crashes[1].restart_at, 0.0);
  ASSERT_EQ(p.degradations.size(), 2u);
  EXPECT_EQ(p.degradations[0].node, 7);
  EXPECT_DOUBLE_EQ(p.degradations[0].disk_factor, 0.25);
  EXPECT_DOUBLE_EQ(p.degradations[0].nic_factor, 0.5);
  EXPECT_DOUBLE_EQ(p.degradations[0].cpu_factor, 1.0);  // untouched resource
  EXPECT_DOUBLE_EQ(p.degradations[1].cpu_factor, 0.8);
  EXPECT_FALSE(p.empty());
}

TEST(FaultPlan, SemicolonsAndCommentsSeparateDirectives) {
  const FaultPlan p = FaultPlan::parse(
      "seed 7; taskfail prob=0.1  # trailing comment\n"
      "crash node=1 at=5; crash node=2 at=6\n");
  EXPECT_EQ(p.seed, 7u);
  EXPECT_DOUBLE_EQ(p.task_fail_prob, 0.1);
  EXPECT_EQ(p.crashes.size(), 2u);
}

TEST(FaultPlan, RoundTripsThroughToString) {
  const FaultPlan p = FaultPlan::parse(kFullPlan);
  const FaultPlan q = FaultPlan::parse(p.to_string());
  EXPECT_EQ(p.to_string(), q.to_string());
  EXPECT_EQ(q.crashes.size(), p.crashes.size());
  EXPECT_EQ(q.degradations.size(), p.degradations.size());
  EXPECT_DOUBLE_EQ(q.task_fail_prob, p.task_fail_prob);
}

TEST(FaultPlan, PermanentCrashRoundTripsWithoutRestart) {
  // `crash node=N at=T` with no restart= is a permanent fail-stop: the
  // storage layer must re-replicate the node's blocks, since it is never
  // coming back. The serialized form must not invent a restart= key and
  // the negative sentinel must survive a full round trip.
  const FaultPlan p = FaultPlan::parse("seed 1\ncrash node=3 at=45\n");
  ASSERT_EQ(p.crashes.size(), 1u);
  EXPECT_LT(p.crashes[0].restart_at, 0.0);
  const std::string text = p.to_string();
  EXPECT_EQ(text.find("restart="), std::string::npos) << text;
  const FaultPlan q = FaultPlan::parse(text);
  ASSERT_EQ(q.crashes.size(), 1u);
  EXPECT_EQ(q.crashes[0].node, 3);
  EXPECT_DOUBLE_EQ(q.crashes[0].at, 45.0);
  EXPECT_LT(q.crashes[0].restart_at, 0.0);
  p.validate(6);  // a permanent crash is a well-formed plan
  // Mixed plans keep each crash's restart semantics separate.
  const FaultPlan m =
      FaultPlan::parse("crash node=0 at=10 restart=20; crash node=1 at=10");
  const FaultPlan m2 = FaultPlan::parse(m.to_string());
  ASSERT_EQ(m2.crashes.size(), 2u);
  EXPECT_DOUBLE_EQ(m2.crashes[0].restart_at, 20.0);
  EXPECT_LT(m2.crashes[1].restart_at, 0.0);
}

TEST(FaultPlan, ValidateRejectsRestartBeforeCrash) {
  FaultPlan p = FaultPlan::parse("crash node=0 at=10 restart=10");
  EXPECT_THROW(p.validate(4), CheckError);
  p = FaultPlan::parse("crash node=0 at=10 restart=5");
  EXPECT_THROW(p.validate(4), CheckError);
}

TEST(FaultPlan, DefaultPlanIsEmptyAndValid) {
  const FaultPlan p;
  EXPECT_TRUE(p.empty());
  p.validate(4);  // injecting nothing is always well-formed
  // Heartbeat parameters alone do not make a plan non-empty.
  const FaultPlan q = FaultPlan::parse("seed 1\nheartbeat period=1 timeout=4");
  EXPECT_TRUE(q.empty());
}

TEST(FaultPlan, ValidateRejectsMalformedPlans) {
  FaultPlan p = FaultPlan::parse("crash node=6 at=10");
  EXPECT_THROW(p.validate(6), CheckError);  // node out of [0, num_nodes)
  p = FaultPlan::parse("degrade node=0 from=20 until=20 disk=0.5");
  EXPECT_THROW(p.validate(4), CheckError);  // empty window
  p = FaultPlan::parse("degrade node=0 from=0 until=10 disk=0");
  EXPECT_THROW(p.validate(4), CheckError);  // factor must stay positive
  p = FaultPlan::parse("taskfail prob=1.5");
  EXPECT_THROW(p.validate(4), CheckError);  // probability outside [0, 1]
}

TEST(FaultPlan, ParseRejectsUnknownDirectives) {
  EXPECT_THROW(FaultPlan::parse("explode node=1 at=10"), CheckError);
  EXPECT_THROW(FaultPlan::parse("crash node=1 at=abc"), CheckError);
}

TEST(FaultPlan, BadInputIsAUserError) {
  // Parse and validate errors are InputErrors (a CheckError subclass) whose
  // message is the bare reason, fit to show a user as is.
  try {
    (void)FaultPlan::parse("crash node=x");
    ADD_FAILURE() << "crash node=x was accepted";
  } catch (const InputError& e) {
    EXPECT_EQ(std::string(e.what()),
              "fault plan: bad number 'x' in 'crash node=x'");
  }
  const FaultPlan p = FaultPlan::parse("heartbeat period=0 timeout=0");
  EXPECT_THROW(p.validate(4), InputError);
}

TEST(FaultPlan, NegativeNodeIsNotReportedAsMissing) {
  // A node= that is given but negative names the bad value; only an absent
  // node= is "without node=".
  const auto message = [](const std::string& text) {
    try {
      (void)FaultPlan::parse(text);
    } catch (const InputError& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(message("crash node=-1 at=3"),
            "fault plan: negative node -1 in 'crash node=-1 at=3'");
  EXPECT_EQ(message("degrade node=-2 from=0 until=5 disk=0.5"),
            "fault plan: negative node -2 in "
            "'degrade node=-2 from=0 until=5 disk=0.5'");
  EXPECT_EQ(message("crash at=3"),
            "fault plan: crash without node= in 'crash at=3'");
  EXPECT_EQ(message("degrade from=0 until=5"),
            "fault plan: degrade without node= in 'degrade from=0 until=5'");
}

}  // namespace
}  // namespace mron::faults
