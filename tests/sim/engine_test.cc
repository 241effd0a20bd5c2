#include "sim/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace mron::sim {
namespace {

TEST(Engine, FiresInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(3.0, [&] { order.push_back(3); });
  eng.schedule_at(1.0, [&] { order.push_back(1); });
  eng.schedule_at(2.0, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(eng.now(), 3.0);
}

TEST(Engine, EqualTimesFireInScheduleOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eng.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, ScheduleAfterUsesCurrentTime) {
  Engine eng;
  double fired_at = -1.0;
  eng.schedule_at(5.0, [&] {
    eng.schedule_after(2.5, [&] { fired_at = eng.now(); });
  });
  eng.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Engine, CancelPreventsFiring) {
  Engine eng;
  bool fired = false;
  const EventId id = eng.schedule_at(1.0, [&] { fired = true; });
  eng.cancel(id);
  eng.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(eng.empty());
}

TEST(Engine, CancelTwiceAndAfterFireAreNoops) {
  Engine eng;
  int count = 0;
  const EventId id = eng.schedule_at(1.0, [&] { ++count; });
  eng.run();
  eng.cancel(id);  // already fired
  eng.cancel(id);
  EXPECT_EQ(count, 1);
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine eng;
  std::vector<double> times;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    eng.schedule_at(t, [&times, &eng] { times.push_back(eng.now()); });
  }
  const auto fired = eng.run_until(2.5);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(eng.now(), 2.5);
  EXPECT_EQ(eng.pending(), 2u);
  eng.run();
  EXPECT_EQ(times.size(), 4u);
}

TEST(Engine, EventsCanChain) {
  Engine eng;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) eng.schedule_after(1.0, chain);
  };
  eng.schedule_after(1.0, chain);
  eng.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(eng.now(), 100.0);
}

TEST(Engine, RejectsPastScheduling) {
  Engine eng;
  eng.schedule_at(10.0, [] {});
  eng.run();
  EXPECT_THROW(eng.schedule_at(5.0, [] {}), CheckError);
  EXPECT_THROW(eng.schedule_after(-1.0, [] {}), CheckError);
}

TEST(Engine, MaxEventsGuardThrows) {
  Engine eng;
  std::function<void()> forever = [&] { eng.schedule_after(1.0, forever); };
  eng.schedule_after(1.0, forever);
  EXPECT_THROW(eng.run(1000), CheckError);
}

// The tombstone-growth regression test: the timeout-heavy pattern
// (speculation timers, heartbeats) schedules far-future events and cancels
// nearly all of them. The old lazy-deleted priority queue grew a tombstone
// per cancel; the slot map + amortized compaction must keep every internal
// structure O(pending()) no matter how long the churn runs.
TEST(Engine, CancelChurnKeepsMemoryBounded) {
  Engine eng;
  for (int i = 0; i < 100'000; ++i) {
    const EventId id = eng.schedule_after(1e9, [] {});
    eng.cancel(id);
  }
  EXPECT_EQ(eng.pending(), 0u);
  // Compaction fires once stale entries outnumber live ones (with a small
  // floor), so the heap never holds more than a constant past that.
  EXPECT_LE(eng.queue_size(), 128u);
  EXPECT_LE(eng.slot_capacity(), 128u);
}

TEST(Engine, CancelChurnWithLiveEventsStaysProportional) {
  Engine eng;
  std::vector<EventId> live;
  live.reserve(100);
  for (int i = 0; i < 100; ++i) {
    live.push_back(eng.schedule_at(1e6 + i, [] {}));
  }
  for (int i = 0; i < 50'000; ++i) {
    eng.cancel(eng.schedule_after(1e9, [] {}));
  }
  EXPECT_EQ(eng.pending(), 100u);
  EXPECT_LE(eng.queue_size(), 2 * eng.pending() + 128);
  EXPECT_LE(eng.slot_capacity(), 2 * eng.pending() + 128);
  int fired = 0;
  eng.schedule_at(2e6, [&fired] { ++fired; });
  eng.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, StaleHandleAfterSlotReuseIsRejected) {
  Engine eng;
  const EventId a = eng.schedule_at(1.0, [] {});
  eng.cancel(a);
  // The slot is recycled for b; the stale handle a must not cancel b.
  int fired = 0;
  eng.schedule_at(2.0, [&fired] { ++fired; });
  eng.cancel(a);
  eng.cancel(a);  // double-cancel is also a no-op
  eng.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, CancelAfterFireIsNoOp) {
  Engine eng;
  const EventId a = eng.schedule_at(1.0, [] {});
  int fired = 0;
  eng.schedule_at(2.0, [&fired] { ++fired; });
  eng.run();
  eng.cancel(a);  // fired long ago; its slot may host someone else now
  EXPECT_EQ(fired, 1);
}

TEST(Engine, AcceptsMoveOnlyCaptures) {
  Engine eng;
  auto payload = std::make_unique<int>(41);
  int got = 0;
  eng.schedule_at(1.0, [p = std::move(payload), &got] { got = *p + 1; });
  eng.run();
  EXPECT_EQ(got, 42);
}

// ---------------------------------------------------------------------------
// Randomized schedule / cancel / daemon / run_until churn against a
// reference model: a std::set of (time, seq) keys holding exactly the events
// that must still fire. seq is the schedule order, which is the engine's own
// tie-break, so the set's minimum is the event the engine must dispatch next.

class ModelChurn {
 public:
  using Key = std::pair<SimTime, int>;

  explicit ModelChurn(std::uint64_t seed) : rng_(seed) {}

  void schedule(SimTime t, bool daemon) {
    const int seq = static_cast<int>(ids_.size());
    auto cb = [this, seq] { on_fire(seq); };
    ids_.push_back(daemon ? eng_.schedule_daemon_at(t, cb)
                          : eng_.schedule_at(t, cb));
    when_.push_back(t);
    daemon_.push_back(daemon);
    model_.insert({t, seq});
    if (daemon) ++model_daemons_;
  }

  /// Schedule a burst mixing same-instant, dense, spread and far-future
  /// times; about one event in ten is a daemon.
  void schedule_burst() {
    const int burst = static_cast<int>(rng_.uniform_int(1, 50));
    for (int i = 0; i < burst; ++i) {
      SimTime when = eng_.now();
      switch (rng_.uniform_int(0, 3)) {
        case 0: break;
        case 1: when += rng_.uniform(0.0, 5.0); break;
        case 2: when += rng_.uniform(0.0, 500.0); break;
        default: when += 1e6 + rng_.uniform(0.0, 1e6);
      }
      schedule(when, rng_.uniform_int(0, 9) == 0);
    }
  }

  /// Cancel random handles — live, fired and already-cancelled alike. After
  /// every cancel that hit a live event, the queue must be O(pending()).
  void cancel_some() {
    const auto n = static_cast<std::int64_t>(ids_.size());
    const auto cancels = rng_.uniform_int(0, n / 2);
    for (std::int64_t i = 0; i < cancels; ++i) {
      const auto seq = static_cast<int>(rng_.uniform_int(0, n - 1));
      eng_.cancel(ids_[static_cast<std::size_t>(seq)]);
      if (!erase(seq)) continue;
      ASSERT_LE(eng_.queue_size(), 2 * eng_.pending() + 64);
    }
  }

  /// run_until a random boundary, then check the engine against the model.
  /// One slice in four stops at now(): events due exactly at the boundary
  /// (the same-instant bursts) must still fire.
  void run_slice() {
    const SimTime until = rng_.uniform_int(0, 3) == 0
                              ? eng_.now()
                              : eng_.now() + rng_.uniform(0.0, 200.0);
    const std::size_t before = fired_.size();
    const std::int64_t n = eng_.run_until(until);
    EXPECT_EQ(static_cast<std::size_t>(n), fired_.size() - before);
    EXPECT_EQ(eng_.now(), until);
    EXPECT_TRUE(model_.empty() || model_.begin()->first > until);
    check_state();
    check_stale_handles_rejected();
  }

  void drain() {
    const std::size_t before = fired_.size();
    const std::int64_t n = eng_.run();
    EXPECT_EQ(static_cast<std::size_t>(n), fired_.size() - before);
    EXPECT_TRUE(model_.empty());
    EXPECT_TRUE(eng_.empty());
    check_state();
  }

  [[nodiscard]] std::size_t fired() const { return fired_.size(); }

 private:
  void on_fire(int seq) {
    expected_.push_back(model_.empty() ? Key{-1.0, -1} : *model_.begin());
    fired_.push_back({eng_.now(), seq});
    erase(seq);
    // Every seventh event re-arms from inside its callback, as timers do.
    if (seq % 7 == 0) schedule(eng_.now() + rng_.uniform(0.0, 50.0),
                               daemon_[static_cast<std::size_t>(seq)]);
  }

  bool erase(int seq) {
    const auto s = static_cast<std::size_t>(seq);
    if (model_.erase({when_[s], seq}) == 0) return false;
    if (daemon_[s]) --model_daemons_;
    return true;
  }

  void check_state() {
    ASSERT_EQ(fired_, expected_);
    EXPECT_EQ(eng_.pending(), model_.size());
    EXPECT_EQ(eng_.quiescent(), model_.size() == model_daemons_);
    EXPECT_LE(eng_.stale_entries(), eng_.queue_size());
  }

  /// Handles of fired or cancelled events are stale: cancelling them must
  /// not touch whatever event now occupies their recycled slot.
  void check_stale_handles_rejected() {
    for (int probe = 0; probe < 20; ++probe) {
      const auto seq = static_cast<int>(
          rng_.uniform_int(0, static_cast<std::int64_t>(ids_.size()) - 1));
      const auto s = static_cast<std::size_t>(seq);
      if (model_.count({when_[s], seq}) != 0) continue;
      const std::size_t pending = eng_.pending();
      eng_.cancel(ids_[s]);
      EXPECT_EQ(eng_.pending(), pending) << "stale handle of seq " << seq;
    }
  }

  Engine eng_;
  Rng rng_;
  std::set<Key> model_;
  std::size_t model_daemons_ = 0;
  std::vector<EventId> ids_;  // indexed by seq
  std::vector<SimTime> when_;
  std::vector<bool> daemon_;
  std::vector<Key> fired_;     // (now, seq) as the engine dispatched them
  std::vector<Key> expected_;  // the model's minimum at each dispatch
};

TEST(Engine, RandomChurnMatchesReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    ModelChurn churn(seed);
    for (int round = 0; round < 60; ++round) {
      SCOPED_TRACE(testing::Message() << "round " << round);
      churn.schedule_burst();
      ASSERT_NO_FATAL_FAILURE(churn.cancel_some());
      ASSERT_NO_FATAL_FAILURE(churn.run_slice());
    }
    ASSERT_NO_FATAL_FAILURE(churn.drain());
    EXPECT_GT(churn.fired(), 0u);
  }
}

}  // namespace
}  // namespace mron::sim
