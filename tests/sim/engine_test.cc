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

// The timeout-heavy pattern (speculation timers, heartbeats) schedules
// far-future events and cancels nearly all of them. A cancel removes its
// heap entry, so no internal structure outgrows pending() however long the
// churn runs.
TEST(Engine, CancelChurnKeepsMemoryBounded) {
  Engine eng;
  for (int i = 0; i < 100'000; ++i) {
    const EventId id = eng.schedule_after(1e9, [] {});
    eng.cancel(id);
    ASSERT_EQ(eng.queue_size(), eng.pending());
  }
  EXPECT_EQ(eng.pending(), 0u);
  EXPECT_EQ(eng.slot_capacity(), 1u);
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
    ASSERT_EQ(eng.queue_size(), eng.pending());
  }
  EXPECT_EQ(eng.pending(), 100u);
  EXPECT_EQ(eng.slot_capacity(), 101u);
  int fired = 0;
  eng.schedule_at(2e6, [&fired] { ++fired; });
  eng.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, RescheduleMovesTheEventAndKeepsItsHandle) {
  Engine eng;
  std::vector<int> order;
  const EventId a = eng.schedule_at(5.0, [&order] { order.push_back(0); });
  eng.schedule_at(3.0, [&order] { order.push_back(1); });
  const EventId c = eng.schedule_at(4.0, [&order] { order.push_back(2); });
  eng.reschedule(a, 1.0);  // earlier: moves up
  eng.reschedule(c, 3.0);  // a tie: fires after the event already at 3.0
  EXPECT_EQ(eng.pending(), 3u);
  EXPECT_EQ(eng.queue_size(), 3u);
  EXPECT_EQ(eng.slot_capacity(), 3u);
  eng.reschedule(a, 9.0);  // later: moves down, handle still live
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
  EXPECT_DOUBLE_EQ(eng.now(), 9.0);
}

TEST(Engine, RescheduleKeepsTheDaemonFlag) {
  Engine eng;
  const EventId d = eng.schedule_daemon_at(2.0, [] {});
  eng.schedule_at(1.0, [] {});
  eng.reschedule(d, 7.0);
  EXPECT_FALSE(eng.quiescent());
  eng.run_until(1.0);
  EXPECT_TRUE(eng.quiescent());
  EXPECT_EQ(eng.pending(), 1u);
}

// A dead handle cannot be moved: the caller has lost track of its event.
TEST(Engine, RescheduleOfAFiredOrCancelledEventIsACheckFailure) {
  Engine eng;
  const EventId fired = eng.schedule_at(1.0, [] {});
  const EventId cancelled = eng.schedule_at(2.0, [] {});
  eng.cancel(cancelled);
  eng.run();
  EXPECT_THROW(eng.reschedule(fired, 5.0), CheckError);
  EXPECT_THROW(eng.reschedule(cancelled, 5.0), CheckError);
  EXPECT_THROW(eng.reschedule(EventId{}, 5.0), CheckError);
  // The firing event's own handle is already dead inside its callback.
  EventId self;
  bool threw = false;
  self = eng.schedule_at(3.0, [&] {
    try {
      eng.reschedule(self, 4.0);
    } catch (const CheckError&) {
      threw = true;
    }
  });
  eng.run();
  EXPECT_TRUE(threw);
  // Moving a live event into the past is rejected too, and leaves it queued.
  const EventId live = eng.schedule_at(8.0, [] {});
  EXPECT_THROW(eng.reschedule(live, 1.0), CheckError);
  EXPECT_EQ(eng.pending(), 1u);
  EXPECT_EQ(eng.queue_size(), 1u);
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
// Randomized schedule / cancel / reschedule / daemon / run_until churn
// against a reference model: a std::set of (time, order) keys holding exactly
// the events that must still fire. `order` counts schedules and reschedules,
// which is the engine's own tie-break (a reschedule takes the sequence
// number a fresh schedule would), so the set's minimum is the event the
// engine must dispatch next.

class ModelChurn {
 public:
  using Key = std::pair<SimTime, int>;

  explicit ModelChurn(std::uint64_t seed) : rng_(seed) {}

  void schedule(SimTime t, bool daemon) {
    const int k = static_cast<int>(ids_.size());
    auto cb = [this, k] { on_fire(k); };
    ids_.push_back(daemon ? eng_.schedule_daemon_at(t, cb)
                          : eng_.schedule_at(t, cb));
    when_.push_back(t);
    order_.push_back(next_order_++);
    daemon_.push_back(daemon);
    model_.insert(key(k));
    if (daemon) ++model_daemons_;
  }

  /// Schedule a burst mixing same-instant, dense, spread and far-future
  /// times; about one event in ten is a daemon.
  void schedule_burst() {
    const int burst = static_cast<int>(rng_.uniform_int(1, 50));
    for (int i = 0; i < burst; ++i) {
      schedule(random_time(), rng_.uniform_int(0, 9) == 0);
    }
  }

  /// Cancel random handles — live, fired and already-cancelled alike. After
  /// every cancel the heap holds exactly the pending events.
  void cancel_some() {
    const auto n = static_cast<std::int64_t>(ids_.size());
    const auto cancels = rng_.uniform_int(0, n / 2);
    for (std::int64_t i = 0; i < cancels; ++i) {
      const auto k = static_cast<int>(rng_.uniform_int(0, n - 1));
      eng_.cancel(ids_[static_cast<std::size_t>(k)]);
      erase(k);
      ASSERT_EQ(eng_.queue_size(), eng_.pending());
    }
  }

  /// Move random live events to random times, earlier and later alike; the
  /// model drops the old key and inserts the new one under a fresh order.
  void reschedule_some() {
    const auto n = static_cast<std::int64_t>(ids_.size());
    const auto moves = rng_.uniform_int(0, n / 2);
    for (std::int64_t i = 0; i < moves; ++i) {
      const auto k = static_cast<int>(rng_.uniform_int(0, n - 1));
      if (model_.count(key(k)) == 0) continue;
      move(k, random_time());
      ASSERT_EQ(eng_.queue_size(), eng_.pending());
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
    check_dead_handles_rejected();
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
  [[nodiscard]] std::size_t moved() const { return moved_; }

 private:
  [[nodiscard]] Key key(int k) const {
    const auto s = static_cast<std::size_t>(k);
    return {when_[s], order_[s]};
  }

  /// Same-instant, dense, spread or far-future.
  SimTime random_time() {
    SimTime when = eng_.now();
    switch (rng_.uniform_int(0, 3)) {
      case 0: break;
      case 1: when += rng_.uniform(0.0, 5.0); break;
      case 2: when += rng_.uniform(0.0, 500.0); break;
      default: when += 1e6 + rng_.uniform(0.0, 1e6);
    }
    return when;
  }

  void move(int k, SimTime t) {
    const auto s = static_cast<std::size_t>(k);
    eng_.reschedule(ids_[s], t);
    model_.erase(key(k));
    when_[s] = t;
    order_[s] = next_order_++;
    model_.insert(key(k));
    ++moved_;
  }

  void on_fire(int k) {
    expected_.push_back(model_.empty() ? Key{-1.0, -1} : *model_.begin());
    fired_.push_back({eng_.now(), order_[static_cast<std::size_t>(k)]});
    erase(k);
    // Every seventh event re-arms from inside its callback, as timers do;
    // every fifth moves another live event, as a SharedServer completion
    // moves its server's next one.
    if (k % 7 == 0) schedule(eng_.now() + rng_.uniform(0.0, 50.0),
                             daemon_[static_cast<std::size_t>(k)]);
    if (k % 5 == 0) {
      const auto other = static_cast<int>(rng_.uniform_int(
          0, static_cast<std::int64_t>(ids_.size()) - 1));
      if (model_.count(key(other)) != 0) {
        move(other, eng_.now() + rng_.uniform(0.0, 50.0));
      }
    }
  }

  void erase(int k) {
    if (model_.erase(key(k)) == 0) return;
    if (daemon_[static_cast<std::size_t>(k)]) --model_daemons_;
  }

  void check_state() {
    ASSERT_EQ(fired_, expected_);
    EXPECT_EQ(eng_.pending(), model_.size());
    EXPECT_EQ(eng_.queue_size(), eng_.pending());
    EXPECT_EQ(eng_.quiescent(), model_.size() == model_daemons_);
  }

  /// Handles of fired or cancelled events are dead: cancelling them must
  /// not touch whatever event now occupies their recycled slot, and moving
  /// them is a check failure that changes nothing.
  void check_dead_handles_rejected() {
    for (int probe = 0; probe < 20; ++probe) {
      const auto k = static_cast<int>(
          rng_.uniform_int(0, static_cast<std::int64_t>(ids_.size()) - 1));
      if (model_.count(key(k)) != 0) continue;
      const std::size_t pending = eng_.pending();
      const auto& id = ids_[static_cast<std::size_t>(k)];
      eng_.cancel(id);
      EXPECT_EQ(eng_.pending(), pending) << "dead handle " << k;
      EXPECT_THROW(eng_.reschedule(id, eng_.now()), CheckError);
      EXPECT_EQ(eng_.pending(), pending) << "dead handle " << k;
    }
  }

  Engine eng_;
  Rng rng_;
  std::set<Key> model_;
  std::size_t model_daemons_ = 0;
  int next_order_ = 0;
  std::size_t moved_ = 0;
  // Indexed by event number k, in scheduling order.
  std::vector<EventId> ids_;
  std::vector<SimTime> when_;
  std::vector<int> order_;
  std::vector<bool> daemon_;
  std::vector<Key> fired_;     // (now, order) as the engine dispatched them
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
      ASSERT_NO_FATAL_FAILURE(churn.reschedule_some());
      ASSERT_NO_FATAL_FAILURE(churn.run_slice());
    }
    ASSERT_NO_FATAL_FAILURE(churn.drain());
    EXPECT_GT(churn.fired(), 0u);
    EXPECT_GT(churn.moved(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Twin engines fed the same random operations: one moves events with
// reschedule(), the other with cancel() + schedule_at(), the code
// SharedServer ran before reschedule() existed. Their (time, tag) dispatch
// streams must match event for event.

class TwinEngine {
 public:
  using Fired = std::pair<SimTime, int>;

  explicit TwinEngine(bool in_place) : in_place_(in_place) {}

  /// Schedule a new event; returns its tag.
  int schedule(SimTime t) {
    const int tag = static_cast<int>(ids_.size());
    ids_.emplace_back();
    live_.push_back(false);
    arm(tag, t);
    return tag;
  }

  void cancel(int tag) {
    const auto s = static_cast<std::size_t>(tag);
    eng_.cancel(ids_[s]);
    live_[s] = false;
  }

  void move(int tag, SimTime t) {
    const auto s = static_cast<std::size_t>(tag);
    if (!live_[s]) return;
    if (in_place_) {
      eng_.reschedule(ids_[s], t);
    } else {
      eng_.cancel(ids_[s]);
      arm(tag, t);
    }
  }

  void run_until(SimTime t) { eng_.run_until(t); }
  void run() { eng_.run(); }

  [[nodiscard]] const Engine& engine() const { return eng_; }
  [[nodiscard]] int tags() const { return static_cast<int>(ids_.size()); }
  [[nodiscard]] const std::vector<Fired>& fired() const { return fired_; }

 private:
  void arm(int tag, SimTime t) {
    const auto s = static_cast<std::size_t>(tag);
    ids_[s] = eng_.schedule_at(t, [this, tag] { on_fire(tag); });
    live_[s] = true;
  }

  /// Callbacks schedule and move events too, each from its own tag alone so
  /// that both twins do the same thing as long as they agree so far.
  void on_fire(int tag) {
    live_[static_cast<std::size_t>(tag)] = false;
    fired_.push_back({eng_.now(), tag});
    if (tag % 4 == 0) schedule(eng_.now() + tag % 3);
    if (tag % 3 == 0) move((tag * 7 + 3) % tags(), eng_.now() + tag % 5);
  }

  Engine eng_;
  bool in_place_;
  std::vector<EventId> ids_;  // indexed by tag
  std::vector<bool> live_;
  std::vector<Fired> fired_;
};

TEST(Engine, RescheduleDispatchesLikeCancelPlusSchedule) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed);
    TwinEngine moved(/*in_place=*/true);
    TwinEngine rearmed(/*in_place=*/false);
    // Whole-second times make ties common, so the seq tie-break matters.
    auto when = [&] {
      return moved.engine().now() +
             static_cast<SimTime>(rng.uniform_int(0, 20));
    };
    for (int round = 0; round < 80; ++round) {
      ASSERT_EQ(moved.tags(), rearmed.tags());
      for (int i = 0, n = static_cast<int>(rng.uniform_int(1, 30)); i < n;
           ++i) {
        const SimTime t = when();
        moved.schedule(t);
        rearmed.schedule(t);
      }
      for (int i = 0, n = static_cast<int>(rng.uniform_int(0, 40)); i < n;
           ++i) {
        const auto tag = static_cast<int>(rng.uniform_int(0, moved.tags() - 1));
        if (rng.uniform_int(0, 4) == 0) {
          moved.cancel(tag);
          rearmed.cancel(tag);
        } else {
          const SimTime t = when();
          moved.move(tag, t);
          rearmed.move(tag, t);
        }
      }
      const SimTime until = moved.engine().now() + rng.uniform(0.0, 10.0);
      moved.run_until(until);
      rearmed.run_until(until);
      ASSERT_EQ(moved.fired(), rearmed.fired());
      ASSERT_EQ(moved.engine().pending(), rearmed.engine().pending());
      ASSERT_EQ(moved.engine().queue_size(), moved.engine().pending());
      ASSERT_EQ(rearmed.engine().queue_size(), rearmed.engine().pending());
    }
    moved.run();
    rearmed.run();
    EXPECT_EQ(moved.fired(), rearmed.fired());
    EXPECT_GT(moved.fired().size(), 1000u);
  }
}

}  // namespace
}  // namespace mron::sim
