#include "sim/shared_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "obs/recorder.h"

namespace mron::sim {
namespace {

TEST(SharedServer, SingleStreamRunsAtFullCapacity) {
  Engine eng;
  SharedServer disk(eng, 100.0, "disk");
  double done_at = -1.0;
  disk.submit(500.0, [&] { done_at = eng.now(); });
  eng.run();
  EXPECT_DOUBLE_EQ(done_at, 5.0);
}

TEST(SharedServer, TwoEqualStreamsShareFairly) {
  Engine eng;
  SharedServer disk(eng, 100.0, "disk");
  double a = -1, b = -1;
  disk.submit(500.0, [&] { a = eng.now(); });
  disk.submit(500.0, [&] { b = eng.now(); });
  eng.run();
  // Each gets 50 units/s -> both finish at t=10.
  EXPECT_DOUBLE_EQ(a, 10.0);
  EXPECT_DOUBLE_EQ(b, 10.0);
}

TEST(SharedServer, ShortStreamFinishesThenLongSpeedsUp) {
  Engine eng;
  SharedServer disk(eng, 100.0, "disk");
  double short_done = -1, long_done = -1;
  disk.submit(100.0, [&] { short_done = eng.now(); });
  disk.submit(500.0, [&] { long_done = eng.now(); });
  eng.run();
  // Shared at 50/s until short finishes at t=2 (100/50); long then has
  // 400 left at 100/s -> t = 2 + 4 = 6.
  EXPECT_DOUBLE_EQ(short_done, 2.0);
  EXPECT_DOUBLE_EQ(long_done, 6.0);
}

TEST(SharedServer, CapLimitsSingleStream) {
  Engine eng;
  SharedServer cpu(eng, 8.0, "cpu");
  double done = -1;
  cpu.submit(4.0, /*cap=*/0.25, [&] { done = eng.now(); });
  eng.run();
  EXPECT_DOUBLE_EQ(done, 16.0);  // 4 core-seconds at 0.25 cores
}

TEST(SharedServer, WaterFillingRedistributesSurplus) {
  Engine eng;
  SharedServer cpu(eng, 10.0, "cpu");
  // One capped stream (cap 2) and one uncapped stream: allocation should be
  // 2 and 8, not 5 and 5.
  double capped = -1, uncapped = -1;
  cpu.submit(20.0, 2.0, [&] { capped = eng.now(); });
  cpu.submit(80.0, SharedServer::kUncapped, [&] { uncapped = eng.now(); });
  eng.run();
  EXPECT_DOUBLE_EQ(capped, 10.0);
  EXPECT_DOUBLE_EQ(uncapped, 10.0);
}

TEST(SharedServer, LateArrivalSlowsExisting) {
  Engine eng;
  SharedServer disk(eng, 100.0, "disk");
  double first_done = -1;
  disk.submit(400.0, [&] { first_done = eng.now(); });
  eng.schedule_at(2.0, [&] { disk.submit(1000.0, [] {}); });
  eng.run();
  // First: 200 done by t=2 at 100/s, then 200 left at 50/s -> t=6.
  EXPECT_DOUBLE_EQ(first_done, 6.0);
}

TEST(SharedServer, CancelFreesBandwidth) {
  Engine eng;
  SharedServer disk(eng, 100.0, "disk");
  double done = -1;
  disk.submit(400.0, [&] { done = eng.now(); });
  bool cancelled_fired = false;
  const StreamId victim =
      disk.submit(1000.0, [&] { cancelled_fired = true; });
  eng.schedule_at(2.0, [&] { disk.cancel(victim); });
  eng.run();
  EXPECT_FALSE(cancelled_fired);
  // 100 done by t=2 (50/s each), then 300 left at 100/s -> t=5.
  EXPECT_DOUBLE_EQ(done, 5.0);
}

TEST(SharedServer, ZeroWorkCompletesAsync) {
  Engine eng;
  SharedServer disk(eng, 100.0, "disk");
  bool done = false;
  disk.submit(0.0, [&] { done = true; });
  EXPECT_FALSE(done);  // not synchronous
  eng.run();
  EXPECT_TRUE(done);
}

TEST(SharedServer, RemainingTracksProgress) {
  Engine eng;
  SharedServer disk(eng, 100.0, "disk");
  const StreamId id = disk.submit(400.0, [] {});
  double observed = -1;
  eng.schedule_at(1.0, [&] { observed = disk.remaining(id); });
  eng.run();
  EXPECT_DOUBLE_EQ(observed, 300.0);
  EXPECT_DOUBLE_EQ(disk.remaining(id), 0.0);  // finished
}

TEST(SharedServer, BusyIntegralEqualsWorkServed) {
  Engine eng;
  SharedServer disk(eng, 100.0, "disk");
  disk.submit(123.0, [] {});
  disk.submit(456.0, [] {});
  eng.run();
  EXPECT_NEAR(disk.busy_integral(), 579.0, 1e-6);
}

TEST(SharedServer, CompletionCallbackCanResubmit) {
  Engine eng;
  SharedServer disk(eng, 100.0, "disk");
  double second_done = -1;
  disk.submit(100.0, [&] {
    disk.submit(100.0, [&] { second_done = eng.now(); });
  });
  eng.run();
  EXPECT_DOUBLE_EQ(second_done, 2.0);
}

// Property: under random arrivals/sizes/caps, total work served equals total
// work submitted, and every stream completes.
TEST(SharedServerProperty, ConservationUnderRandomLoad) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Engine eng;
    SharedServer srv(eng, 50.0, "srv");
    Rng rng(seed);
    double submitted = 0.0;
    int completed = 0;
    const int n = 200;
    for (int i = 0; i < n; ++i) {
      const double at = rng.uniform(0.0, 100.0);
      const double work = rng.uniform(1.0, 500.0);
      const double cap = rng.uniform01() < 0.5
                             ? SharedServer::kUncapped
                             : rng.uniform(0.5, 20.0);
      submitted += work;
      eng.schedule_at(at, [&, work, cap] {
        srv.submit(work, cap, [&] { ++completed; });
      });
    }
    eng.run();
    EXPECT_EQ(completed, n) << "seed " << seed;
    EXPECT_NEAR(srv.busy_integral(), submitted, 1e-3) << "seed " << seed;
    EXPECT_EQ(srv.active(), 0u);
  }
}

// A loaded server keeps exactly one completion event: every submit and
// cancel moves it in place (Engine::reschedule) instead of leaving a
// cancelled entry behind in the engine's heap.
TEST(SharedServer, SubmitMovesTheCompletionEventInPlace) {
  Engine eng;
  SharedServer disk(eng, 100.0, "disk");
  int done = 0;
  std::vector<StreamId> ids;
  ids.push_back(disk.submit(1e6, [&done] { ++done; }));
  const std::size_t slots = eng.slot_capacity();
  auto check = [&] {
    ASSERT_EQ(eng.pending(), 1u);
    ASSERT_EQ(eng.queue_size(), 1u);
    ASSERT_EQ(eng.slot_capacity(), slots);
  };
  for (int i = 0; i < 50; ++i) {
    eng.run_until(eng.now() + 0.5);  // far from any completion
    ids.push_back(disk.submit(1e6 + i, [&done] { ++done; }));
    ASSERT_NO_FATAL_FAILURE(check());
  }
  for (int i = 0; i < 10; ++i) {
    disk.cancel(ids[static_cast<std::size_t>(5 * i)]);
    ASSERT_NO_FATAL_FAILURE(check());
  }
  EXPECT_EQ(disk.active(), 41u);
  eng.run();
  EXPECT_EQ(done, 41);
  EXPECT_EQ(eng.queue_size(), 0u);
}

// Property: the server never exceeds its capacity: work served over any
// interval is at most capacity * dt. Checked via total makespan lower bound.
TEST(SharedServerProperty, MakespanRespectsCapacity) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Engine eng;
    SharedServer srv(eng, 10.0, "srv");
    Rng rng(seed + 100);
    double total = 0.0;
    for (int i = 0; i < 50; ++i) {
      const double work = rng.uniform(1.0, 100.0);
      total += work;
      srv.submit(work, [] {});
    }
    eng.run();
    EXPECT_GE(eng.now() + 1e-9, total / 10.0) << "seed " << seed;
  }
}

// A server that never serves a stream holds no table, and the table moved
// out of the object keeps it small: 30,720 servers stand at 10,240 nodes,
// most of them idle for the whole run. Neither the per-event state (the
// cached minimum lives in the table) nor the name (a static path and an
// index) may grow it.
TEST(SharedServer, TableIsAllocatedByTheFirstSubmit) {
  EXPECT_LE(sizeof(SharedServer), 192u);
  Engine eng;
  SharedServer disk(eng, 100.0, "disk");
  EXPECT_EQ(disk.table_bytes(), 0u);
  // Cold calls on an unused server allocate nothing either.
  disk.set_capacity_scale(0.5);
  disk.cancel(StreamId(0));
  EXPECT_EQ(disk.remaining(StreamId(0)), 0.0);
  EXPECT_EQ(disk.busy_integral(), 0.0);
  EXPECT_EQ(disk.table_bytes(), 0u);
  disk.submit(10.0, [] {});
  EXPECT_GT(disk.table_bytes(), 0u);
  eng.run();
  EXPECT_EQ(disk.active(), 0u);
  // The table keeps its high-water footprint: serving the same load again
  // allocates nothing more.
  const std::size_t warm = disk.table_bytes();
  disk.submit(10.0, [] {});
  eng.run();
  EXPECT_EQ(disk.table_bytes(), warm);
}

// A name is formatted only where it is printed — recorder gauge names and
// check messages — as "node3/cpu": exported gauge names such as
// server.node3/cpu.busy_integral must not change.
TEST(SharedServer, NameIsFormattedWherePrinted) {
  EXPECT_EQ(ServerName("node/cpu", 3).str(), "node3/cpu");
  EXPECT_EQ(ServerName("node/nic_in", 10239).str(), "node10239/nic_in");
  EXPECT_EQ(ServerName("rack/uplink", 0).str(), "rack0/uplink");
  EXPECT_EQ(ServerName("disk").str(), "disk");
  Engine eng;
  obs::Recorder rec;
  eng.set_recorder(&rec);
  const SharedServer cpu(eng, 8.0, {"node/cpu", 3});
  EXPECT_TRUE(rec.metrics().has("server.node3/cpu.busy_integral"));
  EXPECT_TRUE(rec.metrics().has("server.node3/cpu.active_streams"));
  try {
    const SharedServer dead(eng, 0.0, {"node/disk", 7});
    ADD_FAILURE() << "a zero capacity must be a check failure";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("server node7/disk capacity"),
              std::string::npos)
        << e.what();
  }
}

// The straightforward array-of-structs SharedServer: one 96-byte Stream per
// stream (id, remaining, cap, rate and the done callback), progressed,
// classified and compacted whole. SharedServer must reproduce it bit for
// bit; TableMatchesReferenceModelBitForBit drives both side by side.
class ReferenceServer {
 public:
  ReferenceServer(Engine& engine, double capacity, double penalty)
      : engine_(engine),
        capacity_(capacity),
        base_capacity_(capacity),
        penalty_(penalty) {}

  StreamId submit(double work, double cap, Callback done) {
    advance();
    const StreamId id = ids_.next();
    streams_.push_back(Stream{id, std::max(work, 1e-9), cap, 0.0,
                              std::move(done)});
    reallocate(/*dirty=*/true);
    return id;
  }

  void cancel(StreamId id) {
    const auto it = std::find_if(streams_.begin(), streams_.end(),
                                 [id](const Stream& s) { return s.id == id; });
    if (it == streams_.end()) return;
    advance();
    streams_.erase(it);
    reallocate(/*dirty=*/true);
  }

  void set_capacity_scale(double scale) {
    const double scaled = base_capacity_ * scale;
    if (scaled == capacity_) return;
    advance();
    capacity_ = scaled;
    reallocate(/*dirty=*/true);
  }

  [[nodiscard]] double remaining(StreamId id) const {
    for (const Stream& s : streams_) {
      if (s.id == id) {
        return std::max(0.0,
                        s.remaining - s.rate * (engine_.now() - last_update_));
      }
    }
    return 0.0;
  }

  [[nodiscard]] double busy_integral() const {
    return busy_integral_ + total_rate_ * (engine_.now() - last_update_);
  }

 private:
  struct Stream {
    StreamId id;
    double remaining;
    double cap;
    double rate;
    Callback done;
  };

  void advance() {
    const double dt = engine_.now() - last_update_;
    if (dt > 0.0) {
      for (Stream& s : streams_) {
        s.remaining = std::max(0.0, s.remaining - s.rate * dt);
      }
      busy_integral_ += total_rate_ * dt;
    }
    last_update_ = engine_.now();
  }

  void recompute_rates() {
    const auto n = static_cast<double>(streams_.size());
    const double effective = capacity_ / (1.0 + penalty_ * (n - 1.0));
    if (streams_.size() == 1) {
      streams_[0].rate = std::min(streams_[0].cap, effective);
      total_rate_ = streams_[0].rate;
      return;
    }
    double cap_sum = 0.0;
    double min_cap = std::numeric_limits<double>::infinity();
    for (const Stream& s : streams_) {
      cap_sum += s.cap;
      min_cap = std::min(min_cap, s.cap);
    }
    if (cap_sum <= effective) {
      for (Stream& s : streams_) s.rate = s.cap;
      total_rate_ = cap_sum;
      return;
    }
    const double share = effective / n;
    if (min_cap >= share) {
      for (Stream& s : streams_) s.rate = share;
      total_rate_ = share * n;
      return;
    }
    for (Stream& s : streams_) s.rate = 0.0;
    std::vector<Stream*> unsat;
    for (Stream& s : streams_) unsat.push_back(&s);
    double left = effective;
    while (!unsat.empty() && left > 1e-12) {
      const double round_share = left / static_cast<double>(unsat.size());
      std::vector<Stream*> next;
      for (Stream* s : unsat) {
        if (s->cap - s->rate <= round_share) {
          left -= s->cap - s->rate;
          s->rate = s->cap;
        } else {
          next.push_back(s);
        }
      }
      if (next.size() == unsat.size()) {
        for (Stream* s : next) s->rate += round_share;
        next.clear();
      }
      unsat = std::move(next);
    }
    total_rate_ = 0.0;
    for (const Stream& s : streams_) total_rate_ += s.rate;
  }

  void reallocate(bool dirty) {
    if (streams_.empty()) {
      if (pending_) engine_.cancel(event_);
      pending_ = false;
      total_rate_ = 0.0;
      return;
    }
    if (dirty) recompute_rates();
    double next = std::numeric_limits<double>::infinity();
    for (const Stream& s : streams_) {
      if (s.rate > 0.0) next = std::min(next, s.remaining / s.rate);
    }
    if (pending_) {
      engine_.reschedule(event_, engine_.now() + next);
    } else {
      event_ = engine_.schedule_after(next, [this] { on_completion(); });
      pending_ = true;
    }
  }

  void on_completion() {
    pending_ = false;
    const double dt = engine_.now() - last_update_;
    const double time_eps = std::max(1e-9, engine_.now() * 1e-12);
    std::vector<Callback> finished;
    std::vector<Stream> kept;
    for (Stream& s : streams_) {
      s.remaining = std::max(0.0, s.remaining - s.rate * dt);
      if (s.remaining <= 1e-9 + s.rate * time_eps) {
        finished.push_back(std::move(s.done));
      } else {
        kept.push_back(std::move(s));
      }
    }
    if (dt > 0.0) busy_integral_ += total_rate_ * dt;
    last_update_ = engine_.now();
    const bool dirty = kept.size() != streams_.size();
    streams_ = std::move(kept);
    reallocate(dirty);
    for (Callback& done : finished) done();
  }

  Engine& engine_;
  double capacity_;
  double base_capacity_;
  double penalty_;
  IdAllocator<StreamId> ids_;
  std::vector<Stream> streams_;
  double last_update_ = 0.0;
  double busy_integral_ = 0.0;
  double total_rate_ = 0.0;
  EventId event_;
  bool pending_ = false;
};

enum class Caps { kUncapped, kAllCapped, kMixed };

struct ChurnOp {
  /// kCancelMin cancels the live stream with the least remaining work.
  enum Kind { kSubmit, kCancel, kCancelMin, kScale, kQuery } kind;
  double at;
  double work = 0.0;  ///< kSubmit
  double cap = SharedServer::kUncapped;
  bool resubmit = false;   ///< done() submits a follow-up stream
  std::size_t victim = 0;  ///< kCancel: index into the submitted ids
  double scale = 1.0;      ///< kScale
};

/// A seeded script of submits (some at shared instants, some of whose
/// done() callbacks submit again), cancels, capacity rescales, queries and
/// same-instant bursts: several submits at one timestamp, and a submit, a
/// cancel of the stream with the least remaining work and another submit
/// at one timestamp — the cancel then lands on a server already advanced
/// to that instant, where a stale cached minimum can leave every float
/// unchanged and show only as a spurious completion event.
std::vector<ChurnOp> churn_script(std::uint64_t seed, int streams, Caps caps,
                                  double capacity) {
  Rng rng(seed);
  std::vector<ChurnOp> ops;
  const double horizon = 10.0;
  // Work sized so that the streams overlap: each takes several seconds at
  // an equal share of the capacity.
  const double work = capacity * horizon / std::max(streams, 1);
  auto when = [&] {
    const double t = rng.uniform(0.0, horizon);
    // Every other instant lands on a 1/8 s grid: same-time submits and
    // completions exercise the dt == 0 paths.
    return rng.uniform01() < 0.5 ? std::floor(t * 8.0) / 8.0 : t;
  };
  for (int i = 0; i < streams; ++i) {
    ChurnOp op{ChurnOp::kSubmit, when()};
    op.work = rng.uniform(0.1, 2.0) * work;
    const bool capped = caps == Caps::kAllCapped ||
                        (caps == Caps::kMixed && rng.uniform01() < 0.5);
    if (capped) {
      // Around the equal share, so the cap sum sometimes fits, caps
      // sometimes bind below the share, and water-filling runs.
      op.cap = rng.uniform(0.2, 3.0) * capacity / std::max(streams, 1);
    }
    op.resubmit = rng.uniform01() < 0.2;
    ops.push_back(op);
  }
  for (int i = 0; i < streams / 8 + 1; ++i) {
    ChurnOp op{ChurnOp::kCancel, when()};
    op.victim = rng.uniform_int(0, static_cast<std::int64_t>(streams) - 1);
    ops.push_back(op);
  }
  for (int i = 0; i < 3; ++i) {
    ChurnOp op{ChurnOp::kScale, when()};
    constexpr double kScales[] = {0.25, 0.5, 2.0, 1.0};
    op.scale = kScales[rng.uniform_int(0, 3)];
    ops.push_back(op);
  }
  for (int i = 0; i < 24; ++i) ops.push_back(ChurnOp{ChurnOp::kQuery, when()});
  for (int b = 0; b < 3; ++b) {
    ChurnOp op{ChurnOp::kSubmit, when()};
    op.work = rng.uniform(0.1, 2.0) * work;
    for (std::int64_t k = rng.uniform_int(2, 5); k > 0; --k) ops.push_back(op);
    op.at = when();
    ops.push_back(op);
    ops.push_back(ChurnOp{ChurnOp::kCancelMin, op.at});
    ops.push_back(op);
  }
  return ops;
}

/// What one server reports under a churn script: every completion as
/// (time, id), at each query every stream's remaining work and the busy
/// integral, and the number of events the engine dispatched (a completion
/// event that retires nothing shows only there).
struct ChurnLog {
  std::vector<std::pair<double, std::int64_t>> completions;
  std::vector<double> observed;
  std::int64_t events = 0;
};

template <typename Server>
ChurnLog run_churn(const std::vector<ChurnOp>& ops, double capacity,
                   double penalty) {
  Engine eng;
  Server srv(eng, capacity, penalty);
  ChurnLog log;
  std::vector<StreamId> ids;
  // Records the completion and, for a resubmitting stream, submits a
  // follow-up of half its work from inside done().
  struct Submitter {
    Engine& eng;
    Server& srv;
    ChurnLog& log;
    std::vector<StreamId>& ids;
    void submit(double work, double cap, bool resubmit) {
      // done() never fires inside submit(), so ids[k] is set by then.
      const std::size_t k = ids.size();
      ids.push_back(srv.submit(work, cap, [this, k, work, cap, resubmit] {
        log.completions.emplace_back(eng.now(), ids[k].value());
        if (resubmit) submit(work / 2, cap, false);
      }));
    }
  } submitter{eng, srv, log, ids};
  for (const ChurnOp& op : ops) {
    eng.schedule_at(op.at, [&, op] {
      switch (op.kind) {
        case ChurnOp::kSubmit:
          submitter.submit(op.work, op.cap, op.resubmit);
          break;
        case ChurnOp::kCancel:
          if (op.victim < ids.size()) srv.cancel(ids[op.victim]);
          break;
        case ChurnOp::kCancelMin: {
          // Both servers report the same remaining work, so they pick
          // the same victim.
          const StreamId* victim = nullptr;
          double least = std::numeric_limits<double>::infinity();
          for (const StreamId& id : ids) {
            const double r = srv.remaining(id);
            if (r > 0.0 && r < least) {
              least = r;
              victim = &id;
            }
          }
          if (victim != nullptr) srv.cancel(*victim);
          break;
        }
        case ChurnOp::kScale:
          srv.set_capacity_scale(op.scale);
          break;
        case ChurnOp::kQuery:
          for (const StreamId id : ids) {
            log.observed.push_back(srv.remaining(id));
          }
          log.observed.push_back(srv.busy_integral());
          break;
      }
    });
  }
  log.events = eng.run();
  log.observed.push_back(srv.busy_integral());
  return log;
}

/// The real server under the reference model's constructor signature.
class RealServer : public SharedServer {
 public:
  RealServer(Engine& eng, double capacity, double penalty)
      : SharedServer(eng, capacity, "srv", penalty) {}
};

// The stream table must reproduce the array-of-structs algorithm exactly:
// the same completion events at the same times in the same order, and the
// same remaining work and busy integral to the last bit, across 1 to 400
// concurrent streams, uncapped (flat split), all capped (everyone-at-cap,
// flat or water-filled) and mixed caps, with cancels, capacity rescales,
// same-instant events and submits from inside done().
TEST(SharedServer, TableMatchesReferenceModelBitForBit) {
  const double capacity = 100.0;
  int runs = 0;
  for (const int streams : {1, 2, 7, 60, 400}) {
    for (const Caps caps : {Caps::kUncapped, Caps::kAllCapped, Caps::kMixed}) {
      for (const double penalty : {0.0, 0.05}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          const auto ops = churn_script(
              seed * 1000 + static_cast<std::uint64_t>(streams), streams,
              caps, capacity);
          const ChurnLog want = run_churn<ReferenceServer>(ops, capacity,
                                                           penalty);
          const ChurnLog got = run_churn<RealServer>(ops, capacity, penalty);
          SCOPED_TRACE(::testing::Message()
                       << streams << " streams, caps " << static_cast<int>(caps)
                       << ", penalty " << penalty << ", seed " << seed);
          ASSERT_EQ(got.completions.size(), want.completions.size());
          for (std::size_t i = 0; i < want.completions.size(); ++i) {
            ASSERT_EQ(got.completions[i], want.completions[i]) << "#" << i;
          }
          ASSERT_EQ(got.observed.size(), want.observed.size());
          for (std::size_t i = 0; i < want.observed.size(); ++i) {
            ASSERT_EQ(got.observed[i], want.observed[i]) << "#" << i;
          }
          ASSERT_EQ(got.events, want.events);
          ++runs;
        }
      }
    }
  }
  EXPECT_EQ(runs, 90);

  // Caps that sum to exactly the capacity once the first stream retires:
  // everyone runs at cap, and water-filling would hand the 59.2 stream
  // 59.199999999999996 instead — the classification must count caps
  // exactly through a completion.
  std::vector<ChurnOp> edge;
  for (const auto& [work, cap] : {std::pair{1.0, 5.0}, std::pair{100.0, 13.2},
                                  std::pair{100.0, 27.6},
                                  std::pair{100.0, 59.2}}) {
    ChurnOp op{ChurnOp::kSubmit, 0.0};
    op.work = work;
    op.cap = cap;
    edge.push_back(op);
  }
  for (const double at : {0.1, 1.0, 1.5, 2.0}) {
    edge.push_back(ChurnOp{ChurnOp::kQuery, at});
  }
  const ChurnLog want = run_churn<ReferenceServer>(edge, capacity, 0.0);
  const ChurnLog got = run_churn<RealServer>(edge, capacity, 0.0);
  EXPECT_EQ(got.completions, want.completions);
  EXPECT_EQ(got.observed, want.observed);
  EXPECT_EQ(got.events, want.events);
}

}  // namespace
}  // namespace mron::sim
