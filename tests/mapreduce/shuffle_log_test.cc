// The shuffle log read lazily through cursors must queue exactly what
// eager delivery queued: every map completion handed to every running
// reducer attempt, each attempt keeping an explicit FIFO per source host.
// A seeded generator plays a job's shuffle against ShuffleLog + ReduceTask —
// completions, node losses with restarts, lost outputs re-executed
// elsewhere, reducer attempts killed and retried — with a stand-in AM that
// recovers as MrAppMaster does. Beside it runs a reference model of eager
// delivery; every visit the real attempts begin must take the host and the
// entries the model's ready FIFO and queues name, and every finished
// attempt must end its shuffle on the model's last arrival.
#include "cluster/cluster_spec.h"
#include "mapreduce/shuffle_log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/fabric.h"
#include "cluster/topology.h"
#include "common/rng.h"
#include "mapreduce/reduce_task.h"
#include "obs/recorder.h"

namespace mron::mapreduce {
namespace {

constexpr int kMaps = 40;
constexpr int kReducers = 3;
constexpr int kNodes = 8;
constexpr int kFirstMapHost = 2;  ///< nodes 0-1 run reducers, 2-7 maps

/// One map completion, as the test appended it: log position = index.
struct Completion {
  int map = -1;
  int host = -1;
  Bytes output{0};
  obs::CpNode cp = obs::kInvalidCpNode;
};
using Completions = std::vector<Completion>;

/// One reduce attempt under eager delivery, as the AM and the reducer kept
/// it before the log: per-map state, a FIFO per source host, the ready
/// FIFO of hosts, and the visits in flight.
struct EagerModel {
  enum class State { Absent, Queued, Fetching, Fetched };
  explicit EagerModel(double weight_in)
      : state(kMaps, State::Absent), weight(weight_in) {}

  void deliver(const Completions& log, std::int32_t pos) {
    const Completion& c = log[static_cast<std::size_t>(pos)];
    if (state[static_cast<std::size_t>(c.map)] != State::Absent) return;
    state[static_cast<std::size_t>(c.map)] = State::Queued;
    const int host = c.host;
    queue[host].push_back(pos);
    if (visits.count(host) == 0 &&
        std::find(ready.begin(), ready.end(), host) == ready.end()) {
      ready.push_back(host);
    }
  }
  void invalidate(const Completions& log, int host) {
    for (const std::int32_t pos : queue[host]) {
      state[static_cast<std::size_t>(log[static_cast<std::size_t>(pos)].map)] = State::Absent;
    }
    queue[host].clear();
    ready.erase(std::remove(ready.begin(), ready.end(), host), ready.end());
  }
  /// The visit the real attempt began; empty when it matches.
  std::string begin_visit(const Completions& log, int host,
                          const std::vector<std::int32_t>& got) {
    std::vector<std::int32_t> want;
    const int front = ready.empty() ? -1 : ready.front();
    if (front >= 0) {
      std::deque<std::int32_t>& q = queue[front];
      while (!q.empty() && want.size() < kMaxSegmentsPerFetch) {
        want.push_back(q.front());
        q.pop_front();
      }
      ready.pop_front();
    }
    for (const std::int32_t pos : want) {
      state[static_cast<std::size_t>(log[static_cast<std::size_t>(pos)].map)] = State::Fetching;
    }
    visits[host] = want;
    if (front == host && want == got) return {};
    std::ostringstream os;
    os << "visit to host " << host << " took";
    for (const std::int32_t pos : got) os << ' ' << pos;
    os << "; eager delivery takes host " << front << ":";
    for (const std::int32_t pos : want) os << ' ' << pos;
    return os.str();
  }
  void fail(const Completions& log, int map, int host) {
    std::vector<std::int32_t>& v = visits[host];
    v.erase(std::remove_if(v.begin(), v.end(),
                           [&](std::int32_t pos) {
                             return log[static_cast<std::size_t>(pos)].map == map;
                           }),
            v.end());
    state[static_cast<std::size_t>(map)] = State::Absent;
  }
  void end_visit(const Completions& log, int host) {
    for (const std::int32_t pos : visits[host]) {
      state[static_cast<std::size_t>(log[static_cast<std::size_t>(pos)].map)] = State::Fetched;
      ++fetched;
      bytes += log[static_cast<std::size_t>(pos)].output * weight;
    }
    visits.erase(host);
    if (!queue[host].empty()) ready.push_back(host);
  }
  /// LastArrival's rule: the greatest stamp wins, a tie keeps the
  /// earliest offer.
  void offer(const obs::CriticalPathBuilder& cp, obs::CpNode n) {
    if (cp.is_stamped(n) &&
        (best == obs::kInvalidCpNode || cp.time(n) > cp.time(best))) {
      best = n;
    }
  }

  std::vector<State> state;
  double weight;
  std::map<int, std::deque<std::int32_t>> queue;
  std::deque<int> ready;
  std::map<int, std::vector<std::int32_t>> visits;
  int fetched = 0;
  Bytes bytes{0};
  obs::CpNode best = obs::kInvalidCpNode;
};

class Scenario {
 public:
  explicit Scenario(std::uint64_t seed) : rng_(seed), log_(kMaps, kReducers,
                                                            kNodes) {
    spec_ = cluster::scaled_spec(kNodes, kNodes / 2);
    topo_ = std::make_unique<cluster::Topology>(spec_);
    std::vector<cluster::Node*> ptrs;
    for (int i = 0; i < kNodes; ++i) {
      nodes_.push_back(std::make_unique<cluster::Node>(
          eng_, cluster::NodeId(i), topo_->hardware(cluster::NodeId(i))));
      ptrs.push_back(nodes_.back().get());
    }
    fabric_ = std::make_unique<cluster::Fabric>(eng_, spec_, *topo_, ptrs);
    profile_.task_startup_secs = 0.0;
    profile_.reduce_cpu_secs_per_mib = 0.001;
    eng_.set_recorder(&rec_);
    alive_.assign(kNodes, true);
    ran_on_.assign(kMaps, -1);
    reducers_.resize(kReducers);
  }
  ~Scenario() { eng_.set_recorder(nullptr); }

  void run() {
    // Completions land on a 0.25 s grid, so several share a stamp and the
    // critical path's tie rule matters.
    for (int m = 0; m < kMaps; ++m) {
      eng_.schedule_at(tick(6.0), [this, m] { complete(m); });
    }
    for (int r = 0; r < kReducers; ++r) {
      eng_.schedule_at(rng_.uniform(0.0, 4.0), [this, r] { launch(r, 0); });
    }
    // Faults, all inside [0, 12): whole-host losses (which kill visits in
    // flight), lost outputs on a live host, and killed reducer attempts.
    for (int i = 0; i < 5; ++i) {
      eng_.schedule_at(rng_.uniform(0.5, 12.0), [this] { lose_host(); });
    }
    for (int i = 0; i < 6; ++i) {
      eng_.schedule_at(rng_.uniform(0.5, 12.0), [this] { lose_output(); });
    }
    for (int i = 0; i < 4; ++i) {
      eng_.schedule_at(rng_.uniform(0.5, 12.0), [this] { kill_reducer(); });
    }
    eng_.run();
  }

  /// Empty when every visit matched and every attempt ended as modelled.
  std::string verdict() const {
    if (!mismatch_.empty()) return mismatch_;
    for (int r = 0; r < kReducers; ++r) {
      const auto& attempts = reducers_[static_cast<std::size_t>(r)];
      if (attempts.empty() || !attempts.back()->report.has_value()) {
        return "reducer " + std::to_string(r) + " never finished";
      }
    }
    return {};
  }
  /// Totals over the run, to show the faults bit.
  int fetch_failures = 0;
  int redeliveries = 0;
  int retries = 0;
  int mid_visit_losses = 0;
  int ignored_duplicates = 0;

 private:
  struct Attempt {
    int reducer = 0;
    int number = 0;
    std::unique_ptr<ReduceTask> task;
    EagerModel model;
    obs::CpNode cp_start = obs::kInvalidCpNode;
    obs::CpNode cp_shuffle_done = obs::kInvalidCpNode;
    bool running = true;
    std::optional<TaskReport> report;
    explicit Attempt(double weight) : model(weight) {}
  };

  Attempt* running(int r) {
    auto& attempts = reducers_[static_cast<std::size_t>(r)];
    if (attempts.empty() || !attempts.back()->running) return nullptr;
    return attempts.back().get();
  }
  /// A time in (0, span] on a 0.25 s grid.
  double tick(double span) {
    return 0.25 * static_cast<double>(
                      rng_.uniform_int(1, static_cast<std::int64_t>(span * 4)));
  }
  void note(const std::string& what) {
    if (mismatch_.empty()) mismatch_ = what;
  }
  int pick_alive_map_host() {
    std::vector<int> hosts;
    for (int n = kFirstMapHost; n < kNodes; ++n) {
      if (alive_[static_cast<std::size_t>(n)]) hosts.push_back(n);
    }
    if (hosts.empty()) return -1;
    return hosts[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
  }

  void complete(int map) {
    const int host = pick_alive_map_host();
    if (host < 0) {
      eng_.schedule_at(eng_.now() + 0.5, [this, map] { complete(map); });
      return;
    }
    obs::CriticalPathBuilder& cp = rec_.critical_path();
    const obs::CpNode done =
        cp.stamped(0, "map_done", eng_.now(), map, ++map_attempts_[map]);
    const auto pos = static_cast<std::int32_t>(log_.size());
    const Bytes output = mebibytes(rng_.uniform(1.0, 24.0));
    ran_on_[static_cast<std::size_t>(map)] = host;
    done_log_.push_back({map, host, output, done});
    // Eager delivery to every running attempt first: the log's wake-ups
    // below may begin visits at once.
    const bool rerun = map_attempts_[map] > 1;
    for (int r = 0; r < kReducers; ++r) {
      if (Attempt* a = running(r)) {
        const auto before = a->model.state[static_cast<std::size_t>(map)];
        // A fresh copy of a map is delivered unless the attempt still holds
        // an older one.
        if (rerun && before != EagerModel::State::Absent) ++ignored_duplicates;
        a->model.deliver(done_log_, pos);
        if (!cp.is_stamped(a->cp_shuffle_done)) a->model.offer(cp, done);
      }
    }
    log_.append(map, cluster::NodeId(host), output, done);
  }

  void reexecute(int map) {
    log_.lose_output(map);
    eng_.schedule_at(eng_.now() + tick(2.0), [this, map] { complete(map); });
  }

  void lose_host() {
    const int host = pick_alive_map_host();
    if (host < 0) return;
    alive_[static_cast<std::size_t>(host)] = false;
    log_.lose_host(cluster::NodeId(host));
    for (int r = 0; r < kReducers; ++r) {
      if (Attempt* a = running(r)) {
        a->task->for_each_visit([&](cluster::NodeId src, int) {
          if (src.value() == host) ++mid_visit_losses;
        });
        a->task->invalidate_source(cluster::NodeId(host));
        a->model.invalidate(done_log_, host);
      }
    }
    for (int m = 0; m < kMaps; ++m) {
      if (log_.done(m) && ran_on_[static_cast<std::size_t>(m)] == host) {
        reexecute(m);
      }
    }
    eng_.schedule_after(rng_.uniform(0.5, 4.0), [this, host] {
      alive_[static_cast<std::size_t>(host)] = true;
    });
  }

  void lose_output() {
    std::vector<int> done;
    for (int m = 0; m < kMaps; ++m) {
      if (log_.done(m)) done.push_back(m);
    }
    if (done.empty()) return;
    reexecute(done[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(done.size()) - 1))]);
  }

  void kill_reducer() {
    const int r = static_cast<int>(rng_.uniform_int(0, kReducers - 1));
    Attempt* a = running(r);
    if (a == nullptr) return;
    a->task->abort();
    a->running = false;
    ++retries;
    // A node-loss retry reads on from the log's end at the loss; a retry
    // after a backoff, from the log's end when it relaunches.
    const bool cursor_now = rng_.uniform01() < 0.5;
    const std::size_t cursor = log_.size();
    eng_.schedule_after(rng_.uniform(0.1, 2.0), [this, r, cursor_now, cursor] {
      launch(r, cursor_now ? cursor : log_.size());
    });
  }

  void launch(int r, std::size_t cursor) {
    auto& attempts = reducers_[static_cast<std::size_t>(r)];
    const double weight = 0.2 + 0.3 * r;
    attempts.push_back(std::make_unique<Attempt>(weight));
    Attempt& a = *attempts.back();
    a.reducer = r;
    a.number = static_cast<int>(attempts.size());
    obs::CriticalPathBuilder& cp = rec_.critical_path();
    a.cp_start = cp.stamped(0, "reduce_start", eng_.now(), r, a.number);
    a.cp_shuffle_done = cp.node(0, "reduce_shuffle_done", r, a.number);
    ReduceTask::Inputs in;
    in.task = TaskRef{TaskKind::Reduce, r};
    in.attempt = a.number;
    in.num_nodes = kNodes;
    in.partition_weight = weight;
    in.log_cursor = cursor;
    in.cp_job = 0;
    in.cp_start = a.cp_start;
    in.cp_shuffle_done = a.cp_shuffle_done;
    JobConfig cfg;
    cfg.shuffle_parallelcopies = static_cast<double>(rng_.uniform_int(1, 3));
    Attempt* ap = &a;
    a.task = std::make_unique<ReduceTask>(
        eng_, *nodes_[static_cast<std::size_t>(r % 2)], *fabric_,
        [this](cluster::NodeId n) -> cluster::Node& {
          return *nodes_[static_cast<std::size_t>(n.value())];
        },
        profile_, cfg, in, log_, Rng(100 + static_cast<std::uint64_t>(r)),
        [this, ap](const TaskReport& rep) { finished(*ap, rep); });
    a.task->set_output_query([this](int map, cluster::NodeId src) {
      return log_.available(map, src) &&
             alive_[static_cast<std::size_t>(src.value())];
    });
    a.task->set_fetch_failure(
        [this, ap](int map, cluster::NodeId src) { failed(*ap, map, src); });
    a.task->set_visit_observer(
        [this, ap](cluster::NodeId src, std::span<const std::int32_t> got) {
          observe(*ap, static_cast<int>(src.value()), got);
        });
    // Eager delivery of the live completions: those before the cursor in
    // map-index order, then the rest in log order.
    const auto live_before = [&](int m) {
      const std::int32_t pos = log_.live(m);
      return pos >= 0 && static_cast<std::size_t>(pos) < cursor;
    };
    for (int m = 0; m < kMaps; ++m) {
      if (live_before(m)) {
        a.model.deliver(done_log_, log_.live(m));
        a.model.offer(cp, log_.entry(log_.live(m)).cp);
      }
    }
    for (std::size_t pos = cursor; pos < log_.size(); ++pos) {
      const auto p = static_cast<std::int32_t>(pos);
      if (log_.live(log_.entry(p).map) == p) {
        a.model.deliver(done_log_, p);
        a.model.offer(cp, log_.entry(p).cp);
      }
    }
    a.task->start();
  }

  void observe(Attempt& a, int host, std::span<const std::int32_t> got) {
    if (!a.running) return;
    // The reducer keeps one record per host the log has seen, never one
    // per cluster node.
    if (a.task->host_slots() > static_cast<std::size_t>(log_.num_hosts())) {
      note("host records exceed the log's hosts");
    }
    if (got.empty()) {
      a.model.end_visit(done_log_, host);
      return;
    }
    const std::string diff = a.model.begin_visit(
        done_log_, host, std::vector<std::int32_t>(got.begin(), got.end()));
    if (!diff.empty()) {
      note("reducer " + std::to_string(a.reducer) + " attempt " +
           std::to_string(a.number) + " at t=" + std::to_string(eng_.now()) +
           ": " + diff);
    }
  }

  void failed(Attempt& a, int map, cluster::NodeId src) {
    ++fetch_failures;
    a.model.fail(done_log_, map, static_cast<int>(src.value()));
    // The stand-in AM: a map already re-run elsewhere is re-delivered from
    // the live copy; one re-running waits for its completion; otherwise the
    // only copy is lost and the map re-runs.
    if (!log_.done(map)) return;
    const int ran_on = ran_on_[static_cast<std::size_t>(map)];
    if (alive_[static_cast<std::size_t>(ran_on)] && ran_on != src.value()) {
      ++redeliveries;
      a.model.deliver(done_log_, log_.live(map));
      a.task->redeliver(map);
      return;
    }
    reexecute(map);
  }

  void finished(Attempt& a, const TaskReport& rep) {
    a.running = false;
    a.report = rep;
    if (rep.counters.shuffle_bytes != a.model.bytes ||
        a.model.fetched != kMaps) {
      note("reducer " + std::to_string(a.reducer) + " fetched " +
           std::to_string(rep.counters.shuffle_bytes.count()) +
           " bytes; eager delivery fetched " +
           std::to_string(a.model.bytes.count()) + " in " +
           std::to_string(a.model.fetched) + " segments");
    }
    // The shuffle's critical-path edge comes from the model's last
    // arrival, unless the attempt's own start came later.
    const obs::CriticalPathBuilder& cp = rec_.critical_path();
    const auto path = cp.extract(a.cp_shuffle_done);
    const obs::CpNode want =
        a.model.best != obs::kInvalidCpNode &&
                cp.time(a.model.best) >= cp.time(a.cp_start)
            ? a.model.best
            : a.cp_start;
    if (path.empty() || path.back().from != want) {
      note("reducer " + std::to_string(a.reducer) +
           " shuffle ends on node " +
           std::to_string(path.empty() ? -1 : path.back().from) +
           "; eager delivery's last arrival is " + std::to_string(want));
    }
  }

  Rng rng_;
  sim::Engine eng_;
  obs::Recorder rec_;
  cluster::ClusterSpec spec_;
  std::unique_ptr<cluster::Topology> topo_;
  std::vector<std::unique_ptr<cluster::Node>> nodes_;
  std::unique_ptr<cluster::Fabric> fabric_;
  AppProfile profile_;
  ShuffleLog log_;
  std::vector<bool> alive_;
  std::vector<int> ran_on_;
  std::map<int, int> map_attempts_;
  Completions done_log_;  ///< the test's own copy of the log
  std::vector<std::vector<std::unique_ptr<Attempt>>> reducers_;
  std::string mismatch_;
};

TEST(ShuffleLog, RandomFaultsMatchExplicitQueues) {
  int fetch_failures = 0;
  int redeliveries = 0;
  int retries = 0;
  int mid_visit_losses = 0;
  int ignored_duplicates = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Scenario s(seed);
    s.run();
    EXPECT_EQ(s.verdict(), "") << "seed " << seed;
    fetch_failures += s.fetch_failures;
    redeliveries += s.redeliveries;
    retries += s.retries;
    mid_visit_losses += s.mid_visit_losses;
    ignored_duplicates += s.ignored_duplicates;
  }
  // The scenarios reach every recovery path.
  EXPECT_GT(fetch_failures, 0);
  EXPECT_GT(redeliveries, 0);
  EXPECT_GT(retries, 0);
  EXPECT_GT(mid_visit_losses, 0);
  EXPECT_GT(ignored_duplicates, 0);
}

TEST(ShuffleLog, EntriesDieAndEpochsMove) {
  ShuffleLog log(3, 1, 4);
  log.append(0, cluster::NodeId(2), mebibytes(1), obs::kInvalidCpNode);
  log.append(1, cluster::NodeId(3), mebibytes(1), obs::kInvalidCpNode);
  EXPECT_TRUE(log.available(0, cluster::NodeId(2)));
  EXPECT_FALSE(log.available(0, cluster::NodeId(3)));
  EXPECT_FALSE(log.done(2));
  EXPECT_EQ(log.num_hosts(), 2);
  log.lose_output(0);
  EXPECT_FALSE(log.done(0));
  EXPECT_EQ(log.entry(0).died, log.clock());
  EXPECT_EQ(log.epoch(cluster::NodeId(2)), 1U);
  // A lost node with no output gets a host slot for its epoch only.
  log.lose_host(cluster::NodeId(1));
  EXPECT_EQ(log.epoch(cluster::NodeId(1)), 1U);
  EXPECT_EQ(log.epoch(cluster::NodeId(0)), 0U);
  EXPECT_TRUE(log.list(log.host_of(cluster::NodeId(1))).empty());
  // The re-run chains back to the dead entry.
  log.append(0, cluster::NodeId(3), mebibytes(2), obs::kInvalidCpNode);
  EXPECT_EQ(log.entry(log.live(0)).prev, 0);
  EXPECT_EQ(log.list(log.host_of(cluster::NodeId(3))),
            (std::vector<std::int32_t>{1, 2}));
}

}  // namespace
}  // namespace mron::mapreduce
