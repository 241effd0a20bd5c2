// CriticalPathBuilder invariants (obs/critical_path.h): find-or-create
// node identity, the backward last-arrival extraction walk (with its
// tie and causality rules), telescoping segment sums, blame attribution,
// and the exact run-report JSON shape — the properties the byte-identical
// `critical_path` block in mron.run_report/3 leans on.
#include "obs/critical_path.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace mron::obs {
namespace {

std::string to_json(const CriticalPathBuilder& cp) {
  std::ostringstream os;
  cp.write_json(os);
  return os.str();
}

double total_secs(const std::vector<CpSegment>& path) {
  double sum = 0.0;
  for (const CpSegment& s : path) sum += s.secs();
  return sum;
}

TEST(CriticalPath, NodeIsFindOrCreate) {
  CriticalPathBuilder cp;
  const CpNode a = cp.node(0, "map_done", 3, 1);
  EXPECT_EQ(cp.node(0, "map_done", 3, 1), a);
  // Any coordinate change names a different event.
  EXPECT_NE(cp.node(0, "map_done", 3, 2), a);
  EXPECT_NE(cp.node(0, "map_done", 4, 1), a);
  EXPECT_NE(cp.node(0, "map_start", 3, 1), a);
  EXPECT_NE(cp.node(1, "map_done", 3, 1), a);
  EXPECT_EQ(cp.node_count(), 5u);
}

TEST(CriticalPath, StampRecordsTimeAndLocationLastWriterWins) {
  CriticalPathBuilder cp;
  const CpNode n = cp.node(0, "map_start");
  EXPECT_FALSE(cp.is_stamped(n));
  cp.stamp(n, 2.5, 3, 7);
  EXPECT_TRUE(cp.is_stamped(n));
  EXPECT_DOUBLE_EQ(cp.time(n), 2.5);
  EXPECT_EQ(cp.pid(n), 3);
  EXPECT_EQ(cp.tid(n), 7);
  EXPECT_STREQ(cp.kind(n), "map_start");
  cp.stamp(n, 4.0);
  EXPECT_DOUBLE_EQ(cp.time(n), 4.0);
  EXPECT_EQ(cp.pid(n), -1);
}

TEST(CriticalPath, LatestNodeTracksTheMostRecentStampPerJob) {
  CriticalPathBuilder cp;
  EXPECT_EQ(cp.latest_node(0), kInvalidCpNode);
  const CpNode a = cp.stamped(0, "job_submit", 0.0);
  EXPECT_EQ(cp.latest_node(0), a);
  const CpNode b = cp.stamped(0, "map_start", 1.0, 0, 0);
  const CpNode other = cp.stamped(7, "job_submit", 0.5);
  EXPECT_EQ(cp.latest_node(0), b);
  EXPECT_EQ(cp.latest_node(7), other);
  EXPECT_EQ(cp.job_of(b), 0);
  EXPECT_EQ(cp.job_of(other), 7);
  EXPECT_EQ(cp.job_of(kInvalidCpNode), -1);
}

TEST(CriticalPath, InvalidAndSelfEdgesAreRejected) {
  CriticalPathBuilder cp;
  const CpNode n = cp.stamped(0, "map_start", 1.0);
  cp.edge(kInvalidCpNode, n, Blame::SchedWait);
  cp.edge(n, kInvalidCpNode, Blame::SchedWait);
  cp.edge(n, n, Blame::SchedWait);
  cp.edge(999, n, Blame::SchedWait);
  EXPECT_EQ(cp.edge_count(), 0u);
  EXPECT_TRUE(cp.extract(n).empty());
}

TEST(CriticalPath, LinearChainTelescopesExactly) {
  CriticalPathBuilder cp;
  const CpNode submit = cp.stamped(0, "job_submit", 10.0);
  const CpNode grant = cp.stamped(0, "container_grant", 12.0, 1);
  const CpNode start = cp.stamped(0, "map_start", 12.5, 0, 0);
  const CpNode done = cp.stamped(0, "map_done", 20.0, 0, 0);
  const CpNode fin = cp.stamped(0, "job_finish", 21.0);
  cp.edge(submit, grant, Blame::SchedWait);
  cp.edge(grant, start, Blame::SchedWait);
  cp.edge(start, done, Blame::MapCompute);
  cp.edge(done, fin, Blame::ReduceCompute);

  const std::vector<CpSegment> path = cp.extract(fin);
  ASSERT_EQ(path.size(), 4u);
  // Oldest first, rooted at the submit node.
  EXPECT_EQ(path.front().from, submit);
  EXPECT_STREQ(path.front().from_kind, "job_submit");
  EXPECT_EQ(path.back().to, fin);
  EXPECT_STREQ(path.back().to_kind, "job_finish");
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_EQ(path[i].from, path[i - 1].to);
    EXPECT_DOUBLE_EQ(path[i].t0, path[i - 1].t1);
  }
  // Telescoping: segment times sum exactly to finish - start.
  EXPECT_DOUBLE_EQ(total_secs(path), 21.0 - 10.0);
  EXPECT_EQ(path[2].blame, Blame::MapCompute);
  EXPECT_DOUBLE_EQ(path[2].secs(), 7.5);
}

TEST(CriticalPath, WalkFollowsTheLastArrivingInEdge) {
  CriticalPathBuilder cp;
  const CpNode fast = cp.stamped(0, "map_done", 5.0, 0, 0);
  const CpNode slow = cp.stamped(0, "map_done", 9.0, 1, 0);
  const CpNode fin = cp.stamped(0, "job_finish", 10.0);
  cp.edge(fast, fin, Blame::MapCompute);
  cp.edge(slow, fin, Blame::MapCompute);
  const std::vector<CpSegment> path = cp.extract(fin);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0].from, slow);  // 9.0 > 5.0: the straggler is to blame
  EXPECT_DOUBLE_EQ(path[0].secs(), 1.0);
}

TEST(CriticalPath, TiesKeepTheEarliestInsertedEdge) {
  CriticalPathBuilder cp;
  const CpNode first = cp.stamped(0, "map_done", 5.0, 0, 0);
  const CpNode second = cp.stamped(0, "map_done", 5.0, 1, 0);
  const CpNode fin = cp.stamped(0, "job_finish", 6.0);
  cp.edge(first, fin, Blame::MapCompute);
  cp.edge(second, fin, Blame::ShuffleNet);
  const std::vector<CpSegment> path = cp.extract(fin);
  ASSERT_EQ(path.size(), 1u);
  // Equal stamps: the edge inserted first wins, deterministically.
  EXPECT_EQ(path[0].from, first);
  EXPECT_EQ(path[0].blame, Blame::MapCompute);
}

TEST(CriticalPath, WalkSkipsUnstampedAndFutureSources) {
  CriticalPathBuilder cp;
  const CpNode ghost = cp.node(0, "map_done", 0, 0);  // never stamped
  const CpNode future = cp.stamped(0, "map_done", 99.0, 1, 0);
  const CpNode real = cp.stamped(0, "map_done", 4.0, 2, 0);
  const CpNode fin = cp.stamped(0, "job_finish", 6.0);
  cp.edge(ghost, fin, Blame::MapCompute);
  cp.edge(future, fin, Blame::MapCompute);  // stamp after fin: acausal
  cp.edge(real, fin, Blame::MapCompute);
  const std::vector<CpSegment> path = cp.extract(fin);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0].from, real);
}

TEST(CriticalPath, RetryChainChargesRetryRecovery) {
  CriticalPathBuilder cp;
  const CpNode submit = cp.stamped(0, "job_submit", 0.0);
  const CpNode grant1 = cp.stamped(0, "container_grant", 1.0, 1);
  const CpNode start1 = cp.stamped(0, "map_start", 1.0, 0, 0);
  const CpNode fail = cp.stamped(0, "map_fail", 5.0, 0, 0);
  const CpNode grant2 = cp.stamped(0, "container_grant", 6.0, 2);
  const CpNode start2 = cp.stamped(0, "map_start", 6.0, 0, 1);
  const CpNode done = cp.stamped(0, "map_done", 10.0, 0, 1);
  const CpNode fin = cp.stamped(0, "job_finish", 10.5);
  cp.edge(submit, grant1, Blame::SchedWait);
  cp.edge(grant1, start1, Blame::SchedWait);
  cp.edge(start1, fail, Blame::RetryRecovery);
  cp.edge(fail, grant2, Blame::RetryRecovery);  // backoff + re-request
  cp.edge(grant2, start2, Blame::SchedWait);
  cp.edge(start2, done, Blame::MapCompute);
  cp.edge(done, fin, Blame::MapCompute);
  const std::vector<CpSegment> path = cp.extract(fin);
  EXPECT_DOUBLE_EQ(total_secs(path), 10.5);
  const std::vector<double> blame = CriticalPathBuilder::blame_breakdown(path);
  ASSERT_EQ(blame.size(), static_cast<std::size_t>(kNumBlames));
  // Attempt 0's failed run plus the backoff window: [1, 5] + [5, 6].
  EXPECT_DOUBLE_EQ(blame[static_cast<int>(Blame::RetryRecovery)], 5.0);
  EXPECT_DOUBLE_EQ(blame[static_cast<int>(Blame::MapCompute)], 4.5);
  EXPECT_DOUBLE_EQ(blame[static_cast<int>(Blame::SchedWait)], 1.0);
  EXPECT_DOUBLE_EQ(blame[static_cast<int>(Blame::Speculation)], 0.0);
}

/// A job's shuffle in miniature, played from `seed`. Maps complete (1 in 8
/// leaving their "map_done" unstamped), lose their output and complete
/// again — under the next attempt's node, or re-stamping the same node as a
/// re-execution does when it reuses a speculative backup's attempt number.
/// Reduce attempts launch (fed every done map, in a shuffled order), die,
/// or close their shuffle; the last phase completes every map and then
/// launches the reducers never started, so their reduce_start comes after
/// every map. With `one_edge` false each delivery draws map_done →
/// reduce_shuffle_done, as the AM did before LastArrival, and a close adds
/// the reduce_start edge; with it true deliveries are offered and the close
/// emits.
struct Played {
  std::vector<std::vector<CpSegment>> paths;  ///< one per closed shuffle
  std::size_t edges = 0;
  int restamps = 0;
};

Played play_shuffle(std::uint64_t seed, bool one_edge) {
  Played out;
  std::mt19937_64 gen(seed);
  auto pick = [&gen](std::size_t n) {
    return static_cast<std::size_t>(gen() % n);
  };
  CriticalPathBuilder cp;
  const CpNode submit = cp.stamped(0, "job_submit", 0.0);
  const int num_maps = 3 + static_cast<int>(pick(10));
  const int num_reducers = 1 + static_cast<int>(pick(4));

  struct MapState {
    int attempt = 0;
    bool done = false;
    bool restamp = false;  ///< the next completion re-stamps `node`
    CpNode node = kInvalidCpNode;
  };
  struct Attempt {
    CpNode start = kInvalidCpNode;
    CpNode shuffle = kInvalidCpNode;
    LastArrival last;
    std::vector<char> got;  ///< per map: delivered to this attempt
    bool closed = false;
  };
  std::vector<MapState> maps(static_cast<std::size_t>(num_maps));
  std::vector<Attempt> attempts;
  std::vector<int> open(static_cast<std::size_t>(num_reducers), -1);
  std::vector<int> tries(static_cast<std::size_t>(num_reducers), 0);
  std::vector<char> finished(static_cast<std::size_t>(num_reducers), 0);
  double t = 1.0;

  auto deliver = [&](Attempt& a, int mi) {
    const CpNode from = maps[static_cast<std::size_t>(mi)].node;
    a.got[static_cast<std::size_t>(mi)] = 1;
    if (one_edge) {
      if (!a.closed) a.last.offer(cp, from);
    } else {
      // The AM fed every running attempt, its shuffle closed or not.
      cp.edge(from, a.shuffle, Blame::ShuffleNet);
    }
  };
  auto complete = [&](int mi) {
    MapState& m = maps[static_cast<std::size_t>(mi)];
    // Re-stamping is only sound while no closed shuffle holds the node
    // (LastArrival's contract); otherwise the re-execution gets the next
    // attempt's node.
    for (const Attempt& a : attempts) {
      if (a.closed && a.got[static_cast<std::size_t>(mi)] != 0) {
        m.restamp = false;
      }
    }
    if (m.restamp) {
      // A re-execution completes at an instant of its own, after every
      // stamp so far.
      t += 1.0;
      ++out.restamps;
    } else {
      m.node = cp.node(0, "map_done", mi, ++m.attempt);
    }
    m.restamp = false;
    m.done = true;
    if (pick(8) != 0) {
      const CpNode st = cp.stamped(0, "map_start",
                                   t - 0.5 * static_cast<double>(1 + pick(3)),
                                   mi, m.attempt);
      cp.edge(submit, st, Blame::SchedWait);
      cp.stamp(m.node, t);
      cp.edge(st, m.node, Blame::MapCompute);
    }
    for (const int ai : open) {
      if (ai >= 0) deliver(attempts[static_cast<std::size_t>(ai)], mi);
    }
  };
  auto launch = [&](int r) {
    Attempt a;
    const int k = ++tries[static_cast<std::size_t>(r)];
    a.start = cp.stamped(0, "reduce_start", t, r, k);
    cp.edge(submit, a.start, Blame::SchedWait);
    a.shuffle = cp.node(0, "reduce_shuffle_done", r, k);
    a.got.assign(maps.size(), 0);
    attempts.push_back(std::move(a));
    open[static_cast<std::size_t>(r)] = static_cast<int>(attempts.size()) - 1;
    std::vector<int> done;
    for (int mi = 0; mi < num_maps; ++mi) {
      if (maps[static_cast<std::size_t>(mi)].done) done.push_back(mi);
    }
    std::shuffle(done.begin(), done.end(), gen);
    for (const int mi : done) deliver(attempts.back(), mi);
  };
  auto close = [&](int r) {
    Attempt& a = attempts[static_cast<std::size_t>(
        open[static_cast<std::size_t>(r)])];
    cp.stamp(a.shuffle, t);
    if (one_edge) {
      a.last.emit(cp, a.shuffle, a.start, Blame::ShuffleNet);
    } else {
      cp.edge(a.start, a.shuffle, Blame::ShuffleNet);
    }
    // Attempts stay "open" to late deliveries, like a running reducer
    // past its shuffle; the maps it waited on all landed before this
    // instant, so a later completion is a re-execution at a later one.
    a.closed = true;
    finished[static_cast<std::size_t>(r)] = 1;
    t += 0.25;
  };
  auto pending = [&] {
    std::vector<int> ids;
    for (int mi = 0; mi < num_maps; ++mi) {
      if (!maps[static_cast<std::size_t>(mi)].done) ids.push_back(mi);
    }
    return ids;
  };

  constexpr double kSteps[] = {0.0, 0.0, 0.5, 1.25};
  for (int step = 0; step < 60; ++step) {
    t += kSteps[pick(4)];
    switch (pick(5)) {
      case 0:
      case 1: {
        const std::vector<int> p = pending();
        if (!p.empty()) complete(p[pick(p.size())]);
        break;
      }
      case 2: {
        const auto r = pick(open.size());
        if (finished[r] == 0 && open[r] < 0) launch(static_cast<int>(r));
        break;
      }
      case 3: {
        const int mi = static_cast<int>(pick(maps.size()));
        MapState& m = maps[static_cast<std::size_t>(mi)];
        if (!m.done || !cp.is_stamped(m.node)) break;
        m.done = false;
        m.restamp = pick(2) == 0;
        break;
      }
      default: {
        const int r = static_cast<int>(pick(open.size()));
        const int ai = open[static_cast<std::size_t>(r)];
        if (ai < 0 || attempts[static_cast<std::size_t>(ai)].closed) break;
        if (pick(4) == 0) {
          open[static_cast<std::size_t>(r)] = -1;  // the attempt dies
        } else {
          close(r);
        }
        break;
      }
    }
  }
  // Every map completes, then the reducers never started launch after
  // them all and close at once or a step later.
  for (const int mi : pending()) {
    t += kSteps[pick(4)];
    complete(mi);
  }
  for (int r = 0; r < num_reducers; ++r) {
    if (finished[static_cast<std::size_t>(r)] != 0) continue;
    t += kSteps[pick(4)];
    if (open[static_cast<std::size_t>(r)] < 0) launch(r);
    t += kSteps[pick(4)];
    close(r);
  }

  for (const Attempt& a : attempts) {
    if (a.closed) out.paths.push_back(cp.extract(a.shuffle));
  }
  out.edges = cp.edge_count();
  return out;
}

TEST(LastArrival, OneEdgeExtractsWhatAnEdgePerDeliveryDid) {
  int from_map = 0;
  int from_start = 0;
  int restamps = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const Played want = play_shuffle(seed, /*one_edge=*/false);
    const Played got = play_shuffle(seed, /*one_edge=*/true);
    restamps += got.restamps;
    EXPECT_LE(got.edges, want.edges) << "seed " << seed;
    ASSERT_EQ(got.paths.size(), want.paths.size()) << "seed " << seed;
    for (std::size_t i = 0; i < want.paths.size(); ++i) {
      const std::vector<CpSegment>& w = want.paths[i];
      const std::vector<CpSegment>& g = got.paths[i];
      ASSERT_EQ(g.size(), w.size()) << "seed " << seed << " shuffle " << i;
      for (std::size_t j = 0; j < w.size(); ++j) {
        EXPECT_EQ(g[j].from, w[j].from) << "seed " << seed << " shuffle " << i;
        EXPECT_EQ(g[j].to, w[j].to) << "seed " << seed << " shuffle " << i;
        EXPECT_EQ(g[j].t0, w[j].t0) << "seed " << seed << " shuffle " << i;
        EXPECT_EQ(g[j].t1, w[j].t1) << "seed " << seed << " shuffle " << i;
        EXPECT_EQ(g[j].blame, w[j].blame)
            << "seed " << seed << " shuffle " << i;
      }
      if (!w.empty()) {
        ++(std::string(w.back().from_kind) == "map_done" ? from_map
                                                         : from_start);
      }
    }
  }
  // The seeds reach both ends a shuffle can wait on, and re-stamps.
  EXPECT_GT(from_map, 0);
  EXPECT_GT(from_start, 0);
  EXPECT_GT(restamps, 0);
}

TEST(LastArrival, TiesKeepTheEarliestOfferAndStartComesLast) {
  CriticalPathBuilder cp;
  const CpNode start = cp.stamped(0, "reduce_start", 5.0, 0, 1);
  const CpNode a = cp.stamped(0, "map_done", 5.0, 0, 1);
  const CpNode b = cp.stamped(0, "map_done", 5.0, 1, 1);
  const CpNode ghost = cp.node(0, "map_done", 2, 1);  // never stamped
  const CpNode shuffle = cp.stamped(0, "reduce_shuffle_done", 6.0, 0, 1);
  LastArrival last;
  last.offer(cp, ghost);
  last.offer(cp, a);
  last.offer(cp, b);
  last.emit(cp, shuffle, start, Blame::ShuffleNet);
  EXPECT_EQ(cp.edge_count(), 2u);
  // a, b and the attempt's start all stamp 5.0: the first offer binds.
  const std::vector<CpSegment> path = cp.extract(shuffle);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0].from, a);
}

TEST(CriticalPath, BlameNamesMatchTheExportTaxonomy) {
  EXPECT_STREQ(blame_name(Blame::SchedWait), "sched_wait");
  EXPECT_STREQ(blame_name(Blame::MapCompute), "map_compute");
  EXPECT_STREQ(blame_name(Blame::SpillMerge), "spill_merge");
  EXPECT_STREQ(blame_name(Blame::ShuffleNet), "shuffle_net");
  EXPECT_STREQ(blame_name(Blame::ReduceCompute), "reduce_compute");
  EXPECT_STREQ(blame_name(Blame::RetryRecovery), "retry_recovery");
  EXPECT_STREQ(blame_name(Blame::Speculation), "speculation");
}

TEST(CriticalPath, EmptyBuilderWritesTheFullZeroTaxonomy) {
  CriticalPathBuilder cp;
  EXPECT_TRUE(cp.empty());
  EXPECT_EQ(to_json(cp),
            "{\"jobs\":[],\"blame_totals\":{\"sched_wait\":0,"
            "\"map_compute\":0,\"spill_merge\":0,\"shuffle_net\":0,"
            "\"reduce_compute\":0,\"retry_recovery\":0,\"speculation\":0}}");
}

TEST(CriticalPath, WriteJsonCarriesFinishedJobsInIdOrder) {
  CriticalPathBuilder cp;
  for (std::int64_t job : {1, 0}) {
    const double base = job == 0 ? 0.0 : 100.0;
    const CpNode submit = cp.stamped(job, "job_submit", base);
    const CpNode fin = cp.stamped(job, "job_finish", base + 2.0);
    cp.edge(submit, fin, Blame::MapCompute);
    cp.mark_job_finish(job, fin);
  }
  ASSERT_EQ(cp.finished_jobs().size(), 2u);
  const std::string json = to_json(cp);
  // finished_jobs() is keyed by job id, so job 0 exports before job 1
  // even though it was marked second.
  EXPECT_LT(json.find("\"id\":0"), json.find("\"id\":1"));
  EXPECT_NE(json.find("\"from\":\"job_submit\",\"to\":\"job_finish\","
                      "\"t0\":0,\"t1\":2,\"secs\":2,"
                      "\"blame\":\"map_compute\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"blame_totals\":{\"sched_wait\":0,"
                      "\"map_compute\":4,"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace mron::obs
