// Causal critical-path builder — the fifth recorder pillar.
//
// The AM, RM, and task models emit causal edges as the run unfolds
// (submit → container grant → attempt start → map done → fetch → reduce
// wave → job finish, plus retry/backoff and speculation edges under fault
// plans). Each edge carries a blame category; after the engine drains the
// longest path to each job's finish node is extracted and its wall time
// attributed to the fixed taxonomy below. Everything here is sim-time
// only and append-ordered, so the extracted path — and the JSON block it
// becomes in the run report — is a pure function of the simulated run,
// byte-identical at any `--jobs` value.
//
// Nodes are identified by (job, kind, a, b): `kind` is a string literal
// ("map_done", "container_grant", ...) and a/b are small integers (task
// index, attempt). `node()` is find-or-create, so producers and consumers
// in different components can refer to the same event without sharing
// handles. A node fed by many sources draws one edge, not one per source:
// a reduce attempt's "reduce_shuffle_done" waits on every map, so the AM
// offers each delivered "map_done" to the attempt's LastArrival and the
// reduce task, when its shuffle completes, stamps the node and draws the
// one delivery edge extraction would have followed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace mron::obs {

class JsonWriter;

/// Where critical-path time is charged. The order is the export order —
/// stable, additions go at the end.
enum class Blame {
  SchedWait,      ///< waiting for a container grant (queueing, backoff slot)
  MapCompute,     ///< map read + map function + collect
  SpillMerge,     ///< sort/spill/merge on either side
  ShuffleNet,     ///< fetching map output across the fabric
  ReduceCompute,  ///< reduce function + output write
  RetryRecovery,  ///< failed attempts, backoff, lost-output re-execution
  Speculation,    ///< a speculative attempt won the race
};
inline constexpr int kNumBlames = 7;

/// The stable taxonomy string for a category ("sched_wait", ...).
[[nodiscard]] const char* blame_name(Blame b);

using CpNode = std::int64_t;
inline constexpr CpNode kInvalidCpNode = -1;

/// One edge of an extracted path: the interval [t0, t1] between two
/// stamped nodes, charged to `blame`.
struct CpSegment {
  CpNode from = kInvalidCpNode;
  CpNode to = kInvalidCpNode;
  const char* from_kind = "";
  const char* to_kind = "";
  double t0 = 0.0;
  double t1 = 0.0;
  Blame blame = Blame::SchedWait;
  [[nodiscard]] double secs() const { return t1 - t0; }
};

class CriticalPathBuilder {
 public:
  /// Find-or-create the node (job, kind, a, b). `kind` must be a string
  /// literal (stored by pointer for export, compared by value).
  CpNode node(std::int64_t job, const char* kind, std::int64_t a = 0,
              std::int64_t b = 0);

  /// Record that the node's event happened at sim-time `time` on trace
  /// process `pid` / lane `tid` (pid < 0 = no trace location; flow events
  /// skip it). Re-stamping overwrites — last writer wins.
  void stamp(CpNode n, double time, int pid = -1, int tid = 0);

  /// node() + stamp() in one call.
  CpNode stamped(std::int64_t job, const char* kind, double time,
                 std::int64_t a = 0, std::int64_t b = 0, int pid = -1,
                 int tid = 0);

  /// Causal edge `from` → `to`; the interval between their stamps is
  /// charged to `blame` if the edge lands on the critical path.
  void edge(CpNode from, CpNode to, Blame blame);

  /// Declare `n` the job's finish node (extraction target for the report).
  void mark_job_finish(std::int64_t job, CpNode n);

  /// The job's most recently stamped node, or kInvalidCpNode — the
  /// provisional extraction target for mid-run consumers (tuner audit).
  [[nodiscard]] CpNode latest_node(std::int64_t job) const;

  /// Owning job of a node (kInvalidCpNode-safe; returns -1 then).
  [[nodiscard]] std::int64_t job_of(CpNode n) const;

  [[nodiscard]] bool valid(CpNode n) const {
    return n >= 0 && static_cast<std::size_t>(n) < nodes_.size();
  }
  [[nodiscard]] bool is_stamped(CpNode n) const {
    return valid(n) && nodes_[static_cast<std::size_t>(n)].stamped;
  }
  [[nodiscard]] int pid(CpNode n) const {
    return valid(n) ? nodes_[static_cast<std::size_t>(n)].pid : -1;
  }
  [[nodiscard]] int tid(CpNode n) const {
    return valid(n) ? nodes_[static_cast<std::size_t>(n)].tid : 0;
  }
  [[nodiscard]] double time(CpNode n) const {
    return valid(n) ? nodes_[static_cast<std::size_t>(n)].time : 0.0;
  }
  [[nodiscard]] const char* kind(CpNode n) const {
    return valid(n) ? nodes_[static_cast<std::size_t>(n)].kind : "";
  }

  /// Longest path ending at `end`, oldest segment first. Backward
  /// last-arrival walk: at each node, follow the in-edge whose source has
  /// the greatest stamp (ties: earliest-inserted edge), skipping unstamped
  /// sources, stamps in the future, and already-visited nodes. Because
  /// each segment spans exactly [from.time, to.time], the segment times
  /// telescope: their sum is end.time − path_start.time exactly.
  [[nodiscard]] std::vector<CpSegment> extract(CpNode end) const;

  /// Jobs whose finish node was marked, keyed by job id (sorted).
  [[nodiscard]] const std::map<std::int64_t, CpNode>& finished_jobs() const {
    return finish_;
  }

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edge_count_; }
  [[nodiscard]] bool empty() const { return nodes_.empty(); }

  /// Per-blame seconds along `segments` (index = static_cast<int>(Blame)).
  static std::vector<double> blame_breakdown(
      const std::vector<CpSegment>& segments);

  /// The `critical_path` run-report object:
  /// {"jobs":[{"id","segments":[{"from","to","t0","t1","secs","blame"}],
  ///           "blame":{<all 7 categories>}}],
  ///  "blame_totals":{<all 7 categories>}}
  void write_json(std::ostream& os) const;
  /// The same object into `w`, e.g. as a section of the run report.
  void write_json(JsonWriter& w) const;

 private:
  struct InEdge {
    CpNode from = kInvalidCpNode;
    Blame blame = Blame::SchedWait;
  };
  struct Node {
    std::int64_t job = -1;
    const char* kind = "";
    double time = 0.0;
    bool stamped = false;
    int pid = -1;
    int tid = 0;
    std::vector<InEdge> in_edges;
  };

  std::vector<Node> nodes_;
  // Key carries the kind by value: literal pointer identity is not
  // guaranteed across translation units. A view of the literal hashes and
  // compares its characters without copying them. The index is only ever
  // probed, never iterated, so its order cannot reach an export.
  struct Key {
    std::int64_t job;
    std::string_view kind;
    std::int64_t a;
    std::int64_t b;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::size_t h = std::hash<std::string_view>{}(k.kind);
      for (const std::int64_t v : {k.job, k.a, k.b}) {
        h ^= std::hash<std::int64_t>{}(v) + 0x9e3779b97f4a7c15ULL + (h << 6) +
             (h >> 2);
      }
      return h;
    }
  };
  std::unordered_map<Key, CpNode, KeyHash> index_;
  std::map<std::int64_t, CpNode> finish_;  ///< job → finish node
  std::map<std::int64_t, CpNode> latest_;  ///< job → last stamped node
  std::size_t edge_count_ = 0;
};

/// The one in-edge extract() would follow out of many sources into the same
/// node, kept as the sources arrive so that only that edge is drawn. offer()
/// applies the extractor's rule: the greatest stamp wins, a tie keeps the
/// earliest offer, and an unstamped source never binds. emit() then draws
/// the node's in-edges, and extraction from it follows exactly what one
/// edge per offer would have. Stamps are read at offer time, and that is
/// exact: an offered "map_done" is never stamped again, because every
/// attempt of a map, speculative backups included, has a number of its
/// own, and a re-executed map's completion is a new node, offered anew
/// when it is delivered.
class LastArrival {
 public:
  void offer(const CriticalPathBuilder& cp, CpNode from) {
    if (cp.is_stamped(from) &&
        (best_ == kInvalidCpNode || cp.time(from) > cp.time(best_))) {
      best_ = from;
    }
  }
  /// Draw kept source → `to`, then `then_from` → `to`, both charged to
  /// `blame`. The order is the per-offer order: every offer came before
  /// the node's own last cause, and a tie keeps the earlier edge.
  void emit(CriticalPathBuilder& cp, CpNode to, CpNode then_from,
            Blame blame) const {
    cp.edge(best_, to, blame);
    cp.edge(then_from, to, blame);
  }

 private:
  CpNode best_ = kInvalidCpNode;
};

}  // namespace mron::obs
