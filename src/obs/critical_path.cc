#include "obs/critical_path.h"

#include <algorithm>

#include "obs/json.h"

namespace mron::obs {

const char* blame_name(Blame b) {
  switch (b) {
    case Blame::SchedWait: return "sched_wait";
    case Blame::MapCompute: return "map_compute";
    case Blame::SpillMerge: return "spill_merge";
    case Blame::ShuffleNet: return "shuffle_net";
    case Blame::ReduceCompute: return "reduce_compute";
    case Blame::RetryRecovery: return "retry_recovery";
    case Blame::Speculation: return "speculation";
  }
  return "unknown";
}

CpNode CriticalPathBuilder::node(std::int64_t job, const char* kind,
                                 std::int64_t a, std::int64_t b) {
  const auto [it, created] = index_.try_emplace(
      Key{job, kind, a, b}, static_cast<CpNode>(nodes_.size()));
  if (created) {
    Node n;
    n.job = job;
    n.kind = kind;
    nodes_.push_back(std::move(n));
  }
  return it->second;
}

void CriticalPathBuilder::stamp(CpNode n, double time, int pid, int tid) {
  if (!valid(n)) return;
  Node& node = nodes_[static_cast<std::size_t>(n)];
  node.time = time;
  node.stamped = true;
  node.pid = pid;
  node.tid = tid;
  latest_[node.job] = n;
}

CpNode CriticalPathBuilder::stamped(std::int64_t job, const char* kind,
                                    double time, std::int64_t a,
                                    std::int64_t b, int pid, int tid) {
  const CpNode n = node(job, kind, a, b);
  stamp(n, time, pid, tid);
  return n;
}

void CriticalPathBuilder::edge(CpNode from, CpNode to, Blame blame) {
  if (!valid(from) || !valid(to) || from == to) return;
  nodes_[static_cast<std::size_t>(to)].in_edges.push_back({from, blame});
  ++edge_count_;
}

void CriticalPathBuilder::mark_job_finish(std::int64_t job, CpNode n) {
  if (!valid(n)) return;
  finish_[job] = n;
}

CpNode CriticalPathBuilder::latest_node(std::int64_t job) const {
  const auto it = latest_.find(job);
  return it == latest_.end() ? kInvalidCpNode : it->second;
}

std::int64_t CriticalPathBuilder::job_of(CpNode n) const {
  return valid(n) ? nodes_[static_cast<std::size_t>(n)].job : -1;
}

std::vector<CpSegment> CriticalPathBuilder::extract(CpNode end) const {
  std::vector<CpSegment> out;
  if (!is_stamped(end)) return out;
  std::vector<char> visited(nodes_.size(), 0);
  CpNode cur = end;
  visited[static_cast<std::size_t>(cur)] = 1;
  // Each step visits a new node, so the walk is bounded by the node count
  // even if a malformed emitter ever produced a cycle.
  for (std::size_t guard = 0; guard <= nodes_.size(); ++guard) {
    const Node& n = nodes_[static_cast<std::size_t>(cur)];
    CpNode best = kInvalidCpNode;
    Blame best_blame = Blame::SchedWait;
    for (const InEdge& e : n.in_edges) {
      if (!is_stamped(e.from) || visited[static_cast<std::size_t>(e.from)]) {
        continue;
      }
      const Node& f = nodes_[static_cast<std::size_t>(e.from)];
      if (f.time > n.time) continue;  // not causal — ignore
      // Last arrival wins; strict > keeps the earliest-inserted edge on
      // ties, so extraction order never depends on emission races (there
      // are none — one engine thread — but the rule is still explicit).
      if (best == kInvalidCpNode ||
          f.time > nodes_[static_cast<std::size_t>(best)].time) {
        best = e.from;
        best_blame = e.blame;
      }
    }
    if (best == kInvalidCpNode) break;
    const Node& f = nodes_[static_cast<std::size_t>(best)];
    out.push_back({best, cur, f.kind, n.kind, f.time, n.time, best_blame});
    visited[static_cast<std::size_t>(best)] = 1;
    cur = best;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::vector<double> CriticalPathBuilder::blame_breakdown(
    const std::vector<CpSegment>& segments) {
  std::vector<double> per(kNumBlames, 0.0);
  for (const CpSegment& s : segments) {
    per[static_cast<int>(s.blame)] += s.secs();
  }
  return per;
}

namespace {

void write_blame_map(JsonWriter& w, const std::vector<double>& per) {
  w.raw('{');
  for (int b = 0; b < kNumBlames; ++b) {
    if (b != 0) w.raw(',');
    w.string(blame_name(static_cast<Blame>(b))).raw(':');
    w.number(per[static_cast<std::size_t>(b)]);
  }
  w.raw('}');
}

}  // namespace

void CriticalPathBuilder::write_json(std::ostream& os) const {
  JsonWriter w(os);
  write_json(w);
  w.flush();
}

void CriticalPathBuilder::write_json(JsonWriter& w) const {
  std::vector<double> totals(kNumBlames, 0.0);
  w.raw("{\"jobs\":[");
  bool first_job = true;
  for (const auto& [job, end] : finish_) {
    if (!first_job) w.raw(',');
    first_job = false;
    const std::vector<CpSegment> segments = extract(end);
    const std::vector<double> per = blame_breakdown(segments);
    for (int b = 0; b < kNumBlames; ++b) {
      totals[static_cast<std::size_t>(b)] += per[static_cast<std::size_t>(b)];
    }
    w.raw("{\"id\":").integer(job).raw(",\"segments\":[");
    for (std::size_t i = 0; i < segments.size(); ++i) {
      const CpSegment& s = segments[i];
      if (i != 0) w.raw(',');
      w.raw("{\"from\":").string(s.from_kind);
      w.raw(",\"to\":").string(s.to_kind);
      w.raw(",\"t0\":").number(s.t0);
      w.raw(",\"t1\":").number(s.t1);
      w.raw(",\"secs\":").number(s.secs());
      w.raw(",\"blame\":").string(blame_name(s.blame)).raw('}');
    }
    w.raw("],\"blame\":");
    write_blame_map(w, per);
    w.raw('}');
  }
  w.raw("],\"blame_totals\":");
  write_blame_map(w, totals);
  w.raw('}');
}

}  // namespace mron::obs
