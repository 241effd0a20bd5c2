#include "mapreduce/shuffle_log.h"

#include <bit>

#include "common/check.h"
#include "mapreduce/reduce_task.h"

namespace mron::mapreduce {

ShuffleLog::ShuffleLog(int num_maps, int num_reduces, int num_nodes)
    : slot_of_(static_cast<std::size_t>(num_nodes), -1),
      live_(static_cast<std::size_t>(num_maps), -1),
      last_(static_cast<std::size_t>(num_maps), -1),
      readers_(static_cast<std::size_t>(num_reduces), nullptr),
      subscribed_((static_cast<std::size_t>(num_reduces) + 63) / 64, 0) {
  MRON_CHECK(num_maps >= 0 && num_reduces >= 0 && num_nodes >= 0);
}

std::int32_t ShuffleLog::slot_for(cluster::NodeId node) {
  MRON_CHECK(node.valid() &&
             static_cast<std::size_t>(node.value()) < slot_of_.size());
  std::int32_t& slot = slot_of_[static_cast<std::size_t>(node.value())];
  if (slot < 0) {
    slot = static_cast<std::int32_t>(hosts_.size());
    Host& host = hosts_.emplace_back();
    host.node = node;
    // Every open reader starts with an empty queue here.
    host.waiters = subscribed_;
  }
  return slot;
}

void ShuffleLog::append(int map, cluster::NodeId node, Bytes output,
                        obs::CpNode cp) {
  MRON_CHECK(map >= 0 && map < num_maps() && !done(map));
  const std::int32_t h = slot_for(node);
  const auto pos = static_cast<std::int32_t>(entries_.size());
  Entry& e = entries_.emplace_back();
  e.map = map;
  e.host = h;
  e.index = static_cast<std::int32_t>(hosts_[static_cast<std::size_t>(h)]
                                          .list.size());
  e.prev = last_[static_cast<std::size_t>(map)];
  e.output = output;
  e.cp = cp;
  hosts_[static_cast<std::size_t>(h)].list.push_back(pos);
  live_[static_cast<std::size_t>(map)] = pos;
  last_[static_cast<std::size_t>(map)] = pos;
  // A re-executed map: a reader still holding an older copy (queued, in
  // flight or fetched) takes no second one.
  if (e.prev >= 0) {
    for (ReduceTask* reader : readers_) {
      if (reader != nullptr && reader->holds(map, e.prev)) {
        reader->ignore_entry(pos);
      }
    }
  }
  // Wake the readers with nothing queued here, lowest index first. A woken
  // reader may start a visit that empties its queue again and re-set its
  // bit; each word is cleared before its readers run, so that bit stays.
  const std::size_t words =
      hosts_[static_cast<std::size_t>(h)].waiters.size();
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t& word = hosts_[static_cast<std::size_t>(h)].waiters[w];
    std::uint64_t bits = word;
    word = 0;
    while (bits != 0) {
      const auto r = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      if (ReduceTask* reader = readers_[r]) reader->on_append(h, pos);
    }
  }
}

void ShuffleLog::lose_output(int map) {
  const std::int32_t pos = live(map);
  MRON_CHECK(pos >= 0);
  Entry& e = entries_[static_cast<std::size_t>(pos)];
  e.died = ++clock_;
  live_[static_cast<std::size_t>(map)] = -1;
  ++hosts_[static_cast<std::size_t>(e.host)].epoch;
}

void ShuffleLog::lose_host(cluster::NodeId node) {
  ++hosts_[static_cast<std::size_t>(slot_for(node))].epoch;
}

bool ShuffleLog::available(int map, cluster::NodeId node) const {
  const std::int32_t pos = live(map);
  return pos >= 0 &&
         hosts_[static_cast<std::size_t>(entry(pos).host)].node == node;
}

std::uint32_t ShuffleLog::epoch(cluster::NodeId node) const {
  const std::int32_t slot = host_of(node);
  return slot < 0 ? 0 : host_epoch(slot);
}

void ShuffleLog::subscribe(int reader, ReduceTask* task) {
  const auto r = static_cast<std::size_t>(reader);
  MRON_CHECK(r < readers_.size() && readers_[r] == nullptr);
  readers_[r] = task;
  subscribed_[r / 64] |= std::uint64_t{1} << (r % 64);
}

void ShuffleLog::unsubscribe(int reader, const ReduceTask* task) {
  const auto r = static_cast<std::size_t>(reader);
  if (readers_[r] != task) return;
  readers_[r] = nullptr;
  subscribed_[r / 64] &= ~(std::uint64_t{1} << (r % 64));
}

void ShuffleLog::wait_on(std::int32_t host, int reader) {
  const auto r = static_cast<std::size_t>(reader);
  hosts_[static_cast<std::size_t>(host)].waiters[r / 64] |= std::uint64_t{1}
                                                           << (r % 64);
}

}  // namespace mron::mapreduce
