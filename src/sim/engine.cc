#include "sim/engine.h"

#include <utility>

#include "obs/host_profile.h"

namespace mron::sim {

EventId Engine::schedule_impl(SimTime t, Callback cb, bool daemon) {
  MRON_CHECK_MSG(t >= now_, "schedule_at(" << t << ") before now=" << now_);
  MRON_CHECK(static_cast<bool>(cb));
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    heap_pos_.push_back(0);
  }
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.daemon = daemon;
  // Inherit the scheduling context's subsystem category (a dispatched
  // callback's own category is re-established around cb(), so re-arms
  // inherit transitively). Only read when profiling.
  if (host_profiler_ != nullptr) {
    s.cat = obs::HostProfiler::CatScope::current();
  }
  heap_.push_back(EventEntry{t, next_seq_++, slot});
  sift_up(heap_.size() - 1);
  ++live_events_;
  if (daemon) ++daemon_events_;
  return pack(slot, s.gen);
}

EventId Engine::schedule_at(SimTime t, Callback cb) {
  return schedule_impl(t, std::move(cb), /*daemon=*/false);
}

EventId Engine::schedule_after(SimTime delay, Callback cb) {
  MRON_CHECK_MSG(delay >= 0.0, "negative delay " << delay);
  return schedule_impl(now_ + delay, std::move(cb), /*daemon=*/false);
}

EventId Engine::schedule_daemon_at(SimTime t, Callback cb) {
  return schedule_impl(t, std::move(cb), /*daemon=*/true);
}

EventId Engine::schedule_daemon_after(SimTime delay, Callback cb) {
  MRON_CHECK_MSG(delay >= 0.0, "negative delay " << delay);
  return schedule_impl(now_ + delay, std::move(cb), /*daemon=*/true);
}

std::uint32_t Engine::pending_slot(EventId id) const {
  if (!id.valid()) return kNoSlot;
  const auto packed = static_cast<std::uint64_t>(id.value());
  const auto slot = static_cast<std::uint32_t>(packed & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(packed >> 32);
  if (slot >= slots_.size() || slots_[slot].gen != gen || !slots_[slot].cb) {
    return kNoSlot;
  }
  return slot;
}

void Engine::cancel(EventId id) {
  const std::uint32_t slot = pending_slot(id);
  // Already fired, already cancelled, or never issued: a no-op.
  if (slot == kNoSlot) return;
  heap_erase(heap_pos_[slot]);
  if (slots_[slot].daemon) --daemon_events_;
  release_slot(slot);
  --live_events_;
}

void Engine::reschedule(EventId id, SimTime t) {
  MRON_CHECK_MSG(t >= now_, "reschedule(" << t << ") before now=" << now_);
  const std::uint32_t slot = pending_slot(id);
  MRON_CHECK_MSG(slot != kNoSlot, "reschedule of an event that already "
                                  "fired or was cancelled");
  Slot& s = slots_[slot];
  // Stamped as schedule_impl() would stamp a fresh event.
  if (host_profiler_ != nullptr) {
    s.cat = obs::HostProfiler::CatScope::current();
  }
  const std::size_t pos = heap_pos_[slot];
  // The fresh seq exceeds every queued one, so the key only decreases when
  // the time does: an earlier event can only move up, any other only down.
  const bool earlier = t < heap_[pos].time;
  heap_[pos] = EventEntry{t, next_seq_++, slot};
  if (earlier) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void Engine::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb.reset();
  s.daemon = false;
  // Wrapping at 2^31 keeps EventId::value() non-negative; a dead handle
  // would have to survive two billion reuses of one slot to collide.
  s.gen = (s.gen + 1) & 0x7fffffffu;
  free_slots_.push_back(slot);
}

void Engine::sift_up(std::size_t pos) {
  const EventEntry e = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!(e < heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void Engine::sift_down(std::size_t pos) {
  const EventEntry e = heap_[pos];
  const std::size_t n = heap_.size();
  for (std::size_t child = 2 * pos + 1; child < n; child = 2 * pos + 1) {
    if (child + 1 < n) child += heap_[child + 1] < heap_[child];
    if (!(heap_[child] < e)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, e);
}

void Engine::heap_erase(std::size_t pos) {
  const EventEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // erased the last entry itself
  heap_[pos] = last;
  if (pos > 0 && last < heap_[(pos - 1) / 2]) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

bool Engine::pop_next(Callback* cb, std::uint8_t* cat) {
  if (heap_.empty()) return false;
  const EventEntry entry = heap_.front();
  heap_erase(0);
  Slot& s = slots_[entry.slot];
  *cb = std::move(s.cb);
  if (s.daemon) --daemon_events_;
  *cat = s.cat;
  release_slot(entry.slot);
  --live_events_;
  now_ = entry.time;
  ++total_dispatched_;
  return true;
}

bool Engine::dispatch_next() {
  Callback cb;
  std::uint8_t cat = 0;
  if (!pop_next(&cb, &cat)) return false;
  if (host_profiler_ != nullptr) {
    // Re-establish the event's category around its callback so anything
    // it schedules inherits it.
    obs::HostProfiler::CatScope scope(static_cast<obs::HostCat>(cat));
    cb();
    return true;
  }
  cb();
  return true;
}

std::int64_t Engine::run(std::int64_t max_events) {
  if (host_profiler_ != nullptr) return run_profiled(max_events);
  std::int64_t fired = 0;
  while (fired < max_events && dispatch_next()) {
    ++fired;
    progress_tick();
  }
  MRON_CHECK_MSG(fired < max_events, "engine hit max_events guard");
  return fired;
}

std::int64_t Engine::run_profiled(std::int64_t max_events) {
  // Clock reads only at category transitions: a contiguous run of
  // same-category events is billed as one batch whose wall is the delta
  // between the boundary reads (callbacks + queue pops in between). The
  // boundary deltas partition the loop's wall time, so the per-subsystem
  // totals still sum to it by construction — but the raw_ticks() cost
  // (~20ns virtualized) amortizes across each run instead of taxing every
  // event. Steady-state traffic is long runs of heartbeats punctuated by
  // task events, so runs are typically many events deep.
  obs::HostProfiler::Activation activation(host_profiler_);
  std::int64_t fired = 0;
  std::int64_t t0 = obs::HostProfiler::raw_ticks();
  std::uint8_t run_cat = 0;
  std::int64_t run_len = 0;
  Callback cb;
  std::uint8_t cat = 0;
  while (fired < max_events && pop_next(&cb, &cat)) {
    if (cat != run_cat && run_len != 0) {
      const std::int64_t t1 = obs::HostProfiler::raw_ticks();
      host_profiler_->record_events(run_cat, t1 - t0, run_len);
      t0 = t1;
      run_len = 0;
    }
    run_cat = cat;
    ++run_len;
    {
      // Re-establish the event's category around its callback so anything
      // it schedules inherits it.
      obs::HostProfiler::CatScope scope(static_cast<obs::HostCat>(cat));
      cb();
    }
    ++fired;
    progress_tick();
  }
  if (run_len != 0) {
    host_profiler_->record_events(
        run_cat, obs::HostProfiler::raw_ticks() - t0, run_len);
  }
  MRON_CHECK_MSG(fired < max_events, "engine hit max_events guard");
  return fired;
}

std::int64_t Engine::run_until(SimTime t) {
  MRON_CHECK(t >= now_);
  std::int64_t fired = 0;
  while (!heap_.empty() && heap_.front().time <= t) {
    dispatch_next();
    ++fired;
  }
  now_ = t;
  return fired;
}

}  // namespace mron::sim
