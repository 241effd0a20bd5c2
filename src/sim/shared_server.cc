#include "sim/shared_server.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/host_profile.h"
#include "obs/recorder.h"

namespace mron::sim {

namespace {
// Streams with less than this much work left are considered complete; guards
// against floating-point residue keeping a stream alive forever.
constexpr double kWorkEpsilon = 1e-9;
// A stream whose remaining time at its current rate is below this is also
// retired: otherwise the completion event can land at `now + dt` where dt is
// smaller than double resolution at `now`, time never advances, and the
// event re-fires forever.
constexpr double kTimeEpsilon = 1e-9;
}  // namespace

SharedServer::SharedServer(Engine& engine, double capacity, std::string name,
                           double concurrency_penalty)
    : engine_(engine),
      capacity_(capacity),
      base_capacity_(capacity),
      concurrency_penalty_(concurrency_penalty),
      name_(std::move(name)) {
  MRON_CHECK_MSG(capacity_ > 0.0, "server " << name_ << " capacity must be >0");
  MRON_CHECK(concurrency_penalty_ >= 0.0);
  last_update_ = engine_.now();
  if (auto* rec = engine_.recorder()) {
    busy_gauge_ = &rec->metrics().gauge("server." + name_ + ".busy_integral");
    streams_gauge_ =
        &rec->metrics().gauge("server." + name_ + ".active_streams");
    // Pull model: the per-event paths are the simulation's hottest, so the
    // gauges refresh once per sampling tick instead of per event.
    rec->add_flush_hook([this] {
      busy_gauge_->set(busy_integral());
      streams_gauge_->set(static_cast<double>(streams_.size()));
    });
  }
}

int SharedServer::find(StreamId id) const {
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    if (streams_[i].id == id) return static_cast<int>(i);
  }
  return -1;
}

double SharedServer::rate_of(const Stream& s) const {
  switch (mode_) {
    case RateMode::kFlat:
      return flat_share_;
    case RateMode::kPerCap:
      return s.cap;
    case RateMode::kExplicit:
      return s.rate;
  }
  return s.rate;  // unreachable
}

void SharedServer::Agg::add(double remaining, double cap) {
  // Deliberately division-free: a divide per stream per pass costs more
  // than the whole rest of the visit, and the completion minimums that do
  // need one are computed in a dedicated scan only on the branches that
  // consume them.
  cap_sum += cap;  // inf-safe: stays inf once any stream is uncapped
  min_cap = std::min(min_cap, cap);
  min_rem = std::min(min_rem, remaining);
}

StreamId SharedServer::submit(double work, double cap, Done done) {
  MRON_CHECK_MSG(work >= 0.0, "negative work " << work);
  MRON_CHECK_MSG(cap > 0.0, "non-positive cap " << cap);
  MRON_CHECK(static_cast<bool>(done));
  if (activity_cb_) activity_cb_();
  // One fused pass: progress every stream to now and gather the allocation
  // aggregates, then fold the new stream in. The append keeps cap_sum's
  // accumulation order identical to a fresh front-to-back scan.
  Agg agg = advance_and_aggregate();
  const StreamId id = ids_.next();
  const double remaining = std::max(work, kWorkEpsilon);
  streams_.push_back(Stream{id, remaining, cap, 0.0, std::move(done)});
  if (cats_ == nullptr && engine_.host_profiler() != nullptr) {
    cats_ = std::make_unique<SubmitterCats>();
  }
  if (cats_ != nullptr) {
    // Streams submitted before a profiler attached stay unattributed.
    cats_->live.resize(streams_.size() - 1, 0);
    cats_->live.push_back(obs::HostProfiler::CatScope::current());
  }
  agg.add(remaining, cap);
  alloc_dirty_ = true;
  reallocate(agg);
  return id;
}

void SharedServer::cancel(StreamId id) {
  const int i = find(id);
  if (i < 0) return;
  advance();
  streams_.erase(streams_.begin() + i);
  if (cats_ != nullptr) cats_->live.erase(cats_->live.begin() + i);
  alloc_dirty_ = true;
  reallocate(aggregate_scan());
}

void SharedServer::set_cap(StreamId id, double cap) {
  MRON_CHECK(cap > 0.0);
  const int i = find(id);
  if (i < 0) return;
  advance();
  streams_[static_cast<std::size_t>(i)].cap = cap;
  alloc_dirty_ = true;
  reallocate(aggregate_scan());
}

void SharedServer::set_capacity_scale(double scale) {
  MRON_CHECK_MSG(scale > 0.0,
                 "server " << name_ << " capacity scale must be >0");
  const double scaled = base_capacity_ * scale;
  if (scaled == capacity_) return;
  advance();
  capacity_ = scaled;
  alloc_dirty_ = true;
  reallocate(aggregate_scan());
}

double SharedServer::remaining(StreamId id) const {
  const int i = find(id);
  if (i < 0) return 0.0;
  const auto& s = streams_[static_cast<std::size_t>(i)];
  // Account for progress since the last state change without mutating.
  const double dt = engine_.now() - last_update_;
  return std::max(0.0, s.remaining - rate_of(s) * dt);
}

double SharedServer::busy_integral() const {
  return busy_integral_ + total_rate_ * (engine_.now() - last_update_);
}

void SharedServer::advance() {
  const SimTime now = engine_.now();
  const double dt = now - last_update_;
  if (dt <= 0.0) {
    last_update_ = now;
    return;
  }
  for (auto& s : streams_) {
    s.remaining = std::max(0.0, s.remaining - rate_of(s) * dt);
  }
  busy_integral_ += total_rate_ * dt;
  last_update_ = now;
}

SharedServer::Agg SharedServer::advance_and_aggregate() {
  const SimTime now = engine_.now();
  const double dt = now - last_update_;
  Agg agg;
  if (dt <= 0.0) {
    for (const auto& s : streams_) {
      agg.add(s.remaining, s.cap);
    }
  } else {
    for (auto& s : streams_) {
      s.remaining = std::max(0.0, s.remaining - rate_of(s) * dt);
      agg.add(s.remaining, s.cap);
    }
    busy_integral_ += total_rate_ * dt;
  }
  last_update_ = now;
  return agg;
}

SharedServer::Agg SharedServer::aggregate_scan() const {
  Agg agg;
  for (const auto& s : streams_) {
    agg.add(s.remaining, s.cap);
  }
  return agg;
}

void SharedServer::recompute_rates(const Agg& agg) {
  const auto n = streams_.size();
  const double effective =
      capacity_ /
      (1.0 + concurrency_penalty_ * (static_cast<double>(n) - 1.0));

  // Fast path 1: a lone stream takes min(cap, capacity). Represented as
  // per-cap or flat share so no per-stream rate is written.
  if (n == 1) {
    if (streams_[0].cap <= effective) {
      mode_ = RateMode::kPerCap;
    } else {
      mode_ = RateMode::kFlat;
      flat_share_ = effective;
    }
    total_rate_ = std::min(streams_[0].cap, effective);
    return;
  }

  const double share = effective / static_cast<double>(n);

  // Fast path 2: total demand fits — everyone runs at cap. cap_sum was
  // accumulated in stream order from 0.0, the exact sum the legacy
  // rate-assignment loop produced for total_rate_.
  if (agg.cap_sum <= effective) {
    mode_ = RateMode::kPerCap;
    total_rate_ = agg.cap_sum;
    return;
  }

  // Fast path 3: no cap binds below the equal share — flat split.
  // (min_cap >= share) is exactly !any(cap < share).
  if (agg.min_cap >= share) {
    mode_ = RateMode::kFlat;
    flat_share_ = share;
    total_rate_ = share * static_cast<double>(n);
    return;
  }

  // General water-filling over reusable scratch (no allocation once the
  // scratch vector has grown to the server's high-water stream count). The
  // only shape that materializes per-stream rates.
  mode_ = RateMode::kExplicit;
  for (auto& s : streams_) s.rate = 0.0;
  auto& unsat = unsat_scratch_;
  unsat.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) unsat[i] = i;
  double remaining_capacity = effective;
  while (!unsat.empty() && remaining_capacity > 1e-12) {
    const double round_share =
        remaining_capacity / static_cast<double>(unsat.size());
    std::size_t kept = 0;
    bool any_capped = false;
    for (const std::uint32_t i : unsat) {
      Stream& s = streams_[i];
      if (s.cap - s.rate <= round_share) {
        remaining_capacity -= (s.cap - s.rate);
        s.rate = s.cap;
        any_capped = true;
      } else {
        unsat[kept++] = i;  // compact in place, order preserved
      }
    }
    unsat.resize(kept);
    if (!any_capped) {
      for (const std::uint32_t i : unsat) streams_[i].rate += round_share;
      remaining_capacity = 0.0;
      unsat.clear();
    }
  }

  total_rate_ = 0.0;
  for (const auto& s : streams_) total_rate_ += s.rate;
}

void SharedServer::reallocate(const Agg& agg) {
  // The completion event is always cancelled and rescheduled here — even
  // when the rates are provably unchanged — so that the engine sees the
  // exact event sequence the naive implementation produced (determinism).
  if (has_pending_event_) {
    engine_.cancel(pending_event_);
    has_pending_event_ = false;
  }
  if (streams_.empty()) {
    total_rate_ = 0.0;
    return;
  }

  SimTime next_completion = std::numeric_limits<double>::infinity();
  if (alloc_dirty_) {
    recompute_rates(agg);
    alloc_dirty_ = false;
    // Flat split — the shape the loaded servers live in — needs exactly
    // one division: with every rate equal to `share`, IEEE division is
    // monotone in the numerator, so min(rem) / share IS min(rem / share)
    // bit for bit. The other shapes pay a dedicated scan whose per-element
    // divisions use the same operands the legacy post-recompute scan did.
    switch (mode_) {
      case RateMode::kFlat:
        next_completion = agg.min_rem / flat_share_;
        break;
      case RateMode::kPerCap:
        for (const auto& s : streams_) {
          next_completion = std::min(next_completion, s.remaining / s.cap);
        }
        break;
      case RateMode::kExplicit:
        for (const auto& s : streams_) {
          if (s.rate > 0.0) {
            next_completion = std::min(next_completion, s.remaining / s.rate);
          }
        }
        break;
    }
  } else {
    // Rates unchanged since the last pass (a completion event that retired
    // nothing): same scan the legacy implementation ran.
    for (const auto& s : streams_) {
      const double rate = rate_of(s);
      if (rate > 0.0) {
        next_completion = std::min(next_completion, s.remaining / rate);
      }
    }
  }
  MRON_CHECK_MSG(std::isfinite(next_completion),
                 "server " << name_ << " stalled with " << streams_.size()
                           << " streams and zero rate");
  // Completion events are the server's own bookkeeping, not the submitting
  // task's: override whatever category the caller's context carries.
  HOST_PROF_CATEGORY(kSharedServer);
  pending_event_ = engine_.schedule_after(next_completion,
                                          [this] { on_completion(); });
  has_pending_event_ = true;
}

void SharedServer::on_completion() {
  has_pending_event_ = false;
  const SimTime now = engine_.now();
  const double dt = now - last_update_;
  // The retirement threshold must exceed double-precision resolution at the
  // current timestamp or time stops advancing for near-finished streams.
  const double time_eps = std::max(kTimeEpsilon, now * 1e-12);
  // One fused pass: progress each stream to now, partition the finished
  // streams out (callbacks fire after the server is consistent again,
  // survivors keep their arrival order), and gather the allocation
  // aggregates over the survivors. dt can be exactly zero when another
  // event already advanced this server at the current timestamp;
  // remaining - rate*0 reproduces remaining bit for bit, so one loop
  // covers both cases.
  // Member scratch: a completion fires on almost every event on a loaded
  // server, and a fresh vector here would be a malloc/free per event. Safe
  // to reuse because on_completion never re-enters itself — done callbacks
  // may submit or cancel streams, but completions only run from the engine
  // event loop.
  std::vector<Done>& finished = finished_scratch_;
  finished.clear();
  // Submitter categories move in lockstep with their streams.
  SubmitterCats* cats = cats_.get();
  if (cats != nullptr) cats->finished.clear();
  std::size_t kept = 0;
  Agg agg;
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    Stream& s = streams_[i];
    const double rate = rate_of(s);
    s.remaining = std::max(0.0, s.remaining - rate * dt);
    if (s.remaining <= kWorkEpsilon + rate * time_eps) {
      finished.push_back(std::move(s.done));
      if (cats != nullptr) cats->finished.push_back(cats->live[i]);
    } else {
      if (kept != i) {
        streams_[kept] = std::move(s);
        if (cats != nullptr) cats->live[kept] = cats->live[i];
      }
      agg.add(streams_[kept].remaining, streams_[kept].cap);
      ++kept;
    }
  }
  if (dt > 0.0) busy_integral_ += total_rate_ * dt;
  last_update_ = now;
  if (kept != streams_.size()) {
    streams_.resize(kept);
    if (cats != nullptr) cats->live.resize(kept);
    alloc_dirty_ = true;
  }
  reallocate(agg);
  // Callbacks run after the server is in a consistent state; they may submit
  // new streams re-entrantly, each under its submitter's category.
  for (std::size_t k = 0; k < finished.size(); ++k) {
    if (cats != nullptr) {
      const obs::HostProfiler::CatScope scope(
          static_cast<obs::HostCat>(cats->finished[k]));
      finished[k]();
    } else {
      finished[k]();
    }
  }
  finished.clear();
}

}  // namespace mron::sim
