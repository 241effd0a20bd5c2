#include "sim/shared_server.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ostream>
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
constexpr double kInf = std::numeric_limits<double>::infinity();
// Rows the first submit() allocates; the block doubles from there.
constexpr std::uint32_t kInitialRows = 8;
constexpr std::size_t kRowBytes = 3 * sizeof(double) + sizeof(std::uint32_t);

/// rem[i] = max(0, rem[i] - step(i)) for every row; returns the column's
/// minimum afterwards (+inf when n == 0). The minimum may be taken in any
/// order: the column never holds NaN (rates and dt are finite) nor -0.0
/// (std::max(0.0, x) returns +0.0 for every x <= 0, and submit() stores at
/// least kWorkEpsilon), and over such doubles std::min is associative and
/// commutative. So four independent accumulators give the sequential
/// minimum bit for bit while breaking the loop-carried dependence.
template <typename Step>
double progress_min(double* rem, std::uint32_t n, Step step) {
  double m0 = kInf, m1 = kInf, m2 = kInf, m3 = kInf;
  std::uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    rem[i] = std::max(0.0, rem[i] - step(i));
    rem[i + 1] = std::max(0.0, rem[i + 1] - step(i + 1));
    rem[i + 2] = std::max(0.0, rem[i + 2] - step(i + 2));
    rem[i + 3] = std::max(0.0, rem[i + 3] - step(i + 3));
    m0 = std::min(m0, rem[i]);
    m1 = std::min(m1, rem[i + 1]);
    m2 = std::min(m2, rem[i + 2]);
    m3 = std::min(m3, rem[i + 3]);
  }
  for (; i < n; ++i) {
    rem[i] = std::max(0.0, rem[i] - step(i));
    m0 = std::min(m0, rem[i]);
  }
  return std::min(std::min(m0, m1), std::min(m2, m3));
}
}  // namespace

void SharedServer::Table::push(double remaining, double stream_cap,
                               StreamId id, Done done,
                               std::uint8_t submitter_cat) {
  if (n == capacity) {
    // One allocation holds all four columns; rows [0, n) carry over. A
    // std::byte array implicitly creates the double and uint32_t objects
    // the columns hold (C++20 [intro.object]).
    const std::uint32_t rows = capacity == 0 ? kInitialRows : 2 * capacity;
    auto grown = std::make_unique_for_overwrite<std::byte[]>(rows * kRowBytes);
    auto* g_rem = reinterpret_cast<double*>(grown.get());
    double* g_cap = g_rem + rows;
    double* g_rate = g_cap + rows;
    auto* g_slot = reinterpret_cast<std::uint32_t*>(g_rate + rows);
    std::copy_n(rem, n, g_rem);
    std::copy_n(cap, n, g_cap);
    std::copy_n(rate, n, g_rate);
    std::copy_n(slot, n, g_slot);
    block = std::move(grown);
    rem = g_rem;
    cap = g_cap;
    rate = g_rate;
    slot = g_slot;
    capacity = rows;
    pool.reserve(rows);
  }
  std::uint32_t s = free_slot;
  if (s != kNoSlot) {
    Entry& e = pool[s];
    free_slot = e.next_free;
    e.done = std::move(done);
    e.id = id;
    e.cat = submitter_cat;
  } else {
    s = static_cast<std::uint32_t>(pool.size());
    pool.push_back(Entry{std::move(done), id, kNoSlot, submitter_cat});
  }
  rem[n] = remaining;
  cap[n] = stream_cap;
  rate[n] = 0.0;
  slot[n] = s;
  ++n;
  min_rem = std::min(min_rem, remaining);
  if (stream_cap != kUncapped) ++finite_caps;
}

void SharedServer::Table::erase(std::uint32_t i) {
  if (cap[i] != kUncapped) --finite_caps;
  pool[slot[i]].done.reset();
  release(slot[i]);
  std::copy(rem + i + 1, rem + n, rem + i);
  std::copy(cap + i + 1, cap + n, cap + i);
  std::copy(rate + i + 1, rate + n, rate + i);
  std::copy(slot + i + 1, slot + n, slot + i);
  --n;
  min_fresh = false;
}

std::uint32_t SharedServer::Table::find(StreamId id) const {
  std::uint32_t i = 0;
  while (i < n && pool[slot[i]].id != id) ++i;
  return i;
}

void SharedServer::Table::release(std::uint32_t s) {
  pool[s].next_free = free_slot;
  free_slot = s;
}

std::size_t SharedServer::Table::bytes() const {
  return sizeof(Table) + capacity * kRowBytes +
         pool.capacity() * sizeof(Entry) +
         (unsat.capacity() + finished.capacity()) * sizeof(std::uint32_t);
}

std::string ServerName::str() const {
  const char* slash = owner < 0 ? nullptr : std::strchr(path, '/');
  if (slash == nullptr) return path;
  return std::string(path, slash) + std::to_string(owner) + slash;
}

std::ostream& operator<<(std::ostream& os, const ServerName& name) {
  return os << name.str();
}

SharedServer::SharedServer(Engine& engine, double capacity, ServerName name,
                           double concurrency_penalty)
    : engine_(engine),
      capacity_(capacity),
      base_capacity_(capacity),
      concurrency_penalty_(concurrency_penalty),
      name_(name) {
  MRON_CHECK_MSG(capacity_ > 0.0, "server " << name_ << " capacity must be >0");
  MRON_CHECK(concurrency_penalty_ >= 0.0);
  last_update_ = engine_.now();
  if (auto* rec = engine_.recorder()) {
    const std::string prefix = "server." + name_.str();
    busy_gauge_ = &rec->metrics().gauge(prefix + ".busy_integral");
    streams_gauge_ = &rec->metrics().gauge(prefix + ".active_streams");
    // Only the final values are exported and nothing reads them mid-run,
    // so they are refreshed once, by the end-of-run flush, not per tick.
    rec->add_final_hook([this] {
      busy_gauge_->set(busy_integral());
      streams_gauge_->set(static_cast<double>(active()));
    });
  }
}

std::size_t SharedServer::table_bytes() const {
  return table_ == nullptr ? 0 : table_->bytes();
}

StreamId SharedServer::submit(double work, double cap, Done done) {
  MRON_CHECK_MSG(work >= 0.0, "negative work " << work);
  MRON_CHECK_MSG(cap > 0.0, "non-positive cap " << cap);
  MRON_CHECK(static_cast<bool>(done));
  if (activity_cb_) activity_cb_();
  if (table_ == nullptr) table_ = std::make_unique<Table>();
  // Progress every stream to now, then append: the new row is last, so
  // the cap sum still accumulates in insertion order.
  const double min_rem = advance();
  const StreamId id = ids_.next();
  const double remaining = std::max(work, kWorkEpsilon);
  // done() runs under its submitter's category, so what done() schedules
  // is billed to the code that asked for the work, not to this server.
  table_->push(remaining, cap, id, std::move(done),
               obs::HostProfiler::CatScope::current());
  alloc_dirty_ = true;
  reallocate(std::min(min_rem, remaining));
  return id;
}

void SharedServer::cancel(StreamId id) {
  if (table_ == nullptr) return;
  const std::uint32_t i = table_->find(id);
  if (i == table_->n) return;
  // Rows keep their rates through the erase, so progressing the survivors
  // afterwards is progressing them before it.
  table_->erase(i);
  const double min_rem = advance();
  alloc_dirty_ = true;
  reallocate(min_rem);
}

void SharedServer::set_capacity_scale(double scale) {
  MRON_CHECK_MSG(scale > 0.0,
                 "server " << name_ << " capacity scale must be >0");
  const double scaled = base_capacity_ * scale;
  if (scaled == capacity_) return;
  const double min_rem = advance();
  capacity_ = scaled;
  alloc_dirty_ = true;
  reallocate(min_rem);
}

double SharedServer::remaining(StreamId id) const {
  if (table_ == nullptr) return 0.0;
  const std::uint32_t i = table_->find(id);
  if (i == table_->n) return 0.0;
  const Table& t = *table_;
  double rate = t.rate[i];
  if (mode_ == RateMode::kFlat) rate = flat_share_;
  if (mode_ == RateMode::kPerCap) rate = t.cap[i];
  // Account for progress since the last state change without mutating.
  const double dt = engine_.now() - last_update_;
  return std::max(0.0, t.rem[i] - rate * dt);
}

double SharedServer::busy_integral() const {
  return busy_integral_ + total_rate_ * (engine_.now() - last_update_);
}

template <typename F>
double SharedServer::with_rates(F f) const {
  const Table& t = *table_;
  switch (mode_) {
    case RateMode::kFlat: {
      const double share = flat_share_;
      return f([share](std::uint32_t) { return share; });
    }
    case RateMode::kPerCap:
      return f([&t](std::uint32_t i) { return t.cap[i]; });
    case RateMode::kExplicit:
      break;
  }
  return f([&t](std::uint32_t i) { return t.rate[i]; });
}

double SharedServer::advance() {
  const double dt = engine_.now() - last_update_;
  last_update_ = engine_.now();
  if (table_ == nullptr) return kInf;  // nothing served: total_rate_ is 0
  Table& t = *table_;
  // dt is 0 when another call already advanced this server at the current
  // timestamp. Every rate is finite and every rem is at least +0.0, so
  // max(0, r - rate * 0.0) is r and busy_integral_ + total_rate_ * 0.0 is
  // busy_integral_: a pass would only recompute the minimum, and the
  // cached one is exact while fresh.
  if (dt == 0.0 && t.min_fresh) return t.min_rem;
  busy_integral_ += total_rate_ * dt;
  t.min_rem = with_rates([&t, dt](auto rate) {
    return progress_min(t.rem, t.n,
                        [&rate, dt](std::uint32_t i) { return rate(i) * dt; });
  });
  t.min_fresh = true;
  return t.min_rem;
}

void SharedServer::recompute_rates() {
  Table& t = *table_;
  const std::uint32_t n = t.n;
  const double effective =
      capacity_ /
      (1.0 + concurrency_penalty_ * (static_cast<double>(n) - 1.0));

  // Fast path 1: a lone stream takes min(cap, capacity). Represented as
  // per-cap or flat share so no per-stream rate is written.
  if (n == 1) {
    if (t.cap[0] <= effective) {
      mode_ = RateMode::kPerCap;
    } else {
      mode_ = RateMode::kFlat;
      flat_share_ = effective;
    }
    total_rate_ = std::min(t.cap[0], effective);
    return;
  }

  const double share = effective / static_cast<double>(n);

  // Fast path 2: total demand fits — everyone runs at cap. The cap sum is
  // the sequential sum in stream order from 0.0, the exact sum the
  // rate-assignment loop produces for total_rate_. One uncapped stream
  // makes that sum +inf in any order (no summand is -inf), and +inf never
  // fits, so it is only summed when every cap is finite.
  if (t.finite_caps == n) {
    double cap_sum = 0.0;
    for (std::uint32_t i = 0; i < n; ++i) cap_sum += t.cap[i];
    if (cap_sum <= effective) {
      mode_ = RateMode::kPerCap;
      total_rate_ = cap_sum;
      return;
    }
  }

  // Fast path 3: no cap binds below the equal share — flat split.
  // (min_cap >= share) is exactly !any(cap < share).
  const double min_cap =
      t.finite_caps == 0 ? kInf : *std::min_element(t.cap, t.cap + n);
  if (min_cap >= share) {
    mode_ = RateMode::kFlat;
    flat_share_ = share;
    total_rate_ = share * static_cast<double>(n);
    return;
  }

  // General water-filling over reusable scratch (no allocation once the
  // scratch vector has grown to the server's high-water stream count). The
  // only shape that materializes per-stream rates.
  mode_ = RateMode::kExplicit;
  double* rate = t.rate;
  const double* cap = t.cap;
  std::fill_n(rate, n, 0.0);
  auto& unsat = t.unsat;
  unsat.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) unsat[i] = i;
  double remaining_capacity = effective;
  while (!unsat.empty() && remaining_capacity > 1e-12) {
    const double round_share =
        remaining_capacity / static_cast<double>(unsat.size());
    std::size_t kept = 0;
    bool any_capped = false;
    for (const std::uint32_t i : unsat) {
      if (cap[i] - rate[i] <= round_share) {
        remaining_capacity -= (cap[i] - rate[i]);
        rate[i] = cap[i];
        any_capped = true;
      } else {
        unsat[kept++] = i;  // compact in place, order preserved
      }
    }
    unsat.resize(kept);
    if (!any_capped) {
      for (const std::uint32_t i : unsat) rate[i] += round_share;
      remaining_capacity = 0.0;
      unsat.clear();
    }
  }

  total_rate_ = 0.0;
  for (std::uint32_t i = 0; i < n; ++i) total_rate_ += rate[i];
}

void SharedServer::reallocate(double min_rem) {
  if (active() == 0) {
    if (has_pending_event_) {
      engine_.cancel(pending_event_);
      has_pending_event_ = false;
    }
    total_rate_ = 0.0;
    return;
  }

  if (alloc_dirty_) {
    recompute_rates();
    alloc_dirty_ = false;
  }
  const Table& t = *table_;
  // Flat split — the shape the loaded servers live in — needs exactly one
  // division: with every rate equal to `share`, IEEE division is monotone
  // in the numerator, so min(rem) / share IS min(rem / share) bit for bit.
  // The other shapes divide per stream, with the operands the
  // straightforward per-stream scan uses.
  double next_completion = kInf;
  switch (mode_) {
    case RateMode::kFlat:
      next_completion = min_rem / flat_share_;
      break;
    case RateMode::kPerCap:
      for (std::uint32_t i = 0; i < t.n; ++i) {
        next_completion = std::min(next_completion, t.rem[i] / t.cap[i]);
      }
      break;
    case RateMode::kExplicit:
      for (std::uint32_t i = 0; i < t.n; ++i) {
        if (t.rate[i] > 0.0) {
          next_completion = std::min(next_completion, t.rem[i] / t.rate[i]);
        }
      }
      break;
  }
  MRON_CHECK_MSG(std::isfinite(next_completion),
                 "server " << name_ << " stalled with " << t.n
                           << " streams and zero rate");
  // Completion events are the server's own bookkeeping, not the submitting
  // task's: override whatever category the caller's context carries.
  HOST_PROF_CATEGORY(kSharedServer);
  // The pending event is moved even when the rates are provably unchanged:
  // it takes a fresh sequence number exactly as the naive cancel + schedule
  // did, so the engine's dispatch order is bit-identical to it.
  if (has_pending_event_) {
    engine_.reschedule(pending_event_, engine_.now() + next_completion);
  } else {
    pending_event_ = engine_.schedule_after(next_completion,
                                            [this] { on_completion(); });
    has_pending_event_ = true;
  }
}

void SharedServer::on_completion() {
  has_pending_event_ = false;
  Table& t = *table_;
  const double dt = engine_.now() - last_update_;
  last_update_ = engine_.now();
  busy_integral_ += total_rate_ * dt;
  // The retirement threshold must exceed double-precision resolution at the
  // current timestamp or time stops advancing for near-finished streams.
  const double time_eps = std::max(kTimeEpsilon, engine_.now() * 1e-12);
  // Member scratch: a completion fires on almost every event on a loaded
  // server. Safe to reuse because on_completion never re-enters itself —
  // done callbacks may submit or cancel streams, but completions only run
  // from the engine event loop.
  std::vector<std::uint32_t>& finished = t.finished;
  finished.clear();
  // One pass: each row progresses exactly as advance() takes it; a row at
  // or below kWorkEpsilon + rate * time_eps retires (its slot goes to
  // `finished`), the rest compact in order and give the new minimum. Row i
  // is read before any write reaches it (writes go to kept <= i), so its
  // step and threshold see its pre-pass cap and rate. Rates are not
  // carried: a retirement makes the allocation dirty, and
  // recompute_rates() rewrites them.
  t.min_rem = with_rates([&t, &finished, dt, time_eps](auto rate) {
    const std::uint32_t n = t.n;
    double min_rem = kInf;
    std::uint32_t kept = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      const double r = std::max(0.0, t.rem[i] - rate(i) * dt);
      if (r <= kWorkEpsilon + rate(i) * time_eps) {
        finished.push_back(t.slot[i]);
        if (t.cap[i] != kUncapped) --t.finite_caps;
        continue;
      }
      if (kept != i) {
        t.cap[kept] = t.cap[i];
        t.slot[kept] = t.slot[i];
      }
      t.rem[kept++] = r;
      min_rem = std::min(min_rem, r);
    }
    t.n = kept;
    return min_rem;
  });
  t.min_fresh = true;
  if (!finished.empty()) alloc_dirty_ = true;
  reallocate(t.min_rem);
  // Callbacks run after the server is in a consistent state; they may submit
  // new streams re-entrantly (which may grow the pool, so each callback is
  // moved out of it first), each under its submitter's category.
  for (std::size_t k = 0; k < finished.size(); ++k) {
    const std::uint32_t s = finished[k];
    Done done = std::move(t.pool[s].done);
    const auto cat = static_cast<obs::HostCat>(t.pool[s].cat);
    t.release(s);
    const obs::HostProfiler::CatScope scope(cat);
    done();
  }
  finished.clear();
}

}  // namespace mron::sim
