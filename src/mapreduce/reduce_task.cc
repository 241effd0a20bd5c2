#include "mapreduce/reduce_task.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/check.h"
#include "obs/recorder.h"

namespace mron::mapreduce {

namespace {
constexpr double kOomBaseDelay = 5.0;
constexpr std::int32_t kNone = -1;
}  // namespace

ReduceTask::ReduceTask(sim::Engine& engine, cluster::Node& node,
                       cluster::Fabric& fabric, NodeResolver resolver,
                       const AppProfile& profile, const JobConfig& config,
                       const Inputs& inputs, ShuffleLog& log, Rng rng,
                       Done done)
    : engine_(engine),
      node_(node),
      fabric_(fabric),
      resolver_(std::move(resolver)),
      profile_(profile),
      config_(config),
      inputs_(inputs),
      log_(log),
      rng_(rng),
      done_(std::move(done)),
      // Compressed segments pack records at codec-scaled density, keeping
      // the buffer's record accounting consistent with the wire bytes.
      buffer_(config, profile.map_record_bytes *
                          (config.map_output_compress >= 0.5
                               ? kCodecCompressionRatio
                               : 1.0)) {
  MRON_CHECK(done_ != nullptr);
  MRON_CHECK(resolver_ != nullptr);
  MRON_CHECK(inputs_.log_cursor <= log_.size());
  // parallelcopies is fixed for the attempt (update_config leaves it), so
  // the visit slots are allocated once and chained into the free list.
  const int copies =
      std::max(1, static_cast<int>(config_.shuffle_parallelcopies));
  visits_.resize(static_cast<std::size_t>(copies));
  for (int v = 0; v < copies; ++v) {
    visits_[static_cast<std::size_t>(v)].count = v + 1 < copies ? v + 1 : kNone;
  }
  free_visit_ = 0;
}

ReduceTask::~ReduceTask() { detach(); }

void ReduceTask::attach() {
  attached_ = true;
  launch_clock_ = log_.clock();
  launch_end_ = log_.size();
  held_.assign(static_cast<std::size_t>(log_.num_maps()), false);
  hosts_.resize(static_cast<std::size_t>(log_.num_hosts()));
  obs::CriticalPathBuilder* cp = nullptr;
  if (auto* rec = engine_.recorder(); rec != nullptr && inputs_.cp_job >= 0) {
    cp = &rec->critical_path();
  }
  // Every live completion is delivered now. A retry first takes those
  // logged before its cursor, in map-index order, on the side queues. Each
  // delivery is offered as a source of the attempt's "reduce_shuffle_done".
  const auto cursor = static_cast<std::int32_t>(inputs_.log_cursor);
  if (cursor > 0) {
    for (int mi = 0; mi < log_.num_maps(); ++mi) {
      const std::int32_t pos = log_.live(mi);
      if (pos < 0 || pos >= cursor) continue;
      push_side(pos, cursor);
      held_[static_cast<std::size_t>(mi)] = true;
      if (cp != nullptr) cp_last_delivery_.offer(*cp, log_.entry(pos).cp);
    }
  }
  // The rest in log order: a host becomes ready at its first live entry.
  std::vector<std::pair<std::int32_t, std::int32_t>> first;  // (pos, host)
  for (std::int32_t h = 0; h < log_.num_hosts(); ++h) {
    const std::vector<std::int32_t>& list = log_.list(h);
    Host& host = hosts_[static_cast<std::size_t>(h)];
    host.cursor = static_cast<std::int32_t>(
        std::lower_bound(list.begin(), list.end(), cursor) - list.begin());
    skip_undelivered(h);
    if (!host.queued && static_cast<std::size_t>(host.cursor) < list.size()) {
      first.emplace_back(list[static_cast<std::size_t>(host.cursor)], h);
    }
  }
  std::sort(first.begin(), first.end());
  for (const auto& [pos, h] : first) mark_queued(h);
  if (cp != nullptr) {
    // The first of the latest live entries from the cursor on; stamps
    // never decrease along the log, so a backward walk stops at the first
    // earlier one.
    std::int32_t best = kNone;
    for (auto pos = static_cast<std::int32_t>(launch_end_) - 1; pos >= cursor;
         --pos) {
      const ShuffleLog::Entry& e = log_.entry(pos);
      if (e.died <= launch_clock_) continue;
      if (best != kNone && cp->time(e.cp) < cp->time(log_.entry(best).cp)) {
        break;
      }
      best = pos;
    }
    if (best != kNone) cp_last_delivery_.offer(*cp, log_.entry(best).cp);
  }
  log_.subscribe(inputs_.task.index, this);
  for (std::int32_t h = 0; h < log_.num_hosts(); ++h) {
    if (!hosts_[static_cast<std::size_t>(h)].queued) {
      log_.wait_on(h, inputs_.task.index);
    }
  }
}

void ReduceTask::detach() {
  if (!attached_) return;
  attached_ = false;
  log_.unsubscribe(inputs_.task.index, this);
  std::vector<bool>().swap(held_);
  std::vector<std::int32_t>().swap(ignored_);
  std::vector<Host>().swap(hosts_);
  std::vector<Side>().swap(side_);
  free_side_ = ready_head_ = ready_tail_ = kNone;
}

void ReduceTask::grow_hosts() {
  if (hosts_.size() < static_cast<std::size_t>(log_.num_hosts())) {
    hosts_.resize(static_cast<std::size_t>(log_.num_hosts()));
  }
}

bool ReduceTask::ignored(std::int32_t pos) const {
  return std::find(ignored_.begin(), ignored_.end(), pos) != ignored_.end();
}

bool ReduceTask::holds(int map, std::int32_t from) const {
  if (held_[static_cast<std::size_t>(map)]) return true;
  for (std::int32_t pos = from; pos >= 0; pos = log_.entry(pos).prev) {
    const ShuffleLog::Entry& e = log_.entry(pos);
    if (static_cast<std::size_t>(e.host) < hosts_.size() &&
        hosts_[static_cast<std::size_t>(e.host)].cursor <= e.index &&
        delivered(pos)) {
      return true;
    }
  }
  return false;
}

std::int32_t ReduceTask::pop_side(std::int32_t h) {
  Host& host = hosts_[static_cast<std::size_t>(h)];
  const std::int32_t s = host.side_head;
  Side& side = side_[static_cast<std::size_t>(s)];
  host.side_head = side.next;
  if (host.side_head == kNone) host.side_tail = kNone;
  side.next = free_side_;
  free_side_ = s;
  return side.entry;
}

void ReduceTask::push_side(std::int32_t pos, std::int32_t at) {
  std::int32_t s = free_side_;
  if (s != kNone) {
    free_side_ = side_[static_cast<std::size_t>(s)].next;
  } else {
    s = static_cast<std::int32_t>(side_.size());
    side_.emplace_back();
  }
  side_[static_cast<std::size_t>(s)] = Side{pos, at, kNone};
  const std::int32_t h = log_.entry(pos).host;
  Host& host = hosts_[static_cast<std::size_t>(h)];
  if (host.side_tail != kNone) {
    side_[static_cast<std::size_t>(host.side_tail)].next = s;
  } else {
    host.side_head = s;
  }
  host.side_tail = s;
  if (!host.queued) mark_queued(h);
}

void ReduceTask::mark_queued(std::int32_t h) {
  Host& host = hosts_[static_cast<std::size_t>(h)];
  host.queued = true;
  host.epoch = log_.host_epoch(h);
  if (!host.in_flight) push_ready(h);
}

void ReduceTask::mark_empty(std::int32_t h) {
  hosts_[static_cast<std::size_t>(h)].queued = false;
  log_.wait_on(h, inputs_.task.index);
}

void ReduceTask::push_ready(std::int32_t h) {
  Host& host = hosts_[static_cast<std::size_t>(h)];
  host.ready = true;
  host.prev = ready_tail_;
  host.next = kNone;
  if (ready_tail_ != kNone) {
    hosts_[static_cast<std::size_t>(ready_tail_)].next = h;
  } else {
    ready_head_ = h;
  }
  ready_tail_ = h;
}

void ReduceTask::unlink_ready(std::int32_t h) {
  Host& host = hosts_[static_cast<std::size_t>(h)];
  if (host.prev != kNone) {
    hosts_[static_cast<std::size_t>(host.prev)].next = host.next;
  } else {
    ready_head_ = host.next;
  }
  if (host.next != kNone) {
    hosts_[static_cast<std::size_t>(host.next)].prev = host.prev;
  } else {
    ready_tail_ = host.prev;
  }
  host.ready = false;
  host.prev = host.next = kNone;
}

void ReduceTask::on_append(std::int32_t h, std::int32_t pos) {
  grow_hosts();
  // Queued since it started waiting (a side delivery): nothing changes.
  if (hosts_[static_cast<std::size_t>(h)].queued) return;
  if (!delivered(pos)) {
    log_.wait_on(h, inputs_.task.index);
    return;
  }
  mark_queued(h);
  if (startup_done_ && !oom_ && !aborted_) pump_fetches();
}

void ReduceTask::redeliver(int map_index) {
  if (!attached_) return;
  const std::int32_t pos = log_.live(map_index);
  MRON_CHECK(pos >= 0);
  if (holds(map_index, pos)) return;
  push_side(pos, static_cast<std::int32_t>(log_.size()));
  held_[static_cast<std::size_t>(map_index)] = true;
  if (startup_done_ && !oom_ && !aborted_) pump_fetches();
}

int ReduceTask::tracked_hosts() const {
  int n = 0;
  for (const Host& host : hosts_) n += host.queued || host.in_flight ? 1 : 0;
  return n;
}

void ReduceTask::invalidate_source(cluster::NodeId node) {
  if (!attached_ || aborted_ || finished_) return;
  // Queued segments sourced on the dead node will never connect; drop them
  // and un-accept their maps so the AM's re-delivery is taken. Segments of
  // a visit in flight are doomed by the availability re-check when its
  // transfer lands; fetched segments are local data and survive the source.
  const std::int32_t h = log_.host_of(node);
  if (h < 0 || static_cast<std::size_t>(h) >= hosts_.size()) return;
  Host& host = hosts_[static_cast<std::size_t>(h)];
  while (host.side_head != kNone) {
    held_[static_cast<std::size_t>(log_.entry(pop_side(h)).map)] = false;
  }
  host.cursor = static_cast<std::int32_t>(log_.list(h).size());
  if (host.ready) unlink_ready(h);
  if (host.queued) mark_empty(h);
}

void ReduceTask::switch_phase_span(const char* name) {
  auto* rec = engine_.recorder();
  if (rec == nullptr) return;
  rec->trace().end(phase_span_, engine_.now());
  phase_span_ = obs::kInvalidSpan;
  if (name != nullptr && rec->trace().detail()) {
    phase_span_ = rec->trace().begin(
        name, "phase", static_cast<int>(node_.id().value()),
        inputs_.trace_tid, engine_.now());
  }
}

void ReduceTask::abort() {
  if (aborted_ || finished_) return;
  aborted_ = true;
  // The engine may still hold this attempt's events; each checks aborted_
  // before it touches the released shuffle state.
  detach();
  switch_phase_span(nullptr);
  if (started_) node_.sub_used_memory(resident_memory_);
}

void ReduceTask::update_config(const JobConfig& config) {
  // Segments already landed stay accounted under the old thresholds; the
  // new ones govern the next add_segment().
  config_.sort_spill_percent = config.sort_spill_percent;
  config_.shuffle_merge_percent = config.shuffle_merge_percent;
  config_.shuffle_memory_limit_percent = config.shuffle_memory_limit_percent;
  config_.merge_inmem_threshold = config.merge_inmem_threshold;
  config_.reduce_input_buffer_percent = config.reduce_input_buffer_percent;
  buffer_.update_live_params(config_);
}

void ReduceTask::start() {
  MRON_CHECK(!started_);
  started_ = true;
  report_.task = inputs_.task;
  report_.attempt = inputs_.attempt;
  report_.start_time = engine_.now();
  report_.config = config_;
  report_.node = node_.id();
  cpu_noise_ = rng_.lognormal_noise(inputs_.noise_cv);

  const double ws_noise = inputs_.ws_factor * rng_.lognormal_noise(0.01);
  const Bytes ws_full =
      profile_.reduce_working_set * ws_noise + buffer_.shuffle_buffer();
  committed_memory_ = ws_full;
  resident_memory_ = profile_.reduce_working_set * ws_noise +
                     buffer_.shuffle_buffer() * kAvgBufferOccupancy;
  node_.add_used_memory(resident_memory_);

  if (ws_full > mebibytes(config_.reduce_memory_mb)) {
    // Killed before it fetches anything: it never reads the log.
    oom_ = true;
    engine_.schedule_after(kOomBaseDelay, [this] { finish(/*oom=*/true); });
    return;
  }
  attach();
  // JVM/container startup before the fetchers spin up.
  engine_.schedule_after(
      profile_.task_startup_secs * rng_.lognormal_noise(0.1), [this] {
        startup_done_ = true;
        switch_phase_span("shuffle");
        const bool any_maps = log_.num_maps() > 0;
        if (auto* rec = engine_.recorder(); rec != nullptr && any_maps) {
          fetches_counter_ = &rec->metrics().counter("mr.shuffle.fetches");
          segments_counter_ =
              &rec->metrics().counter("mr.shuffle.segments");
          bytes_counter_ = &rec->metrics().counter("mr.shuffle.bytes");
        }
        if (!any_maps) {
          maybe_finish_shuffle();
        } else {
          pump_fetches();
        }
      });
}

void ReduceTask::pump_fetches() {
  while (active_visits_ < static_cast<int>(visits_.size()) &&
         ready_head_ != kNone) {
    const std::int32_t h = ready_head_;
    unlink_ready(h);
    begin_visit(h);
  }
}

void ReduceTask::begin_visit(std::int32_t h) {
  const std::int32_t v = free_visit_;
  MRON_CHECK(v != kNone);
  Visit& visit = visits_[static_cast<std::size_t>(v)];
  free_visit_ = visit.count;
  Host& host = hosts_[static_cast<std::size_t>(h)];
  host.in_flight = true;
  // Take up to kMaxSegmentsPerFetch segments from the head of the host's
  // queue: its delivered log entries from the cursor on, with each side
  // entry ahead of the log positions at or after its `at`.
  visit.host = h;
  visit.count = 0;
  visit.epoch = host.epoch;
  visit.bytes = Bytes(0);
  const std::vector<std::int32_t>& list = log_.list(h);
  const auto size = static_cast<std::int32_t>(list.size());
  while (visit.count < kMaxSegmentsPerFetch) {
    skip_undelivered(h);
    std::int32_t pos = kNone;
    if (host.side_head != kNone &&
        (host.cursor == size ||
         side_[static_cast<std::size_t>(host.side_head)].at <=
             list[static_cast<std::size_t>(host.cursor)])) {
      pos = pop_side(h);
    } else if (host.cursor < size) {
      pos = list[static_cast<std::size_t>(host.cursor++)];
    } else {
      break;
    }
    visit.entries[static_cast<std::size_t>(visit.count++)] = pos;
    held_[static_cast<std::size_t>(log_.entry(pos).map)] = true;
    visit.bytes += segment_bytes(pos);
  }
  MRON_CHECK(visit.count > 0);
  skip_undelivered(h);
  if (host.side_head == kNone && host.cursor == size) mark_empty(h);
  ++active_visits_;
  // Visits overlap on the reducer's lane, so they trace as async b/e pairs
  // keyed by a per-attempt sequence (B/E spans must nest).
  visit.trace_id = (inputs_.trace_tid << 16) | (next_fetch_seq_++ & 0xffff);
  if (auto* rec = engine_.recorder()) {
    if (rec->trace().detail()) {
      rec->trace().async_begin("shuffle_fetch", "fetch",
                               static_cast<int>(node_.id().value()),
                               visit.trace_id, engine_.now(), "segments",
                               static_cast<double>(visit.count));
    }
  }
  if (visit_observer_) {
    visit_observer_(log_.node(h),
                    std::span<const std::int32_t>(
                        visit.entries.data(),
                        static_cast<std::size_t>(visit.count)));
  }
  // Connection setup latency, then one network flow for the whole visit.
  // The source's disk is NOT charged: map outputs were written moments ago
  // and the shuffle service reads them back through the page cache, so
  // shuffle fan-in contends on the fabric, not on source spindles (see
  // DESIGN.md).
  engine_.schedule_after(kFetchLatency, [this, v] { on_visit_connected(v); });
}

void ReduceTask::on_visit_connected(std::int32_t v) {
  if (aborted_) return;
  // Never open a connection for an output the AM no longer vouches for.
  if (!drop_unavailable(v)) return;
  const Visit& visit = visits_[static_cast<std::size_t>(v)];
  if (visit.count == 0) {
    end_visit(v);
    pump_fetches();
    return;
  }
  if (visit.bytes <= Bytes(0)) {
    on_visit_done(v);
    return;
  }
  fabric_.transfer(log_.node(visit.host), node_.id(), visit.bytes,
                   [this, v] { on_visit_done(v); });
}

bool ReduceTask::drop_unavailable(std::int32_t v) {
  Visit& visit = visits_[static_cast<std::size_t>(v)];
  // Every segment of the visit was available when it was delivered, at an
  // epoch no lower than visit.epoch. Output at the source stops being
  // available only through a bump of its epoch, so an unmoved epoch
  // vouches for the whole visit.
  if (log_.host_epoch(visit.host) == visit.epoch) return true;
  const cluster::NodeId source = log_.node(visit.host);
  const std::int32_t taken = visit.count;
  std::int32_t kept = 0;
  for (std::int32_t i = 0; i < taken; ++i) {
    const std::int32_t pos = visit.entries[static_cast<std::size_t>(i)];
    const int map = log_.entry(pos).map;
    if (output_query_ ? output_query_(map, source)
                      : log_.available(map, source)) {
      visit.entries[static_cast<std::size_t>(kept++)] = pos;
      continue;
    }
    --visit.count;
    visit.bytes -= segment_bytes(pos);
    // The AM may re-deliver the map (from another node) synchronously; it
    // joins that host's queue, and this visit's slot is not free, so such
    // re-entry cannot disturb this walk.
    fail_segment(map, source);
    if (aborted_) return false;
  }
  return true;
}

void ReduceTask::fail_segment(int map_index, cluster::NodeId source) {
  held_[static_cast<std::size_t>(map_index)] = false;
  if (auto* rec = engine_.recorder()) {
    if (failures_counter_ == nullptr) {
      failures_counter_ = &rec->metrics().counter("mr.shuffle.fetch_failures");
    }
    failures_counter_->add(1.0);
  }
  if (fetch_failure_) fetch_failure_(map_index, source);
}

void ReduceTask::end_visit(std::int32_t v) {
  Visit& visit = visits_[static_cast<std::size_t>(v)];
  const std::int32_t h = visit.host;
  if (auto* rec = engine_.recorder()) {
    if (rec->trace().detail()) {
      rec->trace().async_end("shuffle_fetch", "fetch",
                             static_cast<int>(node_.id().value()),
                             visit.trace_id, engine_.now(), "bytes",
                             visit.bytes.as_double());
    }
  }
  if (visit_observer_) visit_observer_(log_.node(h), {});
  visit.host = kNone;
  visit.count = free_visit_;
  free_visit_ = v;
  --active_visits_;
  // A host with segments left re-joins the ready FIFO at the back, so
  // parallelcopies rotates over the hosts (Hadoop's freeHost()).
  Host& host = hosts_[static_cast<std::size_t>(h)];
  host.in_flight = false;
  if (host.queued) push_ready(h);
}

void ReduceTask::on_visit_done(std::int32_t v) {
  if (aborted_) return;
  // Re-check availability at completion: a source that died mid-transfer
  // delivered garbage, and its segments fail over exactly as if they had
  // never connected.
  if (!drop_unavailable(v)) return;
  const Visit& visit = visits_[static_cast<std::size_t>(v)];
  const int count = visit.count;
  const Bytes bytes = visit.bytes;
  end_visit(v);
  // The slot's entries stay intact until the next begin_visit (in
  // pump_fetches below).
  for (int i = 0; i < count; ++i) {
    accept_segment(segment_bytes(visit.entries[static_cast<std::size_t>(i)]));
  }
  fetched_maps_ += count;
  total_input_ += bytes;
  report_.counters.shuffle_bytes += bytes;
  if (count > 0 && fetches_counter_ != nullptr) {
    fetches_counter_->add(1.0);
    segments_counter_->add(static_cast<double>(count));
    bytes_counter_->add(bytes.as_double());
  }
  pump_fetches();
  maybe_finish_shuffle();
}

void ReduceTask::accept_segment(Bytes bytes) {
  const Bytes flushed = buffer_.add_segment(bytes);
  if (flushed > Bytes(0)) {
    ++outstanding_spill_writes_;
    node_.disk().submit(flushed.as_double(), [this] {
      --outstanding_spill_writes_;
      maybe_finish_shuffle();
    });
  }
}

void ReduceTask::maybe_finish_shuffle() {
  if (aborted_) return;
  if (shuffle_done_) return;
  // One copy of each map is held at a time, so every map fetched leaves
  // nothing queued.
  if (fetched_maps_ < log_.num_maps()) return;
  if (active_visits_ > 0) return;
  if (outstanding_spill_writes_ > 0) return;
  shuffle_done_ = true;
  // Nothing reads the per-map flags or the host records again, so a
  // finished attempt keeps no O(maps) state for the rest of the job.
  MRON_CHECK(ready_head_ == kNone);
  detach();

  const Bytes final_flush = buffer_.finalize();
  if (final_flush > Bytes(0)) {
    node_.disk().submit(final_flush.as_double(), [this] { phase_merge(); });
  } else {
    engine_.schedule_after(0.0, [this] { phase_merge(); });
  }
}

void ReduceTask::emit_shuffle_done(obs::CriticalPathBuilder& cp) {
  // Every completion appended since launch was delivered as a source too.
  // Stamps never decrease along the log, so the first entry stamped like
  // the newest one is the earliest of the latest, the one kept on a tie.
  const std::size_t end = log_.size();
  if (end > launch_end_) {
    const double latest =
        cp.time(log_.entry(static_cast<std::int32_t>(end - 1)).cp);
    std::size_t lo = launch_end_;
    std::size_t hi = end - 1;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (cp.time(log_.entry(static_cast<std::int32_t>(mid)).cp) < latest) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    cp_last_delivery_.offer(cp, log_.entry(static_cast<std::int32_t>(lo)).cp);
  }
  cp_last_delivery_.emit(cp, inputs_.cp_shuffle_done, inputs_.cp_start,
                         obs::Blame::ShuffleNet);
}

void ReduceTask::phase_merge() {
  if (aborted_) return;
  switch_phase_span("merge");
  // Critical path: the shuffle (all fetches + final flush) ends here. It
  // waited on the latest map delivery, or on the attempt's own start if
  // that came later.
  if (inputs_.cp_job >= 0) {
    if (auto* rec = engine_.recorder()) {
      obs::CriticalPathBuilder& cp = rec->critical_path();
      cp.stamp(inputs_.cp_shuffle_done, engine_.now(),
               static_cast<int>(node_.id().value()),
               static_cast<int>(inputs_.trace_tid));
      emit_shuffle_done(cp);
    }
  }
  report_.counters.spilled_records += buffer_.spilled_records();
  report_.counters.local_disk_write_bytes += buffer_.disk_write_bytes();

  const MergeCost mid = plan_disk_merge(
      buffer_.disk_files(), static_cast<int>(config_.io_sort_factor));
  if (auto* rec = engine_.recorder()) {
    rec->metrics().counter("mr.reduce.spill_records")
        .add(static_cast<double>(buffer_.spilled_records()));
    if (mid.write > Bytes(0)) {
      rec->metrics().counter("mr.reduce.merge_passes").add(1.0);
    }
  }
  if (mid.write > Bytes(0)) {
    report_.counters.spilled_records += static_cast<std::int64_t>(
        std::llround(mid.write.as_double() / profile_.map_record_bytes));
    report_.counters.local_disk_write_bytes += mid.write;
    report_.counters.local_disk_read_bytes += mid.read;
    node_.disk().submit((mid.read + mid.write).as_double(),
                        [this] { phase_reduce(); });
  } else {
    engine_.schedule_after(0.0, [this] { phase_reduce(); });
  }
}

void ReduceTask::phase_reduce() {
  if (aborted_) return;
  switch_phase_span("reduce");
  if (inputs_.cp_job >= 0) {
    if (auto* rec = engine_.recorder()) {
      obs::CriticalPathBuilder& cp = rec->critical_path();
      cp_merge_done_ = cp.stamped(
          inputs_.cp_job, "reduce_merge_done", engine_.now(),
          inputs_.task.index, inputs_.attempt,
          static_cast<int>(node_.id().value()),
          static_cast<int>(inputs_.trace_tid));
      cp.edge(inputs_.cp_shuffle_done, cp_merge_done_,
              obs::Blame::SpillMerge);
    }
  }
  // Final merge streams on-disk bytes into reduce(), pipelined with the
  // user CPU work over the full input.
  const Bytes on_disk = buffer_.disk_write_bytes();
  report_.counters.local_disk_read_bytes += on_disk;
  // With map-output compression the fetched bytes are compressed: user
  // reduce() work applies to the logical (decompressed) volume, plus the
  // codec's decompression cost.
  const bool compressed = config_.map_output_compress >= 0.5;
  const double logical_mib =
      compressed ? total_input_.mib() / kCodecCompressionRatio
                 : total_input_.mib();
  double cpu_work =
      logical_mib * profile_.reduce_cpu_secs_per_mib * cpu_noise_;
  if (compressed) {
    cpu_work += logical_mib * kDecompressCpuSecsPerMib * cpu_noise_;
  }

  auto remaining = std::make_shared<int>(0);
  auto arm = [this, remaining]() {
    if (--*remaining == 0) phase_write_output();
  };
  if (on_disk > Bytes(0)) {
    ++*remaining;
    node_.disk().submit(on_disk.as_double(), arm);
  }
  if (cpu_work > 0.0) {
    ++*remaining;
    const double cap = std::min(
        node_.cpu_quota(static_cast<int>(config_.reduce_cpu_vcores)),
        profile_.reduce_cpu_demand_cores);
    report_.counters.cpu_seconds += cpu_work;
    node_.cpu().submit(cpu_work, cap, arm);
  }
  if (*remaining == 0) {
    engine_.schedule_after(0.0, [this] { phase_write_output(); });
  }
}

void ReduceTask::phase_write_output() {
  if (aborted_) return;
  switch_phase_span("write");
  // Output volume follows the logical input, not the compressed wire size.
  const double codec = config_.map_output_compress >= 0.5
                           ? kCodecCompressionRatio
                           : 1.0;
  const Bytes out = total_input_ * (profile_.reduce_output_ratio / codec);
  if (out <= Bytes(0)) {
    engine_.schedule_after(0.0, [this] { finish(false); });
    return;
  }
  // DFS write: local replica on this node's disk plus one remote replica
  // over the fabric (pipelined; the slower leg paces the write).
  auto remaining = std::make_shared<int>(2);
  auto arm = [this, remaining]() {
    if (--*remaining == 0) finish(false);
  };
  node_.disk().submit(out.as_double(), arm);
  // Remote replica target: any other node, chosen by the task's RNG.
  cluster::NodeId replica = node_.id();
  if (inputs_.num_nodes > 1) {
    const std::int64_t offset = rng_.uniform_int(1, inputs_.num_nodes - 1);
    replica =
        cluster::NodeId((node_.id().value() + offset) % inputs_.num_nodes);
  }
  fabric_.transfer(node_.id(), replica, out, arm);
}

void ReduceTask::finish(bool oom) {
  if (aborted_) return;
  finished_ = true;
  switch_phase_span(nullptr);
  // reduce() + output write folded into one compute segment.
  if (!oom && inputs_.cp_job >= 0) {
    if (auto* rec = engine_.recorder()) {
      obs::CriticalPathBuilder& cp = rec->critical_path();
      const obs::CpNode done = cp.stamped(
          inputs_.cp_job, "reduce_done", engine_.now(), inputs_.task.index,
          inputs_.attempt, static_cast<int>(node_.id().value()),
          static_cast<int>(inputs_.trace_tid));
      cp.edge(cp_merge_done_, done, obs::Blame::ReduceCompute);
    }
  }
  node_.sub_used_memory(resident_memory_);
  report_.end_time = engine_.now();
  report_.failed_oom = oom;
  const double duration = std::max(report_.duration(), 1e-9);
  const double quota =
      node_.cpu_quota(static_cast<int>(config_.reduce_cpu_vcores));
  report_.cpu_util =
      std::min(1.0, report_.counters.cpu_seconds / (quota * duration));
  const double container = mebibytes(config_.reduce_memory_mb).as_double();
  report_.mem_util = resident_memory_.as_double() / container;
  report_.mem_commit = committed_memory_.as_double() / container;
  if (oom) {
    report_.counters = TaskCounters{};
    report_.mem_util = 1.0;
  }
  done_(report_);
}

}  // namespace mron::mapreduce
