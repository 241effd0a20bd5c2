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

/// Home slot of NodeId value `key` in a power-of-two table (`mask` =
/// size - 1): Fibonacci hashing, so dense node ids spread evenly.
std::size_t home_slot(std::int64_t key, std::size_t mask) {
  return static_cast<std::size_t>(
             (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> 32) &
         mask;
}
}  // namespace

ReduceTask::ReduceTask(sim::Engine& engine, cluster::Node& node,
                       cluster::Fabric& fabric, NodeResolver resolver,
                       const AppProfile& profile, const JobConfig& config,
                       const Inputs& inputs, Rng rng, Done done)
    : engine_(engine),
      node_(node),
      fabric_(fabric),
      resolver_(std::move(resolver)),
      profile_(profile),
      config_(config),
      inputs_(inputs),
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
  MRON_CHECK(inputs_.total_maps >= 0);
  segments_.resize(static_cast<std::size_t>(inputs_.total_maps));
  // parallelcopies is fixed for the attempt (update_config leaves it), so
  // the visit slots are allocated once and chained into the free list.
  const int copies =
      std::max(1, static_cast<int>(config_.shuffle_parallelcopies));
  visits_.resize(static_cast<std::size_t>(copies));
  for (int v = 0; v < copies; ++v) {
    visits_[static_cast<std::size_t>(v)].head = v + 1 < copies ? v + 1 : kNone;
  }
  free_visit_ = 0;
}

std::int32_t ReduceTask::find_host(cluster::NodeId node) const {
  if (host_index_.empty()) return kNone;
  const std::size_t mask = host_index_.size() - 1;
  for (std::size_t i = home_slot(node.value(), mask);; i = (i + 1) & mask) {
    const std::int32_t h = host_index_[i];
    if (h == kNone || hosts_[static_cast<std::size_t>(h)].node == node) {
      return h;
    }
  }
}

void ReduceTask::index_insert(std::int32_t h) {
  if (static_cast<std::size_t>(live_hosts_) * 2 > host_index_.size()) {
    // Grow to keep the load factor <= 1/2: re-place every live record, `h`
    // included (its node is already set).
    host_index_.assign(std::max<std::size_t>(16, host_index_.size() * 2),
                       kNone);
    for (std::size_t r = 0; r < hosts_.size(); ++r) {
      if (hosts_[r].node.valid()) index_place(static_cast<std::int32_t>(r));
    }
    return;
  }
  index_place(h);
}

void ReduceTask::index_place(std::int32_t h) {
  const std::size_t mask = host_index_.size() - 1;
  std::size_t i = home_slot(hosts_[static_cast<std::size_t>(h)].node.value(),
                            mask);
  while (host_index_[i] != kNone) i = (i + 1) & mask;
  host_index_[i] = h;
}

void ReduceTask::index_erase(std::int32_t h) {
  const std::size_t mask = host_index_.size() - 1;
  const auto home_of = [&](std::int32_t r) {
    return home_slot(hosts_[static_cast<std::size_t>(r)].node.value(), mask);
  };
  std::size_t i = home_of(h);
  while (host_index_[i] != h) i = (i + 1) & mask;
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole unless their home slot lies cyclically in (hole, j].
  host_index_[i] = kNone;
  for (std::size_t j = (i + 1) & mask; host_index_[j] != kNone;
       j = (j + 1) & mask) {
    const std::size_t home = home_of(host_index_[j]);
    const bool stays = i <= j ? (i < home && home <= j) : (i < home || home <= j);
    if (stays) continue;
    host_index_[i] = host_index_[j];
    host_index_[j] = kNone;
    i = j;
  }
}

std::int32_t ReduceTask::acquire_host(cluster::NodeId node) {
  std::int32_t h = find_host(node);
  if (h != kNone) return h;
  if (free_host_ != kNone) {
    h = free_host_;
    free_host_ = hosts_[static_cast<std::size_t>(h)].link;
  } else {
    h = static_cast<std::int32_t>(hosts_.size());
    hosts_.emplace_back();
  }
  hosts_[static_cast<std::size_t>(h)] = Host{};
  hosts_[static_cast<std::size_t>(h)].node = node;
  ++live_hosts_;
  index_insert(h);
  return h;
}

void ReduceTask::maybe_release_host(std::int32_t h) {
  Host& host = hosts_[static_cast<std::size_t>(h)];
  if (host.queued > 0 || host.in_flight) return;
  if (host.ready) unlink_ready(h);
  index_erase(h);
  host.node = cluster::NodeId();
  host.link = free_host_;
  free_host_ = h;
  --live_hosts_;
}

void ReduceTask::push_ready(std::int32_t h) {
  Host& host = hosts_[static_cast<std::size_t>(h)];
  host.ready = true;
  host.prev = ready_tail_;
  host.link = kNone;
  if (ready_tail_ != kNone) {
    hosts_[static_cast<std::size_t>(ready_tail_)].link = h;
  } else {
    ready_head_ = h;
  }
  ready_tail_ = h;
}

void ReduceTask::unlink_ready(std::int32_t h) {
  Host& host = hosts_[static_cast<std::size_t>(h)];
  if (host.prev != kNone) {
    hosts_[static_cast<std::size_t>(host.prev)].link = host.link;
  } else {
    ready_head_ = host.link;
  }
  if (host.link != kNone) {
    hosts_[static_cast<std::size_t>(host.link)].prev = host.prev;
  } else {
    ready_tail_ = host.prev;
  }
  host.ready = false;
  host.prev = host.link = kNone;
}

void ReduceTask::add_map_output(int map_index, cluster::NodeId source,
                                Bytes bytes, std::uint32_t epoch) {
  // Once the shuffle has closed every map is Fetched, so any delivery is a
  // duplicate; the per-map index it would be checked against is gone.
  if (shuffle_done_) return;
  MRON_CHECK(map_index >= 0 &&
             static_cast<std::size_t>(map_index) < segments_.size());
  Segment& seg = segments_[static_cast<std::size_t>(map_index)];
  // Duplicate delivery (a map re-executed after a node failure) while the
  // first copy is still accepted: ignore it. A lost copy was reset to
  // Absent by invalidate_source()/fail_segment(), so re-delivery lands
  // here with a clean slate.
  if (seg.state != SegmentState::Absent) return;
  seg = Segment{bytes, kNone, SegmentState::Queued};
  const std::int32_t h = acquire_host(source);
  Host& host = hosts_[static_cast<std::size_t>(h)];
  if (host.tail != kNone) {
    segments_[static_cast<std::size_t>(host.tail)].next = map_index;
  } else {
    host.head = map_index;
    host.epoch = epoch;
  }
  host.tail = map_index;
  ++host.queued;
  ++queued_segments_;
  if (!host.in_flight && !host.ready) push_ready(h);
  if (startup_done_ && !oom_ && !aborted_) pump_fetches();
}

void ReduceTask::invalidate_source(cluster::NodeId node) {
  if (aborted_ || finished_) return;
  // Queued segments sourced on the dead node will never connect; drop them
  // and un-accept their maps so the AM's re-delivery is taken. Segments of
  // a visit in flight are doomed by the availability re-check when its
  // transfer lands; Fetched segments are local data and survive the source.
  const std::int32_t h = find_host(node);
  if (h == kNone) return;
  Host& host = hosts_[static_cast<std::size_t>(h)];
  for (std::int32_t s = host.head; s != kNone;) {
    Segment& seg = segments_[static_cast<std::size_t>(s)];
    s = seg.next;
    seg = Segment{};
  }
  queued_segments_ -= host.queued;
  host.queued = 0;
  host.head = host.tail = kNone;
  if (host.ready) unlink_ready(h);
  maybe_release_host(h);
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
    oom_ = true;
    engine_.schedule_after(kOomBaseDelay, [this] { finish(/*oom=*/true); });
    return;
  }
  // JVM/container startup before the fetchers spin up.
  engine_.schedule_after(
      profile_.task_startup_secs * rng_.lognormal_noise(0.1), [this] {
        startup_done_ = true;
        switch_phase_span("shuffle");
        if (auto* rec = engine_.recorder(); rec != nullptr &&
                                            inputs_.total_maps > 0) {
          fetches_counter_ = &rec->metrics().counter("mr.shuffle.fetches");
          segments_counter_ =
              &rec->metrics().counter("mr.shuffle.segments");
          bytes_counter_ = &rec->metrics().counter("mr.shuffle.bytes");
        }
        if (inputs_.total_maps == 0) {
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
  free_visit_ = visit.head;
  Host& host = hosts_[static_cast<std::size_t>(h)];
  host.in_flight = true;
  // Detach up to kMaxSegmentsPerFetch segments from the head of the host's
  // queue; they stay chained through Segment::next as the visit's list.
  visit.host = h;
  visit.head = host.head;
  visit.count = 0;
  visit.epoch = host.epoch;
  visit.bytes = Bytes(0);
  std::int32_t last = kNone;
  std::int32_t s = host.head;
  while (s != kNone && visit.count < kMaxSegmentsPerFetch) {
    Segment& seg = segments_[static_cast<std::size_t>(s)];
    seg.state = SegmentState::Fetching;
    visit.bytes += seg.bytes;
    ++visit.count;
    last = s;
    s = seg.next;
  }
  MRON_CHECK(last != kNone);
  segments_[static_cast<std::size_t>(last)].next = kNone;
  host.head = s;
  if (s == kNone) host.tail = kNone;
  host.queued -= visit.count;
  queued_segments_ -= visit.count;
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
  fabric_.transfer(hosts_[static_cast<std::size_t>(visit.host)].node,
                   node_.id(), visit.bytes, [this, v] { on_visit_done(v); });
}

bool ReduceTask::drop_unavailable(std::int32_t v) {
  if (!output_query_) return true;
  Visit& visit = visits_[static_cast<std::size_t>(v)];
  const cluster::NodeId source =
      hosts_[static_cast<std::size_t>(visit.host)].node;
  // Every segment of the visit was available when it was delivered, at an
  // epoch no lower than visit.epoch. Output at `source` stops being
  // available only through a bump of its epoch, so an unmoved epoch
  // vouches for the whole visit.
  if (host_epochs_ != nullptr &&
      (*host_epochs_)[static_cast<std::size_t>(source.value())] ==
          visit.epoch) {
    return true;
  }
  std::int32_t prev = kNone;
  for (std::int32_t s = visit.head; s != kNone;) {
    Segment& seg = segments_[static_cast<std::size_t>(s)];
    const std::int32_t next = seg.next;
    if (output_query_(s, source)) {
      prev = s;
    } else {
      if (prev != kNone) {
        segments_[static_cast<std::size_t>(prev)].next = next;
      } else {
        visit.head = next;
      }
      --visit.count;
      visit.bytes -= seg.bytes;
      // The AM may re-deliver `s` (from another node) synchronously; the
      // segment is already out of this visit, and the rest of the visit
      // is still Fetching, so such re-entry cannot disturb this walk.
      fail_segment(s, source);
      if (aborted_) return false;
    }
    s = next;
  }
  return true;
}

void ReduceTask::fail_segment(int map_index, cluster::NodeId source) {
  segments_[static_cast<std::size_t>(map_index)] = Segment{};
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
  visit.host = kNone;
  visit.head = free_visit_;
  free_visit_ = v;
  --active_visits_;
  // A host with segments left re-joins the ready FIFO at the back, so
  // parallelcopies rotates over the hosts (Hadoop's freeHost()).
  Host& host = hosts_[static_cast<std::size_t>(h)];
  host.in_flight = false;
  if (host.queued > 0) {
    push_ready(h);
  } else {
    maybe_release_host(h);
  }
}

void ReduceTask::on_visit_done(std::int32_t v) {
  if (aborted_) return;
  // Re-check availability at completion: a source that died mid-transfer
  // delivered garbage, and its segments fail over exactly as if they had
  // never connected.
  if (!drop_unavailable(v)) return;
  const Visit& visit = visits_[static_cast<std::size_t>(v)];
  const std::int32_t head = visit.head;
  const int count = visit.count;
  const Bytes bytes = visit.bytes;
  end_visit(v);
  for (std::int32_t s = head; s != kNone;) {
    Segment& seg = segments_[static_cast<std::size_t>(s)];
    s = seg.next;
    seg.next = kNone;
    seg.state = SegmentState::Fetched;
    accept_segment(seg.bytes);
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
  if (fetched_maps_ < inputs_.total_maps) return;
  if (active_visits_ > 0 || queued_segments_ > 0) return;
  if (outstanding_spill_writes_ > 0) return;
  shuffle_done_ = true;
  // Every map is Fetched and every host record is free: nothing reads the
  // per-map index or the host records again, so a finished attempt keeps
  // no O(maps) state for the rest of the job.
  MRON_CHECK(live_hosts_ == 0);
  std::vector<Segment>().swap(segments_);
  std::vector<Host>().swap(hosts_);
  std::vector<std::int32_t>().swap(host_index_);
  free_host_ = kNone;

  const Bytes final_flush = buffer_.finalize();
  if (final_flush > Bytes(0)) {
    node_.disk().submit(final_flush.as_double(), [this] { phase_merge(); });
  } else {
    engine_.schedule_after(0.0, [this] { phase_merge(); });
  }
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
      cp_last_delivery_.emit(cp, inputs_.cp_shuffle_done, inputs_.cp_start,
                             obs::Blame::ShuffleNet);
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
