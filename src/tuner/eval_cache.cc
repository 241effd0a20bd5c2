#include "tuner/eval_cache.h"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

namespace mron::tuner {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

bool enabled_from_env() {
  const char* v = std::getenv("MRON_NO_EVAL_CACHE");
  return v == nullptr || std::strcmp(v, "0") == 0;
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{enabled_from_env()};
  return flag;
}

struct GlobalStats {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> insertions{0};
  std::atomic<std::uint64_t> evictions{0};
};

GlobalStats& global_stats() {
  static GlobalStats stats;
  return stats;
}

}  // namespace

bool eval_cache_enabled() {
  return enabled_flag().load(std::memory_order_relaxed);
}

void set_eval_cache_enabled(bool enabled) {
  enabled_flag().store(enabled, std::memory_order_relaxed);
}

EvalCacheStats eval_cache_global_stats() {
  const GlobalStats& g = global_stats();
  EvalCacheStats out;
  out.hits = g.hits.load(std::memory_order_relaxed);
  out.misses = g.misses.load(std::memory_order_relaxed);
  out.insertions = g.insertions.load(std::memory_order_relaxed);
  out.evictions = g.evictions.load(std::memory_order_relaxed);
  return out;
}

void reset_eval_cache_global_stats() {
  GlobalStats& g = global_stats();
  g.hits.store(0, std::memory_order_relaxed);
  g.misses.store(0, std::memory_order_relaxed);
  g.insertions.store(0, std::memory_order_relaxed);
  g.evictions.store(0, std::memory_order_relaxed);
}

void CacheKey::add_word(std::uint64_t w) {
  words_.push_back(w);
  // Plain FNV-1a: already order-sensitive (each word is folded into the
  // running product), and a weak digest can only cost an extra full-key
  // compare, never a wrong value. One multiply per word keeps the ~14-word
  // config-key latency chain half what the old position-mixing round was.
  hash_ = (hash_ ^ w) * kFnvPrime;
}

void CacheKey::add(double v) {
  // Normalize -0.0 so it keys like +0.0 (they evaluate identically).
  if (v == 0.0) v = 0.0;
  add_word(std::bit_cast<std::uint64_t>(v));
}

void CacheKey::add(std::int64_t v) {
  add_word(static_cast<std::uint64_t>(v));
}

void CacheKey::add_config(const mapreduce::ParamRegistry& registry,
                          mapreduce::JobConfig cfg) {
  mapreduce::clamp_constraints(cfg);
  for (std::size_t i = 0; i < registry.size(); ++i) {
    add(registry.get(cfg, i));
  }
}

void CacheKey::add_config(const mapreduce::JobConfig& cfg) {
  static_assert(sizeof(mapreduce::JobConfig) == 15 * sizeof(double),
                "JobConfig changed: key every new field here");
  mapreduce::JobConfig c = cfg;
  mapreduce::clamp_constraints(c);
  add(c.map_memory_mb);
  add(c.reduce_memory_mb);
  add(c.io_sort_mb);
  add(c.sort_spill_percent);
  add(c.shuffle_input_buffer_percent);
  add(c.shuffle_merge_percent);
  add(c.shuffle_memory_limit_percent);
  add(c.merge_inmem_threshold);
  add(c.reduce_input_buffer_percent);
  add(c.map_cpu_vcores);
  add(c.reduce_cpu_vcores);
  add(c.io_sort_factor);
  add(c.shuffle_parallelcopies);
  add(c.map_output_compress);
  add(c.dfs_replication);
}

namespace internal {

void note_global(std::uint64_t hits, std::uint64_t misses,
                 std::uint64_t insertions, std::uint64_t evictions) {
  GlobalStats& g = global_stats();
  if (hits != 0) g.hits.fetch_add(hits, std::memory_order_relaxed);
  if (misses != 0) g.misses.fetch_add(misses, std::memory_order_relaxed);
  if (insertions != 0) {
    g.insertions.fetch_add(insertions, std::memory_order_relaxed);
  }
  if (evictions != 0) {
    g.evictions.fetch_add(evictions, std::memory_order_relaxed);
  }
}

}  // namespace internal

}  // namespace mron::tuner
