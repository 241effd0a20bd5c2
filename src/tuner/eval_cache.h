// Memoized candidate-evaluation cache for the tuning loops.
//
// The model-driven searchers (the what-if optimizer's restart chains, the
// GA's seeding/generation waves) re-score configurations they have already
// seen: parameter quantization and clamp_constraints() collapse nearby
// samples onto the same point, and restart chains revisit each other's
// territory. EvalCache<V> memoizes those
// pure evaluations behind a canonical key so duplicates cost a hash lookup
// instead of a model call — wall-clock changes, results never do, because a
// hit returns exactly what the miss would have computed.
//
// Keys are built with CacheKey: the full quantized word sequence is stored
// and compared on lookup (not just a digest), so a hash collision can never
// return the wrong value — required for the byte-identical-winners contract.
// The cache is sharded and lock-striped, safe under ParallelRunner fan-out;
// per-process hit/miss/evict totals aggregate into a global stats block
// (eval_cache_global_stats()).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/units.h"
#include "mapreduce/params.h"

namespace mron::tuner {

/// Process-wide switch behind --no-eval-cache (and the MRON_NO_EVAL_CACHE
/// environment variable, so ctest/CI runs can A/B without flag plumbing).
/// Caching never changes results, so flipping this mid-run is safe.
[[nodiscard]] bool eval_cache_enabled();
void set_eval_cache_enabled(bool enabled);

struct EvalCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;

  [[nodiscard]] std::uint64_t lookups() const { return hits + misses; }
  [[nodiscard]] double hit_rate() const {
    return lookups() == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(lookups());
  }
};

/// Cumulative stats across every EvalCache in the process.
[[nodiscard]] EvalCacheStats eval_cache_global_stats();
void reset_eval_cache_global_stats();

/// Canonical quantized key: a sequence of 64-bit words (doubles are stored
/// by bit pattern after normalizing -0.0) plus an FNV-1a digest for shard
/// and bucket selection. Equality compares the full word sequence.
class CacheKey {
 public:
  void add(double v);
  void add(std::int64_t v);
  void add(int v) { add(static_cast<std::int64_t>(v)); }
  void add(std::uint64_t v) { add_word(v); }
  void add(Bytes b) { add(b.count()); }
  void add(bool v) { add(std::int64_t{v ? 1 : 0}); }

  /// Canonicalize `cfg` (clamp_constraints — the same projection every
  /// evaluator applies) and append each registry parameter's value, so two
  /// configs that evaluate identically key identically.
  void add_config(const mapreduce::ParamRegistry& registry,
                  mapreduce::JobConfig cfg);

  /// Same canonicalization, but append every JobConfig field directly in
  /// declaration order — a superset of any registry's view, with no
  /// per-parameter indirection. This is the hot-path form: the what-if
  /// search builds ~6k keys per optimize call, and the registry walk was
  /// a measurable fraction of a (closed-form, sub-microsecond) model call.
  void add_config(const mapreduce::JobConfig& cfg);

  [[nodiscard]] std::uint64_t hash() const { return hash_; }
  [[nodiscard]] std::size_t size_words() const { return words_.size(); }

  /// Reset to the empty key, keeping the word storage's capacity — lets a
  /// reused (e.g. thread_local) key build allocation-free in steady state.
  void clear() {
    words_.clear();
    hash_ = 14695981039346656037ULL;
  }

  friend bool operator==(const CacheKey& a, const CacheKey& b) {
    return a.hash_ == b.hash_ && a.words_ == b.words_;
  }

 private:
  void add_word(std::uint64_t w);

  std::vector<std::uint64_t> words_;
  std::uint64_t hash_ = 14695981039346656037ULL;  // FNV-1a offset basis
};

inline constexpr std::size_t kDefaultEvalCacheCapacity = 1 << 14;
inline constexpr std::size_t kDefaultEvalCacheShards = 16;

namespace internal {
void note_global(std::uint64_t hits, std::uint64_t misses,
                 std::uint64_t insertions, std::uint64_t evictions);
}  // namespace internal

/// Sharded, lock-striped LRU map from CacheKey to V. Lookups refresh
/// recency; insertion past a shard's capacity evicts that shard's
/// least-recently-used entry. Values are returned by copy (they are small:
/// a score or a Prediction).
template <typename V>
class EvalCache {
 public:
  explicit EvalCache(std::size_t capacity = kDefaultEvalCacheCapacity,
                     std::size_t shards = kDefaultEvalCacheShards)
      : shards_(shards == 0 ? 1 : shards) {
    per_shard_capacity_ =
        std::max<std::size_t>(1, capacity / shards_.size());
    // A cache typically lives for one search call and fills from empty;
    // pre-sizing the bucket arrays avoids repeated rehash-and-relink of
    // every node on the insert-heavy warmup path.
    for (Shard& sh : shards_) sh.index.reserve(per_shard_capacity_);
  }

  EvalCache(const EvalCache&) = delete;
  EvalCache& operator=(const EvalCache&) = delete;

  [[nodiscard]] std::optional<V> lookup(const CacheKey& key) {
    Shard& sh = shard_for(key);
    std::lock_guard<std::mutex> lock(sh.mu);
    auto [first, last] = sh.index.equal_range(key.hash());
    for (auto it = first; it != last; ++it) {
      if (it->second->first == key) {
        sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
        ++sh.stats.hits;
        internal::note_global(1, 0, 0, 0);
        return it->second->second;
      }
    }
    ++sh.stats.misses;
    internal::note_global(0, 1, 0, 0);
    return std::nullopt;
  }

  void insert(const CacheKey& key, const V& value) {
    Shard& sh = shard_for(key);
    std::lock_guard<std::mutex> lock(sh.mu);
    auto [first, last] = sh.index.equal_range(key.hash());
    for (auto it = first; it != last; ++it) {
      // Another thread computed the same key first; keep its entry (the
      // values are identical by the purity contract).
      if (it->second->first == key) return;
    }
    sh.lru.emplace_front(key, value);
    sh.index.emplace(key.hash(), sh.lru.begin());
    ++sh.stats.insertions;
    std::uint64_t evicted = 0;
    while (sh.lru.size() > per_shard_capacity_) {
      erase_index_entry(sh, std::prev(sh.lru.end()));
      sh.lru.pop_back();
      ++sh.stats.evictions;
      ++evicted;
    }
    internal::note_global(0, 0, 1, evicted);
  }

  /// Memoize: return the cached value or compute, insert, and return it.
  /// `fn` runs outside the shard lock (evaluations can be slow); concurrent
  /// misses on one key may both compute, which is benign — the values are
  /// equal and the second insert is dropped.
  template <typename Fn>
  V get_or_compute(const CacheKey& key, Fn&& fn) {
    if (auto hit = lookup(key)) return *std::move(hit);
    V value = std::forward<Fn>(fn)();
    insert(key, value);
    return value;
  }

  [[nodiscard]] EvalCacheStats stats() const {
    EvalCacheStats total;
    for (const Shard& sh : shards_) {
      std::lock_guard<std::mutex> lock(sh.mu);
      total.hits += sh.stats.hits;
      total.misses += sh.stats.misses;
      total.insertions += sh.stats.insertions;
      total.evictions += sh.stats.evictions;
    }
    return total;
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const Shard& sh : shards_) {
      std::lock_guard<std::mutex> lock(sh.mu);
      n += sh.lru.size();
    }
    return n;
  }

 private:
  using Entry = std::pair<CacheKey, V>;
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  ///< most-recently-used first
    /// hash -> list node; full-key compare disambiguates collisions.
    std::unordered_multimap<std::uint64_t, typename std::list<Entry>::iterator>
        index;
    EvalCacheStats stats;
  };

  Shard& shard_for(const CacheKey& key) {
    // The low bits pick the bucket inside the shard's multimap; use the
    // high bits for shard choice so the two are independent.
    return shards_[(key.hash() >> 48) % shards_.size()];
  }

  static void erase_index_entry(Shard& sh,
                                typename std::list<Entry>::iterator node) {
    auto [first, last] = sh.index.equal_range(node->first.hash());
    for (auto it = first; it != last; ++it) {
      if (it->second == node) {
        sh.index.erase(it);
        return;
      }
    }
  }

  std::vector<Shard> shards_;
  std::size_t per_shard_capacity_ = kDefaultEvalCacheCapacity;
};

}  // namespace mron::tuner
