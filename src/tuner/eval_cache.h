// Evaluation-cache statistics, kept only for jobbench, its one reader.
//
// No shared evaluation cache exists any more: the what-if search calls
// predict() directly and the GA memoizes fitness per tune() call. The
// stats below are therefore always zero.
#pragma once

#include <cstdint>

namespace mron::tuner {

struct EvalCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  [[nodiscard]] std::uint64_t lookups() const { return hits + misses; }
};

[[nodiscard]] inline EvalCacheStats eval_cache_global_stats() { return {}; }

}  // namespace mron::tuner
