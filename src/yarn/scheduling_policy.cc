#include "yarn/scheduling_policy.h"

namespace mron::yarn {

std::optional<AppId> FifoPolicy::pick_next(
    const std::vector<AppSchedState>& apps) const {
  const AppSchedState* best = nullptr;
  for (const auto& app : apps) {
    if (app.pending_requests == 0 || app.skip) continue;
    if (best == nullptr || app.submit_order < best->submit_order) {
      best = &app;
    }
  }
  if (best == nullptr) return std::nullopt;
  return best->id;
}

std::optional<AppId> FairPolicy::pick_next(
    const std::vector<AppSchedState>& apps) const {
  const AppSchedState* best = nullptr;
  double best_share = 0.0;
  for (const auto& app : apps) {
    if (app.pending_requests == 0 || app.skip) continue;
    const double share = app.allocated_memory.as_double();
    if (best == nullptr || share < best_share ||
        (share == best_share && app.submit_order < best->submit_order)) {
      best = &app;
      best_share = share;
    }
  }
  if (best == nullptr) return std::nullopt;
  return best->id;
}

std::unique_ptr<SchedulingPolicy> make_fifo_policy() {
  return std::make_unique<FifoPolicy>();
}
std::unique_ptr<SchedulingPolicy> make_fair_policy() {
  return std::make_unique<FairPolicy>();
}

}  // namespace mron::yarn
