// Scheduling policies: which application gets the next placement attempt.
//
// The resource manager runs the placement loop; the policy only orders
// applications. FIFO serves apps in submission order; Fair serves the app
// with the smallest memory allocation (the fair-share scheduler used in the
// paper's multi-tenant experiment).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/units.h"
#include "yarn/resource.h"

namespace mron::yarn {

struct AppSchedState {
  AppId id;
  std::int64_t submit_order = 0;
  Bytes allocated_memory{0};
  std::size_t pending_requests = 0;
  bool skip = false;  ///< placement already failed for it in this pass
};

class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;
  /// Choose the next app to attempt, among those with pending requests and
  /// skip == false; nullopt ends the pass.
  [[nodiscard]] virtual std::optional<AppId> pick_next(
      const std::vector<AppSchedState>& apps) const = 0;
  [[nodiscard]] virtual const char* name() const = 0;
};

class FifoPolicy final : public SchedulingPolicy {
 public:
  [[nodiscard]] std::optional<AppId> pick_next(
      const std::vector<AppSchedState>& apps) const override;
  [[nodiscard]] const char* name() const override { return "fifo"; }
};

class FairPolicy final : public SchedulingPolicy {
 public:
  [[nodiscard]] std::optional<AppId> pick_next(
      const std::vector<AppSchedState>& apps) const override;
  [[nodiscard]] const char* name() const override { return "fair"; }
};

std::unique_ptr<SchedulingPolicy> make_fifo_policy();
std::unique_ptr<SchedulingPolicy> make_fair_policy();

}  // namespace mron::yarn
