// Offline (oracle) scheduling: every `offline_window_slots` the scheme runs
// the Sec. IV knapsack planner over the ready users with oracle knowledge of
// their in-window app arrivals, and caches one plan per user (its
// scheme-owned state): schedule now, wait for the app and co-run, or defer
// to the next window. One OfflinePlanner serves every window replan.
#pragma once

#include <vector>

#include "core/offline_planner.hpp"
#include "core/scheduler.hpp"

namespace fedco::core {

class OfflineScheduler final : public Scheduler {
 public:
  explicit OfflineScheduler(const ExperimentConfig& config);

  /// Users start deferred until the first window plan runs.
  void on_experiment_begin(SchedulerContext& ctx) override;

  /// Window boundary: replan all currently-ready users.
  void on_slot_begin(sim::Slot t, SchedulerContext& ctx) override;

  /// Freshly ready users wait for the next window plan.
  void on_user_ready(std::size_t user, sim::Slot t,
                     SchedulerContext& ctx) override;

  /// Follow the cached window plan: schedule once its start slot is
  /// reached, otherwise idle. The plan pins the decision stream until the
  /// next window boundary, so an idle user is parked until the boundary
  /// (deferred) or its planned start slot (wait-for-app) instead of being
  /// re-consulted every slot.
  void decide_batch(const std::uint32_t* users, std::size_t count, sim::Slot t,
                    SchedulerContext& ctx, DecisionSink& sink) override;

 private:
  OfflinePlanner planner_;
  sim::Slot window_slots_;
  std::vector<OfflineUserPlan> plans_;  ///< scheme state, one slot per user
};

}  // namespace fedco::core
