#include "core/schedulers/sync_sgd.hpp"

namespace fedco::core {

void SyncSgdScheduler::on_slot_begin(sim::Slot t, SchedulerContext& ctx) {
  // The round closes when every present user reached the barrier. Absent
  // (churned-out) users cannot contribute and must not gate it, and an
  // empty barrier (fleet momentarily empty) has nothing to aggregate. The
  // driver maintains both counts incrementally, so the historical per-slot
  // fleet scan is now two O(1) reads.
  if (ctx.active_present_count() != 0) return;  // straggler still running
  if (ctx.barrier_count() == 0) return;         // nothing staged
  ctx.aggregate_round(t);
}

void SyncSgdScheduler::decide_batch(const std::uint32_t* users,
                                    std::size_t count, sim::Slot t,
                                    SchedulerContext& ctx, DecisionSink& sink) {
  (void)t;
  (void)ctx;
  // Schedule as soon as ready: rounds align on the barrier because all
  // users become ready together after the round's model transfer.
  for (std::size_t k = 0; k < count; ++k) sink.schedule(users[k]);
}

}  // namespace fedco::core
