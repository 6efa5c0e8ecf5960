#include "core/schedulers/online.hpp"

#include <cmath>
#include <limits>

namespace fedco::core {

device::Decision OnlineLyapunovScheduler::decide_scalar(std::size_t user,
                                                        sim::Slot t,
                                                        SchedulerContext& ctx) {
  OnlineDecisionInput input;
  const auto app = ctx.user_app(user);
  input.app_status = app ? device::AppStatus::kApp : device::AppStatus::kNoApp;
  input.app = app.value_or(device::AppKind::kMap);
  input.current_gap = ctx.user_gap(user);
  input.momentum_norm = momentum_norm_;  // constant within a slot, see hpp
  input.expected_lag = ctx.expected_lag(user, input.app_status, input.app, t);
  if (churn_aware_ || has_priority_) {
    input.h_scale = h_scale_for(
        ctx, user, t,
        ctx.training_end_slot(user, input.app_status, input.app, t));
  }
  return online_.decide(ctx.user_device(user), input).decision;
}

void OnlineLyapunovScheduler::decide_batch(const std::uint32_t* users,
                                           std::size_t count, sim::Slot t,
                                           SchedulerContext& ctx,
                                           DecisionSink& sink) {
  // Every idle decision at t carries the same parking promise (the next
  // evaluation slot), computed once for the batch.
  const sim::Slot until = parked_until(t);
  // Coarsened scheduling granularity (Sec. VII "Energy Overhead"): between
  // evaluation slots every device stays idle without reading any state.
  if (decision_interval_slots_ > 1 && t % decision_interval_slots_ != 0) {
    for (std::size_t k = 0; k < count; ++k) {
      sink.idle_until(users[k], until);
    }
    return;
  }
  if (!batch_enabled_) {
    // The scalar reference: Eq. (21) per user from the context accessors.
    for (std::size_t k = 0; k < count; ++k) {
      if (decide_scalar(users[k], t, ctx) == device::Decision::kSchedule) {
        sink.schedule(users[k]);
      } else {
        sink.idle_until(users[k], until);
      }
    }
    return;
  }
  // Slot-invariant terms, hoisted once: the queue backlogs only move at
  // on_slot_end and ||v_t|| is the on_slot_begin cache, so these are the
  // same doubles the scalar path re-reads per user.
  const double q = online_.queues().q();
  const double h = online_.queues().h();
  const double momentum = momentum_norm_;
  // Fresh for every due user: the prefill below refreshes the due rows from
  // the closed form.
  const double* gaps = ctx.gap_values();
  // One driver pass fills the per-user session column and lag query point;
  // the decision loop then runs over flat arrays, with the single
  // remaining per-user consult being the lag count (which must observe
  // earlier schedules in this very batch — the intra-slot coupling).
  app_col_.resize(count);
  end_slot_.resize(count);
  ctx.fill_decide_inputs(users, count, t, app_col_.data(), end_slot_.data());
  for (std::size_t k = 0; k < count; ++k) {
    if (k + 8 < count) {
      // Sparse ascending user indices defeat the hardware prefetcher on
      // these two per-user columns; hint the next iterations' lines.
      __builtin_prefetch(&gaps[users[k + 8]]);
      __builtin_prefetch(&user_power_[users[k + 8]]);
    }
    const std::uint32_t user = users[k];
    const PowerPair& power = user_power_[user][app_col_[k]];
    const double lag = ctx.lag_count_at(end_slot_[k]);
    // Same h * scale product as the scalar path's queues_.h() * h_scale —
    // the batched-vs-scalar goldens stay pinned in the churn/VIP modes too.
    const double h_eff = churn_aware_ || has_priority_
                             ? h * h_scale_for(ctx, user, t, end_slot_[k])
                             : h;
    if (online_.decide_batched(power.schedule, power.idle, gaps[user], lag,
                               momentum, q, h_eff) ==
        device::Decision::kSchedule) {
      sink.schedule(user);
    } else {
      sink.idle_until(user, until);
    }
  }
}

bool OnlineLyapunovScheduler::idle_screen(
    sim::Slot t, const std::array<double, kDecideClasses>& class_lag,
    std::size_t lag_headroom, IdleScreen& screen) {
  // The floors assume decide_batch's arithmetic with one H(t) for every
  // user; the per-user h_scale modes and the scalar reference opt out,
  // and off-interval slots idle the whole batch without evaluating it.
  if (!batch_enabled_ || churn_aware_ || has_priority_) return false;
  if (decision_interval_slots_ > 1 && t % decision_interval_slots_ != 0) {
    return false;
  }
  const double q = online_.queues().q();
  const double h = online_.queues().h();
  const double momentum = momentum_norm_;
  if (!std::isfinite(q) || !std::isfinite(h) || !std::isfinite(momentum)) {
    return false;
  }
  for (std::size_t k = 0; k < device::kDeviceKinds; ++k) {
    for (std::size_t a = 0; a < kDecideColumns; ++a) {
      const std::size_t c = k * kDecideColumns + a;
      // With h > 0 the schedule cost grows with the lag, so the floor at
      // the slot-start lag holds for the whole phase only where the
      // amplification is non-decreasing up to the largest reachable lag.
      // (h == 0 drops the lag from the cost altogether.)
      if (h > 0.0 && !online_.amplification_monotone_through(
                         class_lag[c] + static_cast<double>(lag_headroom))) {
        screen.floor[c] = -std::numeric_limits<double>::infinity();
        continue;
      }
      screen.floor[c] =
          online_.idle_floor(power_[k][a].schedule, power_[k][a].idle,
                             class_lag[c], momentum, q, h);
    }
  }
  screen.parked_until = parked_until(t);
  return true;
}

}  // namespace fedco::core
