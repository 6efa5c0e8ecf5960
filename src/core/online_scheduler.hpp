// The distributed online scheduler (Algorithm 2): per-slot, per-user
// drift-plus-penalty minimisation
//
//   alpha_i(t) = argmin  V*P_i(t) - Q(t)*b_i(t) + H(t)*g_i(t, t+tau_i)
//
// specialised into the no-staleness branch (Eq. 22) when H(t)*g == 0 and the
// with-staleness branch (Eq. 23) otherwise. Each user's evaluation is O(1);
// the server only supplies the lag estimate (privacy discussion, Sec. V-A).
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "core/queues.hpp"
#include "device/power_model.hpp"
#include "fl/staleness.hpp"

namespace fedco::core {

struct OnlineSchedulerConfig {
  double V = 4000.0;        ///< energy-vs-staleness control knob
  double lb = 500.0;        ///< staleness bound Lb (virtual-queue service)
  double epsilon = 0.05;    ///< per-slot idle gap increment (Eq. 12)
  double slot_seconds = 1.0;
  double eta = 0.05;        ///< learning rate (Eq. 4)
  double beta = 0.9;        ///< momentum coefficient (Eq. 4)
};

/// Everything a user needs to evaluate Eq. (21) for itself at slot t.
struct OnlineDecisionInput {
  device::AppStatus app_status = device::AppStatus::kNoApp;
  device::AppKind app = device::AppKind::kMap;  ///< valid when app_status==kApp
  double current_gap = 0.0;     ///< accumulated g_i(t-1, t+tau-1)
  double expected_lag = 0.0;    ///< l_{d_i} supplied by the server
  double momentum_norm = 0.0;   ///< ||v_t||_2
  /// Per-user discount/boost on the H(t) staleness term: the churn-aware
  /// remaining-presence factor times the user's priority weight. 1.0 (the
  /// default) is the exact identity — h * 1.0 == h bit for bit, so
  /// oblivious runs stay on the committed goldens.
  double h_scale = 1.0;
};

/// Detailed outcome of one decision evaluation (exposed for tests/benches).
struct OnlineDecisionOutcome {
  device::Decision decision = device::Decision::kIdle;
  double cost_schedule = 0.0;
  double cost_idle = 0.0;
  double gap_if_scheduled = 0.0;  ///< Eq. (4) value used on the schedule branch
};

class OnlineScheduler {
 public:
  explicit OnlineScheduler(OnlineSchedulerConfig config)
      : config_(config), queues_(config.lb) {}

  /// Evaluate Eq. (21) for one user given the current queue backlogs
  /// (the distributed implementation of Algorithm 2: each user computes
  /// this locally from its own app status plus the server-supplied lag).
  [[nodiscard]] OnlineDecisionOutcome decide(
      const device::DeviceProfile& dev, const OnlineDecisionInput& input) const {
    // Power levels of the two candidate actions under the current app
    // status (Eq. 10).
    const double p_schedule = device::power_w(
        dev, device::Decision::kSchedule, input.app_status, input.app);
    const double p_idle = device::power_w(dev, device::Decision::kIdle,
                                          input.app_status, input.app);
    return evaluate(p_schedule, p_idle, input.current_gap, input.expected_lag,
                    input.momentum_norm, queues_.q(),
                    queues_.h() * input.h_scale);
  }

  /// Batched core of decide() for the one-pass Sec. V-A evaluation: the
  /// caller hoists the slot-invariant queue backlogs and precomputes the
  /// two candidate power levels (the same device::power_w values decide()
  /// derives per call), and this evaluates Eq. (21) with arithmetic
  /// identical to decide() — the batched-vs-scalar golden suite pins the
  /// two paths to the same fingerprints.
  [[nodiscard]] device::Decision decide_batched(double p_schedule,
                                                double p_idle,
                                                double current_gap,
                                                double expected_lag,
                                                double momentum_norm, double q,
                                                double h) const {
    return evaluate(p_schedule, p_idle, current_gap, expected_lag,
                    momentum_norm, q, h)
        .decision;
  }

  /// Idle floor of the Eq. (21) rule at a fixed lag: the smallest double
  /// gap g at which evaluate() schedules — found by bisection over the
  /// ordered doubles with evaluate() itself as the predicate, never by a
  /// derived margin. For h >= 0 the idle cost is non-decreasing in g, so
  /// every gap below the floor decides kIdle at `lag`, and — while
  /// amplification() is non-decreasing (see amplification_monotone_through)
  /// — at every larger lag too. h == 0 makes the decision independent of
  /// the gap: -inf when it schedules, +inf when it idles. A negative or NaN
  /// h returns -inf (no floor).
  [[nodiscard]] double idle_floor(double p_schedule, double p_idle, double lag,
                                  double momentum_norm, double q,
                                  double h) const;

  /// Is amplification() non-decreasing over the integral lags [0, hi]?
  /// Every value up to `hi` is computed and compared once (monotonicity of
  /// the platform's pow is not assumed). False when `hi` lies past the memo
  /// ceiling or a decrease was found at or below it.
  [[nodiscard]] bool amplification_monotone_through(double hi) const;

  /// End-of-slot queue update (server side of Algorithm 2).
  void update_queues(double arrivals, double served, double sum_gaps) noexcept {
    queues_.step(arrivals, served, sum_gaps);
  }

  [[nodiscard]] const LyapunovQueues& queues() const noexcept { return queues_; }

 private:
  /// Eq. (4) momentum amplification (1 - beta^lag) / (1 - beta), memoized
  /// for integral lags. Server lag estimates are counts, so decide() —
  /// called once per ready user per slot — would otherwise spend most of
  /// its time in std::pow. The cache stores the exact values
  /// fl::momentum_amplification returns (same call, same arguments), so
  /// decisions are bit-identical with or without a hit.
  [[nodiscard]] double amplification(double lag) const;

  /// The Eq. (21)/(22)/(23) evaluation both decide() and decide_batched()
  /// share — one definition so the scalar and batched paths cannot drift.
  [[nodiscard]] OnlineDecisionOutcome evaluate(double p_schedule,
                                               double p_idle,
                                               double current_gap,
                                               double expected_lag,
                                               double momentum_norm, double q,
                                               double h) const {
    OnlineDecisionOutcome out;
    const double td = config_.slot_seconds;
    // Gap realised by scheduling now: the Eq. (4) closed form with the lag
    // the server expects over this user's training duration (the
    // amplification factor memoized — bit-identical to fl::gradient_gap).
    out.gap_if_scheduled = std::abs(config_.eta) *
                           amplification(expected_lag) *
                           std::abs(momentum_norm);
    // Gap realised by idling: accumulate epsilon (Eq. 12).
    const double gap_if_idle = current_gap + config_.epsilon;
    // Eq. (23); when h == 0 this degenerates to the Eq. (22) branch.
    out.cost_schedule = config_.V * p_schedule * td - q + h * out.gap_if_scheduled;
    out.cost_idle = config_.V * p_idle * td + h * gap_if_idle;
    out.decision = out.cost_schedule <= out.cost_idle
                       ? device::Decision::kSchedule
                       : device::Decision::kIdle;
    return out;
  }

  OnlineSchedulerConfig config_;
  LyapunovQueues queues_;
  mutable std::vector<double> amp_cache_;  ///< index = integral lag
  /// amplification_monotone_through state: lags [0, amp_checked_) are
  /// non-decreasing, the last of them amplifies by amp_checked_last_;
  /// amp_dropped_ once lag amp_checked_ was found below (or unordered
  /// with) it — the check never extends past a drop.
  mutable std::size_t amp_checked_ = 0;
  mutable double amp_checked_last_ = 0.0;
  mutable bool amp_dropped_ = false;
};

}  // namespace fedco::core
