// The pluggable scheduling-strategy interface.
//
// The experiment driver (core/experiment.cpp) advances a scheme-agnostic
// slot loop — devices, app arrivals, queues, energy meters, and the
// parameter server — and delegates every scheme-specific decision to a
// `Scheduler` implementation living in src/core/schedulers/. The four
// schemes the paper compares (Sec. VII-B) each implement this interface:
//
//   immediate  — train as soon as ready (energy upper bound)
//   sync_sgd   — FedAvg round barrier [2]
//   offline    — windowed knapsack oracle (Sec. IV, Algorithm 1)
//   online     — Lyapunov drift-plus-penalty (Sec. V, Algorithm 2)
//
// Contract (the §6 determinism contract extends to strategies):
//  * A strategy must be deterministic in the experiment config — it may
//    keep arbitrary scheme-owned state but must not consume driver RNG
//    streams or depend on wall-clock/thread identity.
//  * Hooks are invoked in a fixed per-slot order: completions (including
//    `on_user_ready` for users finishing their transfer) -> `on_slot_begin`
//    -> `idle_screen` (optional per-class idle floors; users below them
//    are settled idle by the driver) -> one `decide_batch` call over the
//    remaining due ready users in user-index order -> energy/gap
//    accounting -> `on_slot_end`.
//  * `queue_q`/`queue_h` are sampled once per slot after `on_slot_end` and
//    must be cheap; schemes without Lyapunov queues report 0.
//  * The driver is event-driven (DESIGN.md §9): per-user state read through
//    the context accessors is materialized lazily on access, so a strategy
//    must never assume the driver refreshed the whole fleet this slot —
//    fleet-wide conclusions come from the O(1) counters (barrier_count,
//    active_present_count). Every idle outcome carries a parking promise
//    (DecisionSink::idle_until): the driver re-consults the user no earlier
//    than the promised slot, so strategies that can promise an idle span
//    (a cached window plan, a decision interval) take per-slot work off the
//    driver's hot path.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "apps/arrival.hpp"
#include "core/experiment.hpp"
#include "device/power_model.hpp"
#include "device/profiles.hpp"
#include "sim/clock.hpp"

namespace fedco::core {

/// Decision classes of the idle screen: (device kind, co-run column), the
/// column being the foreground app kind or kAppKinds for no app — the
/// app_column fill_decide_inputs writes. Class index =
/// device kind * kDecideColumns + column.
inline constexpr std::size_t kDecideColumns = device::kAppKinds + 1;
inline constexpr std::size_t kDecideClasses =
    device::kDeviceKinds * kDecideColumns;

/// A strategy's per-slot idle screen (Scheduler::idle_screen).
struct IdleScreen {
  /// Per-class gap floor: a due user of class c whose gap is below
  /// floor[c] decides kIdle this slot.
  std::array<double, kDecideClasses> floor{};
  /// The idle_until promise of every screened user this slot.
  sim::Slot parked_until = 0;
};

/// The driver-side view a strategy sees. Implemented by the experiment
/// driver; exposes read access to per-user simulation state plus the two
/// services a scheme may request (the sync aggregation round and the
/// offline oracle's arrival look-ahead).
class SchedulerContext {
 public:
  virtual ~SchedulerContext() = default;

  [[nodiscard]] virtual std::size_t num_users() const noexcept = 0;

  /// Is the user idle and eligible for a scheduling decision this slot?
  [[nodiscard]] virtual bool user_ready(std::size_t user) const = 0;
  /// Is the user inside its scenario presence window this slot (or still
  /// draining in-flight work)? Homogeneous fleets: always true. Schemes
  /// must not wait on (or plan for) absent users — a churned-out user at a
  /// round barrier would otherwise deadlock the round.
  [[nodiscard]] virtual bool user_present(std::size_t user,
                                          sim::Slot t) const = 0;
  /// Users currently parked at the synchronous round barrier — maintained
  /// incrementally by the driver, O(1) per slot (the event-driven
  /// replacement for scanning the fleet each slot).
  [[nodiscard]] virtual std::size_t barrier_count() const noexcept = 0;
  /// Present users NOT at the barrier (idle, training, or transferring) as
  /// of the current slot — the sync barrier's stragglers, O(1).
  [[nodiscard]] virtual std::size_t active_present_count() const noexcept = 0;
  [[nodiscard]] virtual const device::DeviceProfile& user_device(
      std::size_t user) const = 0;
  /// Foreground app currently on screen, if any. Non-const: the driver
  /// materializes the user's lazy session machine through the current slot
  /// on access.
  [[nodiscard]] virtual std::optional<device::AppKind> user_app(
      std::size_t user) = 0;
  /// Accumulated gradient gap g_i (Eq. 12) of the user, as of the end of
  /// the previous slot (evaluated from the driver's folded closed form).
  [[nodiscard]] virtual double user_gap(std::size_t user) const = 0;
  /// Flat per-user gap array behind user_gap() — the SoA view batched
  /// decide passes read instead of one virtual call per user. Exact only
  /// for the due users of the current decide_batch: fill_decide_inputs
  /// refreshes their rows from the closed form. Other rows may be stale,
  /// so any other read must go through user_gap().
  [[nodiscard]] virtual const double* gap_values() const noexcept = 0;
  /// Server-side momentum norm ||v_t|| (real or synthetic model).
  [[nodiscard]] virtual double momentum_norm() const = 0;
  /// Server lag estimate l_{d_i} (Algorithm 2, line 4): currently-training
  /// users that will apply an update while `user` would be training.
  /// Precondition: `user` must not itself be mid-training-session — the
  /// driver answers from an index of in-flight sessions that would count
  /// the caller's own session. Call it only for users being *considered*
  /// for scheduling (a decide_batch evaluation), which is also the only
  /// place the estimate is meaningful.
  [[nodiscard]] virtual double expected_lag(std::size_t user,
                                            device::AppStatus status,
                                            device::AppKind app,
                                            sim::Slot t) const = 0;

  /// End of the user's current presence window (scenario::kNeverLeaves for
  /// homogeneous fleets and never-churning users).
  [[nodiscard]] virtual sim::Slot user_leave_slot(std::size_t user) const = 0;
  /// Scheduling weight of the user (PerUserConfig::priority; 1.0 =
  /// standard).
  [[nodiscard]] virtual double user_priority(std::size_t user) const = 0;
  /// End slot of a training session started at `t` in the given app
  /// context — t + the user's Table II duration in slots, the same
  /// arithmetic fill_decide_inputs writes into end_slot[].
  [[nodiscard]] virtual sim::Slot training_end_slot(std::size_t user,
                                                    device::AppStatus status,
                                                    device::AppKind app,
                                                    sim::Slot t) const = 0;

  /// Batched decide-input prefill for a due batch at slot `t` (ascending
  /// user order — the decide_batch hot path). For each users[k] the driver
  /// materializes the live session through t (exactly user_app) and writes
  /// the co-run column — the app kind, or device::kAppKinds for no app —
  /// into app_column[k], and the end slot of a training session started now
  /// in that context (t + the user's Table II duration in slots, the
  /// expected_lag query point) into end_slot[k]. Gap rows behind
  /// gap_values() are refreshed as by user_gap(). One tight pass over
  /// driver state instead of two virtual consults per user.
  virtual void fill_decide_inputs(const std::uint32_t* users,
                                  std::size_t count, sim::Slot t,
                                  unsigned char* app_column,
                                  sim::Slot* end_slot) = 0;

  /// The expected_lag answer for a prefilled end slot: the memoized count
  /// of in-flight training sessions ending at or before `end_slot`. Must be
  /// read per user AFTER earlier users' schedule() outcomes were applied —
  /// the same intra-slot coupling expected_lag documents (a schedule
  /// invalidates the memo).
  [[nodiscard]] virtual double lag_count_at(sim::Slot end_slot) const = 0;

  /// Offline-oracle service: the user's first scripted app arrival in
  /// [from, until), advancing the oracle cursor past stale entries.
  [[nodiscard]] virtual std::optional<apps::ScriptedArrivals::Event>
  next_arrival_between(std::size_t user, sim::Slot from, sim::Slot until) = 0;

  /// Sync-SGD service: aggregate the staged round now and send every user
  /// into the model transfer phase. Only meaningful when all users are at
  /// the barrier.
  virtual void aggregate_round(sim::Slot t) = 0;

  /// Observability tap for scheme-side events: the offline scheme reports
  /// each plan-window recompute here (`items` users entered the window
  /// knapsack, `scheduled` received a non-defer plan). The driver counts
  /// it into the run summary and forwards it to an attached event stream;
  /// write-only instrumentation — strategies must never branch on any
  /// effect of calling it (the events-on ≡ events-off contract).
  virtual void note_replan(sim::Slot t, std::size_t items,
                           std::size_t scheduled) = 0;
};

/// One scheduling strategy. Strategies own their scheme state (window
/// plans, Lyapunov queues, ...) and are constructed per experiment run via
/// make_scheduler(); see the file comment for the hook ordering contract.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Called once, after the driver created all users, before slot 0.
  virtual void on_experiment_begin(SchedulerContext& ctx) { (void)ctx; }

  /// Called every slot after completions were processed and before the
  /// decide phase: the place for barrier aggregation and window replans.
  virtual void on_slot_begin(sim::Slot t, SchedulerContext& ctx) {
    (void)t;
    (void)ctx;
  }

  /// Called when `user` finishes its model transfer and becomes ready.
  virtual void on_user_ready(std::size_t user, sim::Slot t,
                             SchedulerContext& ctx) {
    (void)user;
    (void)t;
    (void)ctx;
  }

  /// Driver-owned outcome sink for decide_batch(): the strategy reports
  /// each user's decision through it, in the order evaluated.
  class DecisionSink {
   public:
    virtual ~DecisionSink() = default;
    /// Apply a kSchedule decision now: the driver starts the training
    /// session before the strategy evaluates the next user, so later
    /// evaluations observe it through expected_lag / lag_count_at (the
    /// intra-slot coupling of Algorithm 2's sequential evaluation).
    virtual void schedule(std::uint32_t user) = 0;
    /// Record a kIdle decision with its parking promise: the strategy
    /// guarantees the user decides kIdle at every slot s with
    /// t < s < until, no matter how driver state evolves, so the driver
    /// skips the user until `until`. t + 1 promises nothing — the user
    /// stays on the every-slot hot path.
    virtual void idle_until(std::uint32_t user, sim::Slot until) = 0;
  };

  /// The decision pass: one call per slot covering every due ready user
  /// (ascending user order, already driver-gated — e.g. the battery SoC
  /// condition). Users are evaluated in order, and sink.schedule() must
  /// be invoked before the next user is evaluated (intra-slot
  /// expected_lag coupling).
  virtual void decide_batch(const std::uint32_t* users, std::size_t count,
                            sim::Slot t, SchedulerContext& ctx,
                            DecisionSink& sink) = 0;

  /// Exact idle screen for the decide phase (docs/algorithms.md §9). The
  /// driver calls it at most once per slot, after on_slot_begin and before
  /// decide_batch. class_lag[c] is lag_count_at() for a session of class c
  /// started at `t`, read before any schedule of this slot; lag_headroom
  /// bounds how far any class count can grow during the decide phase.
  /// Returning true promises: for every due user of class c whose gap (the
  /// gap_values() row as fill_decide_inputs would refresh it) is below
  /// screen.floor[c], decide_batch would report
  /// idle_until(user, screen.parked_until) at whatever position of the
  /// batch the user sits — so the driver settles such users itself and
  /// never hands them to decide_batch. The default promises nothing.
  virtual bool idle_screen(sim::Slot t,
                           const std::array<double, kDecideClasses>& class_lag,
                           std::size_t lag_headroom, IdleScreen& screen) {
    (void)t;
    (void)class_lag;
    (void)lag_headroom;
    (void)screen;
    return false;
  }

  /// End-of-slot bookkeeping: A(t) users became ready, b(t) were scheduled,
  /// G(t) is the summed per-user gap (the Eq. 15/16 inputs), read in O(1)
  /// from the driver's folded accumulators (core/gap_accrual.hpp).
  virtual void on_slot_end(double arrivals, double served, double sum_gaps) {
    (void)arrivals;
    (void)served;
    (void)sum_gaps;
  }

  // ------------------------------------------------------ policy traits

  /// Do completed sessions park at a round barrier (FedAvg) instead of
  /// submitting asynchronously? A barrier server re-requests lost uploads
  /// rather than deadlock its round, so barrier uploads are also exempt
  /// from failure injection.
  [[nodiscard]] virtual bool uses_round_barrier() const noexcept {
    return false;
  }

  /// Is per-slot decision-evaluation energy charged to ready users
  /// (Table III overhead accounting)?
  [[nodiscard]] virtual bool charges_decision_overhead() const noexcept {
    return false;
  }

  // ------------------------------------------------------ observables

  /// Actual queue backlog Q(t); 0 for schemes without Lyapunov queues.
  [[nodiscard]] virtual double queue_q() const noexcept { return 0.0; }
  /// Virtual staleness queue H(t); 0 for schemes without Lyapunov queues.
  [[nodiscard]] virtual double queue_h() const noexcept { return 0.0; }
};

/// Instantiate the strategy for config.scheduler.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(
    const ExperimentConfig& config);

}  // namespace fedco::core
