// The exact idle screen of the batched Eq. (21) decide (docs/algorithms.md
// §9):
//
//   1. Floor property — OnlineScheduler::idle_floor is the smallest gap at
//      which Eq. (21) schedules: the next double below it idles at the
//      slot-start lag and at every larger lag the amplification memo was
//      checked for, and the floor itself schedules.
//   2. Exactness — screened batched runs are fingerprint-identical to the
//      scalar reference on fleets where H(t) > 0 (small Lb): a busy fleet,
//      decision_interval_slots = 3 (screened users park),
//      a churning diurnal LTE fleet, and with an event stream attached —
//      whose records match the scalar run's one for one.
//   3. The screen fires on those fleets (summary.timing.decide_screened),
//      and stays off in the modes it must not serve: the scalar reference,
//      online_churn_aware, VIP priorities, and the armed battery gate.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "core/config_io.hpp"
#include "core/experiment.hpp"
#include "core/online_scheduler.hpp"
#include "golden_fingerprint.hpp"
#include "obs/events.hpp"
#include "scenario/spec.hpp"

namespace fedco::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(IdleFloor, IsTheSmallestSchedulingGapAtEveryReachableLag) {
  std::mt19937_64 rng{20220707};
  std::uniform_real_distribution<double> unit{0.0, 1.0};
  const double h_choices[] = {0.0, 5e-324, 1e-300, 1e9};
  std::size_t finite_floors = 0;
  for (int draw = 0; draw < 4000; ++draw) {
    const double v = 1e5 * unit(rng);
    const double epsilon = unit(rng);
    const double beta = draw % 7 == 0 ? 1.0 : 0.99 * unit(rng);
    OnlineScheduler sched{{v, 500.0, epsilon, 1.0, 0.05, beta}};
    const double p_schedule = 0.5 + 5.0 * unit(rng);
    const double p_idle = 0.3 + 3.0 * unit(rng);
    const double q = 1e6 * unit(rng) * unit(rng);
    const double h = draw % 2 == 0 ? h_choices[(draw / 2) % 4]
                                   : 1e4 * unit(rng) * unit(rng);
    const double momentum = 100.0 * unit(rng);
    const double lag = std::floor(500.0 * unit(rng));
    const double floor = sched.idle_floor(p_schedule, p_idle, lag, momentum, q, h);
    const auto decide = [&](double gap, double at_lag) {
      return sched.decide_batched(p_schedule, p_idle, gap, at_lag, momentum, q,
                                  h);
    };
    if (floor > -kInf) {
      const double below = std::nextafter(floor, -kInf);
      EXPECT_EQ(decide(below, lag), device::Decision::kIdle) << draw;
      for (const double k : {1.0, 7.0, 300.0}) {
        ASSERT_TRUE(sched.amplification_monotone_through(lag + k)) << draw;
        EXPECT_EQ(decide(below, lag + k), device::Decision::kIdle) << draw;
      }
    }
    if (std::isfinite(floor)) {
      EXPECT_EQ(decide(floor, lag), device::Decision::kSchedule) << draw;
      ++finite_floors;
    } else if (floor == -kInf) {
      EXPECT_EQ(decide(0.0, lag), device::Decision::kSchedule) << draw;
    }
    if (h == 0.0) {
      // The decision ignores the gap: the floor is +-inf.
      EXPECT_TRUE(std::isinf(floor)) << draw;
      EXPECT_EQ(decide(0.0, lag), decide(1e12, lag)) << draw;
    }
  }
  EXPECT_GT(finite_floors, 1000u);  // the bisection path ran, not just +-inf
}

TEST(IdleFloor, NoFloorForANegativeOrNaNStalenessWeight) {
  const OnlineScheduler sched{{4000.0, 500.0, 0.05, 1.0, 0.05, 0.9}};
  EXPECT_EQ(sched.idle_floor(2.0, 1.0, 3.0, 8.0, 10.0, -1.0), -kInf);
  EXPECT_EQ(sched.idle_floor(2.0, 1.0, 3.0, 8.0, 10.0,
                             std::numeric_limits<double>::quiet_NaN()),
            -kInf);
}

TEST(IdleFloor, AmplificationCheckStopsAtTheMemoCeiling) {
  const OnlineScheduler sched{{4000.0, 500.0, 0.05, 1.0, 0.05, 0.9}};
  EXPECT_TRUE(sched.amplification_monotone_through(1000.0));
  EXPECT_FALSE(sched.amplification_monotone_through(double{1 << 20}));
  EXPECT_FALSE(sched.amplification_monotone_through(-1.0));
}

/// A homogeneous online fleet large enough for the screen (>= 256 due
/// candidates per slot) with a small Lb, so H(t) > 0 most of the run.
ExperimentConfig busy_fleet() {
  ExperimentConfig cfg;
  cfg.scheduler = SchedulerKind::kOnline;
  cfg.num_users = 600;
  cfg.horizon_slots = 500;
  cfg.arrival_probability = 0.003;
  cfg.lb = 1.0;
  cfg.seed = 29;
  return cfg;
}

/// Churn + diurnal + LTE on the same scale, built like the CLI's --scenario.
ExperimentConfig churn_fleet() {
  scenario::ScenarioSpec spec;
  spec.name = "idle-screen-churn";
  spec.num_users = 700;
  spec.horizon_slots = 500;
  spec.device_mix = {{device::DeviceKind::kNexus6, 0.25},
                     {device::DeviceKind::kNexus6P, 0.25},
                     {device::DeviceKind::kHikey970, 0.25},
                     {device::DeviceKind::kPixel2, 0.25}};
  spec.arrival.distribution = scenario::ArrivalSpec::Distribution::kLogNormal;
  spec.arrival.mean_probability = 0.004;
  spec.arrival.sigma = 0.5;
  spec.diurnal.enabled = true;
  spec.diurnal.swing = 0.8;
  spec.diurnal.timezone_spread_hours = 10.0;
  spec.network.lte_fraction = 0.3;
  spec.churn.churn_fraction = 0.4;
  spec.churn.min_presence = 0.2;
  spec.churn.max_presence = 0.6;
  ExperimentConfig base;
  base.seed = 31;
  base.scheduler = SchedulerKind::kOnline;
  base.lb = 1.0;
  return apply_scenario(spec, base);
}

struct ScreenCase {
  const char* name;
  ExperimentConfig config;
};

std::vector<ScreenCase> screen_cases() {
  std::vector<ScreenCase> cases;
  cases.push_back({"busy", busy_fleet()});
  ExperimentConfig parking = busy_fleet();
  parking.decision_interval_slots = 3;
  cases.push_back({"interval-3", parking});
  cases.push_back({"churn-diurnal-lte", churn_fleet()});
  return cases;
}

TEST(IdleScreen, ScreenedBatchMatchesScalarReference) {
  for (const ScreenCase& c : screen_cases()) {
    ExperimentConfig scalar = c.config;
    scalar.online_batch_decide = false;
    const ExperimentResult screened_run = run_experiment(c.config);
    const ExperimentResult scalar_run = run_experiment(scalar);
    EXPECT_EQ(testing::fingerprint(screened_run),
              testing::fingerprint(scalar_run))
        << c.name;
    EXPECT_GT(screened_run.avg_queue_h, 0.0) << c.name;
    // Same decisions, same parks: the screen only moves where they are
    // computed.
    EXPECT_EQ(screened_run.summary.decisions_idle,
              scalar_run.summary.decisions_idle)
        << c.name;
    EXPECT_EQ(screened_run.summary.parks, scalar_run.summary.parks) << c.name;
    // It actually fired, and only on the batched path.
    EXPECT_GT(screened_run.summary.timing.decide_screened,
              screened_run.summary.decisions_idle / 2)
        << c.name;
    EXPECT_EQ(scalar_run.summary.timing.decide_screened, 0u) << c.name;
  }
}

TEST(IdleScreen, ScreenedUsersParkUnderADecisionInterval) {
  ExperimentConfig cfg = busy_fleet();
  cfg.decision_interval_slots = 3;
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_GT(r.summary.timing.decide_screened, 0u);
  EXPECT_GT(r.summary.parks, r.summary.timing.decide_screened / 2);
}

/// A sink that remembers every event.
struct CollectSink final : obs::EventSink {
  std::vector<obs::Event> events;
  void emit(const obs::Event& e) override { events.push_back(e); }
  void flush() override {}
};

bool same_event(const obs::Event& x, const obs::Event& y) {
  return x.kind == y.kind && x.slot == y.slot && x.user == y.user &&
         x.a == y.a && x.b == y.b &&
         std::bit_cast<std::uint64_t>(x.x) == std::bit_cast<std::uint64_t>(y.x);
}

TEST(IdleScreen, EventStreamMatchesScalarAndEventsOff) {
  for (const ScreenCase& c : screen_cases()) {
    ExperimentConfig scalar = c.config;
    scalar.online_batch_decide = false;
    CollectSink screened_sink;
    CollectSink scalar_sink;
    RunHooks hooks;
    hooks.events = &screened_sink;
    const ExperimentResult on = run_experiment(c.config, hooks);
    hooks.events = &scalar_sink;
    (void)run_experiment(scalar, hooks);
    EXPECT_EQ(testing::fingerprint(on),
              testing::fingerprint(run_experiment(c.config)))
        << c.name;
    EXPECT_GT(on.summary.timing.decide_screened, 0u) << c.name;
    ASSERT_EQ(screened_sink.events.size(), scalar_sink.events.size()) << c.name;
    for (std::size_t k = 0; k < scalar_sink.events.size(); ++k) {
      ASSERT_TRUE(same_event(screened_sink.events[k], scalar_sink.events[k]))
          << c.name << " event " << k;
    }
  }
}

/// Runs `cfg` batched and scalar: same fingerprint, and no screened consult.
void expect_screen_off(const ExperimentConfig& cfg, const char* name) {
  ExperimentConfig scalar = cfg;
  scalar.online_batch_decide = false;
  const ExperimentResult batched = run_experiment(cfg);
  EXPECT_EQ(batched.summary.timing.decide_screened, 0u) << name;
  EXPECT_EQ(testing::fingerprint(batched),
            testing::fingerprint(run_experiment(scalar)))
      << name;
}

TEST(IdleScreen, StaysOffWhereHIsScaledPerUserOrTheGateIsArmed) {
  ExperimentConfig churn_aware = churn_fleet();
  churn_aware.online_churn_aware = true;
  expect_screen_off(churn_aware, "churn-aware");

  scenario::ScenarioSpec vip_spec;
  vip_spec.num_users = 600;
  vip_spec.horizon_slots = 300;
  vip_spec.priority.vip_fraction = 0.25;
  vip_spec.priority.vip_weight = 4.0;
  expect_screen_off(apply_scenario(vip_spec, busy_fleet()), "vip");

  ExperimentConfig gated = busy_fleet();
  gated.track_battery = true;
  gated.min_soc_to_train = 0.2;
  expect_screen_off(gated, "battery-gate");
}

}  // namespace
}  // namespace fedco::core
