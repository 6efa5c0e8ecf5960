// Legacy-RNG golden for a wide-rate diurnal fleet.
//
// The other legacy diurnal goldens cover 10 users at one swing
// (scheduler parity "environment") and 40 uniform-rate users
// (scenario_fault "fault-outage"). This suite pins the shape of
// examples/scenarios/fleet_100k.json reduced to 2000 users: lognormal
// per-user rates (σ 0.6, so peak rates span more than an order of
// magnitude), a 10 h timezone spread of diurnal peaks, a 35% LTE share
// and 20% availability churn, expanded into FleetArena storage exactly as
// fedco_sim --scenario does, under the offline and online schedulers.
//
// The spec is built here rather than loaded from the example file, so the
// golden cannot drift with the repo's example scenarios. The constants
// were captured on the driver whose legacy arrival walk evaluated the
// diurnal rate on every slot (no envelope gate); they are the contract
// that the gated walk (apps::walk_legacy_arrivals) consumes the per-user
// RNG identically across the whole rate and phase spread. There is no
// regen mode on purpose.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ios>

#include "core/config_io.hpp"
#include "golden_fingerprint.hpp"
#include "scenario/spec.hpp"

namespace fedco::core {
namespace {

scenario::ScenarioSpec wide_rate_spec() {
  scenario::ScenarioSpec spec;
  spec.name = "wide-rate-2k";
  spec.num_users = 2000;
  spec.horizon_slots = 1800;
  spec.device_mix = {{device::DeviceKind::kPixel2, 0.4},
                     {device::DeviceKind::kNexus6P, 0.25},
                     {device::DeviceKind::kNexus6, 0.2},
                     {device::DeviceKind::kHikey970, 0.15}};
  spec.arrival.distribution = scenario::ArrivalSpec::Distribution::kLogNormal;
  spec.arrival.mean_probability = 0.002;
  spec.arrival.sigma = 0.6;
  spec.diurnal.enabled = true;
  spec.diurnal.swing = 0.8;
  spec.diurnal.peak_hour = 20.0;
  spec.diurnal.timezone_spread_hours = 10.0;
  spec.network.lte_fraction = 0.35;
  spec.churn.churn_fraction = 0.2;
  spec.churn.min_presence = 0.3;
  spec.churn.max_presence = 0.8;
  return spec;
}

ExperimentConfig wide_rate_config(SchedulerKind kind) {
  ExperimentConfig base;
  base.scheduler = kind;
  base.seed = 7;
  return apply_scenario_arena(wide_rate_spec(), base);
}

TEST(WideRateFleet, SpecSpansAWideRateAndPhaseRange) {
  const ExperimentConfig cfg = wide_rate_config(SchedulerKind::kOnline);
  ASSERT_TRUE(cfg.fleet);
  ASSERT_FALSE(cfg.arrival_streams);
  double lo = 1.0;
  double hi = 0.0;
  double peak_lo = 24.0;
  double peak_hi = 0.0;
  std::size_t churned = 0;
  for (std::size_t i = 0; i < cfg.num_users; ++i) {
    const scenario::PerUserConfig pu = cfg.fleet->user(i);
    ASSERT_TRUE(pu.arrival_probability);
    lo = std::min(lo, *pu.arrival_probability);
    hi = std::max(hi, *pu.arrival_probability);
    peak_lo = std::min(peak_lo, pu.diurnal_peak_hour);
    peak_hi = std::max(peak_hi, pu.diurnal_peak_hour);
    if (pu.join_slot > 0 || pu.leave_slot < cfg.horizon_slots) ++churned;
  }
  EXPECT_GT(hi / lo, 20.0);
  // Peaks are spread ±5 h around 20:00 and wrapped into [0, 24).
  EXPECT_LT(peak_lo, 1.0);
  EXPECT_GT(peak_hi, 23.0);
  EXPECT_GT(churned, cfg.num_users / 10);
}

struct WideRateGolden {
  SchedulerKind kind;
  std::uint64_t fingerprint;
};

// Re-pinned once when the folded G(t) accumulators became the only gap
// engine: G and H moved in their last bits (evidence in CHANGES.md); every
// integer outcome and energy term is unchanged.
constexpr WideRateGolden kWideRateGoldens[] = {
    {SchedulerKind::kOffline, 0xA1C488DFF333BE13ULL},
    {SchedulerKind::kOnline, 0xBAC01E63BEEE22B3ULL},
};

TEST(WideRateFleet, LegacyDiurnalFleetIsPinned) {
  for (const WideRateGolden& golden : kWideRateGoldens) {
    const std::uint64_t fp =
        testing::fingerprint(run_experiment(wide_rate_config(golden.kind)));
    EXPECT_EQ(fp, golden.fingerprint)
        << scheduler_name(golden.kind) << ": got 0x" << std::hex
        << std::uppercase << fp;
  }
}

}  // namespace
}  // namespace fedco::core
