// Unit tests for the folded-accrual accumulator engine behind the driver's
// Eq. (12) bookkeeping and G(t) (src/core/gap_accrual.hpp). A long-horizon
// driver run at the end checks the closed form against the per-user gaps
// and the recorded fleet total.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "core/experiment.hpp"
#include "core/gap_accrual.hpp"

namespace fedco::core {
namespace {

constexpr double kEps = 0.05;

TEST(FoldedGapAccrual, SumIsTheSumOfClosedForms) {
  FoldedGapAccrual fold;
  fold.init(4, kEps);
  EXPECT_EQ(fold.sum(0), 0.0);
  EXPECT_EQ(fold.accruing(), 0);

  // Two accruing users attached at different slots with different bases,
  // one frozen (training) contribution, one absent user.
  fold.attach_accrue(0, 0.0, 1);
  fold.attach_accrue(1, 1.25, 10);
  fold.attach_frozen(2, 3.5);
  EXPECT_EQ(fold.accruing(), 2);

  for (const std::int64_t t : {10, 11, 500, 100000}) {
    const double manual = fold.eval(0, t) + fold.eval(1, t) + 3.5;
    EXPECT_DOUBLE_EQ(fold.sum(t), manual) << "slot " << t;
  }
  // attach_accrue(i, base, t) means: first accrued slot is t, so the
  // value at the end of slot t is base + epsilon.
  EXPECT_DOUBLE_EQ(fold.eval(0, 1), kEps);
  EXPECT_DOUBLE_EQ(fold.eval(1, 10), 1.25 + kEps);

  // Detaching removes exactly what was attached: the accumulators return
  // to the frozen-only contribution, then to zero.
  fold.detach_accrue(0);
  fold.detach_accrue(1);
  EXPECT_EQ(fold.accruing(), 0);
  EXPECT_DOUBLE_EQ(fold.sum(1234), 3.5);
  fold.detach_frozen(2);
  EXPECT_DOUBLE_EQ(fold.sum(1234), 0.0);
}

TEST(FoldedGapAccrual, ReattachAfterResetRestartsTheClosedForm) {
  FoldedGapAccrual fold;
  fold.init(1, kEps);
  fold.attach_accrue(0, 0.0, 1);
  const double before = fold.eval(0, 100);
  // Update reset: detach, re-attach from zero at a later slot.
  fold.detach_accrue(0);
  fold.attach_accrue(0, 0.0, 101);
  EXPECT_DOUBLE_EQ(fold.eval(0, 101), kEps);
  EXPECT_LT(fold.eval(0, 150), before);
  EXPECT_DOUBLE_EQ(fold.sum(150), fold.eval(0, 150));
}

// Long-horizon driver integration: with the battery gate pinned above any
// reachable state of charge nobody ever trains, so every user accrues
// epsilon per slot for the whole horizon from its slot-0 zero. The
// recorded per-user gaps must follow epsilon * (slots accrued) and the
// recorded G(t) must equal their sum, up to floating-point associativity.
TEST(GapAccrualLongHorizon, ClosedFormTracksEveryAccruedSlot) {
  ExperimentConfig cfg;
  cfg.scheduler = SchedulerKind::kImmediate;
  cfg.track_battery = true;
  cfg.min_soc_to_train = 2.0;  // unreachable: every ready slot stays gated
  cfg.num_users = 3;
  cfg.horizon_slots = 73536;
  cfg.arrival_probability = 0.001;
  cfg.seed = 9;
  cfg.record_per_user_gaps = true;
  cfg.record_interval = 8192;

  const ExperimentResult result = run_experiment(cfg);
  EXPECT_EQ(result.total_updates, 0u);

  const auto* g = result.traces.find("G");
  ASSERT_NE(g, nullptr);
  for (std::size_t k = 0; k < g->size(); ++k) {
    // Record k sits at the end of slot k * record_interval, after
    // slot + 1 accruals from zero.
    const double slots = static_cast<double>(k * cfg.record_interval + 1);
    double sum = 0.0;
    for (std::size_t u = 0; u < cfg.num_users; ++u) {
      const auto* gap = result.traces.find("gap_user" + std::to_string(u));
      ASSERT_NE(gap, nullptr);
      ASSERT_EQ(gap->size(), g->size());
      EXPECT_NEAR(gap->value_at(k), kEps * slots, 1e-9 * kEps * slots)
          << "user " << u << " record " << k;
      sum += gap->value_at(k);
    }
    EXPECT_NEAR(g->value_at(k), sum, 1e-9 * std::max(1.0, sum))
        << "record " << k;
  }
}

}  // namespace
}  // namespace fedco::core
