// Batched hot-path engine parity: the batched online decide is
// bit-identical to the scalar reference path (golden-fingerprint
// cross-checks over the parity scenario grid). See docs/algorithms.md for
// the map of which test guards which hot-path algorithm.
#include <gtest/gtest.h>

#include "golden_fingerprint.hpp"

namespace fedco::core {
namespace {

TEST(BatchEngine, BatchedOnlineDecideMatchesScalar) {
  // The online decide_batch runs the centralized Sec. V-A pass or, with
  // online_batch_decide off, the per-user scalar Eq. (21) loop. Flipping
  // the flag must not move a single bit of any observable. (Only the
  // online scheme reads the flag.)
  for (const auto& scenario : testing::parity_scenarios()) {
    ExperimentConfig batched = scenario.config;
    batched.scheduler = SchedulerKind::kOnline;
    batched.online_batch_decide = true;
    ExperimentConfig scalar = batched;
    scalar.online_batch_decide = false;
    EXPECT_EQ(testing::fingerprint(run_experiment(batched)),
              testing::fingerprint(run_experiment(scalar)))
        << scenario.name;
  }
}

}  // namespace
}  // namespace fedco::core
