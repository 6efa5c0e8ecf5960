// Shared check for the driver's one-consult-per-slot contract: a ready user
// is handed to the strategy at most once per slot, so no (slot, user) pair
// carries two decision events and every scheduled decision starts exactly
// one training session. A stale wake after a rejoin used to break this (the
// user was both hot and woken), starting a second session in one slot.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "core/experiment.hpp"
#include "obs/events.hpp"

namespace fedco::testing {

/// Run `cfg` with a decision-collecting event sink and check the contract.
inline void expect_single_consults(const core::ExperimentConfig& cfg,
                                   const std::string& label) {
  struct DecisionSink final : obs::EventSink {
    void emit(const obs::Event& event) override {
      if (event.kind != obs::EventKind::kDecision) return;
      if (!decided.emplace(event.slot, event.user).second) {
        ADD_FAILURE() << "user " << event.user << " decided twice at slot "
                      << event.slot;
      }
    }
    std::set<std::pair<std::int64_t, std::int64_t>> decided;
  };
  SCOPED_TRACE(label);
  DecisionSink sink;
  core::RunHooks hooks;
  hooks.events = &sink;
  const core::ExperimentResult result = core::run_experiment(cfg, hooks);
  EXPECT_EQ(result.corun_sessions + result.separate_sessions,
            result.summary.decisions_scheduled);
  EXPECT_EQ(sink.decided.size(), result.summary.decisions_scheduled);
}

}  // namespace fedco::testing
