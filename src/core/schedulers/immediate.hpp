// Immediate scheduling: train as soon as the device is ready, ignoring
// foreground apps — the paper's energy upper bound baseline (Sec. VII-B).
#pragma once

#include "core/scheduler.hpp"

namespace fedco::core {

class ImmediateScheduler final : public Scheduler {
 public:
  void decide_batch(const std::uint32_t* users, std::size_t count, sim::Slot t,
                    SchedulerContext& ctx, DecisionSink& sink) override {
    (void)t;
    (void)ctx;
    for (std::size_t k = 0; k < count; ++k) sink.schedule(users[k]);
  }
};

}  // namespace fedco::core
