// Bit-exact fingerprinting of ExperimentResult for the §6 determinism
// contract. The parity suite hashes every scalar, trace, and lag/gap sample
// of a run into one FNV-1a value; two runs agree on the fingerprint iff they
// agree bit-for-bit on everything the driver reports. The golden constants
// in core_scheduler_parity_test.cpp were captured from the pre-refactor
// monolithic driver (PR 2) with exactly these configs, so any behavioural
// drift in a refactored Scheduler shows up as a fingerprint mismatch.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "data/partition.hpp"
#include "data/synth_cifar.hpp"
#include "fl/client.hpp"
#include "fl/server.hpp"
#include "nn/zoo.hpp"
#include "util/rng.hpp"

namespace fedco::testing {

class Fingerprint {
 public:
  void add_bytes(const void* data, std::size_t size) noexcept {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001B3ULL;  // FNV-1a 64-bit prime
    }
  }
  void add(double v) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add_bytes(&bits, sizeof(bits));
  }
  void add(std::uint64_t v) noexcept { add_bytes(&v, sizeof(v)); }
  void add(const std::string& s) noexcept { add_bytes(s.data(), s.size()); }

  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;  // FNV offset basis
};

/// Hash every observable of a result (scalars, traces, per-update samples).
[[nodiscard]] inline std::uint64_t fingerprint(
    const core::ExperimentResult& r) {
  Fingerprint fp;
  fp.add(r.total_energy_j);
  fp.add(r.training_j);
  fp.add(r.corun_j);
  fp.add(r.app_j);
  fp.add(r.idle_j);
  fp.add(r.network_j);
  fp.add(r.overhead_j);
  fp.add(r.avg_queue_q);
  fp.add(r.avg_queue_h);
  fp.add(r.final_queue_q);
  fp.add(r.final_queue_h);
  fp.add(r.total_updates);
  fp.add(r.dropped_updates);
  fp.add(r.corun_sessions);
  fp.add(r.separate_sessions);
  fp.add(r.avg_lag);
  fp.add(r.avg_gap);
  fp.add(r.final_accuracy);
  fp.add(r.final_loss);
  fp.add(r.battery_cycles_total);
  fp.add(static_cast<std::uint64_t>(r.battery_recharges));
  fp.add(r.battery_gated_slots);
  fp.add(r.max_temperature_c);
  fp.add(r.worst_throttle_factor);
  fp.add(r.throttled_sessions);
  for (const auto& name : r.traces.names()) {
    const auto* series = r.traces.find(name);
    if (series == nullptr) continue;
    fp.add(name);
    for (std::size_t i = 0; i < series->size(); ++i) {
      fp.add(series->time_at(i));
      fp.add(series->value_at(i));
    }
  }
  for (const auto& s : r.lag_gap_samples) {
    fp.add(s.time_s);
    fp.add(s.lag);
    fp.add(s.gap);
    fp.add(static_cast<std::uint64_t>(s.user));
  }
  return fp.value();
}

/// One named parity scenario: a config to run under each SchedulerKind.
struct ParityScenario {
  const char* name;
  core::ExperimentConfig config;
};

/// The scenario grid the golden constants were captured on. Exercises the
/// plain path, the environment extensions (battery gate, thermal, drops,
/// diurnal arrivals, decision overhead/granularity), and real training.
[[nodiscard]] inline std::vector<ParityScenario> parity_scenarios() {
  std::vector<ParityScenario> scenarios;

  core::ExperimentConfig plain;
  plain.num_users = 10;
  plain.horizon_slots = 2500;
  plain.arrival_probability = 0.002;
  plain.seed = 42;
  scenarios.push_back({"plain", plain});

  core::ExperimentConfig env = plain;
  env.seed = 1234;
  env.diurnal = true;
  env.diurnal_swing = 0.7;
  env.track_battery = true;
  env.battery.capacity_mah = 150.0;
  env.min_soc_to_train = 0.4;
  env.enable_thermal = true;
  env.upload_drop_probability = 0.2;
  env.decision_eval_seconds = 0.01;
  env.decision_interval_slots = 5;
  env.record_per_user_gaps = true;
  env.use_lte = true;
  scenarios.push_back({"environment", env});

  core::ExperimentConfig real;
  real.num_users = 4;
  real.horizon_slots = 1200;
  real.arrival_probability = 0.002;
  real.seed = 7;
  real.real_training = true;
  real.model = core::ModelKind::kMlp;
  real.dataset.classes = 3;
  real.dataset.height = 8;
  real.dataset.width = 8;
  real.dataset.train_per_class = 20;
  real.dataset.test_per_class = 8;
  real.eval_interval_s = 400.0;
  real.offline_window_slots = 300;
  scenarios.push_back({"real-training", real});

  return scenarios;
}

/// A reduced copy of the paper's own experiment (Sec. VI: lenet-small on
/// synthetic CIFAR, batches of 20, the online rule): 5 users on 16×16
/// images over a short horizon. The other real-training goldens use the
/// MLP, so this is the one that pins the convolution kernels end to end.
/// In real training the online rule reads the server's momentum norm, so
/// a single rounding change in src/nn moves the schedule as well.
[[nodiscard]] inline core::ExperimentConfig lenet_training_config() {
  core::ExperimentConfig cfg;
  cfg.scheduler = core::SchedulerKind::kOnline;
  cfg.num_users = 5;
  cfg.horizon_slots = 1500;
  cfg.arrival_probability = 0.004;
  cfg.seed = 2022;
  // A small V and Lb make the rule schedule within the short horizon.
  cfg.V = 100.0;
  cfg.lb = 20.0;
  cfg.real_training = true;
  cfg.model = core::ModelKind::kLenetSmall;
  cfg.dataset.classes = 10;
  cfg.dataset.height = 16;
  cfg.dataset.width = 16;
  cfg.dataset.train_per_class = 20;
  cfg.dataset.test_per_class = 6;
  cfg.eval_interval_s = 300.0;
  return cfg;
}

/// FNV-1a hash of the global lenet-small parameters after a short
/// asynchronous run driven through fl::FlClient and fl::ParameterServer
/// directly: each round every client downloads the same snapshot, trains
/// one local epoch and submits in turn, so all but the first update are
/// stale. The server's momentum-norm estimate is hashed along with the
/// parameters, since the online rule reads it.
[[nodiscard]] inline std::uint64_t lenet_async_param_hash() {
  data::SynthCifarConfig dcfg;
  dcfg.classes = 10;
  dcfg.height = 16;
  dcfg.width = 16;
  dcfg.train_per_class = 12;
  dcfg.test_per_class = 1;
  const data::SynthCifar dataset = data::make_synth_cifar(dcfg);
  util::Rng rng{77};
  const nn::Network prototype = nn::make_lenet_small(dcfg.classes, rng);
  constexpr std::size_t kClients = 3;
  const data::Partition partition =
      data::partition_iid(dataset.train.size(), kClients, rng);
  fl::ParameterServer server{prototype.flatten_params(), 0.05, 0.9};
  std::vector<fl::FlClient> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back(static_cast<std::uint32_t>(c),
                         dataset.train.subset(partition[c]), prototype,
                         nn::SgdConfig{0.05, 0.9, 0.0, 0.0}, 100 + c);
  }
  for (int round = 0; round < 2; ++round) {
    const fl::GlobalModel snapshot = server.download();
    for (fl::FlClient& client : clients) client.load_global(snapshot.params);
    for (fl::FlClient& client : clients) {
      (void)client.train_local_epoch(20);
      (void)server.submit_async(client.upload(), snapshot.version);
    }
  }
  Fingerprint fp;
  const std::vector<float> params = server.download().params;
  fp.add_bytes(params.data(), params.size() * sizeof(float));
  fp.add(server.momentum_norm());
  return fp.value();
}

}  // namespace fedco::testing
