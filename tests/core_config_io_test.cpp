// ExperimentConfig <-> JSON round-trip: equality after reload, identical
// seeded results, token vocabularies, strict unknown-key handling, and
// loading from a full result document.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "core/config_io.hpp"
#include "core/result_io.hpp"
#include "golden_fingerprint.hpp"

namespace fedco::core {
namespace {

ExperimentConfig exotic_config() {
  // Deviate from every default to make the round-trip meaningful.
  ExperimentConfig cfg;
  cfg.scheduler = SchedulerKind::kOffline;
  cfg.num_users = 7;
  cfg.horizon_slots = 1234;
  cfg.slot_seconds = 0.5;
  cfg.seed = 987654321;
  cfg.arrival_probability = 0.0123;
  cfg.diurnal = true;
  cfg.diurnal_swing = 0.63;
  cfg.arrival_trace_path = "/tmp/some trace \"quoted\".csv";
  cfg.fixed_device = device::DeviceKind::kHikey970;
  cfg.V = 12345.5;
  cfg.lb = 321.25;
  cfg.epsilon = 0.0625;
  cfg.offline_window_slots = 250;
  cfg.offline_lb = 456.5;
  cfg.eta = 0.07;
  cfg.beta = 0.85;
  cfg.real_training = true;
  cfg.model = ModelKind::kLenet5;
  cfg.aggregation.kind = fl::AggregationKind::kDelayComp;
  cfg.aggregation.fedasync_alpha0 = 0.7;
  cfg.aggregation.fedasync_decay = 0.4;
  cfg.aggregation.delay_comp_lambda = 0.3;
  cfg.dirichlet_alpha = 0.9;
  cfg.gap_aware_lr = true;
  cfg.weight_prediction = true;
  cfg.batch_size = 13;
  cfg.dataset.classes = 5;
  cfg.dataset.channels = 1;
  cfg.dataset.height = 12;
  cfg.dataset.width = 14;
  cfg.dataset.train_per_class = 33;
  cfg.dataset.test_per_class = 9;
  cfg.dataset.noise_stddev = 0.31;
  cfg.dataset.jitter_brightness = 0.11;
  cfg.dataset.max_shift = 3;
  cfg.dataset.seed = 77;
  cfg.eval_interval_s = 111.5;
  cfg.model_bytes = 1'000'001;
  cfg.use_lte = true;
  cfg.decision_eval_seconds = 0.015;
  cfg.decision_interval_slots = 7;
  cfg.upload_drop_probability = 0.05;
  cfg.track_battery = true;
  cfg.battery.capacity_mah = 1800.5;
  cfg.battery.voltage_v = 3.7;
  cfg.battery.initial_soc = 0.95;
  cfg.battery.recharge_at_soc = 0.2;
  cfg.min_soc_to_train = 0.25;
  cfg.enable_thermal = true;
  cfg.thermal.ambient_c = 22.5;
  cfg.thermal.throttle_onset_c = 44.0;
  cfg.thermal.critical_c = 64.0;
  cfg.thermal.heating_c_per_joule = 0.07;
  cfg.thermal.cooling_fraction_per_s = 0.018;
  cfg.thermal.max_slowdown = 2.5;
  cfg.record_interval = 4;
  cfg.record_per_user_gaps = true;
  cfg.per_user.assign(7, scenario::PerUserConfig{});
  cfg.per_user[0].device = device::DeviceKind::kNexus6;
  cfg.per_user[1].arrival_probability = 0.0042;
  cfg.per_user[2].diurnal = true;
  cfg.per_user[2].diurnal_swing = 0.55;
  cfg.per_user[2].diurnal_peak_hour = 7.25;
  cfg.per_user[3].use_lte = false;  // explicit false must survive reload
  cfg.per_user[4].join_slot = 100;
  cfg.per_user[4].leave_slot = 900;
  // per_user[5] and [6] stay all-default ({} in JSON).
  return cfg;
}

TEST(ConfigIo, RoundTripYieldsEqualConfig) {
  const ExperimentConfig original = exotic_config();
  const ExperimentConfig reloaded =
      config_from_json(config_to_json(original));
  EXPECT_TRUE(reloaded == original);
}

TEST(ConfigIo, DefaultConfigRoundTrips) {
  EXPECT_TRUE(config_from_json(config_to_json(ExperimentConfig{})) ==
              ExperimentConfig{});
}

TEST(ConfigIo, RoundTripReproducesSeededResult) {
  // The --config acceptance contract: a saved config reloads to the same
  // seeded run, bit for bit.
  ExperimentConfig cfg;
  cfg.scheduler = SchedulerKind::kOnline;
  cfg.num_users = 6;
  cfg.horizon_slots = 800;
  cfg.arrival_probability = 0.004;
  cfg.seed = 77;
  cfg.V = 1234.5;
  const ExperimentConfig reloaded = config_from_json(config_to_json(cfg));
  ASSERT_TRUE(reloaded == cfg);
  EXPECT_EQ(testing::fingerprint(run_experiment(reloaded)),
            testing::fingerprint(run_experiment(cfg)));
}

TEST(ConfigIo, FileRoundTrip) {
  const std::string path = "/tmp/fedco_config_io_test.json";
  const ExperimentConfig original = exotic_config();
  save_config_json(path, original);
  EXPECT_TRUE(load_config_json(path) == original);
  std::remove(path.c_str());
  EXPECT_THROW((void)load_config_json("/no/such/config.json"),
               std::runtime_error);
}

TEST(ConfigIo, PartialDocumentKeepsDefaults) {
  const ExperimentConfig cfg =
      config_from_json(R"({"scheduler":"offline","num_users":3,"V":9.5})");
  EXPECT_EQ(cfg.scheduler, SchedulerKind::kOffline);
  EXPECT_EQ(cfg.num_users, 3u);
  EXPECT_EQ(cfg.V, 9.5);
  ExperimentConfig defaults;
  EXPECT_EQ(cfg.horizon_slots, defaults.horizon_slots);
  EXPECT_EQ(cfg.lb, defaults.lb);
  EXPECT_TRUE(cfg.dataset == defaults.dataset);
}

TEST(ConfigIo, UnknownKeysThrow) {
  EXPECT_THROW((void)config_from_json(R"({"horizons":100})"),
               std::invalid_argument);
  EXPECT_THROW((void)config_from_json(R"({"dataset":{"heigth":8}})"),
               std::invalid_argument);
  EXPECT_THROW((void)config_from_json(R"({"num_users":"ten"})"),
               std::invalid_argument);
  EXPECT_THROW((void)config_from_json(R"({"num_users":2.5})"),
               std::invalid_argument);
  // Retired planner selectors are unknown keys like any other: an old
  // config carrying one is refused by name, never silently ignored.
  for (const std::string key : {"offline_incremental_replan",
                                "offline_parallel_plan",
                                "offline_adaptive_grid"}) {
    try {
      (void)config_from_json("{\"" + key + "\":true}");
      ADD_FAILURE() << key << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string{error.what()}.find(key), std::string::npos)
          << error.what();
    }
  }
}

TEST(ConfigIo, PerUserEntriesAreStrict) {
  // per_user rides the same strictness contract as the rest of the config.
  EXPECT_THROW((void)config_from_json(R"({"per_user":{}})"),
               std::invalid_argument);  // must be an array
  EXPECT_THROW((void)config_from_json(R"({"per_user":[{"devise":"pixel2"}]})"),
               std::invalid_argument);  // typo'd key
  EXPECT_THROW((void)config_from_json(R"({"per_user":[{"device":"iphone"}]})"),
               std::invalid_argument);  // unknown device
  EXPECT_THROW(
      (void)config_from_json(R"({"per_user":[{"join_slot":"soon"}]})"),
      std::invalid_argument);
  const ExperimentConfig cfg = config_from_json(
      R"({"num_users":2,"per_user":[{},{"device":"hikey970","leave_slot":50}]})");
  ASSERT_EQ(cfg.per_user.size(), 2u);
  EXPECT_TRUE(cfg.per_user[0].is_default());
  EXPECT_EQ(cfg.per_user[1].device, device::DeviceKind::kHikey970);
  EXPECT_EQ(cfg.per_user[1].leave_slot, 50);
}

TEST(ConfigIo, PerUserRoundTripReproducesSeededResult) {
  // A heterogeneous (device-pinned + churned) config survives the JSON
  // round trip bit-for-bit, including the seeded run it produces.
  ExperimentConfig cfg;
  cfg.num_users = 5;
  cfg.horizon_slots = 700;
  cfg.arrival_probability = 0.004;
  cfg.seed = 123;
  cfg.per_user.assign(5, scenario::PerUserConfig{});
  cfg.per_user[0].device = device::DeviceKind::kPixel2;
  cfg.per_user[1].use_lte = true;
  cfg.per_user[2].leave_slot = 350;
  cfg.per_user[3].arrival_probability = 0.01;
  const ExperimentConfig reloaded = config_from_json(config_to_json(cfg));
  ASSERT_TRUE(reloaded == cfg);
  EXPECT_EQ(testing::fingerprint(run_experiment(reloaded)),
            testing::fingerprint(run_experiment(cfg)));
}

/// config_from_json must throw std::invalid_argument naming `field`.
void expect_rejected(const std::string& json, const std::string& field) {
  try {
    (void)config_from_json(json);
    ADD_FAILURE() << json << ": accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string{error.what()}.find("'" + field + "'"),
              std::string::npos)
        << error.what();
  }
}

// Non-finite numbers never reach these readers: parse_json rejects 1e999.
constexpr const char* kOutsideUnitInterval[] = {"-0.1", "1.5", "-1e-300",
                                                 "1.0000001"};

TEST(ConfigIo, RejectsDiurnalSwingOutsideUnitInterval) {
  for (const char* value : kOutsideUnitInterval) {
    expect_rejected(std::string{R"({"diurnal_swing":)"} + value + "}",
                    "diurnal_swing");
  }
  EXPECT_EQ(config_from_json(R"({"diurnal_swing":1})").diurnal_swing, 1.0);
}

TEST(ConfigIo, RejectsArrivalProbabilityOutsideUnitInterval) {
  for (const char* value : kOutsideUnitInterval) {
    expect_rejected(std::string{R"({"arrival_probability":)"} + value + "}",
                    "arrival_probability");
  }
  EXPECT_EQ(config_from_json(R"({"arrival_probability":0})").arrival_probability,
            0.0);
}

TEST(ConfigIo, RejectsPerUserDiurnalSwingOutsideUnitInterval) {
  for (const char* value : kOutsideUnitInterval) {
    expect_rejected(
        std::string{R"({"per_user":[{},{"diurnal_swing":)"} + value + "}]}",
        "per_user[1].diurnal_swing");
  }
}

TEST(ConfigIo, RejectsPerUserArrivalProbabilityOutsideUnitInterval) {
  for (const char* value : kOutsideUnitInterval) {
    expect_rejected(std::string{R"({"per_user":[{},{"arrival_probability":)"} +
                        value + "}]}",
                    "per_user[1].arrival_probability");
  }
}

TEST(ConfigIo, RejectsNonFiniteV) {
  // JSON has no NaN/inf literal and parse_json refuses an overflowing one,
  // so a non-finite V never reaches the named reader; any finite V loads.
  EXPECT_THROW((void)config_from_json(R"({"V":1e999})"), std::invalid_argument);
  EXPECT_EQ(config_from_json(R"({"V":-2.5})").V, -2.5);
}

TEST(ConfigIo, RejectsNegativeLb) {
  for (const char* value : {"-1", "-1e-300"}) {
    expect_rejected(std::string{R"({"lb":)"} + value + "}", "lb");
    expect_rejected(std::string{R"({"Lb":)"} + value + "}", "Lb");
  }
  EXPECT_THROW((void)config_from_json(R"({"lb":1e999})"), std::invalid_argument);
  EXPECT_EQ(config_from_json(R"({"lb":0})").lb, 0.0);
}

TEST(ConfigIo, RejectsNegativeEpsilon) {
  for (const char* value : {"-1", "-1e-300"}) {
    expect_rejected(std::string{R"({"epsilon":)"} + value + "}", "epsilon");
  }
  EXPECT_THROW((void)config_from_json(R"({"epsilon":1e999})"),
               std::invalid_argument);
  EXPECT_EQ(config_from_json(R"({"epsilon":0})").epsilon, 0.0);
}

TEST(ConfigIo, RejectsNonFiniteEta) {
  // As for V: only the parser's overflow refusal can fire from a file.
  EXPECT_THROW((void)config_from_json(R"({"eta":-1e999})"),
               std::invalid_argument);
  EXPECT_EQ(config_from_json(R"({"eta":-0.5})").eta, -0.5);
}

TEST(ConfigIo, RejectsBetaOutsideUnitInterval) {
  for (const char* value : kOutsideUnitInterval) {
    expect_rejected(std::string{R"({"beta":)"} + value + "}", "beta");
  }
  EXPECT_EQ(config_from_json(R"({"beta":1})").beta, 1.0);
}

TEST(ConfigIo, RejectsDecisionIntervalBelowOne) {
  for (const char* value : {"0", "-3"}) {
    expect_rejected(
        std::string{R"({"decision_interval_slots":)"} + value + "}",
        "decision_interval_slots");
  }
  EXPECT_EQ(config_from_json(R"({"decision_interval_slots":1})")
                .decision_interval_slots,
            1);
}

TEST(ConfigIo, RejectsNonPositiveSlotSeconds) {
  for (const char* value : {"0", "-1", "-1e-300"}) {
    expect_rejected(std::string{R"({"slot_seconds":)"} + value + "}",
                    "slot_seconds");
  }
  EXPECT_EQ(config_from_json(R"({"slot_seconds":0.5})").slot_seconds, 0.5);
}

TEST(ConfigIo, RejectsZeroBatchSize) {
  expect_rejected(R"({"batch_size":0})", "batch_size");
  EXPECT_EQ(config_from_json(R"({"batch_size":1})").batch_size, 1u);
}

TEST(ConfigIo, RejectsNonPositiveEvalInterval) {
  for (const char* value : {"0", "-1", "-1e-300"}) {
    expect_rejected(std::string{R"({"eval_interval_s":)"} + value + "}",
                    "eval_interval_s");
  }
  EXPECT_EQ(config_from_json(R"({"eval_interval_s":0.5})").eval_interval_s,
            0.5);
}

TEST(ConfigIo, OutOfRangeIntegersThrow) {
  // Integers travel as doubles; past 2^53 they silently change value, so
  // the loader rejects them instead of corrupting the config.
  EXPECT_THROW((void)config_from_json(R"({"num_users":1e300})"),
               std::invalid_argument);
  EXPECT_THROW((void)config_from_json(R"({"seed":18446744073709551615})"),
               std::invalid_argument);
  EXPECT_THROW((void)config_from_json(R"({"horizon_slots":-1e300})"),
               std::invalid_argument);
  // The 2^53 boundary itself is exact and accepted.
  EXPECT_EQ(config_from_json(R"({"seed":9007199254740992})").seed,
            9007199254740992ULL);
}

TEST(ConfigIo, NonPositiveOfflineWindowIsRejectedByTheScheduler) {
  // A zero window would be a modulo-by-zero in the offline replan; the
  // strategy throws a named error instead.
  ExperimentConfig cfg;
  cfg.scheduler = SchedulerKind::kOffline;
  cfg.num_users = 2;
  cfg.horizon_slots = 100;
  cfg.offline_window_slots = 0;
  EXPECT_THROW((void)run_experiment(cfg), std::invalid_argument);
  cfg.offline_window_slots = 500;
  cfg.record_interval = 0;  // t % record_interval has the same hazard
  EXPECT_THROW((void)run_experiment(cfg), std::invalid_argument);
}

TEST(ConfigIo, LoadsFromResultDocument) {
  // result_to_json embeds the full config; feeding the whole result
  // document back reproduces the originating config.
  const ExperimentConfig cfg = [] {
    ExperimentConfig c;
    c.scheduler = SchedulerKind::kSyncSgd;
    c.num_users = 4;
    c.horizon_slots = 500;
    c.seed = 5;
    return c;
  }();
  const ExperimentResult result = run_experiment(cfg);
  const ExperimentConfig reloaded =
      config_from_json(result_to_json(cfg, result));
  EXPECT_TRUE(reloaded == cfg);
}

TEST(ConfigIo, SchedulerTokensAcceptBothVocabularies) {
  EXPECT_EQ(parse_scheduler_token("online"), SchedulerKind::kOnline);
  EXPECT_EQ(parse_scheduler_token("Online"), SchedulerKind::kOnline);
  EXPECT_EQ(parse_scheduler_token("sync"), SchedulerKind::kSyncSgd);
  EXPECT_EQ(parse_scheduler_token("Sync-SGD"), SchedulerKind::kSyncSgd);
  EXPECT_EQ(parse_scheduler_token("offline"), SchedulerKind::kOffline);
  EXPECT_EQ(parse_scheduler_token("Immediate"), SchedulerKind::kImmediate);
  EXPECT_THROW((void)parse_scheduler_token("onlin"), std::invalid_argument);
}

TEST(ConfigIo, DeviceAndModelTokens) {
  EXPECT_EQ(parse_device_token("mixed"), std::nullopt);
  EXPECT_EQ(parse_device_token(""), std::nullopt);
  EXPECT_EQ(parse_device_token("pixel2"), device::DeviceKind::kPixel2);
  EXPECT_THROW((void)parse_device_token("iphone"), std::invalid_argument);
  EXPECT_EQ(device_token(std::nullopt), std::string{"mixed"});
  EXPECT_EQ(device_token(device::DeviceKind::kNexus6P),
            std::string{"nexus6p"});
  EXPECT_EQ(parse_model_token("lenet5"), ModelKind::kLenet5);
  EXPECT_EQ(parse_model_token(model_token(ModelKind::kLenetSmall)),
            ModelKind::kLenetSmall);
  EXPECT_THROW((void)parse_model_token("resnet"), std::invalid_argument);
  EXPECT_EQ(parse_aggregation_token("fedasync"),
            fl::AggregationKind::kFedAsync);
  EXPECT_THROW((void)parse_aggregation_token("avg"), std::invalid_argument);
}

}  // namespace
}  // namespace fedco::core
