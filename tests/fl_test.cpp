// Staleness metrics (Defs. 1-2, Eqs. 3-4, Eq. 12), parameter server, and
// federated client.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "data/synth_cifar.hpp"
#include "fl/client.hpp"
#include "fl/server.hpp"
#include "fl/staleness.hpp"
#include "nn/zoo.hpp"
#include "util/rng.hpp"

namespace fedco::fl {
namespace {

// ------------------------------------------------------------- staleness

TEST(MomentumAmplification, ClosedFormBasics) {
  EXPECT_DOUBLE_EQ(momentum_amplification(0.9, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(momentum_amplification(0.9, 1.0), 1.0);
  // l = 2: (1 - 0.81) / 0.1 = 1.9
  EXPECT_NEAR(momentum_amplification(0.9, 2.0), 1.9, 1e-12);
  // beta -> 1 limit is the lag itself.
  EXPECT_DOUBLE_EQ(momentum_amplification(1.0, 7.0), 7.0);
  // beta = 0: no momentum memory, amplification 1 for any positive lag.
  EXPECT_DOUBLE_EQ(momentum_amplification(0.0, 5.0), 1.0);
}

TEST(MomentumAmplification, MonotoneInLagAndBoundedByGeometricSum) {
  double prev = 0.0;
  for (double lag = 1.0; lag <= 50.0; ++lag) {
    const double amp = momentum_amplification(0.9, lag);
    EXPECT_GT(amp, prev);
    EXPECT_LE(amp, 1.0 / (1.0 - 0.9) + 1e-12);
    prev = amp;
  }
}

TEST(GradientGap, Equation4) {
  // g = eta * (1-beta^l)/(1-beta) * ||v||
  EXPECT_NEAR(gradient_gap(0.05, 0.9, 2.0, 10.0), 0.05 * 1.9 * 10.0, 1e-12);
  EXPECT_DOUBLE_EQ(gradient_gap(0.05, 0.9, 0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(gradient_gap(0.05, 0.9, 3.0, 0.0), 0.0);
}

TEST(PredictWeights, MatchesMomentumRollout) {
  // Eq. (3) is the closed form of l decayed momentum steps
  //   theta_{k+1} = theta_k - eta * beta^k * v.
  const double eta = 0.1;
  const double beta = 0.8;
  const std::size_t l = 6;
  std::vector<float> theta{1.0f, -2.0f, 0.5f};
  const std::vector<float> v{0.3f, 0.1f, -0.7f};

  std::vector<float> rolled = theta;
  double decay = 1.0;
  for (std::size_t k = 0; k < l; ++k) {
    for (std::size_t i = 0; i < rolled.size(); ++i) {
      rolled[i] -= static_cast<float>(eta * decay * static_cast<double>(v[i]));
    }
    decay *= beta;
  }

  std::vector<float> predicted;
  predict_weights(theta, v, eta, beta, static_cast<double>(l), predicted);
  ASSERT_EQ(predicted.size(), rolled.size());
  for (std::size_t i = 0; i < rolled.size(); ++i) {
    EXPECT_NEAR(predicted[i], rolled[i], 1e-5);
  }
}

TEST(PredictWeights, SizeMismatchThrows) {
  std::vector<float> out;
  EXPECT_THROW(predict_weights(std::vector<float>{1.0f},
                               std::vector<float>{1.0f, 2.0f}, 0.1, 0.9, 1.0,
                               out),
               std::invalid_argument);
}

TEST(GapTracker, Equation12Dynamics) {
  GapTracker tracker{0.1};
  EXPECT_EQ(tracker.gap(), 0.0);
  tracker.accrue_idle();
  tracker.accrue_idle();
  EXPECT_NEAR(tracker.gap(), 0.2, 1e-12);
  tracker.on_schedule(0.05, 0.9, 2.0, 10.0);
  EXPECT_NEAR(tracker.gap(), 0.95, 1e-12);  // replaces, not adds
  tracker.on_update_applied();
  EXPECT_EQ(tracker.gap(), 0.0);
}

TEST(LagTracker, CountsIntermediateUpdates) {
  LagTracker tracker;
  const auto v0 = tracker.version();
  tracker.on_global_update();
  tracker.on_global_update();
  EXPECT_EQ(tracker.lag_since(v0), 2u);
  const auto v2 = tracker.version();
  tracker.on_global_update();
  EXPECT_EQ(tracker.lag_since(v2), 1u);
  EXPECT_EQ(tracker.lag_since(99), 0u);  // future version clamps to 0
}

TEST(SyntheticMomentumModel, DecaysTowardFloor) {
  SyntheticMomentumModel model{{12.0, 1.5, 40.0}};
  const double initial = model.momentum_norm();
  EXPECT_NEAR(initial, 12.0, 1e-12);
  for (int i = 0; i < 40; ++i) model.on_global_update();
  EXPECT_NEAR(model.momentum_norm(), 1.5 + (12.0 - 1.5) / 2.0, 1e-9);
  for (int i = 0; i < 100000; ++i) model.on_global_update();
  EXPECT_NEAR(model.momentum_norm(), 1.5, 0.01);
}

// ---------------------------------------------------------------- server

TEST(ParameterServer, AsyncReplaceSemantics) {
  ParameterServer server{{1.0f, 2.0f, 3.0f}, 0.1, 0.9};
  const GlobalModel before = server.download();
  EXPECT_EQ(before.version, 0u);

  const std::vector<float> update{4.0f, 6.0f, 3.0f};
  const UpdateReceipt receipt = server.submit_async(update, before.version);
  EXPECT_EQ(receipt.version, 1u);
  EXPECT_EQ(receipt.lag, 0u);
  EXPECT_NEAR(receipt.gradient_gap, 5.0, 1e-6);  // ||(3,4,0)||
  EXPECT_EQ(server.download().params, update);   // pure replacement (Sec. VI)
}

TEST(ParameterServer, LagOfInterleavedClients) {
  // Client A downloads, then B and C update; A's update has lag 2 (Fig. 3).
  ParameterServer server{{0.0f}, 0.1, 0.9};
  const auto a = server.download();
  (void)server.submit_async(std::vector<float>{1.0f}, server.download().version);
  (void)server.submit_async(std::vector<float>{2.0f}, server.download().version);
  const UpdateReceipt receipt =
      server.submit_async(std::vector<float>{3.0f}, a.version);
  EXPECT_EQ(receipt.lag, 2u);
}

TEST(ParameterServer, SyncAggregationAverages) {
  ParameterServer server{{0.0f, 0.0f}, 0.1, 0.9};
  server.stage_sync(std::vector<float>{2.0f, 4.0f});
  server.stage_sync(std::vector<float>{4.0f, 8.0f});
  EXPECT_EQ(server.staged(), 2u);
  const UpdateReceipt receipt = server.aggregate_sync();
  EXPECT_EQ(receipt.lag, 0u);
  const auto params = server.download().params;
  EXPECT_EQ(params, (std::vector<float>{3.0f, 6.0f}));
  EXPECT_EQ(server.staged(), 0u);
  EXPECT_EQ(server.version(), 1u);
}

TEST(ParameterServer, MomentumNormTracksDeltas) {
  ParameterServer server{{0.0f}, 0.5, 0.0};  // beta=0: v = delta/eta exactly
  EXPECT_EQ(server.momentum_norm(), 0.0);
  (void)server.submit_async(std::vector<float>{-1.0f}, 0);
  // delta = old - new = 1 ; v = 1/0.5 = 2.
  EXPECT_NEAR(server.momentum_norm(), 2.0, 1e-6);
}

TEST(ParameterServer, ErrorPaths) {
  EXPECT_THROW(ParameterServer({}, 0.1, 0.9), std::invalid_argument);
  EXPECT_THROW(ParameterServer({1.0f}, 0.0, 0.9), std::invalid_argument);
  ParameterServer server{{1.0f}, 0.1, 0.9};
  EXPECT_THROW(server.submit_async(std::vector<float>{1.0f, 2.0f}, 0),
               std::invalid_argument);
  EXPECT_THROW(server.stage_sync(std::vector<float>{1.0f, 2.0f}),
               std::invalid_argument);
  EXPECT_THROW(server.aggregate_sync(), std::logic_error);
}

TEST(ParameterServer, GapHistoryGrowsPerUpdate) {
  ParameterServer server{{0.0f}, 0.1, 0.9};
  (void)server.submit_async(std::vector<float>{1.0f}, 0);
  (void)server.submit_async(std::vector<float>{2.0f}, 1);
  EXPECT_EQ(server.gap_history().size(), 2u);
  EXPECT_NEAR(server.gap_history()[1], 1.0, 1e-6);
}

TEST(ParameterServer, MomentumEmaSmoothsAcrossUpdates) {
  // beta = 0.5: after two identical unit deltas, v = 0.5*v + 0.5*delta/eta
  // converges toward delta/eta = 10.
  ParameterServer server{{0.0f}, 0.1, 0.5};
  double previous = 0.0;
  float value = 0.0f;
  for (int i = 0; i < 10; ++i) {
    value -= 1.0f;
    (void)server.submit_async(std::vector<float>{value},
                              server.download().version);
    EXPECT_GE(server.momentum_norm(), previous);
    previous = server.momentum_norm();
  }
  EXPECT_NEAR(server.momentum_norm(), 10.0, 0.2);
  // A reversal shrinks the smoothed momentum.
  value += 1.0f;
  (void)server.submit_async(std::vector<float>{value},
                            server.download().version);
  EXPECT_LT(server.momentum_norm(), previous);
}

TEST(ParameterServer, MomentumEstimateSpanMatchesParamCount) {
  ParameterServer server{{0.0f, 0.0f, 0.0f}, 0.1, 0.9};
  EXPECT_EQ(server.momentum_estimate().size(), 3u);
  (void)server.submit_async(std::vector<float>{1.0f, 2.0f, 3.0f}, 0);
  // Estimate usable by predict_weights without size mismatch.
  std::vector<float> predicted;
  predict_weights(server.download().params, server.momentum_estimate(), 0.1,
                  0.9, 4.0, predicted);
  EXPECT_EQ(predicted.size(), 3u);
}

// ---------------------------------------------------------------- client

data::SynthCifar tiny_data() {
  data::SynthCifarConfig cfg;
  cfg.classes = 3;
  cfg.height = 8;
  cfg.width = 8;
  cfg.train_per_class = 12;
  cfg.test_per_class = 6;
  cfg.seed = 5;
  return data::make_synth_cifar(cfg);
}

TEST(FlClientTest, LocalEpochRunsAllBatches) {
  const auto ds = tiny_data();
  util::Rng rng{7};
  nn::Network model = nn::make_mlp(ds.train.image_volume(), 16, 3, rng);
  FlClient client{0, ds.train, model, {0.05, 0.9, 0.0, 0.0}, 11};
  const LocalEpochResult r = client.train_local_epoch(10);
  EXPECT_EQ(r.batches, 4u);  // 36 samples / batch 10 -> 4 batches
  EXPECT_GT(r.momentum_norm, 0.0);
  EXPECT_GT(r.mean_loss, 0.0);
}

TEST(FlClientTest, LocalEpochRejectsBatchSizeZero) {
  // A zero batch size is a caller error, not a request for batches of 1.
  const auto ds = tiny_data();
  util::Rng rng{7};
  nn::Network model = nn::make_mlp(ds.train.image_volume(), 16, 3, rng);
  FlClient client{0, ds.train, model, {0.05, 0.9, 0.0, 0.0}, 11};
  const auto before = client.upload();
  try {
    (void)client.train_local_epoch(0);
    ADD_FAILURE() << "train_local_epoch(0) trained";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string{error.what()}.find("batch_size"), std::string::npos)
        << error.what();
  }
  EXPECT_EQ(client.upload(), before);  // nothing was trained
}

TEST(FlClientTest, LoadGlobalRoundTrip) {
  const auto ds = tiny_data();
  util::Rng rng{13};
  nn::Network model = nn::make_mlp(ds.train.image_volume(), 16, 3, rng);
  const auto initial = model.flatten_params();
  FlClient client{1, ds.train, model, {0.05, 0.9, 0.0, 0.0}, 17};
  (void)client.train_local_epoch(12);
  EXPECT_NE(client.upload(), initial);  // training moved the params
  client.load_global(initial);
  EXPECT_EQ(client.upload(), initial);
}

TEST(FlClientTest, RepeatedEpochsReduceLoss) {
  const auto ds = tiny_data();
  util::Rng rng{19};
  nn::Network model = nn::make_mlp(ds.train.image_volume(), 24, 3, rng);
  FlClient client{2, ds.train, model, {0.05, 0.9, 0.0, 0.0}, 23};
  const double first = client.train_local_epoch(12).mean_loss;
  double last = first;
  for (int i = 0; i < 8; ++i) last = client.train_local_epoch(12).mean_loss;
  EXPECT_LT(last, first);
}

TEST(FlClientTest, EmptyShardRejected) {
  util::Rng rng{29};
  nn::Network model = nn::make_mlp(4, 4, 2, rng);
  EXPECT_THROW(
      FlClient(0, data::Dataset{1, 2, 2}, model, {0.05, 0.9, 0.0, 0.0}, 1),
      std::invalid_argument);
}

TEST(EvaluateParams, ScoresAboveChanceAfterTraining) {
  const auto ds = tiny_data();
  util::Rng rng{31};
  nn::Network model = nn::make_mlp(ds.train.image_volume(), 24, 3, rng);
  FlClient client{3, ds.train, model, {0.05, 0.9, 0.0, 0.0}, 37};
  for (int i = 0; i < 15; ++i) (void)client.train_local_epoch(12);
  const EvalResult eval = evaluate_params(model, client.upload(), ds.test);
  EXPECT_GT(eval.accuracy, 1.0 / 3.0);
  const EvalResult empty = evaluate_params(model, client.upload(),
                                           data::Dataset{3, 8, 8});
  EXPECT_EQ(empty.accuracy, 0.0);
}

TEST(EvaluateParams, RejectsZeroBatchSize) {
  // A batch of 0 would never advance through the dataset.
  const auto ds = tiny_data();
  util::Rng rng{41};
  const nn::Network model = nn::make_mlp(ds.train.image_volume(), 8, 3, rng);
  EXPECT_THROW((void)evaluate_params(model, model.flatten_params(), ds.test, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace fedco::fl
