// Golden pins for real lenet-small training (the paper's Sec. VI model).
//
// Every other real-training golden runs the MLP, which never reaches the
// convolution kernels. These two constants were captured with the
// textbook src/nn kernels (plain triple-loop GEMMs, per-element
// im2col/col2im) before those kernels were rewritten for speed; the
// rewrite promises the same accumulation order for every output element,
// so both values must stay bit-identical. They are IEEE-754 bit patterns
// from the reference x86-64/libstdc++ toolchain (see
// core_scheduler_parity_test.cpp for the platform caveat).
#include <gtest/gtest.h>

#include <cstdint>

#include "golden_fingerprint.hpp"

namespace fedco {
namespace {

constexpr std::uint64_t kLenetRunFingerprint = 0x4FFEEE57F6EDA377ULL;
constexpr std::uint64_t kLenetAsyncParamHash = 0x084DB27C67981AD4ULL;

TEST(LenetGolden, ReducedPaperRunMatchesGolden) {
  const core::ExperimentConfig cfg = testing::lenet_training_config();
  const core::ExperimentResult result = core::run_experiment(cfg);
  // The run must exercise the kernels: several applied updates and a
  // non-trivial accuracy trace.
  EXPECT_GE(result.total_updates, 5u);
  EXPECT_GT(result.final_accuracy, 0.0);
  EXPECT_EQ(testing::fingerprint(result), kLenetRunFingerprint)
      << std::hex << testing::fingerprint(result);
}

TEST(LenetGolden, AsyncGlobalParamsMatchGolden) {
  EXPECT_EQ(testing::lenet_async_param_hash(), kLenetAsyncParamHash)
      << std::hex << testing::lenet_async_param_hash();
}

}  // namespace
}  // namespace fedco
