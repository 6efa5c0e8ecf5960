// Exact parity of the register-blocked src/nn kernels with the textbook
// loops they replaced (tests/nn_reference_kernels.hpp). Every comparison is
// memcmp: the kernels promise the same terms, order and precision per
// output, so not a single bit may differ — including the sign of zero and
// NaN results when B holds ±0, inf or NaN.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "nn/layer.hpp"
#include "nn/network.hpp"
#include "nn/ops.hpp"
#include "nn_reference_kernels.hpp"
#include "util/rng.hpp"

namespace fedco::nn {
namespace {

/// The NaN the hardware produces for 0·inf. Using it as the only NaN input
/// keeps every NaN in a run bit-identical, so memcmp does not depend on
/// which operand a compiler puts first in a commutative add.
float default_nan() {
  volatile float zero = 0.0f;
  volatile float inf = std::numeric_limits<float>::infinity();
  return zero * inf;
}

struct Fill {
  double zero_fraction = 0.0;     ///< share of exact +0 entries
  double special_fraction = 0.0;  ///< share of -0, ±inf and NaN entries
};

Tensor random_tensor(Shape shape, util::Rng& rng, Fill fill = {}) {
  Tensor t{std::move(shape)};
  const float specials[] = {-0.0f, std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            default_nan()};
  for (float& x : t.flat()) {
    const double u = rng.uniform();
    if (u < fill.zero_fraction) {
      x = 0.0f;
    } else if (u < fill.zero_fraction + fill.special_fraction) {
      x = specials[rng.uniform_int(0, 3)];
    } else {
      x = static_cast<float>(rng.normal());
    }
  }
  return t;
}

::testing::AssertionResult bit_equal(const Tensor& got, const Tensor& want) {
  if (got.shape() != want.shape()) {
    return ::testing::AssertionFailure()
           << "shape " << shape_to_string(got.shape()) << " vs "
           << shape_to_string(want.shape());
  }
  if (std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) != 0) {
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (std::memcmp(got.data() + i, want.data() + i, sizeof(float)) != 0) {
        return ::testing::AssertionFailure()
               << "first difference at flat index " << i << ": " << got[i]
               << " vs " << want[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// Sizes on both sides of every block width (strips of 32 and 8 outputs,
// lane blocks of 8), including 1.
const std::size_t kSizes[] = {1, 2, 3, 7, 8, 9, 16, 31, 32, 33, 40, 75};

struct Dims {
  std::size_t m;
  std::size_t k;
  std::size_t n;
};

std::vector<Dims> gemm_dims() {
  std::vector<Dims> dims;
  // Every size in each role with the other two at 1 and at a block edge.
  for (const std::size_t s : kSizes) {
    dims.push_back({s, 1, 1});
    dims.push_back({1, s, 1});
    dims.push_back({1, 1, s});
    dims.push_back({s, 9, 33});
    dims.push_back({3, s, 17});
    dims.push_back({6, 75, s});
  }
  // Random triples, plus the lenet-small shapes themselves.
  util::Rng rng{2718};
  for (int i = 0; i < 40; ++i) {
    dims.push_back({kSizes[rng.uniform_int(0, 11)], kSizes[rng.uniform_int(0, 11)],
                    kSizes[rng.uniform_int(0, 11)]});
  }
  dims.push_back({6, 75, 256});   // conv1 forward
  dims.push_back({16, 150, 16});  // conv2 forward
  dims.push_back({20, 64, 48});   // dense1 forward
  return dims;
}

const Fill kFills[] = {
    {0.0, 0.0},  // plain
    {0.4, 0.0},  // zeros: the skip path
    {0.2, 0.1},  // zeros plus ±0, ±inf and NaN
};

TEST(KernelParity, Gemm) {
  util::Rng rng{11};
  for (const Dims& d : gemm_dims()) {
    for (const Fill& fill : kFills) {
      // Zeros go into A (the skipped operand), specials into B.
      const Tensor a = random_tensor({d.m, d.k}, rng, {fill.zero_fraction, 0.0});
      const Tensor b = random_tensor({d.k, d.n}, rng, {0.0, fill.special_fraction});
      Tensor want;
      reference::gemm(a, b, want);
      Tensor got{{d.m, d.n}};
      got.fill(7.0f);  // stale contents must be overwritten
      gemm(a, b, got);
      EXPECT_TRUE(bit_equal(got, want)) << d.m << "x" << d.k << "x" << d.n;
    }
  }
}

TEST(KernelParity, GemmAtB) {
  util::Rng rng{13};
  for (const Dims& d : gemm_dims()) {
    for (const Fill& fill : kFills) {
      const Tensor a = random_tensor({d.k, d.m}, rng, {fill.zero_fraction, 0.0});
      const Tensor b = random_tensor({d.k, d.n}, rng, {0.0, fill.special_fraction});
      Tensor want;
      reference::gemm_at_b(a, b, want);
      Tensor got;
      gemm_at_b(a, b, got);
      EXPECT_TRUE(bit_equal(got, want)) << d.m << "x" << d.k << "x" << d.n;

      // Write::kAdd: the same float result, added once to each C entry.
      Tensor acc = random_tensor({d.m, d.n}, rng);
      Tensor acc_want = acc;
      for (std::size_t i = 0; i < acc.size(); ++i) acc_want[i] += want[i];
      gemm_at_b(a.data(), b.data(), acc.data(), d.m, d.k, d.n, Write::kAdd);
      EXPECT_TRUE(bit_equal(acc, acc_want)) << "kAdd " << d.m << "x" << d.k
                                            << "x" << d.n;
    }
  }
}

TEST(KernelParity, GemmABt) {
  util::Rng rng{17};
  for (const Dims& d : gemm_dims()) {
    for (const Fill& fill : kFills) {
      const Tensor a = random_tensor({d.m, d.k}, rng, {fill.zero_fraction, 0.0});
      const Tensor b = random_tensor({d.n, d.k}, rng, {0.0, fill.special_fraction});
      Tensor want;
      reference::gemm_a_bt(a, b, want);
      Tensor got;
      gemm_a_bt(a, b, got);
      EXPECT_TRUE(bit_equal(got, want)) << d.m << "x" << d.k << "x" << d.n;

      // Write::kAdd matches the layers' old "dw then add_(dw)" sequence.
      Tensor acc = random_tensor({d.m, d.n}, rng);
      Tensor acc_want = acc;
      acc_want.add_(want);
      gemm_a_bt(a.data(), b.data(), acc.data(), d.m, d.k, d.n, Write::kAdd);
      EXPECT_TRUE(bit_equal(acc, acc_want)) << "kAdd " << d.m << "x" << d.k
                                            << "x" << d.n;
    }
  }
}

std::vector<ConvGeometry> conv_geometries() {
  std::vector<ConvGeometry> out;
  for (const std::size_t channels : {1, 3}) {
    for (const std::size_t h : {1, 5, 8}) {
      for (const std::size_t w : {1, 4, 9}) {
        for (const std::size_t kernel : {1, 2, 3, 5}) {
          for (const std::size_t stride : {1, 2, 3}) {
            for (const std::size_t pad : {0, 1, 2}) {
              if (h + 2 * pad < kernel || w + 2 * pad < kernel) continue;
              out.push_back({channels, h, w, kernel, stride, pad});
            }
          }
        }
      }
    }
  }
  out.push_back({3, 16, 16, 5, 1, 2});  // lenet-small conv1
  out.push_back({6, 8, 8, 5, 1, 0});    // lenet-small conv2
  out.push_back({3, 32, 32, 5, 1, 0});  // lenet5 conv1
  return out;
}

TEST(KernelParity, Im2Col) {
  util::Rng rng{19};
  for (const ConvGeometry& g : conv_geometries()) {
    const Tensor image =
        random_tensor({2, g.in_channels, g.in_h, g.in_w}, rng, {0.1, 0.1});
    for (std::size_t b = 0; b < 2; ++b) {
      Tensor want;
      reference::im2col(image, b, g, want);
      Tensor got{{g.patch_size(), g.positions()}};
      got.fill(-3.0f);  // padding entries must be written, not assumed
      im2col(image, b, g, got);
      EXPECT_TRUE(bit_equal(got, want))
          << "c" << g.in_channels << " " << g.in_h << "x" << g.in_w << " k"
          << g.kernel << " s" << g.stride << " p" << g.pad;
    }
  }
}

TEST(KernelParity, Col2Im) {
  util::Rng rng{23};
  for (const ConvGeometry& g : conv_geometries()) {
    const Tensor columns =
        random_tensor({g.patch_size(), g.positions()}, rng, {0.1, 0.1});
    // col2im accumulates into the slice; start from non-zero contents and
    // leave the other batch slice untouched.
    Tensor want = random_tensor({2, g.in_channels, g.in_h, g.in_w}, rng);
    Tensor got = want;
    reference::col2im(columns, 1, g, want);
    col2im(columns, 1, g, got);
    EXPECT_TRUE(bit_equal(got, want))
        << "c" << g.in_channels << " " << g.in_h << "x" << g.in_w << " k"
        << g.kernel << " s" << g.stride << " p" << g.pad;
  }
}

// ------------------------------------------------------------- layers

struct ConvCase {
  std::size_t in_channels;
  std::size_t out_channels;
  std::size_t size;
  std::size_t kernel;
  std::size_t stride;
  std::size_t pad;
};

const ConvCase kConvCases[] = {
    {3, 6, 16, 5, 1, 2},  // lenet-small conv1
    {6, 16, 8, 5, 1, 0},  // lenet-small conv2
    {2, 5, 9, 3, 2, 0},
    {2, 9, 7, 3, 2, 2},
    {1, 3, 6, 2, 1, 2},
};

TEST(LayerParity, Conv2DForwardBackward) {
  for (const ConvCase& c : kConvCases) {
    util::Rng rng{29};
    Conv2D layer{c.in_channels, c.out_channels, c.kernel, c.stride, c.pad, rng};
    // Zeros in the weights exercise the skip in both GEMMs.
    Tensor& weight = *layer.params()[0];
    Tensor& bias = *layer.params()[1];
    for (std::size_t i = 0; i < weight.size(); i += 5) weight[i] = 0.0f;
    for (float& x : bias.flat()) x = static_cast<float>(rng.normal());
    const Tensor input =
        random_tensor({3, c.in_channels, c.size, c.size}, rng, {0.3, 0.0});

    const Tensor out = layer.forward(input);
    const Tensor want_out =
        reference::conv2d_forward(input, weight, bias, c.kernel, c.stride, c.pad);
    ASSERT_TRUE(bit_equal(out, want_out)) << layer.name();

    const Tensor grad_out = random_tensor(out.shape(), rng, {0.3, 0.0});
    // Two backward passes: the gradients must accumulate identically.
    Tensor want_gw{weight.shape()};
    Tensor want_gb{bias.shape()};
    Tensor want_gx;
    for (int pass = 0; pass < 2; ++pass) {
      want_gx = reference::conv2d_backward(input, weight, grad_out, c.kernel,
                                           c.stride, c.pad, want_gw, want_gb);
    }
    layer.zero_grad();
    Tensor gx;
    for (int pass = 0; pass < 2; ++pass) gx = layer.backward(grad_out);
    EXPECT_TRUE(bit_equal(gx, want_gx)) << layer.name();
    EXPECT_TRUE(bit_equal(*layer.grads()[0], want_gw)) << layer.name();
    EXPECT_TRUE(bit_equal(*layer.grads()[1], want_gb)) << layer.name();

    // The parameter-only pass accumulates exactly the same gradients.
    layer.zero_grad();
    for (int pass = 0; pass < 2; ++pass) layer.backward_params(grad_out);
    EXPECT_TRUE(bit_equal(*layer.grads()[0], want_gw)) << layer.name();
    EXPECT_TRUE(bit_equal(*layer.grads()[1], want_gb)) << layer.name();
  }
}

TEST(LayerParity, DenseForwardBackward) {
  const Dims shapes[] = {{20, 64, 48}, {20, 48, 10}, {100, 64, 48},
                         {1, 1, 1},    {7, 33, 9},   {3, 8, 40}};
  for (const Dims& d : shapes) {  // (batch, in, out)
    util::Rng rng{31};
    Dense layer{d.k, d.n, rng};
    const Tensor& weight = *layer.params()[0];
    Tensor& bias = *layer.params()[1];
    for (float& x : bias.flat()) x = static_cast<float>(rng.normal());
    // Post-ReLU style input: many exact zeros for the dW skip path.
    const Tensor input = random_tensor({d.m, d.k}, rng, {0.5, 0.0});

    const Tensor out = layer.forward(input);
    ASSERT_TRUE(bit_equal(out, reference::dense_forward(input, weight, bias)));

    const Tensor grad_out = random_tensor(out.shape(), rng);
    Tensor want_gw{weight.shape()};
    Tensor want_gb{bias.shape()};
    Tensor want_gx;
    for (int pass = 0; pass < 2; ++pass) {
      want_gx = reference::dense_backward(input, weight, grad_out, want_gw,
                                          want_gb);
    }
    layer.zero_grad();
    Tensor gx;
    for (int pass = 0; pass < 2; ++pass) gx = layer.backward(grad_out);
    EXPECT_TRUE(bit_equal(gx, want_gx)) << layer.name();
    EXPECT_TRUE(bit_equal(*layer.grads()[0], want_gw)) << layer.name();
    EXPECT_TRUE(bit_equal(*layer.grads()[1], want_gb)) << layer.name();

    layer.zero_grad();
    for (int pass = 0; pass < 2; ++pass) layer.backward_params(grad_out);
    EXPECT_TRUE(bit_equal(*layer.grads()[0], want_gw)) << layer.name();
    EXPECT_TRUE(bit_equal(*layer.grads()[1], want_gb)) << layer.name();
  }
}

TEST(LayerParity, NetworkBackwardSkipsOnlyTheInputGradient) {
  // Network::backward runs the first layer parameter-only; every gradient
  // must equal a full chain of Layer::backward calls.
  util::Rng rng{37};
  Network net;
  net.add(std::make_unique<Conv2D>(3, 4, 3, 1, 1, rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<Flatten>());
  net.add(std::make_unique<Dense>(4 * 6 * 6, 5, rng));
  // The reference chain: clones of the untrained layers, every one run
  // through Layer::backward.
  std::vector<std::unique_ptr<Layer>> layers;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    layers.push_back(net.layer(i).clone());
  }
  const Tensor input = random_tensor({4, 3, 6, 6}, rng);
  const std::vector<std::size_t> labels{0, 1, 2, 3};

  (void)net.train_batch(input, labels);

  Tensor activation = input;
  for (auto& layer : layers) activation = layer->forward(activation);
  Tensor grad;
  (void)softmax_cross_entropy(activation, labels, grad);
  for (auto it = layers.rbegin(); it != layers.rend(); ++it) {
    grad = (*it)->backward(grad);
  }
  std::vector<Tensor*> want;
  for (auto& layer : layers) {
    for (Tensor* g : layer->grads()) want.push_back(g);
  }
  const std::vector<Tensor*> got = net.grads();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(bit_equal(*got[i], *want[i])) << "gradient tensor " << i;
  }
}

}  // namespace
}  // namespace fedco::nn
