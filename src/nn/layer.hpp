// Layer abstraction and the concrete layers used by the model zoo.
// Layers own their parameters and parameter gradients; an optimizer walks
// them through Layer::params()/grads().
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/ops.hpp"
#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace fedco::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass; the layer caches whatever it needs for backward.
  virtual Tensor forward(const Tensor& input) = 0;

  /// Backward pass: receives dL/d(output), accumulates parameter gradients,
  /// returns dL/d(input). Must be called after forward on the same input.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Backward pass for a layer whose input gradient nobody reads (the
  /// first layer of a Network): accumulates exactly the parameter
  /// gradients backward() would and may skip dL/d(input).
  virtual void backward_params(const Tensor& grad_output) {
    (void)backward(grad_output);
  }

  /// Learnable parameter tensors (empty for stateless layers).
  virtual std::vector<Tensor*> params() { return {}; }
  /// Gradients, parallel to params().
  virtual std::vector<Tensor*> grads() { return {}; }

  virtual void zero_grad() {
    for (Tensor* g : grads()) g->zero();
  }

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::unique_ptr<Layer> clone() const = 0;
};

/// Fully connected layer: y = xW + b with x (N, in), W (in, out), b (out).
class Dense final : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features, util::Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::vector<Tensor*> params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> grads() override { return {&grad_weight_, &grad_bias_}; }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;

  [[nodiscard]] std::size_t in_features() const noexcept { return in_; }
  [[nodiscard]] std::size_t out_features() const noexcept { return out_; }

 private:
  /// Adds dW and db; returns dx when `input_grad`, else an empty tensor.
  Tensor accumulate(const Tensor& grad_output, bool input_grad);

  std::size_t in_;
  std::size_t out_;
  Tensor weight_;
  Tensor bias_;
  Tensor grad_weight_;
  Tensor grad_bias_;
  Tensor cached_input_;
};

/// 2-D convolution over NCHW input, square kernel, lowered via im2col.
class Conv2D final : public Layer {
 public:
  Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t stride, std::size_t pad, util::Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::vector<Tensor*> params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> grads() override { return {&grad_weight_, &grad_bias_}; }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;

 private:
  /// Adds dW and db; returns dx when `input_grad`, else an empty tensor.
  Tensor accumulate(const Tensor& grad_output, bool input_grad);

  std::size_t in_channels_;
  std::size_t out_channels_;
  std::size_t kernel_;
  std::size_t stride_;
  std::size_t pad_;
  Tensor weight_;      // (out_channels, in_channels * kernel^2)
  Tensor bias_;        // (out_channels)
  Tensor grad_weight_;
  Tensor grad_bias_;
  Tensor cached_input_;
};

/// Max pooling with square window == stride (non-overlapping).
class MaxPool2D final : public Layer {
 public:
  explicit MaxPool2D(std::size_t window);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;

 private:
  std::size_t window_;
  Shape cached_in_shape_;
  std::vector<std::size_t> argmax_;
};

/// Rectified linear unit.
class ReLU final : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "relu"; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ReLU>();
  }

 private:
  Tensor cached_input_;
};

/// Hyperbolic tangent (LeNet's classic nonlinearity).
class Tanh final : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "tanh"; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Tanh>();
  }

 private:
  Tensor cached_output_;
};

/// Average pooling with square window == stride (non-overlapping).
class AvgPool2D final : public Layer {
 public:
  explicit AvgPool2D(std::size_t window);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;

 private:
  std::size_t window_;
  Shape cached_in_shape_;
};

/// Inverted dropout: active only between train_mode(true/false) toggles;
/// in eval mode it is the identity. The keep mask is resampled per forward.
class Dropout final : public Layer {
 public:
  Dropout(double drop_probability, util::Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;

  void set_training(bool training) noexcept { training_ = training; }
  [[nodiscard]] bool training() const noexcept { return training_; }

 private:
  double drop_probability_;
  bool training_ = true;
  util::Rng rng_;
  std::vector<float> mask_;  ///< scale per element (0 or 1/keep)
};

/// Collapse NCHW to (N, C*H*W) for the dense head.
class Flatten final : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "flatten"; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Flatten>();
  }

 private:
  Shape cached_in_shape_;
};

}  // namespace fedco::nn
