#include "nn/layer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace fedco::nn {

namespace {
/// He-uniform initialisation bound for `fan_in` inputs.
float he_bound(std::size_t fan_in) noexcept {
  return std::sqrt(6.0f / static_cast<float>(fan_in == 0 ? 1 : fan_in));
}

void init_uniform(Tensor& t, float bound, util::Rng& rng) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-bound, bound));
  }
}

/// The two per-sample im2col-sized buffers of Conv2D (the lowered columns
/// and their gradient). A layer needs them only inside one forward or
/// backward call, so one pair per thread serves every network the thread
/// drives; a fleet holds one network per client, which would otherwise
/// multiply the buffers by the client count.
enum ConvScratch : std::size_t { kColumns = 0, kGradColumns = 1 };

float* conv_scratch(ConvScratch which, std::size_t size) {
  thread_local std::vector<float> buffers[2];
  std::vector<float>& buffer = buffers[which];
  if (buffer.size() < size) buffer.resize(size);
  return buffer.data();
}
}  // namespace

// ---------------------------------------------------------------- Dense

Dense::Dense(std::size_t in_features, std::size_t out_features, util::Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_({in_features, out_features}),
      bias_({out_features}),
      grad_weight_({in_features, out_features}),
      grad_bias_({out_features}) {
  if (in_features == 0 || out_features == 0) {
    throw std::invalid_argument{"Dense: zero-sized layer"};
  }
  init_uniform(weight_, he_bound(in_features), rng);
}

Tensor Dense::forward(const Tensor& input) {
  if (input.rank() != 2 || input.dim(1) != in_) {
    throw std::invalid_argument{"Dense::forward: expected (N, " +
                                std::to_string(in_) + "), got " +
                                shape_to_string(input.shape())};
  }
  cached_input_ = input;
  const std::size_t n = input.dim(0);
  Tensor out{{n, out_}};
  gemm(input.data(), weight_.data(), out.data(), n, in_, out_);
  for (std::size_t i = 0; i < n; ++i) {
    float* row = out.data() + i * out_;
    for (std::size_t j = 0; j < out_; ++j) row[j] += bias_[j];
  }
  return out;
}

Tensor Dense::backward(const Tensor& grad_output) {
  return accumulate(grad_output, true);
}

void Dense::backward_params(const Tensor& grad_output) {
  (void)accumulate(grad_output, false);
}

Tensor Dense::accumulate(const Tensor& grad_output, bool input_grad) {
  const std::size_t n = cached_input_.dim(0);
  if (grad_output.rank() != 2 || grad_output.dim(0) != n ||
      grad_output.dim(1) != out_) {
    throw std::invalid_argument{"Dense::backward: bad grad shape"};
  }
  // dW += x^T g ; db += sum over batch ; dx = g W^T. Write::kAdd rounds
  // each x^T g entry to float before adding it, as a separate dW would.
  gemm_at_b(cached_input_.data(), grad_output.data(), grad_weight_.data(), in_,
            n, out_, Write::kAdd);
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = grad_output.data() + i * out_;
    for (std::size_t j = 0; j < out_; ++j) grad_bias_[j] += row[j];
  }
  if (!input_grad) return {};
  Tensor dx{{n, in_}};
  gemm_a_bt(grad_output.data(), weight_.data(), dx.data(), n, out_, in_);
  return dx;
}

std::string Dense::name() const {
  return "dense(" + std::to_string(in_) + "->" + std::to_string(out_) + ")";
}

std::unique_ptr<Layer> Dense::clone() const {
  return std::make_unique<Dense>(*this);
}

// ---------------------------------------------------------------- Conv2D

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t pad,
               util::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_({out_channels, in_channels * kernel * kernel}),
      bias_({out_channels}),
      grad_weight_({out_channels, in_channels * kernel * kernel}),
      grad_bias_({out_channels}) {
  if (in_channels == 0 || out_channels == 0 || kernel == 0 || stride == 0) {
    throw std::invalid_argument{"Conv2D: zero-sized geometry"};
  }
  init_uniform(weight_, he_bound(in_channels * kernel * kernel), rng);
}

Tensor Conv2D::forward(const Tensor& input) {
  if (input.rank() != 4 || input.dim(1) != in_channels_) {
    throw std::invalid_argument{"Conv2D::forward: expected NCHW with C=" +
                                std::to_string(in_channels_) + ", got " +
                                shape_to_string(input.shape())};
  }
  cached_input_ = input;
  const std::size_t n = input.dim(0);
  const ConvGeometry g{in_channels_, input.dim(2), input.dim(3),
                       kernel_,      stride_,      pad_};
  if (g.in_h + 2 * g.pad < g.kernel || g.in_w + 2 * g.pad < g.kernel) {
    throw std::invalid_argument{"Conv2D::forward: kernel larger than input"};
  }
  const std::size_t positions = g.positions();
  const std::size_t patch = g.patch_size();
  const std::size_t image = in_channels_ * g.in_h * g.in_w;
  Tensor out{{n, out_channels_, g.out_h(), g.out_w()}};
  float* columns = conv_scratch(kColumns, patch * positions);
  for (std::size_t b = 0; b < n; ++b) {
    im2col(input.data() + b * image, g, columns);
    float* dst = out.data() + b * out_channels_ * positions;
    gemm(weight_.data(), columns, dst, out_channels_, patch, positions);
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      const float bias = bias_[oc];
      float* row = dst + oc * positions;
      for (std::size_t p = 0; p < positions; ++p) row[p] += bias;
    }
  }
  return out;
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  return accumulate(grad_output, true);
}

void Conv2D::backward_params(const Tensor& grad_output) {
  (void)accumulate(grad_output, false);
}

Tensor Conv2D::accumulate(const Tensor& grad_output, bool input_grad) {
  const std::size_t n = cached_input_.dim(0);
  const ConvGeometry g{in_channels_, cached_input_.dim(2), cached_input_.dim(3),
                       kernel_,      stride_,              pad_};
  const std::size_t positions = g.positions();
  if (grad_output.rank() != 4 || grad_output.dim(0) != n ||
      grad_output.dim(1) != out_channels_ ||
      grad_output.dim(2) * grad_output.dim(3) != positions) {
    throw std::invalid_argument{"Conv2D::backward: bad grad shape"};
  }
  const std::size_t patch = g.patch_size();
  const std::size_t image = in_channels_ * g.in_h * g.in_w;
  Tensor grad_input{input_grad ? cached_input_.shape() : Shape{}};
  float* columns = conv_scratch(kColumns, patch * positions);
  float* grad_cols =
      input_grad ? conv_scratch(kGradColumns, patch * positions) : nullptr;
  for (std::size_t b = 0; b < n; ++b) {
    // This batch element's output gradient, an (out_channels, positions)
    // matrix in place.
    const float* go = grad_output.data() + b * out_channels_ * positions;
    // dW += gO · cols^T  (recompute cols; cheaper than caching N copies).
    // Write::kAdd rounds each per-sample entry to float before adding it.
    im2col(cached_input_.data() + b * image, g, columns);
    gemm_a_bt(go, columns, grad_weight_.data(), out_channels_, positions,
              patch, Write::kAdd);
    // db += row sums of gO.
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      const float* row = go + oc * positions;
      double acc = 0.0;
      for (std::size_t p = 0; p < positions; ++p) acc += static_cast<double>(row[p]);
      grad_bias_[oc] += static_cast<float>(acc);
    }
    if (!input_grad) continue;
    // dCols = W^T · gO, then scatter back to the input gradient.
    gemm_at_b(weight_.data(), go, grad_cols, patch, out_channels_, positions);
    col2im(grad_cols, g, grad_input.data() + b * image);
  }
  return grad_input;
}

std::string Conv2D::name() const {
  return "conv(" + std::to_string(in_channels_) + "->" +
         std::to_string(out_channels_) + ",k" + std::to_string(kernel_) + ",s" +
         std::to_string(stride_) + ",p" + std::to_string(pad_) + ")";
}

std::unique_ptr<Layer> Conv2D::clone() const {
  return std::make_unique<Conv2D>(*this);
}

// ---------------------------------------------------------------- MaxPool2D

MaxPool2D::MaxPool2D(std::size_t window) : window_(window) {
  if (window == 0) throw std::invalid_argument{"MaxPool2D: zero window"};
}

Tensor MaxPool2D::forward(const Tensor& input) {
  if (input.rank() != 4) throw std::invalid_argument{"MaxPool2D: expected NCHW"};
  cached_in_shape_ = input.shape();
  const std::size_t n = input.dim(0);
  const std::size_t c = input.dim(1);
  const std::size_t h = input.dim(2);
  const std::size_t w = input.dim(3);
  const std::size_t oh = h / window_;
  const std::size_t ow = w / window_;
  if (oh == 0 || ow == 0) {
    throw std::invalid_argument{"MaxPool2D: window larger than input"};
  }
  Tensor out{{n, c, oh, ow}};
  argmax_.assign(out.size(), 0);
  std::size_t out_index = 0;
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t x = 0; x < ow; ++x) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_index = 0;
          for (std::size_t dy = 0; dy < window_; ++dy) {
            for (std::size_t dx = 0; dx < window_; ++dx) {
              const std::size_t in_y = y * window_ + dy;
              const std::size_t in_x = x * window_ + dx;
              const std::size_t idx = ((b * c + ch) * h + in_y) * w + in_x;
              const float value = input[idx];
              if (value > best) {
                best = value;
                best_index = idx;
              }
            }
          }
          out[out_index] = best;
          argmax_[out_index] = best_index;
          ++out_index;
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2D::backward(const Tensor& grad_output) {
  if (grad_output.size() != argmax_.size()) {
    throw std::invalid_argument{"MaxPool2D::backward: bad grad shape"};
  }
  Tensor grad_input{cached_in_shape_};
  for (std::size_t i = 0; i < grad_output.size(); ++i) {
    grad_input[argmax_[i]] += grad_output[i];
  }
  return grad_input;
}

std::string MaxPool2D::name() const {
  return "maxpool(" + std::to_string(window_) + ")";
}

std::unique_ptr<Layer> MaxPool2D::clone() const {
  return std::make_unique<MaxPool2D>(*this);
}

// ---------------------------------------------------------------- AvgPool2D

AvgPool2D::AvgPool2D(std::size_t window) : window_(window) {
  if (window == 0) throw std::invalid_argument{"AvgPool2D: zero window"};
}

Tensor AvgPool2D::forward(const Tensor& input) {
  if (input.rank() != 4) throw std::invalid_argument{"AvgPool2D: expected NCHW"};
  cached_in_shape_ = input.shape();
  const std::size_t n = input.dim(0);
  const std::size_t c = input.dim(1);
  const std::size_t h = input.dim(2);
  const std::size_t w = input.dim(3);
  const std::size_t oh = h / window_;
  const std::size_t ow = w / window_;
  if (oh == 0 || ow == 0) {
    throw std::invalid_argument{"AvgPool2D: window larger than input"};
  }
  Tensor out{{n, c, oh, ow}};
  const float inv = 1.0f / static_cast<float>(window_ * window_);
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t x = 0; x < ow; ++x) {
          float acc = 0.0f;
          for (std::size_t dy = 0; dy < window_; ++dy) {
            for (std::size_t dx = 0; dx < window_; ++dx) {
              acc += input.at4(b, ch, y * window_ + dy, x * window_ + dx);
            }
          }
          out.at4(b, ch, y, x) = acc * inv;
        }
      }
    }
  }
  return out;
}

Tensor AvgPool2D::backward(const Tensor& grad_output) {
  Tensor grad_input{cached_in_shape_};
  const std::size_t n = grad_output.dim(0);
  const std::size_t c = grad_output.dim(1);
  const std::size_t oh = grad_output.dim(2);
  const std::size_t ow = grad_output.dim(3);
  const float inv = 1.0f / static_cast<float>(window_ * window_);
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t x = 0; x < ow; ++x) {
          const float g = grad_output.at4(b, ch, y, x) * inv;
          for (std::size_t dy = 0; dy < window_; ++dy) {
            for (std::size_t dx = 0; dx < window_; ++dx) {
              grad_input.at4(b, ch, y * window_ + dy, x * window_ + dx) += g;
            }
          }
        }
      }
    }
  }
  return grad_input;
}

std::string AvgPool2D::name() const {
  return "avgpool(" + std::to_string(window_) + ")";
}

std::unique_ptr<Layer> AvgPool2D::clone() const {
  return std::make_unique<AvgPool2D>(*this);
}

// ---------------------------------------------------------------- Dropout

Dropout::Dropout(double drop_probability, util::Rng& rng)
    : drop_probability_(drop_probability), rng_(rng.fork()) {
  if (drop_probability < 0.0 || drop_probability >= 1.0) {
    throw std::invalid_argument{"Dropout: probability must be in [0, 1)"};
  }
}

Tensor Dropout::forward(const Tensor& input) {
  if (!training_ || drop_probability_ == 0.0) {
    mask_.clear();
    return input;
  }
  const auto keep_scale =
      static_cast<float>(1.0 / (1.0 - drop_probability_));
  mask_.resize(input.size());
  Tensor out{input.shape()};
  for (std::size_t i = 0; i < input.size(); ++i) {
    mask_[i] = rng_.bernoulli(drop_probability_) ? 0.0f : keep_scale;
    out[i] = input[i] * mask_[i];
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (mask_.empty()) return grad_output;  // eval mode / p == 0
  if (grad_output.size() != mask_.size()) {
    throw std::invalid_argument{"Dropout::backward: bad grad shape"};
  }
  Tensor grad_input{grad_output.shape()};
  for (std::size_t i = 0; i < grad_output.size(); ++i) {
    grad_input[i] = grad_output[i] * mask_[i];
  }
  return grad_input;
}

std::string Dropout::name() const {
  return "dropout(" + std::to_string(drop_probability_) + ")";
}

std::unique_ptr<Layer> Dropout::clone() const {
  return std::make_unique<Dropout>(*this);
}

// ---------------------------------------------------------------- ReLU / Tanh

Tensor ReLU::forward(const Tensor& input) {
  cached_input_ = input;
  Tensor out{input.shape()};
  for (std::size_t i = 0; i < input.size(); ++i) {
    out[i] = input[i] > 0.0f ? input[i] : 0.0f;
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  if (!grad_output.same_shape(cached_input_)) {
    throw std::invalid_argument{"ReLU::backward: bad grad shape"};
  }
  Tensor grad_input{grad_output.shape()};
  for (std::size_t i = 0; i < grad_output.size(); ++i) {
    grad_input[i] = cached_input_[i] > 0.0f ? grad_output[i] : 0.0f;
  }
  return grad_input;
}

Tensor Tanh::forward(const Tensor& input) {
  Tensor out{input.shape()};
  for (std::size_t i = 0; i < input.size(); ++i) {
    out[i] = std::tanh(input[i]);
  }
  cached_output_ = out;
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  if (!grad_output.same_shape(cached_output_)) {
    throw std::invalid_argument{"Tanh::backward: bad grad shape"};
  }
  Tensor grad_input{grad_output.shape()};
  for (std::size_t i = 0; i < grad_output.size(); ++i) {
    const float y = cached_output_[i];
    grad_input[i] = grad_output[i] * (1.0f - y * y);
  }
  return grad_input;
}

// ---------------------------------------------------------------- Flatten

Tensor Flatten::forward(const Tensor& input) {
  if (input.rank() < 2) throw std::invalid_argument{"Flatten: rank >= 2"};
  cached_in_shape_ = input.shape();
  const std::size_t n = input.dim(0);
  return input.reshaped({n, input.size() / n});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  return grad_output.reshaped(cached_in_shape_);
}

}  // namespace fedco::nn
