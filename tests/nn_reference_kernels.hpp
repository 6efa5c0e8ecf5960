// Reference oracle for the src/nn kernels: the textbook loops the library
// shipped before its kernels were register-blocked, kept verbatim so the
// parity suite (nn_kernel_parity_test.cpp) can demand memcmp equality.
//
// The contract the production kernels keep is that every output element
// accumulates the same terms, in the same order and the same precision, as
// these loops. That includes the `av == 0` skip in gemm/gemm_at_b (visible
// when B holds inf or NaN, since 0·inf is NaN) and the float rounding of
// each per-sample weight gradient before it is added to the layer's
// accumulator.
#pragma once

#include <algorithm>
#include <cstddef>

#include "nn/ops.hpp"
#include "nn/tensor.hpp"

namespace fedco::nn::reference {

/// C (m×n) = A (m×k) · B (k×n), ikj order, skipping zero A entries.
inline void gemm(const Tensor& a, const Tensor& b, Tensor& c) {
  const std::size_t m = a.dim(0);
  const std::size_t k = a.dim(1);
  const std::size_t n = b.dim(1);
  c = Tensor{{m, n}};
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = pb + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// C (m×n) = Aᵀ · B with A stored (k×m), pij order, skipping zero A entries.
inline void gemm_at_b(const Tensor& a, const Tensor& b, Tensor& c) {
  const std::size_t k = a.dim(0);
  const std::size_t m = a.dim(1);
  const std::size_t n = b.dim(1);
  c = Tensor{{m, n}};
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = pa + p * m;
    const float* brow = pb + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = pc + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// C (m×n) = A (m×k) · Bᵀ with B stored (n×k); one double chain per output.
inline void gemm_a_bt(const Tensor& a, const Tensor& b, Tensor& c) {
  const std::size_t m = a.dim(0);
  const std::size_t k = a.dim(1);
  const std::size_t n = b.dim(0);
  c = Tensor{{m, n}};
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(arow[p]) * static_cast<double>(brow[p]);
      }
      crow[j] = static_cast<float>(acc);
    }
  }
}

/// One NCHW batch slice lowered to a (patch_size × positions) matrix,
/// element by element with a bounds test per element.
inline void im2col(const Tensor& input, std::size_t batch_index,
                   const ConvGeometry& g, Tensor& columns) {
  const std::size_t cols = g.positions();
  columns = Tensor{{g.patch_size(), cols}};
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  float* out = columns.data();
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    for (std::size_t kh = 0; kh < g.kernel; ++kh) {
      for (std::size_t kw = 0; kw < g.kernel; ++kw) {
        const std::size_t row = (c * g.kernel + kh) * g.kernel + kw;
        float* out_row = out + row * cols;
        for (std::size_t y = 0; y < oh; ++y) {
          const std::ptrdiff_t in_y =
              static_cast<std::ptrdiff_t>(y * g.stride + kh) -
              static_cast<std::ptrdiff_t>(g.pad);
          for (std::size_t x = 0; x < ow; ++x) {
            const std::ptrdiff_t in_x =
                static_cast<std::ptrdiff_t>(x * g.stride + kw) -
                static_cast<std::ptrdiff_t>(g.pad);
            float value = 0.0f;
            if (in_y >= 0 && in_y < static_cast<std::ptrdiff_t>(g.in_h) &&
                in_x >= 0 && in_x < static_cast<std::ptrdiff_t>(g.in_w)) {
              value = input.at4(batch_index, c, static_cast<std::size_t>(in_y),
                                static_cast<std::size_t>(in_x));
            }
            out_row[y * ow + x] = value;
          }
        }
      }
    }
  }
}

/// Scatter-add of a column matrix into one batch slice of `grad_input`, in
/// (channel, kh, kw, y, x) order.
inline void col2im(const Tensor& columns, std::size_t batch_index,
                   const ConvGeometry& g, Tensor& grad_input) {
  const std::size_t cols = g.positions();
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const float* in = columns.data();
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    for (std::size_t kh = 0; kh < g.kernel; ++kh) {
      for (std::size_t kw = 0; kw < g.kernel; ++kw) {
        const std::size_t row = (c * g.kernel + kh) * g.kernel + kw;
        const float* in_row = in + row * cols;
        for (std::size_t y = 0; y < oh; ++y) {
          const std::ptrdiff_t in_y =
              static_cast<std::ptrdiff_t>(y * g.stride + kh) -
              static_cast<std::ptrdiff_t>(g.pad);
          if (in_y < 0 || in_y >= static_cast<std::ptrdiff_t>(g.in_h)) continue;
          for (std::size_t x = 0; x < ow; ++x) {
            const std::ptrdiff_t in_x =
                static_cast<std::ptrdiff_t>(x * g.stride + kw) -
                static_cast<std::ptrdiff_t>(g.pad);
            if (in_x < 0 || in_x >= static_cast<std::ptrdiff_t>(g.in_w)) continue;
            grad_input.at4(batch_index, c, static_cast<std::size_t>(in_y),
                           static_cast<std::size_t>(in_x)) += in_row[y * ow + x];
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------- layers
//
// The forward and backward passes of Conv2D and Dense as the library
// computed them on top of the loops above. Parameter gradients accumulate
// into the passed tensors, like Layer::backward does. Calls are qualified:
// argument-dependent lookup would also find the production kernels.

/// Conv2D forward: weight (out_channels × patch), bias (out_channels).
inline Tensor conv2d_forward(const Tensor& input, const Tensor& weight,
                             const Tensor& bias, std::size_t kernel,
                             std::size_t stride, std::size_t pad) {
  const std::size_t n = input.dim(0);
  const std::size_t out_channels = weight.dim(0);
  const ConvGeometry g{input.dim(1), input.dim(2), input.dim(3),
                       kernel,       stride,       pad};
  Tensor out{{n, out_channels, g.out_h(), g.out_w()}};
  Tensor columns;
  Tensor result;
  for (std::size_t b = 0; b < n; ++b) {
    reference::im2col(input, b, g, columns);
    reference::gemm(weight, columns, result);
    for (std::size_t oc = 0; oc < out_channels; ++oc) {
      const float* src = result.data() + oc * g.positions();
      float* dst = &out.at4(b, oc, 0, 0);
      for (std::size_t p = 0; p < g.positions(); ++p) dst[p] = src[p] + bias[oc];
    }
  }
  return out;
}

/// Conv2D backward: returns dL/d(input); adds into grad_weight/grad_bias.
inline Tensor conv2d_backward(const Tensor& input, const Tensor& weight,
                              const Tensor& grad_output, std::size_t kernel,
                              std::size_t stride, std::size_t pad,
                              Tensor& grad_weight, Tensor& grad_bias) {
  const std::size_t n = input.dim(0);
  const std::size_t out_channels = weight.dim(0);
  const ConvGeometry g{input.dim(1), input.dim(2), input.dim(3),
                       kernel,       stride,       pad};
  const std::size_t positions = g.positions();
  Tensor grad_input{input.shape()};
  Tensor grad_cols;
  Tensor grad_out_mat{{out_channels, positions}};
  Tensor columns;
  Tensor dw;
  for (std::size_t b = 0; b < n; ++b) {
    const float* go = grad_output.data() + b * out_channels * positions;
    std::copy(go, go + out_channels * positions, grad_out_mat.data());
    reference::im2col(input, b, g, columns);
    reference::gemm_a_bt(grad_out_mat, columns, dw);
    grad_weight.add_(dw);
    for (std::size_t oc = 0; oc < out_channels; ++oc) {
      const float* row = grad_out_mat.data() + oc * positions;
      double acc = 0.0;
      for (std::size_t p = 0; p < positions; ++p) acc += static_cast<double>(row[p]);
      grad_bias[oc] += static_cast<float>(acc);
    }
    reference::gemm_at_b(weight, grad_out_mat, grad_cols);
    reference::col2im(grad_cols, b, g, grad_input);
  }
  return grad_input;
}

/// Dense forward: weight (in × out), bias (out).
inline Tensor dense_forward(const Tensor& input, const Tensor& weight,
                            const Tensor& bias) {
  const std::size_t n = input.dim(0);
  const std::size_t out_features = weight.dim(1);
  Tensor out;
  reference::gemm(input, weight, out);
  for (std::size_t i = 0; i < n; ++i) {
    float* row = out.data() + i * out_features;
    for (std::size_t j = 0; j < out_features; ++j) row[j] += bias[j];
  }
  return out;
}

/// Dense backward: returns dL/d(input); adds into grad_weight/grad_bias.
inline Tensor dense_backward(const Tensor& input, const Tensor& weight,
                             const Tensor& grad_output, Tensor& grad_weight,
                             Tensor& grad_bias) {
  const std::size_t n = input.dim(0);
  const std::size_t out_features = weight.dim(1);
  Tensor dw;
  reference::gemm_at_b(input, grad_output, dw);
  grad_weight.add_(dw);
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = grad_output.data() + i * out_features;
    for (std::size_t j = 0; j < out_features; ++j) grad_bias[j] += row[j];
  }
  Tensor dx;
  reference::gemm_a_bt(grad_output, weight, dx);
  return dx;
}

}  // namespace fedco::nn::reference
