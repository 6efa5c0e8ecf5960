// Numeric kernels: GEMM, im2col/col2im convolution lowering, pooling and
// softmax. These replace the OpenBLAS backend the paper cross-compiled for
// ARM. The GEMMs are register-blocked across independent outputs only:
// every output element accumulates the same terms, in the same order and
// precision, as the textbook loop it replaced (see README.md,
// "Determinism contract"), so blocking never changes a result bit.
#pragma once

#include <cstddef>

#include "nn/tensor.hpp"

namespace fedco::nn {

/// C (m×n) = A (m×k) · B (k×n). C is overwritten. Float accumulation in
/// p order per output; terms with A[i][p] == 0 are skipped.
void gemm(const Tensor& a, const Tensor& b, Tensor& c);

/// C (m×n) = Aᵀ · B with A stored (k×m) and B (k×n). C is overwritten.
/// Float accumulation in p order per output; zero A entries are skipped.
void gemm_at_b(const Tensor& a, const Tensor& b, Tensor& c);

/// C (m×n) = A (m×k) · Bᵀ with B stored (n×k). C is overwritten. Each
/// output is one double-precision sum in p order, rounded to float once.
void gemm_a_bt(const Tensor& a, const Tensor& b, Tensor& c);

/// Whether a raw GEMM overwrites C or adds its float result into C.
enum class Write { kAssign, kAdd };

/// Raw row-major forms of the three GEMMs above, with the same per-output
/// arithmetic. Shapes are given as (m, k, n) in the Tensor overloads'
/// sense. With Write::kAdd each output is computed exactly as kAssign
/// would compute it and then added to C with one float add. C must not
/// overlap A or B.
void gemm(const float* a, const float* b, float* c, std::size_t m,
          std::size_t k, std::size_t n);
void gemm_at_b(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n, Write write = Write::kAssign);
void gemm_a_bt(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n, Write write = Write::kAssign);

/// Geometry of a 2-D convolution / pooling window.
struct ConvGeometry {
  std::size_t in_channels = 0;
  std::size_t in_h = 0;
  std::size_t in_w = 0;
  std::size_t kernel = 1;
  std::size_t stride = 1;
  std::size_t pad = 0;

  [[nodiscard]] std::size_t out_h() const noexcept {
    return (in_h + 2 * pad - kernel) / stride + 1;
  }
  [[nodiscard]] std::size_t out_w() const noexcept {
    return (in_w + 2 * pad - kernel) / stride + 1;
  }
  /// Rows of the im2col matrix: channels × kernel².
  [[nodiscard]] std::size_t patch_size() const noexcept {
    return in_channels * kernel * kernel;
  }
  /// Columns of the im2col matrix: output positions.
  [[nodiscard]] std::size_t positions() const noexcept {
    return out_h() * out_w();
  }
};

/// Lower one image (C,H,W slice at batch index n of a NCHW tensor) into a
/// (patch_size × positions) column matrix.
void im2col(const Tensor& input, std::size_t batch_index, const ConvGeometry& g,
            Tensor& columns);

/// Scatter-add the column matrix back into the image gradient (inverse of
/// im2col); the batch slice of `grad_input` is accumulated into, not cleared.
/// Each pixel receives its terms in (kh, kw) order.
void col2im(const Tensor& columns, std::size_t batch_index,
            const ConvGeometry& g, Tensor& grad_input);

/// Raw forms on one (C, H, W) image: `columns` holds patch_size() ×
/// positions() floats and must not overlap `image`.
void im2col(const float* image, const ConvGeometry& g, float* columns);
void col2im(const float* columns, const ConvGeometry& g, float* image);

/// Row-wise softmax of a (N, K) logits matrix into `out` (same shape).
void softmax_rows(const Tensor& logits, Tensor& out);

}  // namespace fedco::nn
