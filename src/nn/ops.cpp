#include "nn/ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace fedco::nn {

namespace {
void require_matrix(const Tensor& t, const char* who) {
  if (t.rank() != 2) {
    throw std::invalid_argument{std::string{who} + ": expected rank-2 tensor, got " +
                                shape_to_string(t.shape())};
  }
}

/// Resize `c` to (m × n) unless it already has that shape; the raw kernels
/// overwrite every element, so the contents need no clearing.
void shape_output(Tensor& c, std::size_t m, std::size_t n) {
  if (c.rank() != 2 || c.dim(0) != m || c.dim(1) != n) c = Tensor{{m, n}};
}

// Register blocking. A strip is kStrip adjacent outputs of one C row that
// share each broadcast A value; a lane block is kLanes adjacent B rows of
// gemm_a_bt, one double chain each. Both widths only group independent
// outputs, so neither changes any output's terms or their order.
constexpr std::size_t kStrip = 32;
constexpr std::size_t kLanes = 8;

/// One strip of W outputs: acc[j] = Σ_p a[p·a_step] · b[p·ldb + j] in
/// float, p ascending, skipping a == 0 (0·inf would be NaN). The sums
/// start at +0, like the cleared C of the textbook loop.
template <std::size_t W>
void strip(const float* a, std::size_t a_step, const float* b,
           std::size_t ldb, std::size_t k, float* c, Write write) {
  float acc[W] = {};
  for (std::size_t p = 0; p < k; ++p) {
    const float av = a[p * a_step];
    if (av == 0.0f) continue;
    const float* brow = b + p * ldb;
    for (std::size_t j = 0; j < W; ++j) acc[j] += av * brow[j];
  }
  if (write == Write::kAdd) {
    for (std::size_t j = 0; j < W; ++j) c[j] += acc[j];
  } else {
    for (std::size_t j = 0; j < W; ++j) c[j] = acc[j];
  }
}

/// One C row of n outputs in strips of kStrip, then 8, then 1.
void strip_row(const float* a, std::size_t a_step, const float* b,
               std::size_t n, std::size_t k, float* c, Write write) {
  std::size_t j = 0;
  for (; j + kStrip <= n; j += kStrip) {
    strip<kStrip>(a, a_step, b + j, n, k, c + j, write);
  }
  for (; j + 8 <= n; j += 8) strip<8>(a, a_step, b + j, n, k, c + j, write);
  for (; j < n; ++j) strip<1>(a, a_step, b + j, n, k, c + j, write);
}

/// Output positions x in [lo, hi) whose input coordinate x·stride + k − pad
/// falls inside [0, extent): the hoisted padding bounds of one kernel tap.
struct Span {
  std::size_t lo;
  std::size_t hi;
};

Span valid_span(std::size_t out, std::size_t extent, std::size_t stride,
                std::size_t pad, std::size_t k) {
  const std::size_t lo = pad > k ? (pad - k + stride - 1) / stride : 0;
  std::size_t hi = extent + pad > k ? (extent + pad - k - 1) / stride + 1 : 0;
  hi = std::min(hi, out);
  return {std::min(lo, hi), hi};
}
}  // namespace

void gemm(const float* a, const float* b, float* c, std::size_t m,
          std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    strip_row(a + i * k, 1, b, n, k, c + i * n, Write::kAssign);
  }
}

void gemm_at_b(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n, Write write) {
  for (std::size_t i = 0; i < m; ++i) {
    strip_row(a + i, m, b, n, k, c + i * n, write);
  }
}

void gemm_a_bt(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n, Write write) {
  // Each lane block of B rows is packed p-major in double, so the kLanes
  // chains of one A row advance together: acc[l] += a[i][p] · b[j+l][p],
  // p ascending, exactly the per-output chain of the textbook loop. The
  // float·float products are exact in double, the adds round as before.
  thread_local std::vector<double> packed;
  packed.resize(k * kLanes);
  for (std::size_t j = 0; j < n; j += kLanes) {
    const std::size_t lanes = std::min(kLanes, n - j);
    if (lanes < kLanes) std::fill(packed.begin(), packed.end(), 0.0);
    for (std::size_t l = 0; l < lanes; ++l) {
      const float* brow = b + (j + l) * k;
      for (std::size_t p = 0; p < k; ++p) {
        packed[p * kLanes + l] = static_cast<double>(brow[p]);
      }
    }
    for (std::size_t i = 0; i < m; ++i) {
      const float* arow = a + i * k;
      double acc[kLanes] = {};
      for (std::size_t p = 0; p < k; ++p) {
        const auto av = static_cast<double>(arow[p]);
        const double* bp = packed.data() + p * kLanes;
        for (std::size_t l = 0; l < kLanes; ++l) acc[l] += av * bp[l];
      }
      float* crow = c + i * n + j;
      for (std::size_t l = 0; l < lanes; ++l) {
        const auto value = static_cast<float>(acc[l]);
        if (write == Write::kAdd) {
          crow[l] += value;
        } else {
          crow[l] = value;
        }
      }
    }
  }
}

void gemm(const Tensor& a, const Tensor& b, Tensor& c) {
  require_matrix(a, "gemm A");
  require_matrix(b, "gemm B");
  const std::size_t m = a.dim(0);
  const std::size_t k = a.dim(1);
  const std::size_t n = b.dim(1);
  if (b.dim(0) != k) throw std::invalid_argument{"gemm: inner dims differ"};
  shape_output(c, m, n);
  gemm(a.data(), b.data(), c.data(), m, k, n);
}

void gemm_at_b(const Tensor& a, const Tensor& b, Tensor& c) {
  require_matrix(a, "gemm_at_b A");
  require_matrix(b, "gemm_at_b B");
  const std::size_t k = a.dim(0);
  const std::size_t m = a.dim(1);
  const std::size_t n = b.dim(1);
  if (b.dim(0) != k) throw std::invalid_argument{"gemm_at_b: inner dims differ"};
  shape_output(c, m, n);
  gemm_at_b(a.data(), b.data(), c.data(), m, k, n);
}

void gemm_a_bt(const Tensor& a, const Tensor& b, Tensor& c) {
  require_matrix(a, "gemm_a_bt A");
  require_matrix(b, "gemm_a_bt B");
  const std::size_t m = a.dim(0);
  const std::size_t k = a.dim(1);
  const std::size_t n = b.dim(0);
  if (b.dim(1) != k) throw std::invalid_argument{"gemm_a_bt: inner dims differ"};
  shape_output(c, m, n);
  gemm_a_bt(a.data(), b.data(), c.data(), m, k, n);
}

void im2col(const float* image, const ConvGeometry& g, float* columns) {
  // With padding, the image is first copied into a zero-bordered buffer so
  // every column row is a plain (strided) copy with no bounds tests; the
  // lowered values are the same input floats and +0 padding either way.
  const std::size_t hp = g.in_h + 2 * g.pad;
  const std::size_t wp = g.in_w + 2 * g.pad;
  const float* src = image;
  if (g.pad > 0) {
    thread_local std::vector<float> padded;
    padded.assign(g.in_channels * hp * wp, 0.0f);
    for (std::size_t c = 0; c < g.in_channels; ++c) {
      for (std::size_t y = 0; y < g.in_h; ++y) {
        const float* row = image + (c * g.in_h + y) * g.in_w;
        std::copy(row, row + g.in_w,
                  padded.data() + (c * hp + y + g.pad) * wp + g.pad);
      }
    }
    src = padded.data();
  }
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const std::size_t s = g.stride;
  float* dst = columns;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    for (std::size_t kh = 0; kh < g.kernel; ++kh) {
      for (std::size_t kw = 0; kw < g.kernel; ++kw) {
        for (std::size_t y = 0; y < oh; ++y) {
          const float* row = src + (c * hp + y * s + kh) * wp + kw;
          if (s == 1) {
            for (std::size_t x = 0; x < ow; ++x) dst[x] = row[x];
          } else {
            for (std::size_t x = 0; x < ow; ++x) dst[x] = row[x * s];
          }
          dst += ow;
        }
      }
    }
  }
}

void col2im(const float* columns, const ConvGeometry& g, float* image) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const std::size_t cols = oh * ow;
  const std::size_t s = g.stride;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    float* plane = image + c * g.in_h * g.in_w;
    for (std::size_t kh = 0; kh < g.kernel; ++kh) {
      const Span ys = valid_span(oh, g.in_h, s, g.pad, kh);
      for (std::size_t kw = 0; kw < g.kernel; ++kw) {
        const Span xs = valid_span(ow, g.in_w, s, g.pad, kw);
        const float* in_row =
            columns + ((c * g.kernel + kh) * g.kernel + kw) * cols;
        for (std::size_t y = ys.lo; y < ys.hi; ++y) {
          const float* src = in_row + y * ow;
          float* dst = plane + (y * s + kh - g.pad) * g.in_w;
          for (std::size_t x = xs.lo; x < xs.hi; ++x) {
            dst[x * s + kw - g.pad] += src[x];
          }
        }
      }
    }
  }
}

void im2col(const Tensor& input, std::size_t batch_index, const ConvGeometry& g,
            Tensor& columns) {
  if (input.rank() != 4) throw std::invalid_argument{"im2col: expected NCHW"};
  shape_output(columns, g.patch_size(), g.positions());
  im2col(input.data() + batch_index * g.in_channels * g.in_h * g.in_w, g,
         columns.data());
}

void col2im(const Tensor& columns, std::size_t batch_index,
            const ConvGeometry& g, Tensor& grad_input) {
  if (grad_input.rank() != 4) throw std::invalid_argument{"col2im: expected NCHW"};
  col2im(columns.data(),
         g, grad_input.data() + batch_index * g.in_channels * g.in_h * g.in_w);
}

void softmax_rows(const Tensor& logits, Tensor& out) {
  if (logits.rank() != 2) throw std::invalid_argument{"softmax_rows: rank-2 only"};
  if (!out.same_shape(logits)) out = Tensor{logits.shape()};
  const std::size_t n = logits.dim(0);
  const std::size_t k = logits.dim(1);
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * k;
    float* dst = out.data() + i * k;
    float max_logit = row[0];
    for (std::size_t j = 1; j < k; ++j) max_logit = std::max(max_logit, row[j]);
    double total = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      const double e = std::exp(static_cast<double>(row[j] - max_logit));
      dst[j] = static_cast<float>(e);
      total += e;
    }
    const auto inv = static_cast<float>(1.0 / total);
    for (std::size_t j = 0; j < k; ++j) dst[j] *= inv;
  }
}

}  // namespace fedco::nn
