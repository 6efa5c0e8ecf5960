// Image-classification dataset containers and batch iteration.
//
// The paper trains LeNet-5 on CIFAR-10 pre-loaded into flash. CIFAR-10 is
// not available offline here, so src/data provides SynthCIFAR (see
// synth_cifar.hpp) with the same tensor layout: NCHW float images in [0,1]
// and integer labels. Everything downstream (nn, fl, core) is agnostic to
// which dataset is plugged in.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace fedco::data {

/// An in-memory labelled image dataset (NCHW).
class Dataset {
 public:
  Dataset() = default;
  Dataset(std::size_t channels, std::size_t height, std::size_t width)
      : channels_(channels), height_(height), width_(width) {}

  void add(std::vector<float> image, std::size_t label);

  [[nodiscard]] std::size_t size() const noexcept { return labels_.size(); }
  [[nodiscard]] bool empty() const noexcept { return labels_.empty(); }
  [[nodiscard]] std::size_t channels() const noexcept { return channels_; }
  [[nodiscard]] std::size_t height() const noexcept { return height_; }
  [[nodiscard]] std::size_t width() const noexcept { return width_; }
  [[nodiscard]] std::size_t image_volume() const noexcept {
    return channels_ * height_ * width_;
  }
  [[nodiscard]] std::size_t num_classes() const noexcept { return num_classes_; }

  [[nodiscard]] std::span<const float> image(std::size_t i) const;
  [[nodiscard]] std::size_t label(std::size_t i) const { return labels_.at(i); }

  /// Materialise a batch tensor (B, C, H, W) + labels for given indices.
  struct Batch {
    nn::Tensor images;
    std::vector<std::size_t> labels;
  };
  [[nodiscard]] Batch make_batch(std::span<const std::size_t> indices) const;

  /// Subset view materialised as a new dataset.
  [[nodiscard]] Dataset subset(std::span<const std::size_t> indices) const;

  /// Per-class sample counts (size num_classes()).
  [[nodiscard]] std::vector<std::size_t> class_histogram() const;

 private:
  std::size_t channels_ = 0;
  std::size_t height_ = 0;
  std::size_t width_ = 0;
  std::size_t num_classes_ = 0;
  std::vector<float> pixels_;          // size() * image_volume()
  std::vector<std::size_t> labels_;
};

/// Deterministic shuffled mini-batch index iterator over one epoch.
class BatchIterator {
 public:
  /// Throws std::invalid_argument when `batch_size` is 0.
  BatchIterator(std::size_t dataset_size, std::size_t batch_size, util::Rng& rng);

  /// Next batch of indices; empty when the epoch is exhausted.
  [[nodiscard]] std::vector<std::size_t> next();
  [[nodiscard]] bool done() const noexcept { return cursor_ >= order_.size(); }
  [[nodiscard]] std::size_t batches_per_epoch() const noexcept;

 private:
  std::size_t batch_size_;
  std::vector<std::size_t> order_;
  std::size_t cursor_ = 0;
};

}  // namespace fedco::data
