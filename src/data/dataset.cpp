#include "data/dataset.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace fedco::data {

void Dataset::add(std::vector<float> image, std::size_t label) {
  if (image.size() != image_volume()) {
    throw std::invalid_argument{"Dataset::add: image volume mismatch"};
  }
  pixels_.insert(pixels_.end(), image.begin(), image.end());
  labels_.push_back(label);
  num_classes_ = std::max(num_classes_, label + 1);
}

std::span<const float> Dataset::image(std::size_t i) const {
  if (i >= size()) throw std::out_of_range{"Dataset::image"};
  return {pixels_.data() + i * image_volume(), image_volume()};
}

Dataset::Batch Dataset::make_batch(std::span<const std::size_t> indices) const {
  Batch batch;
  batch.images = nn::Tensor{{indices.size(), channels_, height_, width_}};
  batch.labels.reserve(indices.size());
  float* dst = batch.images.data();
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const auto src = image(indices[i]);
    std::copy(src.begin(), src.end(), dst + i * image_volume());
    batch.labels.push_back(label(indices[i]));
  }
  return batch;
}

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  Dataset out{channels_, height_, width_};
  for (const std::size_t i : indices) {
    const auto src = image(i);
    out.add(std::vector<float>(src.begin(), src.end()), label(i));
  }
  // Preserve the label space even if the subset misses some classes.
  out.num_classes_ = num_classes_;
  return out;
}

std::vector<std::size_t> Dataset::class_histogram() const {
  std::vector<std::size_t> hist(num_classes_, 0);
  for (const std::size_t label : labels_) ++hist[label];
  return hist;
}

BatchIterator::BatchIterator(std::size_t dataset_size, std::size_t batch_size,
                             util::Rng& rng)
    : batch_size_(batch_size), order_(dataset_size) {
  if (batch_size == 0) {
    throw std::invalid_argument{"BatchIterator: batch_size must be >= 1"};
  }
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  rng.shuffle(order_);
}

std::vector<std::size_t> BatchIterator::next() {
  if (done()) return {};
  const std::size_t take = std::min(batch_size_, order_.size() - cursor_);
  std::vector<std::size_t> batch(order_.begin() + static_cast<std::ptrdiff_t>(cursor_),
                                 order_.begin() + static_cast<std::ptrdiff_t>(cursor_ + take));
  cursor_ += take;
  return batch;
}

std::size_t BatchIterator::batches_per_epoch() const noexcept {
  return (order_.size() + batch_size_ - 1) / batch_size_;
}

}  // namespace fedco::data
