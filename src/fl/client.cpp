#include "fl/client.hpp"

#include <stdexcept>

namespace fedco::fl {

FlClient::FlClient(std::uint32_t id, data::Dataset shard, nn::Network model,
                   nn::SgdConfig sgd, std::uint64_t seed)
    : id_(id),
      shard_(std::move(shard)),
      model_(std::move(model)),
      optimizer_(sgd),
      rng_(seed) {
  if (shard_.empty()) {
    throw std::invalid_argument{"FlClient: empty data shard"};
  }
}

void FlClient::load_global(std::span<const float> params) {
  model_.load_params(params);
}

LocalEpochResult FlClient::train_local_epoch(std::size_t batch_size) {
  LocalEpochResult result;
  data::BatchIterator it{shard_.size(), batch_size, rng_};
  double loss_sum = 0.0;
  double acc_sum = 0.0;
  while (!it.done()) {
    const auto indices = it.next();
    const auto batch = shard_.make_batch(indices);
    const nn::LossResult step = model_.train_batch(batch.images, batch.labels);
    optimizer_.step(model_);
    loss_sum += step.loss;
    acc_sum += step.accuracy;
    ++result.batches;
  }
  if (result.batches > 0) {
    result.mean_loss = loss_sum / static_cast<double>(result.batches);
    result.mean_accuracy = acc_sum / static_cast<double>(result.batches);
  }
  result.momentum_norm = optimizer_.momentum_norm();
  return result;
}

EvalResult evaluate_params(const nn::Network& prototype,
                           std::span<const float> params,
                           const data::Dataset& dataset,
                           std::size_t batch_size) {
  if (batch_size == 0) {
    // begin += batch_size would never advance.
    throw std::invalid_argument{"evaluate_params: batch_size must be >= 1"};
  }
  if (dataset.empty()) return {};
  nn::Network net = prototype;  // deep copy
  net.load_params(params);
  double loss_sum = 0.0;
  double acc_weighted = 0.0;
  std::size_t samples = 0;
  std::vector<std::size_t> indices;
  for (std::size_t begin = 0; begin < dataset.size(); begin += batch_size) {
    const std::size_t end = std::min(begin + batch_size, dataset.size());
    indices.clear();
    for (std::size_t i = begin; i < end; ++i) indices.push_back(i);
    const auto batch = dataset.make_batch(indices);
    const nn::LossResult r = net.evaluate_batch(batch.images, batch.labels);
    const auto count = static_cast<double>(end - begin);
    loss_sum += r.loss * count;
    acc_weighted += r.accuracy * count;
    samples += end - begin;
  }
  EvalResult out;
  out.loss = loss_sum / static_cast<double>(samples);
  out.accuracy = acc_weighted / static_cast<double>(samples);
  return out;
}

}  // namespace fedco::fl
