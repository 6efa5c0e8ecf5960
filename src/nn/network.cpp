#include "nn/network.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "nn/ops.hpp"

namespace fedco::nn {

LossResult softmax_cross_entropy(const Tensor& logits,
                                 const std::vector<std::size_t>& labels,
                                 Tensor& grad_logits) {
  if (logits.rank() != 2) {
    throw std::invalid_argument{"softmax_cross_entropy: logits must be (N, K)"};
  }
  const std::size_t n = logits.dim(0);
  const std::size_t k = logits.dim(1);
  if (labels.size() != n) {
    throw std::invalid_argument{"softmax_cross_entropy: label count mismatch"};
  }
  Tensor probs;
  softmax_rows(logits, probs);
  grad_logits = probs;
  LossResult result;
  std::size_t correct = 0;
  double loss_sum = 0.0;
  const auto inv_n = 1.0f / static_cast<float>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t label = labels[i];
    if (label >= k) throw std::out_of_range{"softmax_cross_entropy: bad label"};
    const float* row = probs.data() + i * k;
    float* grad_row = grad_logits.data() + i * k;
    loss_sum += -std::log(std::max(static_cast<double>(row[label]), 1e-12));
    std::size_t argmax = 0;
    for (std::size_t j = 1; j < k; ++j) {
      if (row[j] > row[argmax]) argmax = j;
    }
    if (argmax == label) ++correct;
    grad_row[label] -= 1.0f;
    for (std::size_t j = 0; j < k; ++j) grad_row[j] *= inv_n;
  }
  result.loss = loss_sum / static_cast<double>(n);
  result.accuracy = static_cast<double>(correct) / static_cast<double>(n);
  return result;
}

Network::Network(const Network& other) {
  layers_.reserve(other.layers_.size());
  for (const auto& layer : other.layers_) layers_.push_back(layer->clone());
}

Network& Network::operator=(const Network& other) {
  if (this != &other) {
    Network copy{other};
    layers_ = std::move(copy.layers_);
  }
  return *this;
}

void Network::add(std::unique_ptr<Layer> layer) {
  if (!layer) throw std::invalid_argument{"Network::add: null layer"};
  layers_.push_back(std::move(layer));
}

Tensor Network::forward(const Tensor& input) {
  if (layers_.empty()) return input;
  // The first layer reads the caller's batch directly, without a copy.
  Tensor activation = layers_.front()->forward(input);
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    activation = layers_[i]->forward(activation);
  }
  return activation;
}

void Network::backward(const Tensor& grad_output) {
  if (layers_.empty()) return;
  Tensor grad = grad_output;
  for (std::size_t i = layers_.size() - 1; i > 0; --i) {
    grad = layers_[i]->backward(grad);
  }
  // Nothing reads the gradient with respect to the network's input, so the
  // first layer (lenet's widest convolution) skips computing it.
  layers_.front()->backward_params(grad);
}

void Network::zero_grad() {
  for (auto& layer : layers_) layer->zero_grad();
}

LossResult Network::train_batch(const Tensor& input,
                                const std::vector<std::size_t>& labels) {
  zero_grad();
  const Tensor logits = forward(input);
  Tensor grad_logits;
  const LossResult result = softmax_cross_entropy(logits, labels, grad_logits);
  backward(grad_logits);
  return result;
}

LossResult Network::evaluate_batch(const Tensor& input,
                                   const std::vector<std::size_t>& labels) {
  const Tensor logits = forward(input);
  Tensor unused;
  return softmax_cross_entropy(logits, labels, unused);
}

std::vector<Tensor*> Network::params() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Network::grads() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* g : layer->grads()) out.push_back(g);
  }
  return out;
}

std::vector<const Tensor*> Network::params() const {
  // Layer::params() is non-const because optimizers mutate through it; this
  // const view reuses it without duplicating the traversal in every layer.
  std::vector<const Tensor*> out;
  for (const auto& layer : layers_) {
    for (Tensor* p : const_cast<Layer&>(*layer).params()) out.push_back(p);
  }
  return out;
}

std::size_t Network::param_count() const {
  std::size_t total = 0;
  for (const Tensor* p : params()) total += p->size();
  return total;
}

std::vector<float> Network::flatten_params() const {
  std::vector<float> flat;
  flat.reserve(param_count());
  for (const Tensor* p : params()) {
    flat.insert(flat.end(), p->flat().begin(), p->flat().end());
  }
  return flat;
}

void Network::load_params(std::span<const float> flat) {
  std::size_t offset = 0;
  for (Tensor* p : params()) {
    if (offset + p->size() > flat.size()) {
      throw std::invalid_argument{"Network::load_params: flat vector too short"};
    }
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(offset),
              flat.begin() + static_cast<std::ptrdiff_t>(offset + p->size()),
              p->flat().begin());
    offset += p->size();
  }
  if (offset != flat.size()) {
    throw std::invalid_argument{"Network::load_params: flat vector too long"};
  }
}

std::string Network::summary() const {
  std::ostringstream os;
  os << "Network[";
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (i > 0) os << " -> ";
    os << layers_[i]->name();
  }
  os << "] params=" << param_count();
  return os.str();
}

}  // namespace fedco::nn
