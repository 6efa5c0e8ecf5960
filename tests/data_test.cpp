#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>

#include "data/dataset.hpp"
#include "data/partition.hpp"
#include "data/synth_cifar.hpp"
#include "data/synth_emnist.hpp"
#include "nn/optimizer.hpp"
#include "nn/zoo.hpp"
#include "util/rng.hpp"

namespace fedco::data {
namespace {

SynthCifarConfig tiny_config() {
  SynthCifarConfig cfg;
  cfg.classes = 4;
  cfg.height = 8;
  cfg.width = 8;
  cfg.train_per_class = 20;
  cfg.test_per_class = 5;
  cfg.seed = 99;
  return cfg;
}

TEST(DatasetTest, AddAndAccess) {
  Dataset d{1, 2, 2};
  d.add({1, 2, 3, 4}, 0);
  d.add({5, 6, 7, 8}, 2);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.num_classes(), 3u);  // labels 0..2
  EXPECT_EQ(d.image(1)[0], 5.0f);
  EXPECT_EQ(d.label(1), 2u);
  EXPECT_THROW((void)d.image(2), std::out_of_range);
  EXPECT_THROW(d.add({1.0f}, 0), std::invalid_argument);
}

TEST(DatasetTest, MakeBatchLayout) {
  Dataset d{1, 2, 2};
  d.add({1, 2, 3, 4}, 0);
  d.add({5, 6, 7, 8}, 1);
  const std::vector<std::size_t> idx{1, 0};
  const auto batch = d.make_batch(idx);
  EXPECT_EQ(batch.images.shape(), (nn::Shape{2, 1, 2, 2}));
  EXPECT_EQ(batch.images.at4(0, 0, 0, 0), 5.0f);
  EXPECT_EQ(batch.images.at4(1, 0, 1, 1), 4.0f);
  EXPECT_EQ(batch.labels, (std::vector<std::size_t>{1, 0}));
}

TEST(DatasetTest, SubsetPreservesLabelSpace) {
  Dataset d{1, 1, 1};
  d.add({0.1f}, 0);
  d.add({0.2f}, 1);
  d.add({0.3f}, 2);
  const std::vector<std::size_t> idx{0};
  const Dataset sub = d.subset(idx);
  EXPECT_EQ(sub.size(), 1u);
  EXPECT_EQ(sub.num_classes(), 3u);  // keeps the full label space
}

TEST(DatasetTest, ClassHistogram) {
  Dataset d{1, 1, 1};
  d.add({0.0f}, 0);
  d.add({0.0f}, 0);
  d.add({0.0f}, 2);
  const auto hist = d.class_histogram();
  EXPECT_EQ(hist, (std::vector<std::size_t>{2, 0, 1}));
}

TEST(BatchIteratorTest, CoversEveryIndexOnce) {
  util::Rng rng{3};
  BatchIterator it{10, 3, rng};
  EXPECT_EQ(it.batches_per_epoch(), 4u);
  std::set<std::size_t> seen;
  std::size_t batches = 0;
  while (!it.done()) {
    const auto batch = it.next();
    EXPECT_LE(batch.size(), 3u);
    for (const auto i : batch) EXPECT_TRUE(seen.insert(i).second);
    ++batches;
  }
  EXPECT_EQ(batches, 4u);
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_TRUE(it.next().empty());
}

TEST(BatchIteratorTest, ZeroBatchSizeIsRejectedByName) {
  util::Rng rng{5};
  try {
    (void)BatchIterator{3, 0, rng};
    ADD_FAILURE() << "batch size 0 was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string{error.what()}.find("batch_size"), std::string::npos)
        << error.what();
  }
}

TEST(SynthCifarTest, ShapesAndDeterminism) {
  const auto cfg = tiny_config();
  const SynthCifar a = make_synth_cifar(cfg);
  const SynthCifar b = make_synth_cifar(cfg);
  EXPECT_EQ(a.train.size(), cfg.classes * cfg.train_per_class);
  EXPECT_EQ(a.test.size(), cfg.classes * cfg.test_per_class);
  EXPECT_EQ(a.train.channels(), 3u);
  EXPECT_EQ(a.train.num_classes(), cfg.classes);
  // Deterministic in the seed.
  for (std::size_t i = 0; i < a.train.size(); i += 17) {
    EXPECT_EQ(a.train.image(i)[0], b.train.image(i)[0]);
    EXPECT_EQ(a.train.label(i), b.train.label(i));
  }
  auto cfg2 = cfg;
  cfg2.seed = 100;
  const SynthCifar c = make_synth_cifar(cfg2);
  int differing = 0;
  for (std::size_t i = 0; i < a.train.size(); ++i) {
    differing += a.train.image(i)[0] != c.train.image(i)[0] ? 1 : 0;
  }
  EXPECT_GT(differing, 0);
}

TEST(SynthCifarTest, PixelsInUnitRangeAndBalanced) {
  const SynthCifar d = make_synth_cifar(tiny_config());
  for (std::size_t i = 0; i < d.train.size(); ++i) {
    for (const float p : d.train.image(i)) {
      EXPECT_GE(p, 0.0f);
      EXPECT_LE(p, 1.0f);
    }
  }
  const auto hist = d.train.class_histogram();
  for (const auto count : hist) EXPECT_EQ(count, 20u);
}

TEST(SynthCifarTest, ClassesAreStatisticallyDistinct) {
  // Mean per-class images must differ: the task carries signal.
  const SynthCifar d = make_synth_cifar(tiny_config());
  const std::size_t volume = d.train.image_volume();
  std::vector<std::vector<double>> means(4, std::vector<double>(volume, 0.0));
  std::vector<std::size_t> counts(4, 0);
  for (std::size_t i = 0; i < d.train.size(); ++i) {
    const auto img = d.train.image(i);
    auto& m = means[d.train.label(i)];
    for (std::size_t p = 0; p < volume; ++p) m[p] += static_cast<double>(img[p]);
    ++counts[d.train.label(i)];
  }
  for (std::size_t k = 0; k < 4; ++k) {
    for (auto& v : means[k]) v /= static_cast<double>(counts[k]);
  }
  double min_pair_dist = 1e18;
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = a + 1; b < 4; ++b) {
      double dist = 0.0;
      for (std::size_t p = 0; p < volume; ++p) {
        dist += (means[a][p] - means[b][p]) * (means[a][p] - means[b][p]);
      }
      min_pair_dist = std::min(min_pair_dist, dist);
    }
  }
  EXPECT_GT(min_pair_dist, 0.5);
}

TEST(SynthCifarTest, DegenerateConfigThrows) {
  auto cfg = tiny_config();
  cfg.classes = 0;
  EXPECT_THROW(make_synth_cifar(cfg), std::invalid_argument);
}

SynthEmnistConfig tiny_emnist() {
  SynthEmnistConfig cfg;
  cfg.classes = 5;
  cfg.writers = 6;
  cfg.train_per_writer = 15;
  cfg.test_per_class = 4;
  cfg.height = 16;
  cfg.width = 16;
  cfg.seed = 77;
  return cfg;
}

TEST(SynthEmnistTest, ShapesPartitionAndDeterminism) {
  const auto cfg = tiny_emnist();
  const SynthEmnist a = make_synth_emnist(cfg);
  EXPECT_EQ(a.train.size(), cfg.writers * cfg.train_per_writer);
  EXPECT_EQ(a.test.size(), cfg.classes * cfg.test_per_class);
  EXPECT_EQ(a.train.channels(), 1u);
  EXPECT_EQ(a.train.num_classes(), cfg.classes);
  ASSERT_EQ(a.by_writer.size(), cfg.writers);
  // The writer partition covers the train set disjointly.
  std::set<std::size_t> seen;
  for (const auto& writer : a.by_writer) {
    EXPECT_EQ(writer.size(), cfg.train_per_writer);
    for (const auto i : writer) EXPECT_TRUE(seen.insert(i).second);
  }
  EXPECT_EQ(seen.size(), a.train.size());
  // Deterministic in the seed.
  const SynthEmnist b = make_synth_emnist(cfg);
  for (std::size_t i = 0; i < a.train.size(); i += 13) {
    EXPECT_EQ(a.train.image(i)[40], b.train.image(i)[40]);
  }
}

TEST(SynthEmnistTest, PixelsInRangeAndInked) {
  const SynthEmnist d = make_synth_emnist(tiny_emnist());
  double total_ink = 0.0;
  for (std::size_t i = 0; i < d.train.size(); ++i) {
    double ink = 0.0;
    for (const float p : d.train.image(i)) {
      EXPECT_GE(p, 0.0f);
      EXPECT_LE(p, 1.0f);
      ink += static_cast<double>(p);
    }
    total_ink += ink;
    EXPECT_GT(ink, 1.0);  // every sample has visible strokes
  }
  EXPECT_GT(total_ink, 0.0);
}

TEST(SynthEmnistTest, WriterStylesProduceFeatureSkew) {
  // Mean image per writer (all classes pooled) differs more across writers
  // with styles than without: the defining non-IID property.
  auto cfg = tiny_emnist();
  auto writer_spread = [&cfg](double strength) {
    cfg.style_strength = strength;
    const SynthEmnist d = make_synth_emnist(cfg);
    const std::size_t volume = d.train.image_volume();
    std::vector<std::vector<double>> means(cfg.writers,
                                           std::vector<double>(volume, 0.0));
    for (std::size_t w = 0; w < cfg.writers; ++w) {
      for (const auto i : d.by_writer[w]) {
        const auto img = d.train.image(i);
        for (std::size_t p = 0; p < volume; ++p) {
          means[w][p] += static_cast<double>(img[p]);
        }
      }
      for (auto& v : means[w]) v /= static_cast<double>(d.by_writer[w].size());
    }
    double spread = 0.0;
    for (std::size_t a = 0; a < cfg.writers; ++a) {
      for (std::size_t b = a + 1; b < cfg.writers; ++b) {
        for (std::size_t p = 0; p < volume; ++p) {
          spread += (means[a][p] - means[b][p]) * (means[a][p] - means[b][p]);
        }
      }
    }
    return spread;
  };
  EXPECT_GT(writer_spread(1.0), 2.0 * writer_spread(0.0));
}

TEST(SynthEmnistTest, LearnableByMlp) {
  // A small MLP trained on all writers beats chance on the neutral test set
  // — the glyphs carry class signal through the style variation.
  const SynthEmnist d = make_synth_emnist(tiny_emnist());
  util::Rng rng{3};
  nn::Network net = nn::make_mlp(d.train.image_volume(), 32,
                                 d.train.num_classes(), rng);
  nn::SgdMomentum opt{{0.05, 0.9, 0.0, 0.0}};
  for (int epoch = 0; epoch < 12; ++epoch) {
    BatchIterator it{d.train.size(), 16, rng};
    while (!it.done()) {
      const auto batch = d.train.make_batch(it.next());
      (void)net.train_batch(batch.images, batch.labels);
      opt.step(net);
    }
  }
  std::vector<std::size_t> all(d.test.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const auto test_batch = d.test.make_batch(all);
  const auto result = net.evaluate_batch(test_batch.images, test_batch.labels);
  EXPECT_GT(result.accuracy, 1.5 / 5.0);  // chance = 0.2
}

TEST(SynthEmnistTest, DegenerateConfigThrows) {
  auto cfg = tiny_emnist();
  cfg.writers = 0;
  EXPECT_THROW(make_synth_emnist(cfg), std::invalid_argument);
}

TEST(PartitionTest, IidIsDisjointAndCovering) {
  util::Rng rng{7};
  const auto parts = partition_iid(103, 25, rng);
  ASSERT_EQ(parts.size(), 25u);
  std::set<std::size_t> seen;
  for (const auto& part : parts) {
    // Equal split up to one sample.
    EXPECT_GE(part.size(), 4u);
    EXPECT_LE(part.size(), 5u);
    for (const auto i : part) {
      EXPECT_LT(i, 103u);
      EXPECT_TRUE(seen.insert(i).second) << "duplicate index " << i;
    }
  }
  EXPECT_EQ(seen.size(), 103u);
  EXPECT_THROW(partition_iid(10, 0, rng), std::invalid_argument);
}

TEST(PartitionTest, DirichletCoversAndNonEmpty) {
  const SynthCifar d = make_synth_cifar(tiny_config());
  util::Rng rng{11};
  const auto parts = partition_dirichlet(d.train, 8, 0.3, rng);
  ASSERT_EQ(parts.size(), 8u);
  std::set<std::size_t> seen;
  for (const auto& part : parts) {
    EXPECT_FALSE(part.empty());
    for (const auto i : part) EXPECT_TRUE(seen.insert(i).second);
  }
  EXPECT_EQ(seen.size(), d.train.size());
  EXPECT_THROW(partition_dirichlet(d.train, 8, 0.0, rng), std::invalid_argument);
}

TEST(PartitionTest, SmallAlphaIsMoreSkewedThanLargeAlpha) {
  const SynthCifar d = make_synth_cifar(tiny_config());
  auto skew = [&d](double alpha, std::uint64_t seed) {
    util::Rng rng{seed};
    const auto parts = partition_dirichlet(d.train, 4, alpha, rng);
    // Measure label skew: mean (max class share) over users.
    double total = 0.0;
    for (const auto& part : parts) {
      std::vector<std::size_t> hist(d.train.num_classes(), 0);
      for (const auto i : part) ++hist[d.train.label(i)];
      const double top = static_cast<double>(*std::max_element(hist.begin(), hist.end()));
      total += part.empty() ? 0.0 : top / static_cast<double>(part.size());
    }
    return total / static_cast<double>(parts.size());
  };
  EXPECT_GT(skew(0.05, 13), skew(100.0, 13));
}

TEST(PartitionTest, MaterializeMatchesIndices) {
  const SynthCifar d = make_synth_cifar(tiny_config());
  util::Rng rng{17};
  const auto parts = partition_iid(d.train.size(), 5, rng);
  const auto shards = materialize(d.train, parts);
  ASSERT_EQ(shards.size(), 5u);
  for (std::size_t u = 0; u < 5; ++u) {
    ASSERT_EQ(shards[u].size(), parts[u].size());
    EXPECT_EQ(shards[u].label(0), d.train.label(parts[u][0]));
  }
}

}  // namespace
}  // namespace fedco::data
