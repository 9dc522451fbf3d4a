// Synthetic stand-ins for the paper's four benchmark datasets.
//
// Substitution: the library ships no MNIST/CIFAR files and reads none from
// the network, so each dataset is replaced by a generator that matches its
// dimensionality, class count, and *relative difficulty*, and produces
// spatially structured images (class prototypes drawn on a coarse grid and
// bilinearly upsampled, plus per-class sub-modes and pixel noise) so that
// convolutional models have real spatial statistics to exploit. Everything
// downstream — backdoor planting, unlearning, aggregation — exercises the
// same code paths it would on the real data.
#pragma once

#include "data/dataset.h"

namespace goldfish::data {

enum class DatasetKind { Mnist, FashionMnist, Cifar10, Cifar100 };

/// Human-readable name ("MNIST", "CIFAR-10", ...).
const char* dataset_name(DatasetKind kind);

/// Geometry per Table II: 1×28×28 for (F)MNIST, 3×32×32 for CIFAR.
nn::InputGeom dataset_geom(DatasetKind kind);

/// Class count per Table II.
long dataset_classes(DatasetKind kind);

struct SyntheticSpec {
  DatasetKind kind = DatasetKind::Mnist;
  long train_size = 2000;
  long test_size = 500;
  std::uint64_t seed = 42;
  /// Difficulty multiplier on the noise level (1 = calibrated default).
  float noise_scale = 1.0f;
  /// Sub-modes per class (intra-class variation).
  long modes_per_class = 3;
};

struct TrainTest {
  Dataset train;
  Dataset test;
};

/// Generate a train/test pair. Same seed → identical bytes.
TrainTest make_synthetic(const SyntheticSpec& spec);

/// All four paper datasets with default sizing (used by benches).
SyntheticSpec default_spec(DatasetKind kind, std::uint64_t seed,
                           long train_size, long test_size);

}  // namespace goldfish::data
