// Model factories for every architecture in the paper's evaluation
// (Table II / §IV-A) plus a small MLP used by fast unit tests.
#pragma once

#include "nn/model.h"

namespace goldfish::nn {

/// Input geometry of a dataset: channels × height × width (flattened inputs
/// are reshaped internally by the first layer of conv models).
struct InputGeom {
  long channels = 1;
  long height = 28;
  long width = 28;
  long flat() const { return channels * height * width; }
};

/// Classic LeNet-5 (2 conv, 2 maxpool, 2 FC) for MNIST / FMNIST.
Model make_lenet5(const InputGeom& in, long num_classes, Rng& rng);

/// Modified LeNet-5 (2 conv, 2 maxpool, 3 FC) for CIFAR-10, per §IV-A.
Model make_modified_lenet5(const InputGeom& in, long num_classes, Rng& rng);

/// CIFAR-style ResNet-(6n+2): initial 3×3 conv, three stages of n residual
/// blocks at widths {w, 2w, 4w}, global average pool, FC head.
/// depth must satisfy depth = 6n+2 (32 → n=5, 56 → n=9). base_width is the
/// compute knob: the paper uses 16; make_model's "resnet32"/"resnet56" use 8,
/// which quarters the conv FLOPs so the paper-scale benches run on a CPU.
Model make_resnet(const InputGeom& in, long num_classes, long depth,
                  long base_width, Rng& rng);

/// Two-layer MLP on flattened input; used for fast tests and the MNIST-like
/// quick benches where conv capacity is unnecessary.
Model make_mlp(const InputGeom& in, long hidden, long num_classes, Rng& rng);

/// Build a model by architecture name: "lenet5", "modified_lenet5",
/// "resnet32", "resnet56", "mlp<h>" (e.g. "mlp64"). Throws on unknown names.
Model make_model(const std::string& arch, const InputGeom& in,
                 long num_classes, Rng& rng);

}  // namespace goldfish::nn
