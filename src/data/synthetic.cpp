#include "data/synthetic.h"

#include <cmath>

#include "tensor/check.h"

namespace goldfish::data {

const char* dataset_name(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::Mnist:
      return "MNIST";
    case DatasetKind::FashionMnist:
      return "FMNIST";
    case DatasetKind::Cifar10:
      return "CIFAR-10";
    case DatasetKind::Cifar100:
      return "CIFAR-100";
  }
  return "?";
}

nn::InputGeom dataset_geom(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::Mnist:
    case DatasetKind::FashionMnist:
      return {1, 28, 28};
    case DatasetKind::Cifar10:
    case DatasetKind::Cifar100:
      return {3, 32, 32};
  }
  return {1, 28, 28};
}

long dataset_classes(DatasetKind kind) {
  return kind == DatasetKind::Cifar100 ? 100 : 10;
}

namespace {

/// Per-kind difficulty knobs, calibrated so that relative trainability
/// mirrors the paper: MNIST ≳ FMNIST > CIFAR-10 > CIFAR-100.
struct Difficulty {
  float proto_amp;   // amplitude of the class pattern
  float noise_sd;    // i.i.d. pixel noise
  float mode_spread; // how far sub-modes wander from the class prototype
  long coarse;       // coarse grid resolution of the prototype pattern
};

Difficulty difficulty_for(DatasetKind kind) {
  // Noise levels are calibrated (tools in bench/) so that small models land
  // in accuracy bands resembling the paper's: MNIST ≈ 90s, FMNIST ≈ 80s,
  // CIFAR-10 ≈ 70–85, CIFAR-100 ≈ 50–65.
  // The separability driver is the ratio of prototype-difference norm
  // (≈ amp·√D·0.5) to pixel noise; amplitudes are deliberately small so
  // classes overlap like real image datasets do.
  switch (kind) {
    case DatasetKind::Mnist:
      return {0.30f, 1.0f, 0.45f, 7};
    case DatasetKind::FashionMnist:
      return {0.24f, 1.0f, 0.55f, 7};
    case DatasetKind::Cifar10:
      return {0.145f, 1.0f, 0.65f, 8};
    case DatasetKind::Cifar100:
      return {0.33f, 0.9f, 0.50f, 8};
  }
  return {0.15f, 1.0f, 0.5f, 7};
}

/// Bilinearly upsample a (C, g, g) coarse pattern to (C, H, W), writing into
/// a flat row. Gives class prototypes smooth spatial structure.
void upsample_into(const std::vector<float>& coarse, long channels, long g,
                   const nn::InputGeom& geom, float amp, float* dst) {
  for (long c = 0; c < channels; ++c) {
    const float* src = coarse.data() + c * g * g;
    for (long y = 0; y < geom.height; ++y) {
      const float fy =
          static_cast<float>(y) / static_cast<float>(geom.height - 1) *
          static_cast<float>(g - 1);
      const long y0 = static_cast<long>(fy);
      const long y1 = std::min(g - 1, y0 + 1);
      const float wy = fy - static_cast<float>(y0);
      for (long x = 0; x < geom.width; ++x) {
        const float fx =
            static_cast<float>(x) / static_cast<float>(geom.width - 1) *
            static_cast<float>(g - 1);
        const long x0 = static_cast<long>(fx);
        const long x1 = std::min(g - 1, x0 + 1);
        const float wx = fx - static_cast<float>(x0);
        const float v = (1 - wy) * ((1 - wx) * src[y0 * g + x0] +
                                    wx * src[y0 * g + x1]) +
                        wy * ((1 - wx) * src[y1 * g + x0] +
                              wx * src[y1 * g + x1]);
        dst[(c * geom.height + y) * geom.width + x] = amp * v;
      }
    }
  }
}

Dataset generate(const SyntheticSpec& spec, long n, Rng& rng,
                 const std::vector<std::vector<float>>& mode_patterns,
                 long num_classes, const nn::InputGeom& geom,
                 const Difficulty& diff) {
  Dataset ds;
  ds.num_classes = num_classes;
  ds.geom = geom;
  ds.features = Tensor({n, geom.flat()});
  ds.labels.reserve(static_cast<std::size_t>(n));
  float* rows = ds.features.data();
  const long modes = spec.modes_per_class;
  for (long i = 0; i < n; ++i) {
    const long label = static_cast<long>(rng.uniform_index(
        static_cast<std::uint64_t>(num_classes)));
    const long mode = static_cast<long>(
        rng.uniform_index(static_cast<std::uint64_t>(modes)));
    const std::vector<float>& proto =
        mode_patterns[static_cast<std::size_t>(label * modes + mode)];
    float* row = rows + static_cast<std::size_t>(i) *
                            static_cast<std::size_t>(geom.flat());
    const float sd = diff.noise_sd * spec.noise_scale;
    for (long j = 0; j < geom.flat(); ++j)
      row[j] = proto[static_cast<std::size_t>(j)] + rng.normal(0.0f, sd);
    ds.labels.push_back(label);
  }
  return ds;
}

}  // namespace

TrainTest make_synthetic(const SyntheticSpec& spec) {
  GOLDFISH_CHECK(spec.train_size > 0 && spec.test_size > 0,
                 "dataset sizes must be positive");
  GOLDFISH_CHECK(spec.modes_per_class > 0, "need at least one mode");
  const nn::InputGeom geom = dataset_geom(spec.kind);
  const long num_classes = dataset_classes(spec.kind);
  const Difficulty diff = difficulty_for(spec.kind);
  Rng rng(spec.seed);

  // Class prototypes: coarse random pattern per class, then per-mode
  // perturbed copies, all upsampled to full resolution.
  const long g = diff.coarse;
  std::vector<std::vector<float>> mode_patterns;
  mode_patterns.reserve(
      static_cast<std::size_t>(num_classes * spec.modes_per_class));
  for (long k = 0; k < num_classes; ++k) {
    std::vector<float> coarse(
        static_cast<std::size_t>(geom.channels * g * g));
    for (float& v : coarse) v = rng.normal();
    for (long m = 0; m < spec.modes_per_class; ++m) {
      std::vector<float> mode_coarse = coarse;
      for (float& v : mode_coarse)
        v += diff.mode_spread * rng.normal();
      std::vector<float> full(static_cast<std::size_t>(geom.flat()));
      upsample_into(mode_coarse, geom.channels, g, geom, diff.proto_amp,
                    full.data());
      mode_patterns.push_back(std::move(full));
    }
  }

  TrainTest out;
  Rng train_rng = rng.split();
  Rng test_rng = rng.split();
  out.train = generate(spec, spec.train_size, train_rng, mode_patterns,
                       num_classes, geom, diff);
  out.test = generate(spec, spec.test_size, test_rng, mode_patterns,
                      num_classes, geom, diff);
  return out;
}

SyntheticSpec default_spec(DatasetKind kind, std::uint64_t seed,
                           long train_size, long test_size) {
  SyntheticSpec spec;
  spec.kind = kind;
  spec.seed = seed;
  spec.train_size = train_size;
  spec.test_size = test_size;
  return spec;
}

}  // namespace goldfish::data
