#include "data/backdoor.h"

#include <algorithm>

#include "tensor/check.h"

namespace goldfish::data {

void stamp_trigger(float* row, const nn::InputGeom& geom,
                   const BackdoorSpec& spec) {
  const long p = std::min({spec.patch, geom.height, geom.width});
  for (long c = 0; c < geom.channels; ++c)
    for (long y = 0; y < p; ++y)
      for (long x = 0; x < p; ++x)
        row[(c * geom.height + y) * geom.width + x] = spec.trigger_value;
}

PoisonResult poison_dataset(const Dataset& clean, const BackdoorSpec& spec,
                            float fraction, Rng& rng) {
  GOLDFISH_CHECK(fraction >= 0.0f && fraction <= 1.0f, "bad poison fraction");
  GOLDFISH_CHECK(spec.target_label >= 0 &&
                     spec.target_label < clean.num_classes,
                 "target label out of range");
  PoisonResult out;
  out.poisoned = clean;

  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < clean.labels.size(); ++i)
    if (clean.labels[i] != spec.target_label) candidates.push_back(i);
  rng.shuffle(candidates);
  const std::size_t want = static_cast<std::size_t>(
      fraction * static_cast<float>(clean.size()) + 0.5f);
  const std::size_t n = std::min(want, candidates.size());

  // The copy shares clean's rows until the first stamp detaches it.
  const long d = clean.features.dim(1);
  float* rows = n > 0 ? out.poisoned.features.data() : nullptr;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = candidates[k];
    float* row = rows + i * static_cast<std::size_t>(d);
    stamp_trigger(row, clean.geom, spec);
    out.poisoned.labels[i] = spec.target_label;
    out.poisoned_indices.push_back(i);
  }
  std::sort(out.poisoned_indices.begin(), out.poisoned_indices.end());
  return out;
}

void flip_labels(Dataset& ds) {
  GOLDFISH_CHECK(ds.num_classes > 0, "flip_labels needs num_classes");
  for (long& y : ds.labels) y = ds.num_classes - 1 - y;
}

Dataset make_trigger_probe(const Dataset& test, const BackdoorSpec& spec) {
  std::vector<std::size_t> keep;
  for (std::size_t i = 0; i < test.labels.size(); ++i)
    if (test.labels[i] != spec.target_label) keep.push_back(i);
  Dataset probe = test.subset(keep);
  const long d = probe.features.dim(1);
  float* rows = probe.features.data();
  for (long i = 0; i < probe.size(); ++i) {
    stamp_trigger(rows + static_cast<std::size_t>(i) *
                             static_cast<std::size_t>(d),
                  probe.geom, spec);
    probe.labels[static_cast<std::size_t>(i)] = spec.target_label;
  }
  return probe;
}

}  // namespace goldfish::data
