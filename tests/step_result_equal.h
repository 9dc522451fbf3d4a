// Field-by-field equality of two StepResults, doubles compared by bit
// pattern: the check behind the determinism and equivalence tests.
#pragma once

#include <cstring>

#include "fl/engine.h"

namespace goldfish {

inline bool steps_bitwise_equal(const fl::StepResult& a,
                                const fl::StepResult& b) {
  const auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  return a.step == b.step && same(a.virtual_time, b.virtual_time) &&
         same(a.global_accuracy, b.global_accuracy) &&
         a.updates_consumed == b.updates_consumed &&
         same(a.mean_staleness, b.mean_staleness) &&
         a.max_staleness == b.max_staleness &&
         a.dropped_updates == b.dropped_updates &&
         a.bytes_uplinked == b.bytes_uplinked &&
         a.upload_bytes == b.upload_bytes &&
         same(a.encode_error, b.encode_error) &&
         a.active_clients == b.active_clients && a.aggregator == b.aggregator &&
         a.has_local_accuracy == b.has_local_accuracy &&
         same(a.min_local_accuracy, b.min_local_accuracy) &&
         same(a.max_local_accuracy, b.max_local_accuracy) &&
         same(a.mean_local_accuracy, b.mean_local_accuracy) &&
         a.has_audit == b.has_audit &&
         same(a.attack_success, b.attack_success) &&
         same(a.mia_auc, b.mia_auc) && same(a.mia_accuracy, b.mia_accuracy) &&
         a.has_distillation == b.has_distillation &&
         a.epochs_run == b.epochs_run &&
         a.terminated_early == b.terminated_early &&
         same(a.mean_temperature, b.mean_temperature);
}

}  // namespace goldfish
