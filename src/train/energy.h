// Approximate energy model (paper Fig. 7 bottom). The paper reports
// "approximate energy consumption following previous methods" [59]-[61]
// (power-model based estimators like Carbontracker/Zeus), i.e. energy =
// integral of modeled component power over time. We do the same:
//
//   E = P_gpu_active * t_compute + P_gpu_idle * (t_total - t_compute)
//     + P_cpu * t_total
//     + E_ssd_per_byte * (bytes_read + bytes_written)
//
// Data stalls keep the accelerator idling (idle power still burns), so
// configurations that stall more consume more Joules per batch — the effect
// Fig. 7(bottom) shows.
#pragma once

#include <cstdint>

#include "train/train_result.h"

namespace mlkv {

struct EnergyModelConfig {
  double gpu_active_watts = 250.0;  // V100-class accelerator under load
  double gpu_idle_watts = 40.0;
  double cpu_watts = 90.0;          // host while training
  double ssd_joules_per_gb = 6.0;   // NVMe active transfer energy
};

class EnergyModel {
 public:
  explicit EnergyModel(const EnergyModelConfig& config = {})
      : config_(config) {}

  // Total Joules attributed to a training run.
  double TotalJoules(const TrainResult& r) const {
    const double compute = r.forward_seconds + r.backward_seconds;
    const double total = r.seconds;
    const double gpu = config_.gpu_active_watts * compute +
                       config_.gpu_idle_watts *
                           (total > compute ? total - compute : 0.0);
    const double cpu = config_.cpu_watts * total;
    const double ssd =
        config_.ssd_joules_per_gb *
        (static_cast<double>(r.device_bytes_read + r.device_bytes_written) /
         (1024.0 * 1024.0 * 1024.0));
    return gpu + cpu + ssd;
  }

  double JoulesPerBatch(const TrainResult& r, uint64_t batches) const {
    return batches ? TotalJoules(r) / static_cast<double>(batches) : 0.0;
  }

 private:
  EnergyModelConfig config_;
};

}  // namespace mlkv
