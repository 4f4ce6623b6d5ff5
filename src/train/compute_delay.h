// ComputeDelayModel: pads each NN step to a target duration, standing in
// for GPU kernel time (see README, "Substitutions and deviations"). The
// paper's experiments run the NN on an A10G/V100 while embeddings come from
// storage; what the storage comparison measures is how well embedding I/O
// overlaps a fixed compute budget. With `target_micros == 0` the model is
// a no-op and compute time is whatever the CPU kernels take.
#pragma once

#include <ctime>
#include <cstdint>

#include "common/clock.h"

namespace mlkv {

class ComputeDelayModel {
 public:
  explicit ComputeDelayModel(uint64_t target_micros_per_batch = 0)
      : target_micros_(target_micros_per_batch) {}

  // Sleeps out the remainder of the budget given that `spent_micros` of
  // real compute already happened. Sleeping (not spinning) matters: the
  // modeled work runs on the accelerator, so the host core is free to
  // drive storage — exactly the overlap async training exploits.
  void PadBatch(uint64_t spent_micros) const {
    if (target_micros_ == 0 || spent_micros >= target_micros_) return;
    const uint64_t remain_us = target_micros_ - spent_micros;
    struct timespec ts;
    ts.tv_sec = static_cast<time_t>(remain_us / 1000000);
    ts.tv_nsec = static_cast<long>((remain_us % 1000000) * 1000);
    nanosleep(&ts, nullptr);
  }

  uint64_t target_micros() const { return target_micros_; }

 private:
  uint64_t target_micros_;
};

}  // namespace mlkv
