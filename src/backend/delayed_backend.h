// DelayedBackend: a KvBackend decorator that injects scripted latency —
// the storage-side twin of io/file_device.h's FaultyFileDevice, but for
// whole requests instead of device I/O. Serving it behind a KvServer
// makes that endpoint deterministically slow (every request, or only
// every Nth for an intermittent straggler), which is how the hedging
// tests and bench_serving's --hedge A/B manufacture a tail without
// touching the network stack. Header-only; test/bench scaffolding, not a
// production decorator.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>

#include "backend/kv_backend.h"

namespace mlkv {

class DelayedBackend : public KvBackend {
 public:
  struct Options {
    uint64_t delay_us = 0;   // sleep added to each delayed request
    uint64_t every_nth = 1;  // 1 = every request; N = every Nth (1-based)
    bool delay_reads = true;
    bool delay_writes = false;
  };

  DelayedBackend(std::unique_ptr<KvBackend> inner, Options options)
      : inner_(std::move(inner)), options_(options) {
    if (options_.every_nth == 0) options_.every_nth = 1;
  }

  std::string name() const override {
    return "Delayed(" + inner_->name() + ")";
  }
  uint32_t dim() const override { return inner_->dim(); }
  uint32_t shard_bits() const override { return inner_->shard_bits(); }

  BatchResult MultiGet(std::span<const Key> keys, float* out,
                       const MultiGetOptions& options = {}) override {
    if (options_.delay_reads) MaybeSleep();
    return inner_->MultiGet(keys, out, options);
  }
  BatchResult MultiPut(std::span<const Key> keys,
                       const float* values) override {
    if (options_.delay_writes) MaybeSleep();
    return inner_->MultiPut(keys, values);
  }
  BatchResult MultiApplyGradient(std::span<const Key> keys, const float* grads,
                                 float lr) override {
    if (options_.delay_writes) MaybeSleep();
    return inner_->MultiApplyGradient(keys, grads, lr);
  }
  Status Lookahead(std::span<const Key> keys) override {
    return inner_->Lookahead(keys);
  }
  void WaitIdle() override { inner_->WaitIdle(); }
  uint64_t device_bytes_read() const override {
    return inner_->device_bytes_read();
  }
  uint64_t device_bytes_written() const override {
    return inner_->device_bytes_written();
  }
  void CollectMetrics(obs::MetricsSink* sink) const override {
    inner_->CollectMetrics(sink);
  }

  // Requests that actually slept (tests assert the script fired).
  uint64_t delays() const { return delays_.load(std::memory_order_relaxed); }
  KvBackend* inner() const { return inner_.get(); }

 private:
  void MaybeSleep() {
    const uint64_t n = calls_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n % options_.every_nth != 0) return;
    delays_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(options_.delay_us));
  }

  std::unique_ptr<KvBackend> inner_;
  Options options_;
  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> delays_{0};
};

}  // namespace mlkv
