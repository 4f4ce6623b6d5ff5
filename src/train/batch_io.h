// Batched storage access shared by the trainers: every minibatch phase —
// preload, forward-pass Get, update Put, evaluation Peek — is one KvBackend
// Multi* call, with the trainers' standard per-key recovery policy (bounded-
// staleness aborts fall back to one untracked re-read batch) in one place.
//
// RunMinibatchJob is the one minibatch driver of the CTR, KGE and GNN
// trainers: it owns the storage half of every step of the paper's Fig. 3
// loop (lookahead, key dedup, Get, Put of value - lr * grad) and the job
// harness around it; a trainer supplies only a MinibatchWorker — its
// sample stream, model step and evaluation.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "backend/kv_backend.h"
#include "common/clock.h"
#include "common/hash.h"
#include "common/simd.h"
#include "train/train_result.h"

namespace mlkv {

// Reorders a deduplicated minibatch so keys of the same backend shard are
// contiguous (stable within a shard) and rebuilds the key -> row map to
// match. A sharded backend's scatter step then sees each shard's sub-batch
// as one contiguous run of the key span (and of the value/gradient
// matrices), instead of gathering rows from all over the batch. Semantics
// are unaffected — only the order of unique keys changes — so it is safe
// (and pointless) when the backend is unsharded; shard_bits == 0 returns
// immediately.
inline void OrderKeysByShard(uint32_t shard_bits, std::vector<Key>* keys,
                             std::unordered_map<Key, size_t>* slot) {
  if (shard_bits == 0 || keys->size() <= 1) return;
  if (shard_bits > 16) shard_bits = 16;  // ShardOf's routing-mask ceiling
  const uint64_t mask = (uint64_t{1} << shard_bits) - 1;
  std::vector<std::vector<Key>> buckets(mask + 1);
  for (const Key k : *keys) buckets[ShardOf(Hash64(k), mask)].push_back(k);
  keys->clear();
  for (const auto& bucket : buckets) {
    keys->insert(keys->end(), bucket.begin(), bucket.end());
  }
  for (size_t u = 0; u < keys->size(); ++u) (*slot)[(*keys)[u]] = u;
}

// Warms keys [0, n) in batched chunks: one MultiGet materializes (and
// deterministically initializes) each chunk, one MultiPut commits it.
inline void PreloadKeys(KvBackend* backend, Key n, size_t chunk = 4096) {
  const uint32_t dim = backend->dim();
  std::vector<Key> keys(std::min<size_t>(chunk, static_cast<size_t>(n)));
  std::vector<float> buf(keys.size() * dim);
  for (Key base = 0; base < n; base += chunk) {
    const size_t len =
        static_cast<size_t>(std::min<Key>(chunk, n - base));
    for (size_t i = 0; i < len; ++i) keys[i] = base + i;
    const std::span<const Key> span(keys.data(), len);
    backend->MultiGet(span, buf.data());
    backend->MultiPut(span, buf.data());
  }
  backend->WaitIdle();
}

// Forward-pass read of a deduplicated minibatch. Keys that abort on the
// staleness bound (crossed waits between BSP workers resolve via a bounded
// abort) are re-read consistency-free in one follow-up batch. Returns the
// number of busy aborts (the trainers' busy_aborts metric).
inline uint64_t MultiGetWithBusyFallback(KvBackend* backend,
                                         std::span<const Key> keys,
                                         float* out) {
  const BatchResult r = backend->MultiGet(keys, out);
  if (r.busy == 0) return 0;
  const uint32_t dim = backend->dim();
  std::vector<Key> busy_keys;
  std::vector<size_t> at;
  busy_keys.reserve(r.busy);
  at.reserve(r.busy);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (r.codes[i] == Status::Code::kBusy) {
      busy_keys.push_back(keys[i]);
      at.push_back(i);
    }
  }
  std::vector<float> buf(busy_keys.size() * size_t{dim});
  MultiGetOptions untracked;
  untracked.untracked = true;
  backend->MultiGet(busy_keys, buf.data(), untracked);
  for (size_t j = 0; j < busy_keys.size(); ++j) {
    simd::CopyFloats(out + at[j] * size_t{dim}, &buf[j * size_t{dim}], dim);
  }
  return r.busy;
}

// Evaluation read: untracked (never waits on or advances staleness state),
// still bootstrapping never-seen keys so eval code always has a vector.
inline void EvalPeek(KvBackend* backend, std::span<const Key> keys,
                     float* out) {
  MultiGetOptions options;
  options.untracked = true;
  backend->MultiGet(keys, out, options);
}

// One minibatch's embedding rows, its unique keys in first-seen order made
// shard-contiguous. row(k) is k's vector as read; grad(k) is the gradient
// the trainer accumulates for k (zero at the start of each step).
struct Minibatch {
  explicit Minibatch(uint32_t dim) : dim(dim) {}

  // Interns `step_keys` (duplicates allowed) and sizes rows/grads to match.
  void Assign(std::span<const Key> step_keys, uint32_t shard_bits) {
    keys.clear();
    slot.clear();
    for (const Key k : step_keys) {
      if (slot.emplace(k, keys.size()).second) keys.push_back(k);
    }
    OrderKeysByShard(shard_bits, &keys, &slot);
    rows.resize(keys.size() * size_t{dim});
    grads.assign(keys.size() * size_t{dim}, 0.0f);
  }

  const float* row(Key k) const { return &rows[slot.at(k) * size_t{dim}]; }
  float* grad(Key k) { return &grads[slot.at(k) * size_t{dim}]; }

  uint32_t dim;
  std::vector<Key> keys;
  std::unordered_map<Key, size_t> slot;
  std::vector<float> rows, grads;
};

// Compute time of one step, split for the Fig. 2 latency breakdown.
struct ComputeSeconds {
  double forward = 0;
  double backward = 0;
};

// The trainer-specific half of one worker: its sample stream, its model
// and evaluation. Everything it touches in storage outside Evaluate goes
// through the driver.
class MinibatchWorker {
 public:
  virtual ~MinibatchWorker() = default;
  // Appends the keys of batch `b`'s samples (duplicates allowed) — known
  // ahead of time, so the driver hints them to Lookahead.
  virtual void SampleKeys(uint64_t b, std::vector<Key>* keys) = 0;
  // Appends every key batch `b`'s step reads, in the order the model reads
  // them; called once per step, after that step's lookahead. Defaults to
  // the sample keys; KGE adds negatives drawn at step time.
  virtual void StepKeys(uint64_t b, std::vector<Key>* keys) {
    SampleKeys(b, keys);
  }
  // Runs the model over the rows read for batch `b` and accumulates every
  // key's embedding gradient into mb->grad(k).
  virtual ComputeSeconds Compute(uint64_t b, Minibatch* mb) = 0;
  // Held-out metric of this worker's model; called on worker 0 only.
  virtual double Evaluate() = 0;
};

// Shape of a training job, copied from a trainer's options.
struct MinibatchJob {
  uint32_t dim;            // must equal the backend's dim()
  int num_workers;
  uint64_t train_batches;  // per worker
  int batch_size;          // samples per batch
  int lookahead_depth;     // 0 disables lookahead
  int eval_every;          // batches between eval points; 0 never
  float embedding_lr;
  uint64_t preload_keys;   // PreloadKeys before the clock starts; 0 skips
};

// Runs a training job and returns its merged TrainResult. Each worker
// thread builds its MinibatchWorker with make_worker(wid), then runs
// train_batches steps; step b issues, in order:
//  1. Lookahead of batch b + lookahead_depth's sample keys;
//  2. one tracked MultiGet of the step's unique keys, Busy keys re-read
//     untracked (MultiGetWithBusyFallback);
//  3. Compute, then one MultiPut of rows - embedding_lr * grads on the
//     same key span;
//  4. on worker 0 at every eval_every-th batch, Evaluate (its untracked
//     reads), recorded in metric_curve.
// Per-worker times and busy aborts merge once, when the worker exits.
// Aborts if the trainer's dim differs from the backend's: every row the
// model reads would be misaligned.
inline TrainResult RunMinibatchJob(
    KvBackend* backend, const MinibatchJob& job,
    const std::function<std::unique_ptr<MinibatchWorker>(int)>& make_worker) {
  if (backend->dim() != job.dim) {
    std::fprintf(stderr, "trainer dim %u != backend %s dim %u\n", job.dim,
                 backend->name().c_str(), backend->dim());
    std::abort();
  }
  if (job.preload_keys > 0) PreloadKeys(backend, job.preload_keys);

  TrainResult result;
  std::mutex result_mu;
  StopWatch wall;
  const uint64_t bytes_read0 = backend->device_bytes_read();
  const uint64_t bytes_written0 = backend->device_bytes_written();

  auto run_worker = [&](int wid) {
    const std::unique_ptr<MinibatchWorker> worker = make_worker(wid);
    Minibatch mb(job.dim);
    std::vector<Key> keys;
    TrainResult mine;
    for (uint64_t b = 0; b < job.train_batches; ++b) {
      const uint64_t ahead = b + job.lookahead_depth;
      if (job.lookahead_depth > 0 && ahead < job.train_batches) {
        keys.clear();
        worker->SampleKeys(ahead, &keys);
        backend->Lookahead(keys).ok();
      }
      keys.clear();
      worker->StepKeys(b, &keys);
      mb.Assign(keys, backend->shard_bits());

      uint64_t t0 = NowMicros();
      mine.busy_aborts +=
          MultiGetWithBusyFallback(backend, mb.keys, mb.rows.data());
      mine.embedding_seconds += (NowMicros() - t0) * 1e-6;

      const ComputeSeconds c = worker->Compute(b, &mb);
      mine.forward_seconds += c.forward;
      mine.backward_seconds += c.backward;

      // Fig. 3 line 17: Put(value - lr * grad).
      t0 = NowMicros();
      simd::SubScaled(mb.rows.data(), mb.grads.data(), job.embedding_lr,
                      mb.rows.size());
      backend->MultiPut(mb.keys, mb.rows.data());
      mine.embedding_seconds += (NowMicros() - t0) * 1e-6;
      mine.samples += static_cast<uint64_t>(job.batch_size);

      if (wid == 0 && job.eval_every > 0 && (b + 1) % job.eval_every == 0) {
        const double metric = worker->Evaluate();
        std::lock_guard<std::mutex> lk(result_mu);
        result.metric_curve.emplace_back(wall.ElapsedSeconds(), metric);
      }
    }
    std::lock_guard<std::mutex> lk(result_mu);
    result.samples += mine.samples;
    result.embedding_seconds += mine.embedding_seconds;
    result.forward_seconds += mine.forward_seconds;
    result.backward_seconds += mine.backward_seconds;
    result.busy_aborts += mine.busy_aborts;
  };

  std::vector<std::thread> workers;
  for (int w = 0; w < job.num_workers; ++w) {
    workers.emplace_back(run_worker, w);
  }
  for (auto& t : workers) t.join();
  backend->WaitIdle();

  result.seconds = wall.ElapsedSeconds();
  result.device_bytes_read = backend->device_bytes_read() - bytes_read0;
  result.device_bytes_written =
      backend->device_bytes_written() - bytes_written0;
  if (!result.metric_curve.empty()) {
    result.final_metric = result.metric_curve.back().second;
  }
  return result;
}

}  // namespace mlkv
