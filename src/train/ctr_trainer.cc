#include "train/ctr_trainer.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/simd.h"
#include "ml/ctr_models.h"
#include "ml/metrics.h"
#include "train/batch_io.h"

namespace mlkv {

namespace {

std::unique_ptr<CtrModel> MakeModel(CtrModelKind kind, size_t input_dim,
                                    uint64_t seed, float lr) {
  if (kind == CtrModelKind::kDcn) {
    return std::make_unique<DcnModel>(input_dim, 2, seed, lr);
  }
  return std::make_unique<FfnnModel>(input_dim, seed, lr);
}

}  // namespace

TrainResult CtrTrainer::Train() {
  const int m = options_.data.num_fields;
  const int dense_n = options_.data.num_dense;
  const uint32_t dim = options_.dim;
  const size_t input_dim = static_cast<size_t>(m) * dim + dense_n;
  const int B = options_.batch_size;

  TrainResult result;
  std::mutex result_mu;

  if (options_.preload_keys > 0) {
    PreloadKeys(backend_, options_.preload_keys);
  }

  StopWatch wall;

  // Fixed held-out evaluation stream (separate generator seed).
  std::vector<CtrSample> eval_set;
  {
    CtrGenerator eval_gen(options_.data, /*stream_seed=*/9999);
    eval_set.reserve(options_.eval_samples);
    for (int i = 0; i < options_.eval_samples; ++i) {
      eval_set.push_back(eval_gen.Next());
    }
  }

  ComputeDelayModel delay(options_.compute_micros_per_batch);
  std::atomic<uint64_t> total_samples{0};

  auto worker_fn = [&](int wid) {
    CtrGenerator gen(options_.data, /*stream_seed=*/wid + 1);
    auto model = MakeModel(options_.model, input_dim,
                           options_.seed + wid, options_.dense_lr);
    // Pre-generate the sample stream so the look-ahead driver can see the
    // future (the paper: "applications ... know what future incoming
    // training samples will be").
    const uint64_t n_batches = options_.train_batches;
    std::vector<CtrSample> stream;
    stream.reserve(n_batches * B);
    for (uint64_t i = 0; i < n_batches * B; ++i) stream.push_back(gen.Next());

    Tensor x(B, input_dim), grad_logits;
    std::vector<float> emb(dim);
    double emb_sec = 0, fwd_sec = 0, bwd_sec = 0;

    for (uint64_t batch = 0; batch < n_batches; ++batch) {
      const CtrSample* samples = &stream[batch * B];

      // Look-ahead: prefetch the batch `lookahead_depth` ahead.
      if (options_.lookahead_depth > 0) {
        const uint64_t ahead = batch + options_.lookahead_depth;
        if (ahead < n_batches) {
          std::vector<Key> future;
          future.reserve(static_cast<size_t>(B) * m);
          for (int i = 0; i < B; ++i) {
            const CtrSample& s = stream[ahead * B + i];
            future.insert(future.end(), s.keys.begin(), s.keys.end());
          }
          backend_->Lookahead(future).ok();
        }
      }

      // Dedup keys so one batch issues one Get (and later one Put) per
      // unique key — required under low staleness bounds and standard in
      // embedding trainers.
      std::unordered_map<Key, size_t> key_slot;
      std::vector<Key> unique_keys;
      for (int i = 0; i < B; ++i) {
        for (int f = 0; f < m; ++f) {
          const Key k = samples[i].keys[f];
          if (key_slot.emplace(k, unique_keys.size()).second) {
            unique_keys.push_back(k);
          }
        }
      }
      OrderKeysByShard(ResolveShardBits(options_.backend_shard_bits, backend_),
                       &unique_keys, &key_slot);

      // --- Embedding access (Get): one batched call per minibatch ---
      uint64_t t0 = NowMicros();
      std::vector<float> unique_emb(unique_keys.size() * dim);
      const uint64_t busy =
          MultiGetWithBusyFallback(backend_, unique_keys, unique_emb.data());
      if (busy > 0) {
        std::lock_guard<std::mutex> lk(result_mu);
        result.busy_aborts += busy;
      }
      uint64_t t1 = NowMicros();
      emb_sec += (t1 - t0) * 1e-6;

      // Assemble input.
      x.Zero();
      std::vector<float> labels(B);
      for (int i = 0; i < B; ++i) {
        float* row = x.row(i);
        for (int f = 0; f < m; ++f) {
          const size_t u = key_slot[samples[i].keys[f]];
          std::copy(&unique_emb[u * dim], &unique_emb[u * dim] + dim,
                    row + static_cast<size_t>(f) * dim);
        }
        for (int d = 0; d < dense_n; ++d) {
          row[static_cast<size_t>(m) * dim + d] = samples[i].dense[d];
        }
        labels[i] = samples[i].label;
      }

      // --- NN forward ---
      t0 = NowMicros();
      const Tensor& logits = model->Forward(x);
      t1 = NowMicros();
      BceWithLogits(logits, labels, &grad_logits);

      // --- NN backward + dense step ---
      const Tensor& gx = model->Backward(grad_logits);
      model->Step();
      uint64_t t2 = NowMicros();
      delay.PadBatch(t2 - t0);
      uint64_t t3 = NowMicros();
      fwd_sec += (t1 - t0) * 1e-6 + (t3 - t2) * 1e-6 * 0.5;
      bwd_sec += (t2 - t1) * 1e-6 + (t3 - t2) * 1e-6 * 0.5;

      // Accumulate per-unique-key embedding gradients.
      std::vector<float> grad(unique_keys.size() * dim, 0.0f);
      for (int i = 0; i < B; ++i) {
        const float* g = gx.row(i);
        for (int f = 0; f < m; ++f) {
          const size_t u = key_slot[samples[i].keys[f]];
          simd::AccumulateFloats(&grad[u * dim],
                                 g + static_cast<size_t>(f) * dim, dim);
        }
      }

      // --- Embedding update (Put: value - lr * grad, Fig. 3 line 17),
      // one batched call per minibatch ---
      t0 = NowMicros();
      std::vector<float> updated(unique_keys.size() * dim);
      simd::CopyFloats(updated.data(), unique_emb.data(), updated.size());
      simd::SubScaled(updated.data(), grad.data(), options_.embedding_lr,
                      updated.size());
      backend_->MultiPut(unique_keys, updated.data());
      t1 = NowMicros();
      emb_sec += (t1 - t0) * 1e-6;

      total_samples.fetch_add(B, std::memory_order_relaxed);

      // --- Periodic evaluation (worker 0) ---
      if (wid == 0 && options_.eval_every > 0 &&
          (batch + 1) % options_.eval_every == 0) {
        AucAccumulator auc;
        Tensor ex(1, input_dim);
        const size_t row_floats = static_cast<size_t>(m) * dim;
        const size_t chunk = static_cast<size_t>(B);
        std::vector<Key> chunk_keys;
        std::vector<float> chunk_emb;
        for (size_t c0 = 0; c0 < eval_set.size(); c0 += chunk) {
          const size_t c1 = std::min(eval_set.size(), c0 + chunk);
          // One untracked batched read per chunk of B samples; each
          // sample's m rows land field-major, exactly its input layout.
          chunk_keys.clear();
          for (size_t j = c0; j < c1; ++j) {
            chunk_keys.insert(chunk_keys.end(), eval_set[j].keys.begin(),
                              eval_set[j].keys.end());
          }
          chunk_emb.assign(chunk_keys.size() * dim, 0.0f);
          EvalPeek(backend_, chunk_keys, chunk_emb.data());
          for (size_t j = c0; j < c1; ++j) {
            const CtrSample& s = eval_set[j];
            float* row = ex.row(0);
            simd::CopyFloats(row, &chunk_emb[(j - c0) * row_floats],
                             row_floats);
            for (int d = 0; d < dense_n; ++d) {
              row[row_floats + d] = s.dense[d];
            }
            const Tensor& logit = model->Forward(ex);
            auc.Add(logit.at(0, 0), s.label > 0.5f);
          }
        }
        std::lock_guard<std::mutex> lk(result_mu);
        result.metric_curve.emplace_back(wall.ElapsedSeconds(),
                                         auc.Compute());
      }
    }

    std::lock_guard<std::mutex> lk(result_mu);
    result.embedding_seconds += emb_sec;
    result.forward_seconds += fwd_sec;
    result.backward_seconds += bwd_sec;
  };

  const uint64_t bytes_read0 = backend_->device_bytes_read();
  const uint64_t bytes_written0 = backend_->device_bytes_written();

  std::vector<std::thread> workers;
  for (int w = 0; w < options_.num_workers; ++w) {
    workers.emplace_back(worker_fn, w);
  }
  for (auto& t : workers) t.join();
  backend_->WaitIdle();

  result.samples = total_samples.load();
  result.seconds = wall.ElapsedSeconds();
  result.device_bytes_read = backend_->device_bytes_read() - bytes_read0;
  result.device_bytes_written =
      backend_->device_bytes_written() - bytes_written0;
  if (!result.metric_curve.empty()) {
    result.final_metric = result.metric_curve.back().second;
  }
  return result;
}

}  // namespace mlkv
