// Quickstart: the MLKV public API in one file (mirrors paper Fig. 3).
//
//   build/examples/quickstart
//
// Opens an MLKV instance, creates an embedding table with a staleness
// bound, runs the Get -> train -> Put loop by hand, uses Lookahead to
// prefetch the next batch, and checkpoints.
#include <cstdio>
#include <vector>

#include "io/temp_dir.h"
#include "mlkv/mlkv.h"
#include "obs/metrics.h"

using namespace mlkv;

int main() {
  TempDir workdir("mlkv-quickstart");

  // 1. Open MLKV and an embedding model: dimension 16, staleness bound 4
  //    (SSP; 0 would be BSP, Mlkv::kAspBound fully asynchronous).
  MlkvOptions options;
  options.dir = workdir.File("db");
  options.store.mem_size = 16ull << 20;
  std::unique_ptr<Mlkv> db;
  Status s = Mlkv::Open(options, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }
  EmbeddingTable* table = nullptr;
  s = db->OpenTable("user_embeddings", /*dim=*/16, /*staleness_bound=*/4,
                    &table);
  if (!s.ok()) {
    std::fprintf(stderr, "table failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("opened table '%s' dim=%u bound=%u\n",
              table->model_id().c_str(), table->dim(),
              table->staleness_bound());

  // 2. The training loop of paper Fig. 3: Get embeddings for this batch's
  //    sparse features, compute, Put the updated values back.
  std::vector<Key> batch = {101, 202, 303, 404};
  std::vector<float> values(batch.size() * 16);
  if (!table->GetOrInit(batch, values.data()).ok()) return 1;
  std::printf("fetched %zu embeddings; emb[0][0..3] = %.3f %.3f %.3f %.3f\n",
              batch.size(), values[0], values[1], values[2], values[3]);

  // "Train": pretend the gradient is 0.01 everywhere; apply SGD client-side
  // as the paper's line 17 does (Put(keys, values + opt(gradients))).
  for (float& v : values) v -= 0.05f * 0.01f;
  if (!table->Put(batch, values.data()).ok()) return 1;

  // Or let the store apply gradients atomically (Rmw under the hood):
  std::vector<float> grads(batch.size() * 16, 0.01f);
  if (!table->ApplyGradients(batch, grads.data(), /*lr=*/0.05f).ok()) return 1;

  // 3. Look-ahead prefetching: we know the next batch already, so start
  //    moving its embeddings from disk into MLKV's mutable buffer now.
  std::vector<Key> next_batch = {505, 606, 707, 808};
  table->GetOrInit(next_batch, values.data()).ok();  // make them exist
  table->Lookahead(next_batch);
  table->WaitLookahead();

  // 4. Inspect storage statistics and checkpoint. The store emits them
  //    per shard (the samples /metrics serves); totals sum over shards.
  obs::MetricsSink stats;
  table->store()->CollectMetrics(&stats);
  std::printf("reads=%.0f upserts=%.0f in-place=%.0f rcu=%.0f "
              "promoted=%.0f promote-skipped=%.0f\n",
              stats.Sum("mlkv_shard_ops_total", {"op", "read"}),
              stats.Sum("mlkv_shard_ops_total", {"op", "upsert"}),
              stats.Sum("mlkv_store_inplace_updates_total"),
              stats.Sum("mlkv_store_rcu_appends_total"),
              stats.Sum("mlkv_store_promotions_total"),
              stats.Sum("mlkv_store_promotions_skipped_total"));
  if (!db->CheckpointAll().ok()) return 1;
  std::printf("checkpointed to %s\n", options.dir.c_str());
  std::printf("quickstart OK\n");
  return 0;
}
