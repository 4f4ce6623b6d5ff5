// Custom caching with Lookahead (paper §III-C2): "users can also use
// look-ahead prefetching to manipulate cache admissions for customized
// caching strategies."
//
//   build/examples/custom_cache
//
// A training loop that knows its future batches (the common case: the
// dataloader owns the sample order) drives both Lookahead destinations:
//
//   * hot keys (frequency above a threshold)  -> application cache, where
//     hits are pure memory lookups that skip the store entirely;
//   * everything else in the upcoming batches -> the store's own mutable
//     buffer, where bounded-staleness Gets then hit memory instead of disk.
//
// The run compares cold Gets vs the same access sequence with the split
// prefetch policy, printing cache hit rates and store disk reads.
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "io/temp_dir.h"
#include "mlkv/mlkv.h"
#include "obs/metrics.h"

using namespace mlkv;

namespace {

constexpr uint32_t kDim = 32;
constexpr Key kNumRows = 60000;
constexpr size_t kBatch = 256;
constexpr int kBatches = 200;
constexpr int kLookaheadDepth = 4;  // batches of future knowledge

std::vector<std::vector<Key>> MakeBatches(uint64_t seed) {
  ZipfianGenerator zipf(kNumRows, 0.9, seed);
  std::vector<std::vector<Key>> batches(kBatches);
  std::unordered_map<Key, int> in_batch;
  for (auto& batch : batches) {
    // Deduplicate within a batch, as embedding trainers do: one Get and one
    // gradient Put per unique key. (Repeats would also burn the staleness
    // budget: Gets raise a record's clock, and only its Put lowers it.)
    in_batch.clear();
    while (batch.size() < kBatch) {
      const Key k = zipf.NextScrambled();
      if (in_batch.emplace(k, 1).second) batch.push_back(k);
    }
  }
  return batches;
}

// The store's device record reads, summed over its shards.
double DiskRecordReads(const ShardedStore& store) {
  obs::MetricsSink sink;
  store.CollectMetrics(&sink);
  return sink.Sum("mlkv_io_disk_record_reads_total");
}

struct RunResult {
  uint64_t disk_reads = 0;
  uint64_t cache_hits = 0;
  uint64_t gets = 0;
  double seconds = 0;
};

}  // namespace

int main() {
  TempDir workdir("mlkv-cache");
  MlkvOptions options;
  options.dir = workdir.File("db");
  options.store.mem_size = 8ull << 20;  // deliberately smaller than the table
  options.lookahead_threads = 2;
  std::unique_ptr<Mlkv> db;
  if (!Mlkv::Open(options, &db).ok()) return 1;
  EmbeddingTable* table = nullptr;
  if (!db->OpenTable("emb", kDim, /*staleness_bound=*/16, &table).ok()) {
    return 1;
  }

  // Materialize the table (larger than the in-memory buffer).
  {
    std::vector<float> v(kDim, 0.25f);
    for (Key k = 0; k < kNumRows; ++k) {
      v[0] = static_cast<float>(k);
      if (!table->Put({&k, 1}, v.data()).ok()) return 1;
    }
  }
  std::printf("table: %llu rows x dim %u (memory buffer %llu MiB)\n",
              static_cast<unsigned long long>(kNumRows), kDim,
              static_cast<unsigned long long>(options.store.mem_size >> 20));

  const auto batches = MakeBatches(1234);

  // Frequency sketch over the visible future — the "application logic" that
  // decides cache admission. Keys seen in >= 3 future batches are hot.
  auto hot_set = [&batches](int from, int to) {
    std::unordered_map<Key, int> freq;
    for (int b = from; b < to && b < kBatches; ++b) {
      for (const Key k : batches[b]) ++freq[k];
    }
    std::vector<Key> hot;
    for (const auto& [k, n] : freq) {
      if (n >= 3) hot.push_back(k);
    }
    return hot;
  };

  auto run = [&](bool prefetch, RunResult* out) -> Status {
    EmbeddingCache cache(/*capacity=*/4096, kDim);
    std::vector<float> buf(kBatch * kDim);
    const double reads_before = DiskRecordReads(*table->store());
    for (int b = 0; b < kBatches; ++b) {
      if (prefetch && b + 1 < kBatches) {
        // Admit frequent future keys to the application cache...
        const auto hot = hot_set(b + 1, b + 1 + kLookaheadDepth);
        MLKV_RETURN_NOT_OK(table->Lookahead(
            hot, EmbeddingTable::LookaheadDest::kApplicationCache, &cache));
        // ...and stage the whole next batch in the store's buffer.
        MLKV_RETURN_NOT_OK(table->Lookahead(
            batches[b + 1], EmbeddingTable::LookaheadDest::kStorageBuffer));
      }
      for (size_t i = 0; i < batches[b].size(); ++i) {
        const Key k = batches[b][i];
        float* dst = buf.data() + i * kDim;
        if (cache.Get(k, dst)) {
          ++out->cache_hits;
          continue;
        }
        MLKV_RETURN_NOT_OK(table->Get({&k, 1}, dst));
      }
      out->gets += batches[b].size();
      // "Train": nudge the batch and write it back. The Put half matters
      // for more than realism — every Get raised its record's staleness
      // clock, and only a Put lowers it again (paper §III-C1).
      for (size_t i = 0; i < batches[b].size(); ++i) {
        float* v = buf.data() + i * kDim;
        v[1] += 1e-3f;
        MLKV_RETURN_NOT_OK(table->Put({&batches[b][i], 1}, v));
        cache.Erase(batches[b][i]);
      }
    }
    table->WaitLookahead();
    out->disk_reads = static_cast<uint64_t>(
        DiskRecordReads(*table->store()) - reads_before);
    return Status::OK();
  };

  RunResult cold, warmed;
  if (!run(false, &cold).ok()) return 1;
  if (!run(true, &warmed).ok()) return 1;

  std::printf("\n%-28s %12s %12s\n", "", "no-prefetch", "lookahead");
  std::printf("%-28s %12llu %12llu\n", "store disk record reads",
              static_cast<unsigned long long>(cold.disk_reads),
              static_cast<unsigned long long>(warmed.disk_reads));
  std::printf("%-28s %12llu %12llu\n", "application cache hits",
              static_cast<unsigned long long>(cold.cache_hits),
              static_cast<unsigned long long>(warmed.cache_hits));
  std::printf("%-28s %12llu %12llu\n", "embedding gets",
              static_cast<unsigned long long>(cold.gets),
              static_cast<unsigned long long>(warmed.gets));
  const bool improved = warmed.disk_reads < cold.disk_reads &&
                        warmed.cache_hits > 0;
  std::printf("\nlookahead cut disk reads by %.1f%% and served %.1f%% of "
              "gets from the application cache -> %s\n",
              cold.disk_reads > 0
                  ? 100.0 * (1.0 - static_cast<double>(warmed.disk_reads) /
                                       cold.disk_reads)
                  : 0.0,
              100.0 * static_cast<double>(warmed.cache_hits) / warmed.gets,
              improved ? "OK" : "UNEXPECTED");
  return improved ? 0 : 1;
}
