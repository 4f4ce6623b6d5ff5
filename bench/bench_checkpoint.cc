// Durability bench (extension): checkpoint, recovery, and export costs as a
// function of table size — the paper's heterogeneous-storage story (§II-B)
// pairs fast local logs with periodic checkpoints, so the practical
// question is what a checkpoint costs and how fast a node comes back.
//
// Two further sweeps cover the write pipeline (docs/DURABILITY.md):
//  * durable-write throughput — per-batch sync full-flush (FlushAll: every
//    resident page + own fsync, serialized) vs group-committed Persist
//    (dirty pages only as one engine wave, concurrent batches sharing
//    fsyncs); the headline is the speedup multiple.
//  * checkpoint bytes — full (index dump + whole-log flush) vs incremental
//    (delta index records + dirty pages) at the same update workload; the
//    headline is incremental bytes as a fraction of full.
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "io/file_device.h"
#include "io/temp_dir.h"
#include "mlkv/mlkv.h"
#include "obs/metrics.h"

using namespace mlkv;
using namespace mlkv::bench;

namespace {

void RunScale(uint64_t num_keys, uint32_t dim, Table* t) {
  TempDir dir;
  MlkvOptions opts;
  opts.dir = dir.path() + "/db";
  opts.store.index_slots = num_keys;
  opts.store.mem_size = 64ull << 20;
  std::unique_ptr<Mlkv> db;
  if (!Mlkv::Open(opts, &db).ok()) std::exit(1);
  EmbeddingTable* table = nullptr;
  OptimizerConfig adagrad;
  adagrad.kind = OptimizerKind::kAdagrad;
  if (!db->OpenTable("emb", dim, 16, &table, adagrad).ok()) std::exit(1);

  std::vector<float> value(dim, 0.5f);
  for (Key k = 0; k < num_keys; ++k) {
    value[0] = static_cast<float>(k);
    if (!table->Put({&k, 1}, value.data()).ok()) std::exit(1);
  }

  StopWatch ckpt_watch;
  if (!db->CheckpointAll().ok()) std::exit(1);
  const double ckpt_s = ckpt_watch.ElapsedSeconds();

  StopWatch export_watch;
  if (!table->Export(dir.File("emb.export")).ok()) std::exit(1);
  const double export_s = export_watch.ElapsedSeconds();

  // Recovery: open a fresh Mlkv over the same directory.
  db.reset();
  StopWatch recover_watch;
  if (!Mlkv::Open(opts, &db).ok()) std::exit(1);
  if (!db->OpenTable("emb", dim, 16, &table, adagrad).ok()) std::exit(1);
  // First read proves the table is usable.
  Key probe = num_keys / 2;
  if (!table->Get({&probe, 1}, value.data()).ok()) std::exit(1);
  const double recover_s = recover_watch.ElapsedSeconds();

  const double mb =
      static_cast<double>(num_keys) * table->record_bytes() / (1 << 20);
  t->Cell(num_keys);
  t->Cell(static_cast<uint64_t>(dim));
  t->Cell(mb, "%.1f");
  t->Cell(ckpt_s * 1000.0, "%.1f");
  t->Cell(export_s * 1000.0, "%.1f");
  t->Cell(recover_s * 1000.0, "%.1f");
  t->EndRow();
}

// One durable-write configuration: T threads each append `batches` batches
// of `batch_keys` in-place updates, making every batch durable before the
// next — via per-batch FlushAll under kSync, or the built-in group-commit
// epilogue under kGroup. Returns keys/second.
double RunDurableWrites(DurabilityMode mode, size_t threads, uint64_t batches,
                        uint64_t batch_keys, uint32_t dim, Table* t) {
  TempDir dir;
  MlkvOptions opts;
  opts.dir = dir.path() + "/db";
  // page_size is a cap: each 16 MiB shard holds FasterStore::
  // kMinResidentFrames (64) frames of the full 256 KiB.
  opts.store.mem_size = 32ull << 20;
  opts.store.page_size = 256ull << 10;
  // Whole window mutable: updates stay in place, so a batch dirties only
  // the pages its keys live on — the contrast FlushAll cannot exploit.
  opts.store.mutable_fraction = 1.0;
  opts.shard_bits = 1;
  opts.store.durability = mode;
  std::unique_ptr<Mlkv> db;
  if (!Mlkv::Open(opts, &db).ok()) std::exit(1);
  EmbeddingTable* table = nullptr;
  if (!db->OpenTable("emb", dim, 16, &table).ok()) std::exit(1);

  // Prefill enough keys that the resident window spans many pages.
  const uint64_t prefill = (8ull << 20) / table->record_bytes();
  std::vector<Key> keys(prefill);
  std::vector<float> rows(prefill * dim, 0.25f);
  for (Key k = 0; k < prefill; ++k) keys[k] = k;
  if (!table->Put(keys, rows.data()).ok()) std::exit(1);

  StopWatch watch;
  std::vector<std::thread> workers;
  for (size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      std::vector<Key> bkeys(batch_keys);
      std::vector<float> brows(batch_keys * dim,
                               0.5f + static_cast<float>(w));
      for (uint64_t b = 0; b < batches; ++b) {
        const uint64_t start = (w * batches + b) * batch_keys;
        for (uint64_t i = 0; i < batch_keys; ++i) {
          bkeys[i] = (start + i) % prefill;
        }
        if (!table->Put(bkeys, brows.data()).ok()) std::exit(1);
        if (mode == DurabilityMode::kSync) {
          // Sync full-flush baseline: every resident page, own fsync.
          for (size_t s = 0; s < table->store()->num_shards(); ++s) {
            if (!table->store()->shard(s)->mutable_log()->FlushAll().ok()) {
              std::exit(1);
            }
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const double secs = watch.ElapsedSeconds();
  const double rate =
      static_cast<double>(threads * batches * batch_keys) / secs;

  obs::MetricsSink st;
  table->store()->CollectMetrics(&st);
  t->Cell(mode == DurabilityMode::kGroup ? "group" : "sync");
  t->Cell(static_cast<uint64_t>(threads));
  t->Cell(batches);
  t->Cell(batch_keys);
  t->Cell(Human(rate));
  t->Cell(st.Sum("mlkv_io_pages_flushed_total"), "%.0f");
  t->Cell(st.Sum("mlkv_io_fsyncs_total"), "%.0f");
  t->Cell(st.Sum("mlkv_io_group_commits_total"), "%.0f");
  t->EndRow();
  return rate;
}

// size + mtime per non-log file under the DB dir; the mtime makes an
// in-place same-size rewrite (the full .idx dump) count as written.
using CkptFiles =
    std::map<std::string, std::pair<uint64_t, std::filesystem::file_time_type>>;

CkptFiles ScanCheckpointFiles(const std::string& dir) {
  CkptFiles files;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    const std::string p = e.path().string();
    if (p.size() >= 4 && p.compare(p.size() - 4, 4, ".log") == 0) continue;
    files[p] = {static_cast<uint64_t>(e.file_size()), e.last_write_time()};
  }
  return files;
}

// Bytes one CheckpointAll round wrote: the log-device delta plus the size
// of every checkpoint artifact created or rewritten during the call (the
// .idx dump / .idx.d<k> deltas / .meta files go through their own
// short-lived FileDevices, so the store's device counter alone misses
// them).
uint64_t MeasureCheckpointBytes(const std::string& dir, Mlkv* db,
                                ShardedStore* store) {
  const uint64_t log0 = store->device_bytes_written();
  const CkptFiles before = ScanCheckpointFiles(dir);
  if (!db->CheckpointAll().ok()) std::exit(1);
  uint64_t bytes = store->device_bytes_written() - log0;
  for (const auto& [path, info] : ScanCheckpointFiles(dir)) {
    const auto it = before.find(path);
    if (it == before.end() || it->second != info) bytes += info.first;
  }
  return bytes;
}

// One checkpoint-shape configuration: prefill, base checkpoint, then
// `rounds` rounds of sparse updates + CheckpointAll, measuring the bytes
// each round wrote. Returns the mean per-round bytes.
double RunCheckpointShape(CheckpointMode mode, uint64_t num_keys,
                          uint64_t updates, uint64_t rounds, uint32_t dim,
                          Table* t) {
  TempDir dir;
  MlkvOptions opts;
  opts.dir = dir.path() + "/db";
  opts.store.index_slots = num_keys * 2;
  opts.store.page_size = 128ull << 10;
  opts.shard_bits = 1;
  opts.store.checkpoint_mode = mode;
  std::unique_ptr<Mlkv> db;
  if (!Mlkv::Open(opts, &db).ok()) std::exit(1);
  EmbeddingTable* table = nullptr;
  if (!db->OpenTable("emb", dim, 16, &table).ok()) std::exit(1);

  std::vector<Key> keys(num_keys);
  std::vector<float> rows(num_keys * dim, 0.25f);
  for (Key k = 0; k < num_keys; ++k) keys[k] = k;
  if (!table->Put(keys, rows.data()).ok()) std::exit(1);
  // Base checkpoint outside the measurement: both shapes pay it once.
  if (!db->CheckpointAll().ok()) std::exit(1);

  std::vector<float> urows(updates * dim, 0.75f);
  uint64_t total = 0;
  for (uint64_t r = 0; r < rounds; ++r) {
    // Sparse update: the oldest keys, so the RCU re-appends cluster at the
    // log tail (exactly the pattern periodic training checkpoints see).
    std::vector<Key> ukeys(updates);
    for (uint64_t i = 0; i < updates; ++i) {
      ukeys[i] = (r * updates + i) % num_keys;
    }
    if (!table->Put(ukeys, urows.data()).ok()) std::exit(1);
    total += MeasureCheckpointBytes(opts.dir, db.get(), table->store());
  }
  const double mean = static_cast<double>(total) / rounds;

  t->Cell(mode == CheckpointMode::kIncremental ? "incremental" : "full");
  t->Cell(num_keys);
  t->Cell(updates);
  t->Cell(rounds);
  t->Cell(mean / (1 << 20), "%.2f");
  t->EndRow();
  return mean;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv,
              {"ckpt_keys", "ckpt_rounds", "ckpt_updates", "dim", "durability",
               "max_keys", "threads", "wbatches", "wkeys"});
  FileDevice::SetGlobalSimulatedCosts(
      flags.Int("nvme_read_us", 30), flags.Double("nvme_read_gbps", 1.0),
      flags.Double("nvme_write_gbps", 1.0));
  if (flags.Has("help")) {
    std::printf(
        "checkpoint: ckpt/export/recover latency vs table size, plus the\n"
        "write-pipeline sweeps (docs/DURABILITY.md)\n"
        "  --dim=16 --max_keys=400000\n"
        "  --durability       run only the two write-pipeline sweeps\n"
        "  durable writes:    --threads=4 --wbatches=24 --wkeys=512\n"
        "                     (sync FlushAll-per-batch vs group commit)\n"
        "  checkpoint shape:  --ckpt_keys=50000 --ckpt_updates=500\n"
        "                     --ckpt_rounds=3 (full vs incremental bytes)\n");
    return 0;
  }
  const uint32_t dim = static_cast<uint32_t>(flags.Int("dim", 16));
  const uint64_t max_keys = flags.Int("max_keys", 400000, 25000);
  const bool durability_only = flags.Has("durability");

  if (!durability_only) {
    Banner("Checkpoint / export / recovery latency vs table size");
    Table t(
        {"keys", "dim", "table_mb", "ckpt_ms", "export_ms", "recover_ms"});
    t.PrintHeader();
    for (uint64_t keys = 25000; keys <= max_keys; keys *= 4) {
      RunScale(keys, dim, &t);
    }
    std::printf("\nExpected shape: checkpoint and export scale linearly with "
                "table bytes; recovery is index-restore + boundary reset, so "
                "it stays near-constant (no log replay).\n");
  }

  const size_t threads =
      static_cast<size_t>(flags.Int("threads", 4, 4));
  const uint64_t wbatches = flags.Int("wbatches", 24, 8);
  const uint64_t wkeys = flags.Int("wkeys", 512, 512);
  Banner("Durable-write throughput: sync full-flush vs group commit");
  Table wt({"mode", "threads", "batches", "keys/batch", "keys/s",
            "pages_flushed", "fsyncs", "group_commits"});
  wt.PrintHeader();
  const double sync_rate = RunDurableWrites(DurabilityMode::kSync, threads,
                                            wbatches, wkeys, dim, &wt);
  const double group_rate = RunDurableWrites(DurabilityMode::kGroup, threads,
                                             wbatches, wkeys, dim, &wt);
  std::printf("\ngroup-commit speedup: %.2fx over sync full-flush "
              "(target >= 2x)\n",
              group_rate / sync_rate);

  const uint64_t ckpt_keys = flags.Int("ckpt_keys", 50000, 30000);
  const uint64_t ckpt_updates = flags.Int("ckpt_updates", 500, 300);
  const uint64_t ckpt_rounds = flags.Int("ckpt_rounds", 3, 2);
  Banner("Checkpoint bytes per round: full vs incremental");
  Table ct({"mode", "keys", "updates", "rounds", "bytes_mb"});
  ct.PrintHeader();
  const double full_bytes = RunCheckpointShape(
      CheckpointMode::kFull, ckpt_keys, ckpt_updates, ckpt_rounds, dim, &ct);
  const double incr_bytes =
      RunCheckpointShape(CheckpointMode::kIncremental, ckpt_keys,
                         ckpt_updates, ckpt_rounds, dim, &ct);
  std::printf("\nincremental checkpoint bytes: %.1f%% of full "
              "(target <= 10%%)\n",
              100.0 * incr_bytes / full_bytes);
  return 0;
}
