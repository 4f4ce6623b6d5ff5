// Figure 2: the scalability problem statement. Trains a DLRM (FFNN) on a
// synthetic Criteo stream over a larger-than-memory MLKV store twice:
//
//   Sync        staleness bound 0 (BSP): data stalls dominate, low
//               throughput, best model quality.
//   Fully Async unbounded staleness (ASP): stalls hidden, high throughput,
//               degraded AUC.
//
// Prints the paper's three panels: latency breakdown (Emb Access /
// NN Forward / NN Backward %), throughput (samples/s), and final AUC.
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "backend/kv_backend.h"
#include "bench_util.h"
#include "common/clock.h"
#include "common/random.h"
#include "io/file_device.h"
#include "io/temp_dir.h"
#include "train/batch_io.h"
#include "train/ctr_trainer.h"

using namespace mlkv;
using namespace mlkv::bench;

namespace {

struct ModeResult {
  TrainResult train;
  const char* label;
};

ModeResult RunMode(const Flags& flags, const char* label, uint32_t bound,
                   int workers) {
  TempDir dir;
  BackendConfig cfg;
  cfg.dir = dir.File("b");
  cfg.dim = 8;
  cfg.buffer_bytes = static_cast<uint64_t>(flags.Int("buffer_mb", 4)) << 20;
  cfg.staleness_bound = bound;
  cfg.shard_bits = static_cast<uint32_t>(flags.Int("shard_bits", 2));
  std::unique_ptr<KvBackend> backend;
  if (!MakeBackend(BackendKind::kMlkv, cfg, &backend).ok()) {
    std::fprintf(stderr, "backend open failed\n");
    std::exit(1);
  }

  CtrTrainerOptions o;
  o.data.num_fields = 8;
  // Larger-than-memory with weak skew so the cold tail actually hits disk
  // (the regime Fig. 2 demonstrates).
  o.data.field_cardinality = flags.Int("cardinality", 200000, 2000);
  o.data.zipf_theta = flags.Double("theta", 0.6);
  o.dim = 16;
  o.batch_size = 128;
  o.num_workers = workers;
  o.train_batches = flags.Int("batches", 120, 5);
  o.eval_every = o.train_batches / 2;
  o.eval_samples = flags.Int("eval_samples", 2000, 200);
  o.embedding_lr = 0.3f;
  o.compute_micros_per_batch = flags.Int("compute_us", 500, 50);
  o.preload_keys = static_cast<uint64_t>(o.data.num_fields) *
                   o.data.field_cardinality;
  CtrTrainer trainer(backend.get(), o);
  return {trainer.Train(), label};
}

// ---- Sharded-store scaling sweep (tentpole: scatter/gather batching) ----
//
// Raw aggregate MultiGet/MultiPut throughput of the MLKV backend over a
// larger-than-memory table, swept over shard_bits x caller threads. This is
// the regime where a single FasterStore serializes: cold reads pay the
// simulated NVMe latency one at a time per caller, and every log page roll
// flushes (and charges write bandwidth) while holding the store's single
// allocation lock. Shards overlap both — per-shard sub-batches run
// concurrently on the lookahead pool, and a flush in one shard's log never
// blocks appends to another.

struct SweepPoint {
  uint32_t shard_bits = 0;
  int threads = 0;
  double get_rate = 0, put_rate = 0, aggregate = 0;
};

SweepPoint RunSweepPoint(const Flags& flags, uint32_t shard_bits,
                         int threads) {
  TempDir dir;
  BackendConfig cfg;
  cfg.dir = dir.File("b");
  cfg.dim = 16;
  cfg.buffer_bytes =
      static_cast<uint64_t>(flags.Int("sweep_buffer_mb", 4, 1)) << 20;
  cfg.staleness_bound = UINT32_MAX - 1;  // ASP: clocks maintained, no waits
  cfg.shard_bits = shard_bits;
  // Scatter executor: sized so every shard sub-batch of every concurrent
  // caller can be in flight (the single-store baseline runs inline and
  // leaves the pool idle, so extra workers do not flatter it).
  cfg.lookahead_threads = static_cast<size_t>(flags.Int("sweep_pool", 8));
  std::unique_ptr<KvBackend> backend;
  if (!MakeBackend(BackendKind::kMlkv, cfg, &backend).ok()) {
    std::fprintf(stderr, "backend open failed\n");
    std::exit(1);
  }
  const uint32_t dim = backend->dim();
  const uint64_t num_keys = flags.Int("sweep_keys", 200000, 20000);
  const size_t batch = static_cast<size_t>(flags.Int("sweep_batch", 512));
  const int rounds = static_cast<int>(flags.Int("sweep_rounds", 40, 8));
  PreloadKeys(backend.get(), num_keys);

  SweepPoint p;
  p.shard_bits = shard_bits;
  p.threads = threads;
  double elapsed_total = 0;
  uint64_t keys_total = 0;

  // Phase A (MultiGet), then phase B (MultiPut); each thread draws uniform
  // keys so the cold tail hits disk throughout.
  for (const bool puts : {false, true}) {
    std::atomic<uint64_t> keys_done{0};
    StopWatch watch;
    std::vector<std::thread> callers;
    for (int t = 0; t < threads; ++t) {
      callers.emplace_back([&, t] {
        Rng rng(1000 + 17 * t + (puts ? 1 : 0));
        std::vector<Key> keys(batch);
        std::vector<float> buf(batch * dim, 1.0f);
        for (int round = 0; round < rounds; ++round) {
          for (auto& k : keys) k = rng.Next() % num_keys;
          if (puts) {
            backend->MultiPut(keys, buf.data());
          } else {
            backend->MultiGet(keys, buf.data());
          }
        }
        keys_done.fetch_add(static_cast<uint64_t>(rounds) * batch);
      });
    }
    for (auto& th : callers) th.join();
    backend->WaitIdle();
    const double elapsed = watch.ElapsedSeconds();
    const double rate = static_cast<double>(keys_done.load()) / elapsed;
    if (puts) p.put_rate = rate;
    else p.get_rate = rate;
    elapsed_total += elapsed;
    keys_total += keys_done.load();
  }
  p.aggregate = static_cast<double>(keys_total) / elapsed_total;
  return p;
}

void RunShardSweep(const Flags& flags) {
  Banner("Sharded store: aggregate MultiGet/MultiPut throughput (MLKV)");
  std::printf(
      "(uniform keys over a larger-than-memory table; keys/s aggregated "
      "across callers)\n");
  std::vector<uint32_t> bits_sweep;
  if (flags.Has("sweep_shard_bits")) {
    bits_sweep = {static_cast<uint32_t>(flags.Int("sweep_shard_bits", 2))};
  } else if (flags.Smoke()) {
    bits_sweep = {0, 2};
  } else {
    bits_sweep = {0, 1, 2, 3};
  }
  std::vector<int> thread_sweep =
      flags.Smoke() ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4};

  Table t({"shard_bits", "threads", "get k/s", "put k/s", "aggregate"});
  t.PrintHeader();
  std::vector<SweepPoint> points;
  for (const uint32_t bits : bits_sweep) {
    for (const int threads : thread_sweep) {
      const SweepPoint p = RunSweepPoint(flags, bits, threads);
      points.push_back(p);
      t.Cell(static_cast<int>(bits));
      t.Cell(p.threads);
      t.Cell(Human(p.get_rate));
      t.Cell(Human(p.put_rate));
      t.Cell(Human(p.aggregate));
      t.EndRow();
    }
  }
  // Headline ratio: sharded vs single-store at the highest thread count.
  const int top_threads = thread_sweep.back();
  const SweepPoint* base = nullptr;
  const SweepPoint* sharded = nullptr;
  for (const SweepPoint& p : points) {
    if (p.threads != top_threads) continue;
    if (p.shard_bits == 0) base = &p;
    if (p.shard_bits == 2) sharded = &p;
  }
  if (base != nullptr && sharded != nullptr && base->aggregate > 0) {
    std::printf("\nshard_bits=2 vs 0 at %d threads: %.2fx aggregate\n",
                top_threads, sharded->aggregate / base->aggregate);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  // Simulated NVMe (README, "Substitutions and deviations"): files land in
  // the OS page cache here, so out-of-core costs must be charged explicitly.
  FileDevice::SetGlobalSimulatedCosts(
      flags.Int("nvme_read_us", 30), flags.Double("nvme_read_gbps", 1.0),
      flags.Double("nvme_write_gbps", 1.0));
  if (flags.Has("help")) {
    std::printf(
        "fig2: sync vs fully-async DLRM training on out-of-core MLKV\n"
        "  --buffer_mb=4 --cardinality=200000 --batches=120 "
        "--compute_us=500 --eval_samples=2000 --shard_bits=2 --smoke\n"
        "shard sweep (aggregate MultiGet/MultiPut vs shard_bits x threads):\n"
        "  --no_shard_sweep --sweep_shard_bits=N --sweep_keys=200000 "
        "--sweep_batch=512\n"
        "  --sweep_rounds=40 --sweep_buffer_mb=4 --sweep_pool=8\n");
    return 0;
  }

  Banner("Figure 2: scalability issues in embedding model training");
  std::printf("(DLRM/FFNN on synthetic Criteo; MLKV store, %lld MiB buffer; "
              "larger-than-memory)\n",
              static_cast<long long>(flags.Int("buffer_mb", 4)));

  const ModeResult sync = RunMode(flags, "Sync", 0, 1);
  const ModeResult async =
      RunMode(flags, "FullyAsync", UINT32_MAX - 1, 4);

  Table t({"mode", "emb_access%", "nn_fwd%", "nn_bwd%", "samples/s", "AUC"});
  t.PrintHeader();
  for (const ModeResult* m : {&sync, &async}) {
    const TrainResult& r = m->train;
    const double total =
        r.embedding_seconds + r.forward_seconds + r.backward_seconds;
    t.Cell(std::string(m->label));
    t.Cell(100.0 * r.embedding_seconds / total, "%.1f");
    t.Cell(100.0 * r.forward_seconds / total, "%.1f");
    t.Cell(100.0 * r.backward_seconds / total, "%.1f");
    t.Cell(Human(r.throughput()));
    t.Cell(r.final_metric, "%.4f");
    t.EndRow();
  }
  std::printf(
      "\nExpected shape (paper): sync spends most latency in Emb Access and "
      "has far lower\nthroughput; fully-async recovers throughput but gives "
      "up AUC.\n");

  if (!flags.Has("no_shard_sweep")) {
    RunShardSweep(flags);
  }
  return 0;
}
