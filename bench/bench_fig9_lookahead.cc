// Figure 9: effect of look-ahead prefetching.
//
//  (a) DLRM: relative speedup of lookahead-on vs lookahead-off while the
//      staleness bound varies 0..80 (paper: biggest wins at LOW bounds,
//      where conventional prefetching is capped by the bound).
//  (b) KGE: throughput vs buffer size for MLKV vs FASTER, each with the
//      standard traversal and with the partition-based BETA traversal
//      (paper: lookahead helps both standard and BETA).
//
// Cold-working-set mode (--cold): a disk-residency-dominated MultiGet
// sweep over io_threads through the two-phase pending-read pipeline,
// reporting keys/s and per-batch p50/p99. The memory budget is derived
// from --cold_fraction so roughly that share of the key space lives below
// the log head. This is the acceptance sweep for the pipeline:
// io_threads=4 vs 1 on a majority-disk batch >= 64.
#include <algorithm>
#include <memory>

#include "backend/kv_backend.h"
#include "bench_util.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "common/random.h"
#include "io/file_device.h"
#include "io/temp_dir.h"
#include "obs/metrics.h"
#include "train/ctr_trainer.h"
#include "train/kge_trainer.h"

using namespace mlkv;
using namespace mlkv::bench;

namespace {

std::unique_ptr<KvBackend> Make(const TempDir& dir, BackendKind kind,
                                uint32_t dim, uint64_t buffer_mb,
                                uint32_t bound) {
  BackendConfig cfg;
  cfg.dir = dir.File("b");
  cfg.dim = dim;
  cfg.buffer_bytes = buffer_mb << 20;
  cfg.staleness_bound = bound;
  std::unique_ptr<KvBackend> b;
  if (!MakeBackend(kind, cfg, &b).ok()) std::exit(1);
  return b;
}

struct ColdResult {
  double keys_per_sec = 0;
  uint64_t p50_us = 0, p99_us = 0;
  uint64_t disk_reads = 0, submitted = 0, refetched = 0;  // mlkv_io_*
};

ColdResult RunColdConfig(BackendKind kind, uint64_t num_keys,
                         uint64_t buffer_bytes, size_t batch_size,
                         uint64_t rounds, size_t io_threads) {
  constexpr uint32_t kDim = 16;
  TempDir dir;
  BackendConfig cfg;
  cfg.dir = dir.File("b");
  cfg.dim = kDim;
  cfg.buffer_bytes = buffer_bytes;
  cfg.index_slots = num_keys;
  cfg.staleness_bound = UINT32_MAX - 1;  // ASP: clocks kept, no waits
  cfg.io_threads = io_threads;
  std::unique_ptr<KvBackend> backend;
  if (!MakeBackend(kind, cfg, &backend).ok()) std::exit(1);

  // Load everything; appends spill all but the newest ~buffer_bytes of
  // records to disk.
  {
    constexpr size_t kChunk = 1024;
    std::vector<Key> keys(kChunk);
    std::vector<float> rows(kChunk * kDim);
    for (Key base = 0; base < num_keys; base += kChunk) {
      const size_t n = static_cast<size_t>(
          std::min<uint64_t>(kChunk, num_keys - base));
      for (size_t i = 0; i < n; ++i) {
        keys[i] = base + i;
        for (uint32_t d = 0; d < kDim; ++d) {
          rows[i * kDim + d] = static_cast<float>(keys[i] + d);
        }
      }
      if (backend->MultiPut({keys.data(), n}, rows.data()).failed > 0) {
        std::exit(1);
      }
    }
  }

  // Uniform random batches over the whole key space: with the buffer
  // sized for cold_fraction, that share of every batch needs disk.
  Rng rng(42 + io_threads);
  std::vector<Key> batch(batch_size);
  std::vector<float> out(batch_size * kDim);
  Histogram latency;
  StopWatch watch;
  for (uint64_t r = 0; r < rounds; ++r) {
    for (auto& k : batch) k = rng.Next() % num_keys;
    const uint64_t t0 = NowMicros();
    if (backend->MultiGet(batch, out.data()).failed > 0) std::exit(1);
    latency.Record(NowMicros() - t0);
  }
  ColdResult res;
  res.keys_per_sec = static_cast<double>(rounds * batch_size) /
                     watch.ElapsedSeconds();
  res.p50_us = latency.Percentile(0.50);
  res.p99_us = latency.Percentile(0.99);
  // The engine's own mlkv_io_* families (docs/OBSERVABILITY.md).
  obs::MetricsSink sink;
  backend->CollectMetrics(&sink);
  for (const obs::MetricsSink::Sample& x : sink.samples()) {
    const auto v = static_cast<uint64_t>(x.value);
    if (x.name == "mlkv_io_disk_record_reads_total") res.disk_reads = v;
    if (x.name == "mlkv_io_async_reads_submitted_total") res.submitted = v;
    if (x.name == "mlkv_io_async_reads_refetched_total") res.refetched = v;
  }
  return res;
}

int RunColdSweep(const Flags& flags) {
  const uint64_t num_keys = static_cast<uint64_t>(
      flags.Int("cold_keys", 200000, 20000));
  const double cold_fraction =
      std::clamp(flags.Double("cold_fraction", 0.9), 0.1, 1.0);
  const size_t batch = static_cast<size_t>(flags.Int("cold_batch", 256, 128));
  const uint64_t rounds = static_cast<uint64_t>(
      flags.Int("cold_rounds", 120, 24));
  // Record footprint: 32-byte header + dim floats, 8-aligned.
  const uint64_t dataset_bytes = num_keys * (32 + 16 * sizeof(float));
  const uint64_t buffer_bytes = std::max<uint64_t>(
      static_cast<uint64_t>(static_cast<double>(dataset_bytes) *
                            (1.0 - cold_fraction)),
      128 * 1024);

  Banner("Cold-working-set MultiGet: io_threads sweep");
  std::printf("keys=%llu cold_fraction=%.2f (buffer=%llu KiB) batch=%zu "
              "rounds=%llu\n\n",
              (unsigned long long)num_keys, cold_fraction,
              (unsigned long long)(buffer_bytes >> 10), batch,
              (unsigned long long)rounds);
  Table t({"engine", "io_thr", "keys/s", "p50_ms", "p99_ms", "disk_reads",
           "async_ios", "refetched"});
  t.PrintHeader();
  const std::vector<size_t> thread_counts =
      flags.Smoke() ? std::vector<size_t>{1, 4}
                    : std::vector<size_t>{1, 2, 4, 8};
  double one_kps = 0, four_kps = 0;
  for (const BackendKind kind : {BackendKind::kMlkv, BackendKind::kFaster}) {
    const char* name = kind == BackendKind::kMlkv ? "MLKV" : "FASTER";
    for (const size_t threads : thread_counts) {
      const ColdResult res =
          RunColdConfig(kind, num_keys, buffer_bytes, batch, rounds, threads);
      t.Cell(std::string(name));
      t.Cell(static_cast<uint64_t>(threads));
      t.Cell(Human(res.keys_per_sec));
      t.Cell(static_cast<double>(res.p50_us) / 1000.0, "%.2f");
      t.Cell(static_cast<double>(res.p99_us) / 1000.0, "%.2f");
      t.Cell(res.disk_reads);
      t.Cell(res.submitted);
      t.Cell(res.refetched);
      t.EndRow();
      if (kind != BackendKind::kMlkv) continue;
      if (threads == 1) one_kps = res.keys_per_sec;
      if (threads == 4) four_kps = res.keys_per_sec;
    }
  }
  std::printf("\nExpected shape: a batch's cold reads go into flight "
              "together, so throughput scales with io_threads until the "
              "device (or the simulated NVMe) saturates; io_threads=1 pays "
              "the reads one at a time. MLKV io_threads 4 vs 1: %.2fx\n",
              one_kps > 0 ? four_kps / one_kps : 0.0);
  return 0;
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
    std::printf("fig9: look-ahead prefetching\n"
                "  --batches=60 --buffer_mb=3 --compute_us=1000\n"
                "  --cardinality=60000 --entities=120000 --smoke\n"
                "  --cold  cold-working-set MultiGet sweep over io_threads\n"
                "          1, 2, 4, 8 (p50/p99 per batch);\n"
                "          --cold_keys=200000 --cold_fraction=0.9\n"
                "          --cold_batch=256 --cold_rounds=120\n");
    return 0;
  }
  if (flags.Has("cold")) return RunColdSweep(flags);
  const uint64_t batches = flags.Int("batches", 60, 3);
  const uint64_t buffer_mb = flags.Int("buffer_mb", 3);
  const uint64_t compute_us = flags.Int("compute_us", 1000, 50);

  Banner("Fig 9(a): DLRM — lookahead speedup vs staleness bound");
  {
    Table t({"bound", "off_sps", "on_sps", "speedup"});
    t.PrintHeader();
    for (uint32_t bound : {0u, 4u, 10u, 20u, 40u, 80u}) {
      CtrTrainerOptions o;
      o.data.num_fields = 8;
      o.data.field_cardinality = flags.Int("cardinality", 60000, 3000);
      o.dim = 16;
      o.batch_size = 128;
      o.num_workers = bound == 0 ? 1 : 2;
      o.train_batches = batches;
      o.eval_every = 0;
      o.compute_micros_per_batch = compute_us;
      o.preload_keys = static_cast<uint64_t>(o.data.num_fields) *
                       o.data.field_cardinality;

      TempDir d1, d2;
      auto off_b = Make(d1, BackendKind::kMlkv, 16, buffer_mb, bound);
      o.lookahead_depth = 0;
      CtrTrainer off_t(off_b.get(), o);
      const TrainResult off = off_t.Train();

      auto on_b = Make(d2, BackendKind::kMlkv, 16, buffer_mb, bound);
      o.lookahead_depth = 6;
      CtrTrainer on_t(on_b.get(), o);
      const TrainResult on = on_t.Train();

      t.Cell(std::to_string(bound));
      t.Cell(Human(off.throughput()));
      t.Cell(Human(on.throughput()));
      t.Cell(off.throughput() > 0 ? on.throughput() / off.throughput() : 0,
             "%.2fx");
      t.EndRow();
    }
  }

  Banner("Fig 9(b): KGE on Freebase86M — lookahead with standard and BETA "
         "traversals vs buffer size");
  {
    Table t({"series", "buf_mb", "samples/s"});
    t.PrintHeader();
    for (uint64_t mb : {2ull, 4ull, 8ull}) {
      struct Config {
        const char* name;
        BackendKind kind;
        bool beta;
        int lookahead;
      };
      const Config configs[] = {
          {"MLKV", BackendKind::kMlkv, false, 6},
          {"FASTER", BackendKind::kFaster, false, 0},
          {"MLKV(BETA)", BackendKind::kMlkv, true, 6},
          {"FASTER(BETA)", BackendKind::kFaster, true, 0},
      };
      for (const Config& c : configs) {
        TempDir dir;
        auto backend = Make(dir, c.kind, 32, mb, 16);
        KgeTrainerOptions o;
        o.data.num_entities = flags.Int("entities", 120000, 3000);
        o.data.num_relations = 8;
        o.dim = 32;
        o.batch_size = 128;
        o.num_workers = 2;
        o.train_batches = batches;
        o.eval_every = 0;
        o.lookahead_depth = c.lookahead;
        o.use_beta = c.beta;
        o.compute_micros_per_batch = compute_us;
        o.preload_keys = o.data.num_entities;
        KgeTrainer trainer(backend.get(), o);
        const TrainResult r = trainer.Train();
        t.Cell(std::string(c.name));
        t.Cell(static_cast<uint64_t>(mb));
        t.Cell(Human(r.throughput()));
        t.EndRow();
      }
    }
  }
  std::printf("\nExpected shape (paper): (a) largest speedups at low bounds; "
              "(b) MLKV > FASTER at every buffer size, for both standard and "
              "BETA orderings.\n");
  return 0;
}
