// Figure 8: effect of bounded staleness consistency in isolation. Fixed
// buffer size, staleness bound swept 0..80, on the CTR task (AUC) and the
// KGE link-prediction task (Hits@10).
//
// Paper result: relaxing the bound buys up to 6.58x throughput with <0.1%
// quality drop; unbounded (FASTER-style fully async) costs >0.8% AUC.
#include <memory>

#include "backend/kv_backend.h"
#include "bench_util.h"
#include "io/file_device.h"
#include "io/temp_dir.h"
#include "train/ctr_trainer.h"
#include "train/kge_trainer.h"

using namespace mlkv;
using namespace mlkv::bench;

namespace {

std::unique_ptr<KvBackend> Make(const TempDir& dir, uint32_t dim,
                                uint64_t buffer_mb, uint32_t bound) {
  BackendConfig cfg;
  cfg.dir = dir.File("b");
  cfg.dim = dim;
  cfg.buffer_bytes = buffer_mb << 20;
  cfg.staleness_bound = bound;
  std::unique_ptr<KvBackend> b;
  if (!MakeBackend(BackendKind::kMlkv, cfg, &b).ok()) std::exit(1);
  return b;
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
    std::printf("fig8: staleness-bound sweep (throughput vs quality)\n"
                "  --batches=120 --buffer_mb=4 --compute_us=800\n"
                "  --cardinality=30000 --entities=30000 --smoke\n");
    return 0;
  }
  const uint64_t batches = flags.Int("batches", 120, 5);
  const uint64_t buffer_mb = flags.Int("buffer_mb", 4);
  const uint64_t compute_us = flags.Int("compute_us", 800, 50);
  const std::vector<uint32_t> bounds = {0, 4, 10, 20, 40, 80,
                                        UINT32_MAX - 1};

  Banner("Fig 8(a): DLRM on Criteo-Ad — throughput vs AUC across bounds");
  {
    Table t({"bound", "samples/s", "AUC", "stale_waits"});
    t.PrintHeader();
    for (uint32_t bound : bounds) {
      TempDir dir;
      auto backend = Make(dir, 8, buffer_mb, bound);
      CtrTrainerOptions o;
      o.data.num_fields = 8;
      o.data.field_cardinality = flags.Int("cardinality", 30000, 2000);
      o.dim = 8;
      o.batch_size = 128;
      // Bound 0 forces single-worker BSP; higher bounds run pipelined.
      o.num_workers = bound == 0 ? 1 : 4;
      o.train_batches = bound == 0 ? batches * 2 : batches;
      o.eval_every = static_cast<int>(o.train_batches);
      o.eval_samples = 2000;
      o.compute_micros_per_batch = compute_us;
      o.preload_keys = static_cast<uint64_t>(o.data.num_fields) *
                       o.data.field_cardinality;
      CtrTrainer trainer(backend.get(), o);
      const TrainResult r = trainer.Train();
      t.Cell(bound == UINT32_MAX - 1 ? std::string("inf(ASP)")
                                     : std::to_string(bound));
      t.Cell(Human(r.throughput()));
      t.Cell(r.final_metric, "%.4f");
      t.Cell(r.busy_aborts);
      t.EndRow();
    }
  }

  Banner("Fig 8(b): KGE on WikiKG2 — throughput vs Hits@10 across bounds");
  {
    Table t({"bound", "samples/s", "Hits@10", "stale_waits"});
    t.PrintHeader();
    for (uint32_t bound : bounds) {
      TempDir dir;
      auto backend = Make(dir, 32, buffer_mb, bound);
      KgeTrainerOptions o;
      o.data.num_entities = flags.Int("entities", 30000, 2000);
      o.data.num_relations = 8;
      o.dim = 32;
      o.batch_size = 128;
      o.num_workers = bound == 0 ? 1 : 4;
      o.train_batches = bound == 0 ? batches * 2 : batches;
      o.eval_every = static_cast<int>(o.train_batches);
      o.eval_triples = 300;
      o.compute_micros_per_batch = compute_us;
      o.preload_keys = o.data.num_entities;
      KgeTrainer trainer(backend.get(), o);
      const TrainResult r = trainer.Train();
      t.Cell(bound == UINT32_MAX - 1 ? std::string("inf(ASP)")
                                     : std::to_string(bound));
      t.Cell(Human(r.throughput()));
      t.Cell(r.final_metric, "%.4f");
      t.Cell(r.busy_aborts);
      t.EndRow();
    }
  }

  std::printf("\nExpected shape (paper): throughput rises steeply from "
              "bound 0 and saturates; quality degrades only slightly up to "
              "bound ~80, more when unbounded.\n");
  return 0;
}
