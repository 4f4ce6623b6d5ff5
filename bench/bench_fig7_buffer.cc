// Figure 7: larger-than-memory workloads — throughput (top) and energy
// (bottom) as a function of the in-memory buffer size, for X-MLKV vs
// X-FASTER vs X-RocksDB vs X-WiredTiger across the three tasks.
//
// Paper result: MLKV wins by 1.08-2.44x (DLRM), 1.36-4.89x (KGE),
// 1.53-12.57x (GNN), and is the most energy-efficient. The shape comes
// from (a) bounded staleness + lookahead hiding disk stalls, (b) LSM read
// amplification and B+tree random-write page churn hurting the baselines.
#include <memory>

#include "backend/kv_backend.h"
#include "bench_util.h"
#include "io/file_device.h"
#include "io/temp_dir.h"
#include "train/ctr_trainer.h"
#include "train/energy.h"
#include "train/gnn_trainer.h"
#include "train/kge_trainer.h"

using namespace mlkv;
using namespace mlkv::bench;

namespace {

constexpr BackendKind kBackends[] = {BackendKind::kMlkv, BackendKind::kFaster,
                                     BackendKind::kLsm, BackendKind::kBtree};

std::unique_ptr<KvBackend> Make(const TempDir& dir, BackendKind kind,
                                uint32_t dim, uint64_t buffer_mb) {
  BackendConfig cfg;
  cfg.dir = dir.File("b");
  cfg.dim = dim;
  cfg.buffer_bytes = buffer_mb << 20;
  cfg.staleness_bound = 16;
  std::unique_ptr<KvBackend> b;
  if (!MakeBackend(kind, cfg, &b).ok()) std::exit(1);
  return b;
}

template <typename RunFn>
void Sweep(const char* task, const std::vector<uint64_t>& buffers_mb,
           uint64_t batches, RunFn run) {
  Banner(std::string("Fig 7: ") + task +
         " — throughput (samples/s) and energy (J/batch) vs buffer size");
  Table t({"backend", "buf_mb", "samples/s", "J/batch", "disk_rd_mb",
           "disk_wr_mb"});
  t.PrintHeader();
  EnergyModel energy;
  double mlkv_tput = 0;
  for (const uint64_t mb : buffers_mb) {
    for (const BackendKind kind : kBackends) {
      TempDir dir;
      auto backend = Make(dir, kind, 16, mb);
      const TrainResult r = run(backend.get());
      if (kind == BackendKind::kMlkv) mlkv_tput = r.throughput();
      t.Cell(std::string(BackendKindName(kind)));
      t.Cell(static_cast<uint64_t>(mb));
      t.Cell(Human(r.throughput()));
      t.Cell(energy.JoulesPerBatch(r, batches), "%.2f");
      t.Cell(static_cast<double>(r.device_bytes_read) / (1 << 20), "%.1f");
      t.Cell(static_cast<double>(r.device_bytes_written) / (1 << 20), "%.1f");
      t.EndRow();
    }
    (void)mlkv_tput;
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
    std::printf("fig7: larger-than-memory backend sweep\n"
                "  --batches=60 --compute_us=1500 --buffers=2,4,8\n"
                "  --cardinality=60000 --entities=150000 --nodes=150000\n"
                "  --task=all|dlrm|kge|gnn --smoke\n");
    return 0;
  }
  const uint64_t batches = flags.Int("batches", 60, 3);
  const uint64_t compute_us = flags.Int("compute_us", 1500, 50);
  const std::string task = flags.Str("task", "all");

  std::vector<uint64_t> buffers;
  {
    std::string s = flags.Str("buffers", "2,4,8", "2");
    size_t pos = 0;
    while (pos < s.size()) {
      size_t comma = s.find(',', pos);
      if (comma == std::string::npos) comma = s.size();
      buffers.push_back(std::strtoull(s.substr(pos, comma - pos).c_str(),
                                      nullptr, 10));
      pos = comma + 1;
    }
  }

  if (task == "all" || task == "dlrm") {
    CtrTrainerOptions o;
    o.data.num_fields = 8;
    o.data.field_cardinality = flags.Int("cardinality", 60000, 3000);
    o.dim = 16;
    o.batch_size = 128;
    o.num_workers = 2;
    o.train_batches = batches;
    o.eval_every = 0;  // throughput run
    o.lookahead_depth = 4;
    o.compute_micros_per_batch = compute_us;
    o.preload_keys = static_cast<uint64_t>(o.data.num_fields) *
                     o.data.field_cardinality;
    Sweep("DLRM on Criteo-Terabyte", buffers, batches * o.num_workers,
          [&](KvBackend* b) {
            CtrTrainer t(b, o);
            return t.Train();
          });
  }

  if (task == "all" || task == "kge") {
    KgeTrainerOptions o;
    o.data.num_entities = flags.Int("entities", 150000, 3000);
    o.data.num_relations = 8;
    o.dim = 32;
    o.batch_size = 128;
    o.num_workers = 2;
    o.train_batches = batches;
    o.eval_every = 0;
    o.lookahead_depth = 4;
    o.compute_micros_per_batch = compute_us;
    o.preload_keys = o.data.num_entities;
    Sweep("KGE on Freebase86M", buffers, batches * o.num_workers,
          [&](KvBackend* b) {
            KgeTrainer t(b, o);
            return t.Train();
          });
  }

  if (task == "all" || task == "gnn") {
    GnnTrainerOptions o;
    o.graph.num_nodes = flags.Int("nodes", 150000, 3000);
    o.graph.num_classes = 8;
    o.graph.fanout = 8;
    o.dim = 32;
    o.hidden = 32;
    o.batch_size = 64;
    o.num_workers = 2;
    o.train_batches = batches;
    o.eval_every = 0;
    o.lookahead_depth = 4;
    o.compute_micros_per_batch = compute_us;
    o.preload_keys = o.graph.num_nodes;
    Sweep("GNN on Papers100M", buffers, batches * o.num_workers,
          [&](KvBackend* b) {
            GnnTrainer t(b, o);
            return t.Train();
          });
  }

  std::printf("\nExpected shape (paper): MLKV > FASTER > RocksDB/WiredTiger "
              "out-of-core; gaps shrink as the buffer grows; MLKV lowest "
              "J/batch.\n");
  return 0;
}
