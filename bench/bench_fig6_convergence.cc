// Figure 6: end-to-end convergence, in-memory regime. For each task
// (DLRM/Criteo-Ad, KGE/WikiKG2, GNN/Papers100M) trains the native
// configuration (specialized framework == InMemory backend) and the
// X-MLKV integration with identical application logic and staleness
// bounds, printing metric-vs-time series and the relative slowdown
// (paper: MLKV at most 2.5% / 2.6% / 22.2% slower than PERSIA / DGL-KE /
// DGL due to index traversal overhead).
#include <memory>

#include "backend/kv_backend.h"
#include "bench_util.h"
#include "io/file_device.h"
#include "io/temp_dir.h"
#include "train/ctr_trainer.h"
#include "train/gnn_trainer.h"
#include "train/kge_trainer.h"

using namespace mlkv;
using namespace mlkv::bench;

namespace {

std::unique_ptr<KvBackend> Make(const TempDir& dir, BackendKind kind,
                                uint32_t dim, uint64_t buffer_mb) {
  BackendConfig cfg;
  cfg.dir = dir.File("b");
  cfg.dim = dim;
  cfg.buffer_bytes = buffer_mb << 20;  // large: in-memory regime
  cfg.staleness_bound = 16;
  std::unique_ptr<KvBackend> b;
  if (!MakeBackend(kind, cfg, &b).ok()) std::exit(1);
  return b;
}

void PrintCurves(const char* task, const char* metric,
                 const TrainResult& native, const TrainResult& with_mlkv) {
  Banner(std::string("Fig 6: ") + task + " convergence (" + metric + ")");
  Table t({"series", "t25%", "t50%", "t75%", "final", "samples/s"});
  t.PrintHeader();
  auto row = [&](const char* name, const TrainResult& r) {
    t.Cell(std::string(name));
    const auto& c = r.metric_curve;
    for (double q : {0.25, 0.5, 0.75}) {
      if (c.empty()) {
        t.Cell(std::string("-"));
      } else {
        const size_t i =
            std::min(c.size() - 1, static_cast<size_t>(q * c.size()));
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.3f", c[i].second);
        t.Cell(std::string(buf));
      }
    }
    t.Cell(r.final_metric, "%.4f");
    t.Cell(Human(r.throughput()));
    t.EndRow();
  };
  row("Native", native);
  row("X-MLKV", with_mlkv);
  const double slowdown =
      native.throughput() > 0
          ? 100.0 * (1.0 - with_mlkv.throughput() / native.throughput())
          : 0.0;
  std::printf("MLKV slowdown vs native: %.1f%% (paper: 2.5%%-22.2%%)\n",
              slowdown);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv, {"batches", "compute_us"});
  // Simulated NVMe (README, "Substitutions and deviations"): files land in
  // the OS page cache here, so out-of-core costs must be charged explicitly.
  FileDevice::SetGlobalSimulatedCosts(
      flags.Int("nvme_read_us", 30), flags.Double("nvme_read_gbps", 1.0),
      flags.Double("nvme_write_gbps", 1.0));
  if (flags.Has("help")) {
    std::printf("fig6: in-memory convergence, native vs X-MLKV\n"
                "  --batches=150 --compute_us=1500\n");
    return 0;
  }
  const uint64_t batches = flags.Int("batches", 150, 5);
  const uint64_t compute_us = flags.Int("compute_us", 1500, 50);

  // --- DLRM on Criteo-Ad (PERSIA vs PERSIA-MLKV) ---
  {
    CtrTrainerOptions o;
    o.data.num_fields = 8;
    o.data.field_cardinality = 10000;
    o.dim = 8;
    o.batch_size = 128;
    o.num_workers = 2;
    o.train_batches = batches;
    o.eval_every = static_cast<int>(batches / 5);
    o.eval_samples = 1500;
    o.compute_micros_per_batch = compute_us;
    TempDir d1, d2;
    auto native_b = Make(d1, BackendKind::kInMemory, o.dim, 256);
    auto mlkv_b = Make(d2, BackendKind::kMlkv, o.dim, 256);
    CtrTrainer t1(native_b.get(), o), t2(mlkv_b.get(), o);
    PrintCurves("DLRM on Criteo-Ad (FFNN-Dim8)", "AUC", t1.Train(),
                t2.Train());
  }

  // --- KGE on WikiKG2 (DGL-KE vs DGL-KE-MLKV) ---
  {
    KgeTrainerOptions o;
    o.data.num_entities = 20000;
    o.data.num_relations = 8;
    o.data.num_clusters = 16;
    o.dim = 32;
    o.batch_size = 128;
    o.num_workers = 2;
    o.train_batches = batches;
    o.eval_every = static_cast<int>(batches / 5);
    o.eval_triples = 300;
    o.compute_micros_per_batch = compute_us;
    TempDir d1, d2;
    auto native_b = Make(d1, BackendKind::kInMemory, o.dim, 256);
    auto mlkv_b = Make(d2, BackendKind::kMlkv, o.dim, 256);
    KgeTrainer t1(native_b.get(), o), t2(mlkv_b.get(), o);
    PrintCurves("KGE on WikiKG2 (DistMult)", "Hits@10", t1.Train(),
                t2.Train());
  }

  // --- GNN on Papers100M (DGL vs DGL-MLKV) ---
  {
    GnnTrainerOptions o;
    o.graph.num_nodes = 20000;
    o.graph.num_classes = 8;
    o.graph.fanout = 8;
    o.dim = 32;
    o.hidden = 32;
    o.batch_size = 64;
    o.num_workers = 2;
    o.train_batches = batches;
    o.eval_every = static_cast<int>(batches / 5);
    o.eval_nodes = 600;
    o.compute_micros_per_batch = compute_us;
    TempDir d1, d2;
    auto native_b = Make(d1, BackendKind::kInMemory, o.dim, 256);
    auto mlkv_b = Make(d2, BackendKind::kMlkv, o.dim, 256);
    GnnTrainer t1(native_b.get(), o), t2(mlkv_b.get(), o);
    PrintCurves("GNN on Papers100M (GraphSage)", "accuracy", t1.Train(),
                t2.Train());
  }
  return 0;
}
