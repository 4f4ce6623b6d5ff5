// Figure 11: the eBay case studies (paper §IV-F), on synthetic stand-ins
// with the same topology class (see README, "Substitutions and deviations").
//
//  (a) eBay-Trisk: GraphSage training throughput vs buffer size for MLKV
//      and FASTER, plus the modeled two-instance DGL-DDP baseline (paper:
//      one MLKV instance ~ 69.6% of two-instance DDP throughput).
//  (b) eBay-Payout: AUC over time for MLKV vs FASTER at two buffer sizes
//      (paper: lookahead hides data stalls, so MLKV converges faster in
//      wall-clock).
#include <memory>

#include "backend/kv_backend.h"
#include "bench_util.h"
#include "io/file_device.h"
#include "io/temp_dir.h"
#include "train/ddp_sim.h"
#include "train/gnn_trainer.h"

using namespace mlkv;
using namespace mlkv::bench;

namespace {

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

GnnTrainerOptions TriskOptions(const Flags& flags) {
  GnnTrainerOptions o;
  o.task = GnnTask::kEbayTrisk;
  o.ebay.num_transactions = flags.Int("transactions", 150000, 3000);
  o.ebay.num_entities = flags.Int("entities", 80000, 2000);
  o.dim = 32;
  o.hidden = 32;
  o.batch_size = 64;
  o.num_workers = 2;
  o.train_batches = flags.Int("batches", 60, 3);
  o.eval_every = 0;
  o.lookahead_depth = 6;
  o.compute_micros_per_batch = flags.Int("compute_us", 1500, 50);
  o.preload_keys = o.ebay.num_transactions + o.ebay.num_entities;
  return o;
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
    std::printf("fig11: eBay risk-detection case studies\n"
                "  --batches=60 --transactions=150000 --entities=80000 "
                "--compute_us=1500\n");
    return 0;
  }

  Banner("Fig 11(a): eBay-Trisk — throughput vs buffer size (+ DDP)");
  {
    Table t({"series", "buf_mb", "samples/s"});
    t.PrintHeader();
    const GnnTrainerOptions o = TriskOptions(flags);
    TrainResult in_memory_result;
    for (uint64_t mb : {2ull, 4ull, 8ull, 16ull}) {
      for (BackendKind kind : {BackendKind::kMlkv, BackendKind::kFaster}) {
        TempDir dir;
        auto backend = Make(dir, kind, o.dim, mb);
        GnnTrainer trainer(backend.get(), o);
        const TrainResult r = trainer.Train();
        t.Cell(std::string(BackendKindName(kind)));
        t.Cell(static_cast<uint64_t>(mb));
        t.Cell(Human(r.throughput()));
        t.EndRow();
      }
    }
    // DDP baseline: measured in-memory single instance + allreduce model.
    {
      TempDir dir;
      auto backend = Make(dir, BackendKind::kInMemory, o.dim, 256);
      GnnTrainer trainer(backend.get(), o);
      in_memory_result = trainer.Train();
      DdpSim ddp;
      const double ddp_tput = ddp.Throughput(
          in_memory_result, o.train_batches * o.num_workers);
      t.Cell(std::string("DGL-DDP(2x)"));
      t.Cell(std::string("in-mem"));
      t.Cell(Human(ddp_tput));
      t.EndRow();
      std::printf("(paper: one out-of-core MLKV instance reaches ~70%% of "
                  "two-instance DDP at half the hardware)\n");
    }
  }

  Banner("Fig 11(b): eBay-Payout — AUC over time, MLKV vs FASTER, two "
         "buffer sizes");
  {
    Table t({"series", "t25%", "t50%", "t75%", "final_AUC", "seconds"});
    t.PrintHeader();
    for (uint64_t mb : {2ull, 8ull}) {
      for (BackendKind kind : {BackendKind::kMlkv, BackendKind::kFaster}) {
        TempDir dir;
        auto backend = Make(dir, kind, 32, mb);
        GnnTrainerOptions o = TriskOptions(flags);
        o.task = GnnTask::kEbayPayout;
        o.ebay.tripartite = true;
        o.train_batches = o.train_batches * 2;  // payout: 2x Trisk batches
        o.eval_every = static_cast<int>(o.train_batches / 4);
        o.eval_nodes = 600;
        GnnTrainer trainer(backend.get(), o);
        const TrainResult r = trainer.Train();
        t.Cell(std::string(BackendKindName(kind)) + "-" + std::to_string(mb) +
               "MB");
        const auto& c = r.metric_curve;
        for (double q : {0.25, 0.5, 0.75}) {
          if (c.empty()) {
            t.Cell(std::string("-"));
          } else {
            const size_t i =
                std::min(c.size() - 1, static_cast<size_t>(q * c.size()));
            t.Cell(c[i].second, "%.3f");
          }
        }
        t.Cell(r.final_metric, "%.4f");
        t.Cell(r.seconds, "%.1f");
        t.EndRow();
      }
    }
  }
  std::printf("\nExpected shape (paper): MLKV beats FASTER at equal buffer "
              "size; larger buffers converge faster in wall-clock.\n");
  return 0;
}
