// Figure 10: YCSB throughput, MLKV vs FASTER, isolating the storage engine
// from application code (paper §IV-E). 50% reads / 50% writes; three
// sweeps: buffer size, thread count, value size; uniform and zipfian.
//
// Paper result: MLKV overhead <= 10% uniform, <= 20% zipfian (the vector
// clock costs more under skew because hot records contend on the control
// word); zero performance overhead when staleness tracking is disabled.
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "io/file_device.h"
#include "io/temp_dir.h"
#include "kv/faster_store.h"
#include "workloads/ycsb.h"

using namespace mlkv;
using namespace mlkv::bench;

namespace {

struct RunConfig {
  uint64_t num_keys = 200000;
  uint64_t buffer_mb = 8;
  int threads = 4;
  uint32_t value_size = 64;
  YcsbDistribution dist = YcsbDistribution::kUniform;
  bool track_staleness = false;  // MLKV vs FASTER
  uint64_t ops_per_thread = 100000;
};

double RunYcsb(const RunConfig& rc) {
  TempDir dir;
  FasterOptions o;
  o.path = dir.File("ycsb.log");
  o.index_slots = rc.num_keys;
  o.mem_size = rc.buffer_mb << 20;
  o.track_staleness = rc.track_staleness;
  o.staleness_bound = UINT32_MAX - 1;  // ASP: maintain clocks, never wait
  FasterStore store;
  if (!store.Open(o).ok()) std::exit(1);

  // Load phase.
  YcsbConfig cfg;
  cfg.num_keys = rc.num_keys;
  cfg.value_size = rc.value_size;
  cfg.distribution = rc.dist;
  {
    YcsbWorkload loader(cfg, 0);
    std::vector<char> value(rc.value_size);
    for (Key k = 0; k < rc.num_keys; ++k) {
      loader.FillValue(k, 0, value.data());
      if (!store.Upsert(k, value.data(), rc.value_size).ok()) std::exit(1);
    }
  }

  // Run phase.
  std::atomic<uint64_t> total_ops{0};
  StopWatch watch;
  std::vector<std::thread> threads;
  for (int t = 0; t < rc.threads; ++t) {
    threads.emplace_back([&, t] {
      YcsbWorkload w(cfg, t + 1);
      std::vector<char> buf(rc.value_size);
      uint64_t done = 0;
      for (uint64_t i = 0; i < rc.ops_per_thread; ++i) {
        const auto op = w.Next();
        if (op.is_read()) {
          store.Read(op.key, buf.data(), rc.value_size).ok();
        } else {
          w.FillValue(op.key, i, buf.data());
          store.Upsert(op.key, buf.data(), rc.value_size).ok();
        }
        ++done;
      }
      total_ops.fetch_add(done);
    });
  }
  for (auto& th : threads) th.join();
  return static_cast<double>(total_ops.load()) / watch.ElapsedSeconds();
}

const char* DistName(YcsbDistribution d) {
  return d == YcsbDistribution::kUniform ? "uniform" : "zipfian";
}

void SweepRow(Table* t, const char* sweep, const std::string& x,
              const RunConfig& base) {
  for (YcsbDistribution dist :
       {YcsbDistribution::kUniform, YcsbDistribution::kZipfian}) {
    RunConfig rc = base;
    rc.dist = dist;
    rc.track_staleness = true;
    const double mlkv = RunYcsb(rc);
    rc.track_staleness = false;
    const double faster = RunYcsb(rc);
    t->Cell(std::string(sweep));
    t->Cell(x);
    t->Cell(std::string(DistName(dist)));
    t->Cell(Human(mlkv));
    t->Cell(Human(faster));
    t->Cell(faster > 0 ? 100.0 * (1.0 - mlkv / faster) : 0.0, "%.1f%%");
    t->EndRow();
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv, {"keys", "ops"});
  // Simulated NVMe (README, "Substitutions and deviations"): files land in
  // the OS page cache here, so out-of-core costs must be charged explicitly.
  FileDevice::SetGlobalSimulatedCosts(
      flags.Int("nvme_read_us", 30), flags.Double("nvme_read_gbps", 1.0),
      flags.Double("nvme_write_gbps", 1.0));
  if (flags.Has("help")) {
    std::printf("fig10: YCSB 50/50, MLKV vs FASTER\n"
                "  --keys=200000 --ops=100000\n");
    return 0;
  }
  RunConfig base;
  base.num_keys = flags.Int("keys", 200000, 4000);
  base.ops_per_thread = flags.Int("ops", 100000, 1000);

  Banner("Fig 10: YCSB 50% read / 50% write — MLKV vs FASTER (ops/s)");
  Table t({"sweep", "x", "dist", "MLKV", "FASTER", "overhead"});
  t.PrintHeader();

  for (uint64_t mb : {2ull, 4ull, 8ull, 16ull}) {
    RunConfig rc = base;
    rc.buffer_mb = mb;
    SweepRow(&t, "buffer_mb", std::to_string(mb), rc);
  }
  for (int threads : {2, 4, 8, 16}) {
    RunConfig rc = base;
    rc.threads = threads;
    SweepRow(&t, "threads", std::to_string(threads), rc);
  }
  for (uint32_t vs : {16u, 32u, 64u, 128u, 256u}) {
    RunConfig rc = base;
    rc.value_size = vs;
    SweepRow(&t, "value_size", std::to_string(vs), rc);
  }

  std::printf("\nExpected shape (paper): overhead <= ~10%% uniform, <= ~20%% "
              "zipfian; throughput scales with buffer and threads and falls "
              "with value size.\n");
  return 0;
}
