// Ablations of the store's design decisions (README "Substitutions and
// deviations"):
//
//   D1  staleness bits in the lock word: overhead of tracking vs plain
//       FASTER mode (paper §IV-E claims zero when disabled, <=10-20% when
//       enabled). Every mode copies the cold records it reads to the tail
//       (tracked modes with the read's staleness increment), so reads warm
//       the working set and grow the log alike.
//   GC  log garbage collection: log footprint with and without periodic
//       Compact() under RCU-heavy churn, and its throughput cost.
//   IDX hash-index growth: chain-walk cost of an undersized index and the
//       effect of GrowIndex().
#include <atomic>
#include <string>
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

struct Setup {
  // Defaults are deliberately out-of-core: ~9.6 MB of records against a
  // 4 MB buffer, so the disk region and promotion paths actually exercise.
  uint64_t num_keys = 100000;
  uint32_t value_size = 64;
  uint64_t buffer_mb = 4;
  int threads = 4;
  uint64_t ops_per_thread = 50000;
};

void Load(FasterStore* store, const Setup& s) {
  YcsbConfig cfg;
  cfg.num_keys = s.num_keys;
  cfg.value_size = s.value_size;
  YcsbWorkload loader(cfg, 0);
  std::vector<char> value(s.value_size);
  for (Key k = 0; k < s.num_keys; ++k) {
    loader.FillValue(k, 0, value.data());
    if (!store->Upsert(k, value.data(), s.value_size).ok()) std::exit(1);
  }
}

double RunMix(FasterStore* store, const Setup& s, double update_fraction) {
  YcsbConfig cfg;
  cfg.num_keys = s.num_keys;
  cfg.value_size = s.value_size;
  cfg.update_fraction = update_fraction;
  std::atomic<uint64_t> ops{0};
  StopWatch watch;
  std::vector<std::thread> threads;
  for (int t = 0; t < s.threads; ++t) {
    threads.emplace_back([&, t] {
      YcsbWorkload w(cfg, t + 1, s.threads);
      std::vector<char> buf(s.value_size);
      for (uint64_t i = 0; i < s.ops_per_thread; ++i) {
        const auto op = w.Next();
        if (op.is_read()) {
          store->Read(op.key, buf.data(), s.value_size).ok();
        } else {
          w.FillValue(op.key, i, buf.data());
          store->Upsert(op.key, buf.data(), s.value_size).ok();
        }
      }
      ops.fetch_add(s.ops_per_thread);
    });
  }
  for (auto& th : threads) th.join();
  return static_cast<double>(ops.load()) / watch.ElapsedSeconds();
}

FasterOptions BaseOptions(const TempDir& dir, const Setup& s,
                          const char* name) {
  FasterOptions o;
  o.path = dir.File(name);
  o.index_slots = s.num_keys;
  o.mem_size = s.buffer_mb << 20;
  return o;
}

void AblationD1(const Setup& s) {
  Banner("D1: staleness bits in the lock word (YCSB zipfian, ops/s)");
  Table t({"mode", "50/50", "95/5", "delta_5050"});
  t.PrintHeader();
  double base5050 = 0;
  struct Mode {
    const char* name;
    bool track;
    uint32_t bound;
  };
  for (const Mode m : {Mode{"tracking_off", false, 0},
                       Mode{"asp_bound", true, UINT32_MAX - 1},
                       Mode{"bound_16", true, 16}}) {
    TempDir dir;
    FasterStore store;
    FasterOptions o = BaseOptions(dir, s, "d1.log");
    o.track_staleness = m.track;
    o.staleness_bound = m.bound;
    // YCSB reads are not paired with puts (unlike a training pipeline), so
    // a finite bound starves hot keys; abort bounded reads quickly rather
    // than spinning out the default training-sized budget.
    o.busy_spin_limit = 1 << 8;
    if (!store.Open(o).ok()) std::exit(1);
    Load(&store, s);
    const double t5050 = RunMix(&store, s, 0.5);
    const double t955 = RunMix(&store, s, 0.05);
    if (base5050 == 0) base5050 = t5050;
    t.Cell(std::string(m.name));
    t.Cell(Human(t5050));
    t.Cell(Human(t955));
    t.Cell(100.0 * (1.0 - t5050 / base5050), "%.1f%%");
    t.EndRow();
  }
  std::printf("Expected: asp/bounded modes cost <= ~10-20%% vs tracking off "
              "(paper §IV-E); bound_16 may add waits under skew.\n");
}

void AblationGc(const Setup& s) {
  Banner("GC: log garbage collection under RCU churn");
  Table t({"gc", "ops/s", "live_log_mb", "file_mb", "compactions"});
  t.PrintHeader();
  for (const bool gc : {false, true}) {
    TempDir dir;
    FasterStore store;
    FasterOptions o = BaseOptions(dir, s, "gc.log");
    if (!store.Open(o).ok()) std::exit(1);
    Load(&store, s);
    // Size-alternating updates force RCU appends (in-place needs equal
    // size), the worst-case churn for a log-structured store.
    YcsbConfig cfg;
    cfg.num_keys = s.num_keys;
    cfg.value_size = s.value_size;
    // The live span can never shrink below the live data itself; a sane GC
    // threshold is a multiple of it (1.5x here), not of the memory buffer.
    const uint64_t gc_threshold =
        (store.log().tail() - store.log().begin_address()) * 5 / 4;
    StopWatch watch;
    YcsbWorkload w(cfg, 1);
    std::vector<char> buf(s.value_size + 8);
    const uint64_t ops = s.ops_per_thread * 2;
    for (uint64_t i = 0; i < ops; ++i) {
      const auto op = w.Next();
      const uint32_t size = s.value_size + (i % 2) * 8;
      w.FillValue(op.key, i, buf.data());
      store.Upsert(op.key, buf.data(), size).ok();
      if (gc && i % 8192 == 8191) {
        store.MaybeCompact(gc_threshold).ok();
      }
    }
    const double rate = static_cast<double>(ops) / watch.ElapsedSeconds();
    const auto st = store.stats();
    t.Cell(gc ? "on" : "off");
    t.Cell(Human(rate));
    t.Cell(static_cast<double>(store.log().tail() -
                               store.log().begin_address()) /
               (1 << 20),
           "%.1f");
    t.Cell(static_cast<double>(store.log().tail()) / (1 << 20), "%.1f");
    t.Cell(st.compactions);
    t.EndRow();
  }
  std::printf("Expected: GC bounds the live log span at a modest throughput "
              "cost (copies of live records).\n");
}

void AblationIndex(const Setup& s) {
  Banner("IDX: hash-index sizing and growth (read-only zipfian, ops/s)");
  Table t({"index", "slots", "ops/s"});
  t.PrintHeader();
  struct Cfg {
    const char* name;
    uint64_t slots;
    bool grow;
    bool republish;  // one write pass after growth (training does this)
  };
  for (const Cfg c : {Cfg{"undersized", 0, false, false},
                      Cfg{"grow_only", 0, true, false},
                      Cfg{"grow+1epoch", 0, true, true},
                      Cfg{"right-sized", 1, false, false}}) {
    TempDir dir;
    FasterStore store;
    FasterOptions o = BaseOptions(dir, s, "idx.log");
    o.index_slots = c.slots == 0 ? s.num_keys / 64 : s.num_keys;
    if (!store.Open(o).ok()) std::exit(1);
    Load(&store, s);
    if (c.grow) store.MaybeGrowIndex(1.0).ok();
    if (c.republish) {
      // Chains only thin as publishes move keys to their refined slots;
      // one update epoch (what a training pass does anyway) is enough.
      Load(&store, s);
    }
    const double rate = RunMix(&store, s, 0.0);
    t.Cell(std::string(c.name));
    t.Cell(store.index_slots());
    t.Cell(Human(rate));
    t.EndRow();
  }
  std::printf("Expected: a 64x-undersized index walks long chains. Growth "
              "alone does not shorten existing chains (reads still walk the "
              "seeded heads); after one republish epoch the refined slots "
              "take effect and throughput approaches right-sized.\n");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  FileDevice::SetGlobalSimulatedCosts(
      flags.Int("nvme_read_us", 30), flags.Double("nvme_read_gbps", 1.0),
      flags.Double("nvme_write_gbps", 1.0));
  if (flags.Has("help")) {
    std::printf("ablation: D1 + GC + index growth\n"
                "  --keys=100000 --ops=50000 --threads=4 --only=d1|gc|idx\n");
    return 0;
  }
  Setup s;
  s.num_keys = flags.Int("keys", 100000, 2000);
  s.ops_per_thread = flags.Int("ops", 50000, 500);
  s.threads = static_cast<int>(flags.Int("threads", 4, 2));
  const std::string only = flags.Str("only", "");
  if (only.empty() || only == "d1") AblationD1(s);
  if (only.empty() || only == "gc") AblationGc(s);
  if (only.empty() || only == "idx") AblationIndex(s);
  return 0;
}
