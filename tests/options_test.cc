// Option propagation: every hybrid-log knob set on a BackendConfig or an
// MlkvOptions reaches each shard's FasterStore and HybridLog (with the
// per-shard budget split applied), the shared I/O engine and the pool, on
// both the MLKV and the FASTER path — and the default configurations keep
// the per-shard values they have always had.
//
// Stores are inspected through their options() accessors where a test can
// reach them (Mlkv tables). A KvBackend hides its table, so MakeBackend's
// mapping is checked by what each knob does: shard files, index gauges,
// evictions, fsyncs, spin counts, commit-window timing and thread counts.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "backend/kv_backend.h"
#include "io/temp_dir.h"
#include "mlkv/mlkv.h"
#include "obs/metrics.h"
#include "store_metrics.h"

namespace mlkv {
namespace {

// Every knob off its default. page_size is small enough that no shard
// shrinks it (4 MiB / 2 shards / 16 KiB = 128 frames), while the default
// 1 MiB page would shrink to 32 KiB — so a dropped page_size shows.
MlkvOptions NonDefaultMlkv(const std::string& dir) {
  MlkvOptions o;
  o.dir = dir;
  o.store.index_slots = 1u << 12;
  o.store.page_size = 16u << 10;
  o.store.mem_size = 4u << 20;
  o.store.mutable_fraction = 0.5;
  o.store.busy_spin_limit = 77;
  o.store.durability = DurabilityMode::kGroup;
  o.store.group_commit.window_us = 1234;
  o.store.group_commit.max_bytes = 4321;
  o.store.checkpoint_mode = CheckpointMode::kIncremental;
  o.shard_bits = 1;
  o.lookahead_threads = 3;
  o.engine.io_threads = 3;
  return o;
}

// Shard i's directory name under a sharded table (ShardedStore::ShardFilePath).
std::string ShardDir(size_t i) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%02zu", i);
  return name;
}

// What each shard of a table opened under NonDefaultMlkv must carry.
struct ShardExpect {
  std::string log_file;  // file name inside each shard's directory
  uint64_t index_slots;
  uint64_t page_size;
  uint64_t mem_size;
  double mutable_fraction;
  bool track_staleness;
  uint32_t staleness_bound;
  uint64_t busy_spin_limit;
  DurabilityMode durability;
  uint64_t window_us;
  uint64_t max_bytes;
  CheckpointMode checkpoint;
};

void ExpectShards(Mlkv* db, ShardedStore* store, uint32_t shard_bits,
                  const ShardExpect& e) {
  EXPECT_EQ(store->options().shard_bits, shard_bits);
  EXPECT_EQ(store->options().pool, db->lookahead_pool());
  EXPECT_EQ(store->options().store.io, db->io_engine());
  ASSERT_EQ(store->num_shards(), size_t{1} << shard_bits);
  for (size_t i = 0; i < store->num_shards(); ++i) {
    SCOPED_TRACE("shard " + std::to_string(i));
    FasterStore& shard = *store->shard(i);
    const FasterOptions& so = shard.options();
    const std::string path =
        db->options().dir + "/" + ShardDir(i) + "/" + e.log_file;
    EXPECT_EQ(so.path, path);
    EXPECT_EQ(so.index_slots, e.index_slots);
    EXPECT_EQ(so.page_size, e.page_size);
    EXPECT_EQ(so.mem_size, e.mem_size);
    EXPECT_EQ(so.mutable_fraction, e.mutable_fraction);
    EXPECT_EQ(so.track_staleness, e.track_staleness);
    EXPECT_EQ(so.staleness_bound, e.staleness_bound);
    EXPECT_EQ(so.busy_spin_limit, e.busy_spin_limit);
    EXPECT_EQ(so.io, db->io_engine());
    EXPECT_EQ(so.durability, e.durability);
    EXPECT_EQ(so.group_commit.window_us, e.window_us);
    EXPECT_EQ(so.group_commit.max_bytes, e.max_bytes);
    EXPECT_EQ(so.checkpoint_mode, e.checkpoint);

    const HybridLogOptions& lo = shard.log().options();
    EXPECT_EQ(lo.path, path);
    EXPECT_EQ(lo.page_size, e.page_size);
    EXPECT_EQ(lo.mem_size, e.mem_size);
    EXPECT_EQ(lo.mutable_fraction, e.mutable_fraction);
    EXPECT_EQ(lo.io, db->io_engine());
    EXPECT_EQ(lo.durability, e.durability);
    EXPECT_EQ(lo.group_commit.window_us, e.window_us);
    EXPECT_EQ(lo.group_commit.max_bytes, e.max_bytes);
    EXPECT_EQ(shard.mutable_log()->committer() != nullptr,
              e.durability == DurabilityMode::kGroup);
  }
}

ShardExpect NonDefaultShard(const std::string& log_file, bool tracked,
                            uint32_t bound) {
  return {log_file,   1u << 11, 16u << 10, 2u << 20,
          0.5,        tracked,  bound,     77,
          DurabilityMode::kGroup, 1234, 4321, CheckpointMode::kIncremental};
}

TEST(OptionPropagationTest, MlkvTableShardsCarryEveryKnob) {
  TempDir dir;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(NonDefaultMlkv(dir.path()), &db).ok());
  EXPECT_EQ(db->io_engine()->io_threads(), 3u);
  EXPECT_EQ(db->lookahead_pool()->num_threads(), 3u);
  EmbeddingTable* t = nullptr;
  ASSERT_TRUE(db->OpenTable("emb", 8, 5, &t).ok());
  ExpectShards(db.get(), t->store(), 1, NonDefaultShard("emb.log", true, 5));
}

// The FASTER baseline's store: the same table template with tracking off
// (backend/backends.cc builds it exactly so).
TEST(OptionPropagationTest, FasterTableShardsCarryEveryKnob) {
  TempDir dir;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(NonDefaultMlkv(dir.path()), &db).ok());
  ShardedStoreOptions o = db->TableStoreOptions("faster", 9);
  o.store.track_staleness = false;
  ShardedStore store;
  ASSERT_TRUE(store.Open(o).ok());
  ExpectShards(db.get(), &store, 1,
               NonDefaultShard("faster.log", false, 9));
}

TEST(OptionPropagationTest, DefaultMlkvOptionsPinPerShardValues) {
  TempDir dir;
  MlkvOptions o;
  o.dir = dir.path();
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(o, &db).ok());
  EXPECT_EQ(db->io_engine()->io_threads(), 4u);
  EXPECT_EQ(db->lookahead_pool()->num_threads(), 2u);
  EmbeddingTable* t = nullptr;
  ASSERT_TRUE(db->OpenTable("emb", 16, 16, &t).ok());
  // 64 MiB over 4 shards; 1 MiB pages halve until 64 fit a 16 MiB slice.
  const ShardExpect e{"emb.log",  1u << 18, 256u << 10, 16u << 20,
                      0.9,        true,     16,         1u << 16,
                      DurabilityMode::kSync, 200, 1u << 20,
                      CheckpointMode::kFull};
  ExpectShards(db.get(), t->store(), 2, e);
}

// --- MakeBackend: the BackendConfig mapping, observed through behaviour ---

size_t ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  }
  return 0;
}

std::unique_ptr<KvBackend> Make(BackendKind kind, const BackendConfig& c) {
  std::unique_ptr<KvBackend> b;
  const Status s = MakeBackend(kind, c, &b);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return b;
}

uint64_t Metric(const KvBackend& b, const char* name,
                MetricLabels labels = {}) {
  obs::MetricsSink sink;
  b.CollectMetrics(&sink);
  return MetricSum(sink, name, labels);
}

// Puts `n` rows of `dim` floats in one batch; returns the call's seconds.
double PutRows(KvBackend* b, uint32_t dim, size_t n) {
  std::vector<Key> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = i;
  std::vector<float> rows(n * dim, 1.0f);
  const auto t0 = std::chrono::steady_clock::now();
  const BatchResult r = b->MultiPut(keys, rows.data());
  const double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  EXPECT_EQ(r.failed, 0u);
  return s;
}

// io_threads and lookahead_threads size the engine and the pool each
// hybrid-log backend starts: two more of each is four more threads. Both
// join every thread they start when destroyed, so no thread of an earlier
// test can exit between the two counts.
TEST(OptionPropagationTest, BackendConfigSizesEngineAndPool) {
  for (BackendKind kind : {BackendKind::kMlkv, BackendKind::kFaster}) {
    SCOPED_TRACE(BackendKindName(kind));
    size_t started[2];
    for (int wide = 0; wide < 2; ++wide) {
      TempDir dir;
      BackendConfig c;
      c.dir = dir.path();
      c.buffer_bytes = 1u << 20;
      c.index_slots = 1u << 10;
      c.mlkv.engine.io_threads = wide ? 5 : 3;
      c.mlkv.lookahead_threads = wide ? 5 : 3;
      const size_t before = ProcessThreads();
      auto b = Make(kind, c);
      ASSERT_NE(b, nullptr);
      started[wide] = ProcessThreads() - before;
    }
    EXPECT_EQ(started[1] - started[0], 4u);
  }
}

// Knobs every MakeBackend test below sets off their defaults. The commit
// window and byte trigger differ per test, since one masks the other.
BackendConfig NonDefaultConfig(const std::string& dir) {
  BackendConfig c;
  c.dir = dir;
  c.dim = 4;
  c.buffer_bytes = 256u << 10;  // 128 KiB a shard: 4 KiB pages, evicting
  c.index_slots = 1u << 12;
  c.staleness_bound = 0;
  c.mlkv.shard_bits = 1;
  c.mlkv.store.busy_spin_limit = 77;
  c.mlkv.store.durability = DurabilityMode::kGroup;
  c.mlkv.store.checkpoint_mode = CheckpointMode::kIncremental;
  return c;
}

void ExpectShardLayout(const KvBackend& b, const std::string& log_dir,
                       const std::string& log_file, uint32_t shard_bits,
                       uint64_t index_slots_per_shard) {
  EXPECT_EQ(b.shard_bits(), shard_bits);
  EXPECT_EQ(b.replication_shards(), 1u << shard_bits);
  for (uint32_t i = 0; i < (1u << shard_bits); ++i) {
    EXPECT_TRUE(std::filesystem::exists(log_dir + "/" + ShardDir(i) + "/" +
                                        log_file))
        << ShardDir(i);
    EXPECT_EQ(Metric(b, "mlkv_store_index_slots",
                     {{"shard", std::to_string(i)}}),
              index_slots_per_shard);
  }
}

// MLKV: a 30 s commit window with a 1-byte trigger commits at once (the
// byte trigger reached the committer), and a bound-0 re-read spins exactly
// busy_spin_limit + 1 times before aborting.
TEST(OptionPropagationTest, BackendConfigReachesMlkvShards) {
  TempDir dir;
  BackendConfig c = NonDefaultConfig(dir.path());
  c.mlkv.store.group_commit.window_us = 30'000'000;
  c.mlkv.store.group_commit.max_bytes = 1;
  auto b = Make(BackendKind::kMlkv, c);
  ASSERT_NE(b, nullptr);
  ExpectShardLayout(*b, dir.path() + "/mlkv", "emb.log", 1, 1u << 11);

  EXPECT_LT(PutRows(b.get(), c.dim, 20000), 15.0);
  EXPECT_GT(Metric(*b, "mlkv_io_pages_evicted_total"), 0u);
  EXPECT_GT(Metric(*b, "mlkv_io_fsyncs_total"), 0u);

  std::vector<float> row(c.dim);
  const Key k = 7;
  ASSERT_EQ(b->MultiGet({&k, 1}, row.data()).found, 1u);
  const uint64_t waits = Metric(*b, "mlkv_store_staleness_waits_total");
  EXPECT_EQ(b->MultiGet({&k, 1}, row.data()).busy, 1u);
  EXPECT_EQ(Metric(*b, "mlkv_store_staleness_waits_total") - waits, 78u);
}

// FASTER: with the byte trigger out of reach, each durable Put waits out
// the 300 ms commit window.
TEST(OptionPropagationTest, BackendConfigReachesFasterShards) {
  TempDir dir;
  BackendConfig c = NonDefaultConfig(dir.path());
  c.mlkv.store.group_commit.window_us = 300'000;
  c.mlkv.store.group_commit.max_bytes = 1ull << 40;
  auto b = Make(BackendKind::kFaster, c);
  ASSERT_NE(b, nullptr);
  ExpectShardLayout(*b, dir.path(), "faster.log", 1, 1u << 11);

  EXPECT_GE(PutRows(b.get(), c.dim, 20000), 0.3);
  EXPECT_GT(Metric(*b, "mlkv_io_pages_evicted_total"), 0u);
  EXPECT_GT(Metric(*b, "mlkv_io_fsyncs_total"), 0u);
}

// A default BackendConfig keeps today's layout and budgets: 4 shards, a
// quarter of the index each, staleness bound 16 and the 65,536-spin abort,
// and checkpoint-only durability (no fsync on Put).
TEST(OptionPropagationTest, DefaultBackendConfigPinsPerShardValues) {
  for (BackendKind kind : {BackendKind::kMlkv, BackendKind::kFaster}) {
    SCOPED_TRACE(BackendKindName(kind));
    TempDir dir;
    BackendConfig c;
    c.dir = dir.path();
    auto b = Make(kind, c);
    ASSERT_NE(b, nullptr);
    const bool mlkv = kind == BackendKind::kMlkv;
    ExpectShardLayout(*b, mlkv ? dir.path() + "/mlkv" : dir.path(),
                      mlkv ? "emb.log" : "faster.log", 2, 1u << 18);
    PutRows(b.get(), c.dim, 1000);
    EXPECT_EQ(Metric(*b, "mlkv_io_fsyncs_total"), 0u);
    EXPECT_EQ(Metric(*b, "mlkv_io_pages_evicted_total"), 0u);
    if (!mlkv) continue;
    std::vector<float> row(c.dim);
    const Key k = 3;
    for (int i = 0; i < 17; ++i) {
      ASSERT_EQ(b->MultiGet({&k, 1}, row.data()).found, 1u) << i;
    }
    EXPECT_EQ(Metric(*b, "mlkv_store_staleness_waits_total"), 0u);
    EXPECT_EQ(b->MultiGet({&k, 1}, row.data()).busy, 1u);
    EXPECT_EQ(Metric(*b, "mlkv_store_staleness_waits_total"),
              kDefaultBusySpinLimit + 1);
  }
}

// A template field its owner sets is rejected, not silently dropped:
// Mlkv::Open refuses the four that OpenTable sets per table, and
// MakeBackend also refuses the three it takes from BackendConfig's own
// dir, buffer_bytes and index_slots.
TEST(OptionPropagationTest, OwnerSetFieldsAreRejected) {
  TempDir dir;
  AsyncIoEngine engine(AsyncIoEngine::Options{});
  using Setter = std::function<void(MlkvOptions*)>;
  const std::vector<std::pair<const char*, Setter>> per_table = {
      {"store.path", [](MlkvOptions* o) { o->store.path = "x.log"; }},
      {"store.io", [&engine](MlkvOptions* o) { o->store.io = &engine; }},
      {"store.track_staleness",
       [](MlkvOptions* o) { o->store.track_staleness = true; }},
      {"store.staleness_bound",
       [](MlkvOptions* o) { o->store.staleness_bound = 4; }},
  };
  for (const auto& [name, set] : per_table) {
    SCOPED_TRACE(name);
    MlkvOptions o;
    o.dir = dir.File("db");
    set(&o);
    std::unique_ptr<Mlkv> db;
    EXPECT_TRUE(Mlkv::Open(o, &db).IsInvalidArgument());
    EXPECT_EQ(db, nullptr);
  }
  const std::vector<std::pair<const char*, Setter>> from_config = {
      {"dir", [](MlkvOptions* o) { o->dir = "elsewhere"; }},
      {"store.mem_size",
       [](MlkvOptions* o) { o->store.mem_size = 1u << 20; }},
      {"store.index_slots",
       [](MlkvOptions* o) { o->store.index_slots = 1u << 10; }},
  };
  for (BackendKind kind : {BackendKind::kMlkv, BackendKind::kFaster}) {
    for (const auto& list : {per_table, from_config}) {
      for (const auto& [name, set] : list) {
        SCOPED_TRACE(std::string(BackendKindName(kind)) + " " + name);
        BackendConfig c;
        c.dir = dir.File("backend");
        set(&c.mlkv);
        std::unique_ptr<KvBackend> b;
        EXPECT_TRUE(MakeBackend(kind, c, &b).IsInvalidArgument());
        EXPECT_EQ(b, nullptr);
      }
    }
  }
}

// The store's device factory builds the log's device on every open, and
// Recover reopens the log without truncating it.
TEST(OptionPropagationTest, LogUsesDeviceFactoryAndRecoverKeepsFile) {
  TempDir dir;
  int devices = 0;
  FasterOptions o;
  o.path = dir.File("s.log");
  o.index_slots = 1024;
  o.mem_size = 1u << 18;
  o.device_factory = [&devices] {
    ++devices;
    return std::make_unique<FileDevice>();
  };
  const uint64_t v = 42;
  {
    FasterStore store;
    ASSERT_TRUE(store.Open(o).ok());
    EXPECT_TRUE(store.log().options().device_factory != nullptr);
    ASSERT_TRUE(store.Upsert(1, &v, sizeof(v)).ok());
    ASSERT_TRUE(store.Checkpoint(dir.File("ckpt")).ok());
  }
  EXPECT_EQ(devices, 1);
  FasterStore store;
  ASSERT_TRUE(store.Recover(o, dir.File("ckpt")).ok());
  EXPECT_EQ(devices, 2);
  uint64_t got = 0;
  ASSERT_TRUE(store.Peek(1, &got, sizeof(got)).ok());
  EXPECT_EQ(got, v);
}

}  // namespace
}  // namespace mlkv
