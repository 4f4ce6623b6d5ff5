// Extension bench (beyond the paper's Fig. 10): the full YCSB core suite
// A-F across all four storage engines (MLKV, FASTER-mode, LSM, B+tree).
//
// The paper evaluates only the A-style 50/50 mix; this binary characterizes
// each engine across the standard mixes so the engines' trade-offs are
// visible: log-structured engines win write-heavy mixes (A, F), the
// B+tree wins scans (E), bounded-staleness tracking costs a few percent on
// read-heavy mixes (B, C), and the LSM pays read amplification everywhere.
//
// Scans on the hash-indexed log engines are emulated as `scan_length`
// consecutive point reads (keys are dense 64-bit integers), the standard
// approach for hash KV stores, and are labelled as such.
#include <atomic>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "backend/kv_backend.h"
#include "bench_util.h"
#include "btree/btree_store.h"
#include "cluster/cluster_map.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "common/random.h"
#include "io/file_device.h"
#include "io/temp_dir.h"
#include "kv/faster_store.h"
#include "lsm/lsm_store.h"
#include "net/kv_server.h"
#include "obs/metrics.h"
#include "workloads/ycsb.h"

using namespace mlkv;
using namespace mlkv::bench;

namespace {

struct RunConfig {
  uint64_t num_keys = 100000;
  uint64_t buffer_mb = 8;
  int threads = 4;
  uint32_t value_size = 64;
  uint64_t ops_per_thread = 50000;
  // Batched-sweep extras: exact buffer override (cold mode sizes the
  // buffer below 1 MiB granularity) and the hybrid-log engines'
  // AsyncIoEngine worker count.
  uint64_t buffer_bytes_override = 0;
  size_t io_threads = 4;
};

// Minimal engine seam for this benchmark: the four engines expose slightly
// different native interfaces; each adapter maps the five YCSB op kinds.
class Engine {
 public:
  virtual ~Engine() = default;
  virtual Status Read(Key key, char* buf, uint32_t n) = 0;
  virtual Status Update(Key key, const char* buf, uint32_t n) = 0;
  virtual Status Insert(Key key, const char* buf, uint32_t n) {
    return Update(key, buf, n);
  }
  virtual Status Scan(Key from, uint32_t count, uint32_t value_size) = 0;
  virtual Status Rmw(Key key, uint32_t n) = 0;
};

class FasterEngine : public Engine {
 public:
  FasterEngine(const RunConfig& rc, const TempDir& dir, bool staleness) {
    FasterOptions o;
    o.path = dir.File(staleness ? "mlkv.log" : "faster.log");
    o.index_slots = rc.num_keys;
    o.mem_size = rc.buffer_mb << 20;
    o.track_staleness = staleness;
    o.staleness_bound = UINT32_MAX - 1;  // ASP: clocks maintained, no waits
    if (!store_.Open(o).ok()) std::exit(1);
  }
  Status Read(Key key, char* buf, uint32_t n) override {
    return store_.Read(key, buf, n);
  }
  Status Update(Key key, const char* buf, uint32_t n) override {
    return store_.Upsert(key, buf, n);
  }
  Status Scan(Key from, uint32_t count, uint32_t value_size) override {
    // Emulated: consecutive point reads (dense key space).
    std::vector<char> buf(value_size);
    for (uint32_t i = 0; i < count; ++i) {
      store_.Read(from + i, buf.data(), value_size).ok();  // misses OK
    }
    return Status::OK();
  }
  Status Rmw(Key key, uint32_t n) override {
    return store_.Rmw(key, n, [](char* value, uint32_t size, bool) {
      for (uint32_t i = 0; i < size; ++i) value[i] = static_cast<char>(
          value[i] + 1);
    });
  }
  FasterStore store_;
};

class LsmEngine : public Engine {
 public:
  LsmEngine(const RunConfig& rc, const TempDir& dir) {
    LsmOptions o;
    o.dir = dir.path() + "/lsm";
    o.memtable_bytes = (rc.buffer_mb << 20) / 4;
    o.block_cache_bytes = (rc.buffer_mb << 20) * 3 / 4;
    if (!store_.Open(o).ok()) std::exit(1);
  }
  Status Read(Key key, char* buf, uint32_t n) override {
    std::string v;
    Status s = store_.Get(key, &v);
    if (s.ok()) std::memcpy(buf, v.data(), std::min<size_t>(n, v.size()));
    return s;
  }
  Status Update(Key key, const char* buf, uint32_t n) override {
    return store_.Put(key, buf, n);
  }
  Status Scan(Key from, uint32_t count, uint32_t) override {
    uint32_t seen = 0;
    return store_.Scan(from, from + count - 1,
                       [&seen](Key, const std::string&) { ++seen; });
  }
  Status Rmw(Key key, uint32_t n) override {
    std::string v;
    Status s = store_.Get(key, &v);
    if (!s.ok() && !s.IsNotFound()) return s;
    if (v.size() < n) v.resize(n);
    for (auto& c : v) c = static_cast<char>(c + 1);
    std::lock_guard<std::mutex> lk(rmw_mu_);  // LSM has no native RMW
    return store_.Put(key, v.data(), static_cast<uint32_t>(v.size()));
  }
  LsmStore store_;
  std::mutex rmw_mu_;
};

class BtreeEngine : public Engine {
 public:
  BtreeEngine(const RunConfig& rc, const TempDir& dir) {
    BTreeOptions o;
    o.path = dir.File("btree.db");
    o.buffer_pool_bytes = rc.buffer_mb << 20;
    o.value_size = rc.value_size;
    if (!store_.Open(o).ok()) std::exit(1);
  }
  Status Read(Key key, char* buf, uint32_t) override {
    return store_.Get(key, buf);
  }
  Status Update(Key key, const char* buf, uint32_t) override {
    return store_.Put(key, buf);
  }
  Status Scan(Key from, uint32_t count, uint32_t) override {
    uint32_t seen = 0;
    return store_.Scan(from, from + count - 1,
                       [&seen](Key, const void*) { ++seen; });
  }
  Status Rmw(Key key, uint32_t n) override {
    std::vector<char> buf(store_.value_size());
    Status s = store_.Get(key, buf.data());
    if (!s.ok() && !s.IsNotFound()) return s;
    for (auto& c : buf) c = static_cast<char>(c + 1);
    (void)n;
    return store_.Put(key, buf.data());
  }
  BTreeStore store_;
};

std::unique_ptr<Engine> MakeEngine(const std::string& name,
                                   const RunConfig& rc, const TempDir& dir) {
  if (name == "MLKV") return std::make_unique<FasterEngine>(rc, dir, true);
  if (name == "FASTER") return std::make_unique<FasterEngine>(rc, dir, false);
  if (name == "LSM") return std::make_unique<LsmEngine>(rc, dir);
  return std::make_unique<BtreeEngine>(rc, dir);
}

double RunWorkload(char which, const std::string& engine_name,
                   const RunConfig& rc) {
  TempDir dir;
  auto engine = MakeEngine(engine_name, rc, dir);
  YcsbConfig cfg = YcsbStandardConfig(which, rc.num_keys, rc.value_size);

  // Load phase.
  {
    YcsbWorkload loader(cfg, 0);
    std::vector<char> value(rc.value_size);
    for (Key k = 0; k < rc.num_keys; ++k) {
      loader.FillValue(k, 0, value.data());
      if (!engine->Insert(k, value.data(), rc.value_size).ok()) {
        std::exit(1);
      }
    }
  }

  // Run phase. Scans count one op per range, matching YCSB accounting.
  std::atomic<uint64_t> total_ops{0};
  StopWatch watch;
  std::vector<std::thread> threads;
  for (int t = 0; t < rc.threads; ++t) {
    threads.emplace_back([&, t] {
      YcsbWorkload w(cfg, t + 1, rc.threads);
      std::vector<char> buf(rc.value_size);
      for (uint64_t i = 0; i < rc.ops_per_thread; ++i) {
        const auto op = w.Next();
        switch (op.type) {
          case YcsbOpType::kRead:
            engine->Read(op.key, buf.data(), rc.value_size).ok();
            break;
          case YcsbOpType::kUpdate:
          case YcsbOpType::kInsert:
            w.FillValue(op.key, i, buf.data());
            engine->Update(op.key, buf.data(), rc.value_size).ok();
            break;
          case YcsbOpType::kScan:
            engine->Scan(op.key, op.scan_length, rc.value_size).ok();
            break;
          case YcsbOpType::kRmw:
            engine->Rmw(op.key, rc.value_size).ok();
            break;
        }
      }
      total_ops.fetch_add(rc.ops_per_thread);
    });
  }
  for (auto& th : threads) th.join();
  return static_cast<double>(total_ops.load()) / watch.ElapsedSeconds();
}

// ---- batch-size sweep over the batched KvBackend seam ----

BackendKind KindFor(const std::string& name) {
  if (name == "MLKV") return BackendKind::kMlkv;
  if (name == "FASTER") return BackendKind::kFaster;
  if (name == "LSM") return BackendKind::kLsm;
  return BackendKind::kBtree;
}

// YCSB-A-style 50/50 read/update zipfian pass issued through MultiGet /
// MultiPut, one call per batch. Returns keys/s — the same accounting across
// batch sizes, so the table isolates the per-call overhead the batch API
// amortizes (virtual dispatch, index re-walks, and — for MLKV and FASTER —
// the shard scatter over their lookahead pool). With `remote`, the
// engine sits behind an in-process loopback KvServer and every call pays
// the full wire round trip — the one-flag remote mode of the net/
// subsystem, measured against the same in-process baseline.
double RunBatchedWorkload(const std::string& engine_name, const RunConfig& rc,
                          size_t batch_size, uint32_t shard_bits, bool remote,
                          Histogram* get_latency = nullptr) {
  TempDir dir;
  BackendConfig cfg;
  cfg.dir = dir.path() + "/backend";
  cfg.dim = rc.value_size / sizeof(float);
  cfg.buffer_bytes = rc.buffer_bytes_override != 0 ? rc.buffer_bytes_override
                                                   : rc.buffer_mb << 20;
  cfg.index_slots = rc.num_keys;
  cfg.staleness_bound = UINT32_MAX - 1;  // ASP: clocks maintained, no waits
  cfg.shard_bits = shard_bits;  // MLKV / FASTER scatter-gather fan-out
  cfg.io_threads = rc.io_threads;
  std::unique_ptr<net::KvServer> server;  // outlives the remote backend
  std::unique_ptr<KvBackend> backend;
  if (!MakeBackend(KindFor(engine_name), cfg, &backend).ok()) std::exit(1);
  if (remote) {
    net::KvServerOptions so;
    so.num_workers = static_cast<size_t>(rc.threads);
    server = std::make_unique<net::KvServer>(std::move(backend), so);
    if (!server->Start().ok()) std::exit(1);
    BackendConfig rcfg;
    rcfg.remote_addr = server->addr();
    if (!MakeBackend(BackendKind::kRemote, rcfg, &backend).ok()) {
      std::exit(1);
    }
  }
  const uint32_t dim = backend->dim();

  // Load phase: batched puts in large chunks.
  {
    constexpr size_t kChunk = 1024;
    std::vector<Key> keys(kChunk);
    std::vector<float> values(kChunk * dim);
    for (Key base = 0; base < rc.num_keys; base += kChunk) {
      const size_t n = static_cast<size_t>(
          std::min<uint64_t>(kChunk, rc.num_keys - base));
      for (size_t i = 0; i < n; ++i) {
        keys[i] = base + i;
        for (uint32_t d = 0; d < dim; ++d) {
          values[i * dim + d] = static_cast<float>(keys[i] + d);
        }
      }
      if (backend->MultiPut({keys.data(), n}, values.data()).failed > 0) {
        std::exit(1);
      }
    }
  }

  std::atomic<uint64_t> total_keys{0};
  StopWatch watch;
  std::vector<std::thread> threads;
  for (int t = 0; t < rc.threads; ++t) {
    threads.emplace_back([&, t] {
      ZipfianGenerator zg(rc.num_keys, 0.99, 7000 + t);
      std::vector<Key> keys(batch_size);
      std::vector<float> buf(batch_size * dim);
      uint64_t done = 0;
      for (uint64_t round = 0; done < rc.ops_per_thread; ++round) {
        for (auto& k : keys) k = zg.NextScrambled();
        if (round % 2 == 0) {
          const uint64_t t0 = NowMicros();
          backend->MultiGet(keys, buf.data());
          if (get_latency != nullptr) get_latency->Record(NowMicros() - t0);
        } else {
          backend->MultiPut(keys, buf.data());
        }
        done += batch_size;
      }
      total_keys.fetch_add(done);
    });
  }
  for (auto& th : threads) th.join();
  backend->WaitIdle();
  const double keys_per_sec =
      static_cast<double>(total_keys.load()) / watch.ElapsedSeconds();
  if (server) {
    backend.reset();  // close client sockets before the server stops
    server->Stop();
  }
  return keys_per_sec;
}

// ---- metrics/tracing overhead A/B (docs/OBSERVABILITY.md) ----

// One loopback serving phase: a FASTER backend behind a KvServer, zipfian
// MultiGet-only rounds from rc.threads client threads. `observed` runs the
// full observability pipeline (registry cells + per-request trace spans);
// otherwise tracing is off and SetMetricsEnabled(false) no-ops every
// native record path — the same binary, counters frozen.
double RunMetricsOverheadPhase(const RunConfig& rc, size_t batch,
                               bool observed) {
  TempDir dir;
  BackendConfig cfg;
  cfg.dir = dir.path() + "/backend";
  cfg.dim = rc.value_size / sizeof(float);
  cfg.buffer_bytes = rc.buffer_mb << 20;
  cfg.index_slots = rc.num_keys;
  cfg.staleness_bound = UINT32_MAX - 1;
  std::unique_ptr<KvBackend> backend;
  if (!MakeBackend(BackendKind::kFaster, cfg, &backend).ok()) std::exit(1);
  net::KvServerOptions so;
  so.num_workers = static_cast<size_t>(rc.threads);
  so.enable_tracing = observed;
  net::KvServer server(std::move(backend), so);
  if (!server.Start().ok()) std::exit(1);
  BackendConfig rcfg;
  rcfg.remote_addr = server.addr();
  std::unique_ptr<KvBackend> client;
  if (!MakeBackend(BackendKind::kRemote, rcfg, &client).ok()) std::exit(1);
  const uint32_t dim = client->dim();

  {
    constexpr size_t kChunk = 1024;
    std::vector<Key> keys(kChunk);
    std::vector<float> values(kChunk * dim);
    for (Key base = 0; base < rc.num_keys; base += kChunk) {
      const size_t n = static_cast<size_t>(
          std::min<uint64_t>(kChunk, rc.num_keys - base));
      for (size_t i = 0; i < n; ++i) {
        keys[i] = base + i;
        for (uint32_t d = 0; d < dim; ++d) {
          values[i * dim + d] = static_cast<float>(keys[i] + d);
        }
      }
      if (client->MultiPut({keys.data(), n}, values.data()).failed > 0) {
        std::exit(1);
      }
    }
  }

  obs::SetMetricsEnabled(observed);
  std::atomic<uint64_t> total_keys{0};
  StopWatch watch;
  std::vector<std::thread> threads;
  for (int t = 0; t < rc.threads; ++t) {
    threads.emplace_back([&, t] {
      ZipfianGenerator zg(rc.num_keys, 0.99, 9000 + t);
      std::vector<Key> keys(batch);
      std::vector<float> buf(batch * dim);
      uint64_t done = 0;
      while (done < rc.ops_per_thread) {
        for (auto& k : keys) k = zg.NextScrambled();
        client->MultiGet(keys, buf.data());
        done += batch;
      }
      total_keys.fetch_add(done);
    });
  }
  for (auto& th : threads) th.join();
  const double keys_per_sec =
      static_cast<double>(total_keys.load()) / watch.ElapsedSeconds();
  obs::SetMetricsEnabled(true);
  client.reset();  // close client sockets before the server stops
  server.Stop();
  return keys_per_sec;
}

// ---- cluster scatter-gather (docs/CLUSTER.md) ----

// Loads rc.num_keys through `backend`, then hammers it with MultiGet-only
// rounds from rc.threads client threads. Returns aggregate keys/s — the
// number the cluster sweep compares across one server vs two. Keys are
// drawn uniformly, not zipfian: MLKV promotes hot records into the mutable
// region, so a skewed draw collapses into one box's buffer and measures the
// cache, while the cluster question is aggregate capacity (buffer + IOPS)
// over a working set one box cannot hold.
double RunGetThroughput(KvBackend* backend, const RunConfig& rc,
                        size_t batch_size) {
  const uint32_t dim = backend->dim();
  {
    constexpr size_t kChunk = 1024;
    std::vector<Key> keys(kChunk);
    std::vector<float> values(kChunk * dim);
    for (Key base = 0; base < rc.num_keys; base += kChunk) {
      const size_t n = static_cast<size_t>(
          std::min<uint64_t>(kChunk, rc.num_keys - base));
      for (size_t i = 0; i < n; ++i) {
        keys[i] = base + i;
        for (uint32_t d = 0; d < dim; ++d) {
          values[i * dim + d] = static_cast<float>(keys[i] + d);
        }
      }
      if (backend->MultiPut({keys.data(), n}, values.data()).failed > 0) {
        std::exit(1);
      }
    }
  }
  std::atomic<uint64_t> total_keys{0};
  StopWatch watch;
  std::vector<std::thread> threads;
  for (int t = 0; t < rc.threads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(9000 + t);
      std::uniform_int_distribution<Key> pick(0, rc.num_keys - 1);
      std::vector<Key> keys(batch_size);
      std::vector<float> buf(batch_size * dim);
      for (uint64_t done = 0; done < rc.ops_per_thread;
           done += batch_size) {
        for (auto& k : keys) k = pick(rng);
        backend->MultiGet(keys, buf.data());
      }
      total_keys.fetch_add(rc.ops_per_thread);
    });
  }
  for (auto& th : threads) th.join();
  return static_cast<double>(total_keys.load()) / watch.ElapsedSeconds();
}

// One self-hosted serving tier: `num_servers` loopback KvServers over the
// same engine (each holding 1/num_servers of the shards) plus the matching
// client — RemoteBackend for one server, ClusterBackend for several (epoch-1
// map installed on every server, so ownership is enforced like production).
struct ServingTier {
  std::vector<std::unique_ptr<net::KvServer>> servers;
  std::unique_ptr<KvBackend> client;

  ~ServingTier() {
    client.reset();  // close sockets before the servers stop
    for (auto& s : servers) s->Stop();
  }
};

std::unique_ptr<ServingTier> MakeServingTier(
    const std::string& engine_name, const RunConfig& rc, const TempDir& dir,
    uint32_t shard_bits, size_t num_servers, size_t workers_per_server) {
  auto tier = std::make_unique<ServingTier>();
  // Per-server capacity stays fixed as the tier grows — the scale-out
  // question is what a second box buys, not what a bigger box would.
  const uint32_t per_server_bits =
      num_servers > 1 && shard_bits > 0 ? shard_bits - 1 : shard_bits;
  for (size_t i = 0; i < num_servers; ++i) {
    BackendConfig cfg;
    cfg.dir = dir.path() + "/node" + std::to_string(i);
    cfg.dim = rc.value_size / sizeof(float);
    cfg.buffer_bytes = rc.buffer_mb << 20;
    cfg.index_slots = rc.num_keys;
    cfg.staleness_bound = UINT32_MAX - 1;
    cfg.shard_bits = per_server_bits;
    cfg.io_threads = rc.io_threads;
    std::unique_ptr<KvBackend> engine;
    if (!MakeBackend(KindFor(engine_name), cfg, &engine).ok()) std::exit(1);
    net::KvServerOptions so;
    so.num_workers = workers_per_server;
    tier->servers.push_back(
        std::make_unique<net::KvServer>(std::move(engine), so));
    if (!tier->servers.back()->Start().ok()) std::exit(1);
  }
  if (num_servers == 1) {
    BackendConfig rcfg;
    rcfg.remote_addr = tier->servers[0]->addr();
    if (!MakeBackend(BackendKind::kRemote, rcfg, &tier->client).ok()) {
      std::exit(1);
    }
    return tier;
  }
  std::vector<std::string> addrs;
  for (const auto& s : tier->servers) addrs.push_back(s->addr());
  auto map = std::make_shared<cluster::ClusterMap>();
  if (!cluster::BuildClusterMap(addrs, {}, /*route_bits=*/0,
                                cluster::ReadPreference::kPrimary,
                                /*epoch=*/1, map.get())
           .ok()) {
    std::exit(1);
  }
  std::string joined;
  for (size_t i = 0; i < tier->servers.size(); ++i) {
    tier->servers[i]->UpdateClusterMap(map, static_cast<uint32_t>(i));
    joined += (i == 0 ? "" : ",") + addrs[i];
  }
  BackendConfig ccfg;
  ccfg.cluster_addrs = joined;
  if (!MakeBackend(BackendKind::kCluster, ccfg, &tier->client).ok()) {
    std::exit(1);
  }
  return tier;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv,
              {"batch_size", "buffer_mb", "cluster_addrs", "cold_fraction",
               "hedge_auto", "hedge_us", "io_threads", "keys",
               "metrics_overhead", "no_batch_sweep", "no_suite", "ops",
               "remote", "server_workers", "shard_bits", "threads"});
  FileDevice::SetGlobalSimulatedCosts(
      flags.Int("nvme_read_us", 30), flags.Double("nvme_read_gbps", 1.0),
      flags.Double("nvme_write_gbps", 1.0));
  if (flags.Has("help")) {
    std::printf("ycsb_suite: YCSB A-F across MLKV/FASTER/LSM/BTree\n"
                "  --keys=100000 --ops=50000 --threads=4\n"
                "  --batch_size=N     pin the batch sweep to one size\n"
                "  --shard_bits=2     MLKV/FASTER shard count (log2) in the\n"
                "                     batch sweep (0 = single store); their\n"
                "                     shard sub-batches scatter over the\n"
                "                     lookahead pool, LSM/BTree run inline\n"
                "  --no_batch_sweep   skip the KvBackend batch-size sweep\n"
                "  --no_suite         skip the YCSB A-F table\n"
                "  --remote           run the batch sweep through a loopback\n"
                "                     KvServer (RemoteBackend, full wire\n"
                "                     round trip per batch)\n"
                "  --cold_fraction=F  add a cold-working-set io sweep: the\n"
                "                     buffer shrinks so ~F of the records\n"
                "                     are disk-resident, and MLKV/FASTER\n"
                "                     sweep io_threads 1, 2, 4, 8 with\n"
                "                     per-MultiGet p50/p99\n"
                "  --io_threads=4     AsyncIoEngine workers for the\n"
                "                     regular batch sweep\n"
                "  --cluster_addrs=self|a,b,...  cluster MultiGet sweep:\n"
                "                     'self' hosts a 2-server loopback\n"
                "                     cluster and compares it against one\n"
                "                     server of the same size; an endpoint\n"
                "                     list measures a running cluster\n"
                "  --server_workers=2 per-server worker threads in the\n"
                "                     cluster sweep (capacity per box)\n"
                "  --hedge_us=N | --hedge_auto   when measuring a running\n"
                "                     cluster: hedge read sub-batches after\n"
                "                     N us (auto = per-endpoint p99)\n"
                "  --metrics_overhead A/B the observability pipeline over a\n"
                "                     loopback server: registry + tracing on\n"
                "                     vs SetMetricsEnabled(false) + tracing\n"
                "                     off, MultiGet-only at --batch_size\n"
                "                     (default 64)\n");
    return 0;
  }
  RunConfig rc;
  rc.num_keys = flags.Int("keys", 100000, 2000);
  rc.ops_per_thread = flags.Int("ops", 50000, 500);
  rc.threads = static_cast<int>(flags.Int("threads", 4, 2));
  rc.buffer_mb = flags.Int("buffer_mb", 8);
  rc.io_threads = static_cast<size_t>(flags.Int("io_threads", 4));

  if (!flags.Has("no_suite")) {
    Banner("YCSB core suite A-F, ops/s per engine (extension bench)");
    std::printf("A: 50r/50u zipf  B: 95r/5u zipf  C: 100r zipf\n"
                "D: 95r/5i latest E: 95scan/5i    F: 50r/50rmw\n"
                "(scans on MLKV/FASTER are emulated as consecutive reads)\n\n");
    Table t({"workload", "MLKV", "FASTER", "LSM", "BTree"});
    t.PrintHeader();
    for (char which : {'A', 'B', 'C', 'D', 'E', 'F'}) {
      t.Cell(std::string(1, which));
      for (const char* engine : {"MLKV", "FASTER", "LSM", "BTree"}) {
        t.Cell(Human(RunWorkload(which, engine, rc)));
      }
      t.EndRow();
    }
    std::printf("\nExpected shape: MLKV within ~10-20%% of FASTER everywhere "
                "(vector-clock cost, paper §IV-E); LSM trails on reads (read "
                "amplification); BTree leads scans (E) but trails on "
                "write-heavy mixes (A, F).\n");
  }

  if (!flags.Has("no_batch_sweep")) {
    const bool remote = flags.Has("remote");
    const uint32_t shard_bits =
        static_cast<uint32_t>(flags.Int("shard_bits", 2));
    std::vector<int64_t> batch_sizes;
    if (flags.Has("batch_size")) {
      batch_sizes = {flags.Int("batch_size", 256)};
    } else if (flags.Smoke()) {
      batch_sizes = {1, 64};
    } else {
      batch_sizes = {1, 8, 64, 256, 1024};
    }
    Banner(remote
               ? "Batch-size sweep: keys/s through RemoteBackend (loopback)"
               : "Batch-size sweep: keys/s through the batched KvBackend "
                 "seam");
    std::printf("50r/50u zipfian, one MultiGet/MultiPut per batch; "
                "shard_bits=%u for MLKV/FASTER%s\n\n",
                shard_bits,
                remote ? "; every batch pays a full TCP round trip "
                         "(in-process loopback KvServer)"
                       : "");
    Table bt({"batch", "MLKV", "FASTER", "LSM", "BTree"});
    bt.PrintHeader();
    for (const int64_t batch : batch_sizes) {
      bt.Cell(batch);
      for (const char* engine : {"MLKV", "FASTER", "LSM", "BTree"}) {
        bt.Cell(Human(RunBatchedWorkload(engine, rc,
                                         static_cast<size_t>(batch),
                                         shard_bits, remote)));
      }
      bt.EndRow();
    }
    std::printf("\nExpected shape: throughput rises with batch size as "
                "per-call overhead amortizes and (for MLKV/FASTER) the "
                "shard scatter overlaps I/O across shards, while LSM/BTree "
                "run each batch inline and gain only the amortization; "
                "batch=1 reproduces the single-key seam.%s\n",
                remote ? " Remote mode adds a fixed per-batch wire cost, so "
                         "the batch-size win is steeper: at batch=1 the "
                         "round trip dominates, by batch=1024 the gap to "
                         "in-process narrows to the serialization cost."
                       : "");
  }

  if (flags.Has("cold_fraction")) {
    // Cold-working-set io sweep: shrink the buffer so roughly
    // cold_fraction of the records sit below the log head, then sweep the
    // pending-read pipeline's io_threads.
    const double f =
        std::min(1.0, std::max(0.1, flags.Double("cold_fraction", 0.9)));
    RunConfig cold = rc;
    const uint64_t dataset_bytes =
        rc.num_keys * (32 + uint64_t{rc.value_size});
    cold.buffer_bytes_override = std::max<uint64_t>(
        static_cast<uint64_t>(static_cast<double>(dataset_bytes) * (1.0 - f)),
        128 * 1024);
    cold.threads = 1;  // isolate the per-batch pipeline, not caller fan-out
    const size_t batch =
        static_cast<size_t>(flags.Int("batch_size", 256, 128));
    Banner("Cold-working-set 50r/50u: io_threads sweep");
    std::printf("cold_fraction=%.2f (buffer=%llu KiB), batch=%zu, zipfian; "
                "p50/p99 are per-MultiGet-call latencies\n\n",
                f, (unsigned long long)(cold.buffer_bytes_override >> 10),
                batch);
    Table ct({"engine", "io_thr", "keys/s", "p50_ms", "p99_ms"});
    ct.PrintHeader();
    for (const char* engine : {"MLKV", "FASTER"}) {
      for (const size_t n : flags.Smoke() ? std::vector<size_t>{1, 4}
                                          : std::vector<size_t>{1, 2, 4, 8}) {
        cold.io_threads = n;
        Histogram lat;
        const double kps = RunBatchedWorkload(
            engine, cold, batch, /*shard_bits=*/
            static_cast<uint32_t>(flags.Int("shard_bits", 2)),
            /*remote=*/false, &lat);
        ct.Cell(std::string(engine));
        ct.Cell(static_cast<uint64_t>(n));
        ct.Cell(Human(kps));
        ct.Cell(static_cast<double>(lat.Percentile(0.50)) / 1000.0, "%.2f");
        ct.Cell(static_cast<double>(lat.Percentile(0.99)) / 1000.0, "%.2f");
        ct.EndRow();
      }
    }
    std::printf("\nExpected shape: more io_threads overlap more of the cold "
                "misses a zipfian tail still takes, so the gap to "
                "io_threads=1 grows with cold_fraction; the hot head of the "
                "distribution keeps it smaller than the uniform-random fig9 "
                "--cold sweep.\n");
  }

  if (flags.Has("metrics_overhead")) {
    const size_t batch = static_cast<size_t>(flags.Int("batch_size", 64));
    Banner("Observability overhead: loopback MultiGet keys/s, metrics + "
           "tracing on vs off (docs/OBSERVABILITY.md)");
    std::printf("zipfian MultiGet-only, batch=%zu, %d client thread(s); "
                "'off' freezes every registry cell and skips trace spans\n\n",
                batch, rc.threads);
    // Two reps each, interleaved, best-of: the comparison should measure
    // the record path, not which phase won the page cache.
    double on = 0, off = 0;
    for (int rep = 0; rep < 2; ++rep) {
      off = std::max(off, RunMetricsOverheadPhase(rc, batch, false));
      on = std::max(on, RunMetricsOverheadPhase(rc, batch, true));
    }
    const double overhead_pct = off > 0 ? (off - on) / off * 100.0 : 0.0;
    Table mt({"observability", "keys/s"});
    mt.PrintHeader();
    mt.Cell(std::string("off (noop cells)"));
    mt.Cell(Human(off));
    mt.EndRow();
    mt.Cell(std::string("on (cells+spans)"));
    mt.Cell(Human(on));
    mt.EndRow();
    std::printf("\nmetrics_overhead: %.2f%% (target < 5%%)\n", overhead_pct);
    std::printf("Expected shape: the hot path adds a handful of relaxed "
                "atomic increments and ~10 span timestamps per request, "
                "lost in the wire round trip at batch>=64.\n");
  }

  if (flags.Has("cluster_addrs")) {
    const std::string addrs = flags.Str("cluster_addrs", "self");
    const size_t batch =
        static_cast<size_t>(flags.Int("batch_size", 256, 64));
    const uint32_t shard_bits =
        static_cast<uint32_t>(flags.Int("shard_bits", 2));
    Banner("Cluster scatter-gather: aggregate MultiGet keys/s "
           "(docs/CLUSTER.md)");
    if (addrs == "self") {
      const size_t workers =
          static_cast<size_t>(flags.Int("server_workers", 2));
      std::printf("uniform MultiGet-only, batch=%zu, %d client thread(s); "
                  "each server gets %zu worker(s) — per-box capacity is "
                  "fixed, the question is what the second box buys\n\n",
                  batch, rc.threads, workers);
      Table ct({"engine", "1 server", "2-server cluster", "speedup"});
      ct.PrintHeader();
      for (const char* engine : {"MLKV", "FASTER"}) {
        double single = 0, dual = 0;
        {
          TempDir dir;
          auto tier = MakeServingTier(engine, rc, dir, shard_bits,
                                      /*num_servers=*/1, workers);
          single = RunGetThroughput(tier->client.get(), rc, batch);
        }
        {
          TempDir dir;
          auto tier = MakeServingTier(engine, rc, dir, shard_bits,
                                      /*num_servers=*/2, workers);
          dual = RunGetThroughput(tier->client.get(), rc, batch);
        }
        ct.Cell(std::string(engine));
        ct.Cell(Human(single));
        ct.Cell(Human(dual));
        ct.Cell(single > 0 ? dual / single : 0.0, "%.2fx");
        ct.EndRow();
      }
      std::printf("\nExpected shape: sub-batches fan out to both primaries "
                  "in parallel over separate sockets, so aggregate MultiGet "
                  "throughput approaches 2x one server once the client "
                  "offers enough load; the gap to ideal is the scatter/"
                  "gather merge on the client.\n");
    } else {
      BackendConfig ccfg;
      ccfg.cluster_addrs = addrs;
      // Client-side tail controls (docs/SERVING.md) only apply when
      // pointed at a running cluster; the self-hosted A/B keeps them off
      // so it measures scale-out, not hedging.
      ccfg.cluster_hedge_us = flags.Has("hedge_us")
                                  ? static_cast<uint64_t>(
                                        flags.Int("hedge_us", 0))
                                  : 0;
      if (flags.Bool("hedge_auto", false)) ccfg.cluster_hedge_us = kHedgeAuto;
      std::unique_ptr<KvBackend> client;
      if (!MakeBackend(BackendKind::kCluster, ccfg, &client).ok()) {
        std::fprintf(stderr, "cannot reach cluster at %s\n", addrs.c_str());
        return 1;
      }
      std::printf("measuring running cluster %s: uniform MultiGet-only, "
                  "batch=%zu, %d client thread(s)\n\n",
                  addrs.c_str(), batch, rc.threads);
      const double kps = RunGetThroughput(client.get(), rc, batch);
      std::printf("aggregate MultiGet: %s keys/s\n", Human(kps).c_str());
    }
  }
  return 0;
}
