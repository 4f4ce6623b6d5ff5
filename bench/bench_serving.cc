// Serving bench (extension): batched embedding-lookup throughput and tail
// latency of the inference path (the MakeCachingBackend decorator over
// MLKV, read untracked) over an out-of-core table, sweeping serving-cache
// capacity, admission policy, and key skew — the trade-off HugeCTR's
// hierarchical parameter server navigates with RocksDB as the bottom tier
// (paper §II-B). The zipfian sweep pits plain LRU against TinyLFU
// admission (docs/SERVING.md): under skew with a cache
// a fraction of the keyspace, the frequency sketch keeps the hot head
// resident while LRU churns it out on the one-hit tail.
//
// --hedge adds the tail-latency A/B: a two-endpoint loopback cluster where
// one server is intermittently slow (DelayedBackend), read p50/p99/p999
// measured client-side with hedging off vs on, plus the extra request
// volume hedging cost.
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "backend/delayed_backend.h"
#include "backend/kv_backend.h"
#include "bench_util.h"
#include "cluster/cluster_backend.h"
#include "cluster/cluster_map.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "common/random.h"
#include "io/file_device.h"
#include "io/temp_dir.h"
#include "net/kv_server.h"
#include "obs/metrics.h"
#include "serve/tinylfu.h"

using namespace mlkv;
using namespace mlkv::bench;

namespace {

struct Setup {
  Key rows = 500000;
  uint32_t dim = 16;
  uint64_t buffer_mb = 16;
  size_t batch = 256;
  uint64_t batches = 2000;
  int threads = 4;
};

// An MLKV backend under `dir` holding rows 0..rows-1 (row k's first float
// is k), preloaded in MultiPut chunks.
std::unique_ptr<KvBackend> MakeLoadedMlkv(const Setup& s,
                                          const std::string& dir) {
  BackendConfig cfg;
  cfg.dir = dir;
  cfg.dim = s.dim;
  cfg.buffer_bytes = s.buffer_mb << 20;
  cfg.index_slots = s.rows;
  std::unique_ptr<KvBackend> engine;
  if (!MakeBackend(BackendKind::kMlkv, cfg, &engine).ok()) std::exit(1);
  constexpr size_t kChunk = 1024;
  std::vector<Key> keys(kChunk);
  std::vector<float> values(kChunk * s.dim, 0.5f);
  for (Key base = 0; base < s.rows; base += kChunk) {
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(kChunk, s.rows - base));
    for (size_t i = 0; i < n; ++i) {
      keys[i] = base + i;
      values[i * s.dim] = static_cast<float>(keys[i]);
    }
    if (engine->MultiPut({keys.data(), n}, values.data()).failed > 0) {
      std::exit(1);
    }
  }
  return engine;
}

// One admission-sweep row: theta < 0 means uniform traffic.
void RunRow(const Setup& s, size_t cache_capacity, double theta,
            CacheAdmission admission, Table* t) {
  TempDir dir;
  std::unique_ptr<KvBackend> server;
  if (!MakeCachingBackend(MakeLoadedMlkv(s, dir.path() + "/backend"),
                          cache_capacity, admission, &server)
           .ok()) {
    std::exit(1);
  }

  Histogram lat;
  std::atomic<uint64_t> lookups{0};
  StopWatch watch;
  std::vector<std::thread> workers;
  for (int w = 0; w < s.threads; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(1000 + w);
      ZipfianGenerator zg(s.rows, theta < 0 ? 0.99 : theta, 2000 + w);
      std::vector<Key> keys(s.batch);
      std::vector<float> out(s.batch * s.dim);
      MultiGetOptions serve;
      serve.init_missing = false;
      serve.untracked = true;
      for (uint64_t b = 0; b < s.batches / s.threads; ++b) {
        for (auto& k : keys) {
          k = theta < 0 ? rng.Uniform(s.rows) : zg.NextScrambled();
        }
        const StopWatch batch_watch;
        if (server->MultiGet(keys, out.data(), serve).failed > 0) {
          std::exit(1);
        }
        lat.Record(batch_watch.ElapsedMicros());
        lookups.fetch_add(keys.size());
      }
    });
  }
  for (auto& th : workers) th.join();
  const double secs = watch.ElapsedSeconds();
  obs::MetricsSink sink;
  server->CollectMetrics(&sink);
  const double n = static_cast<double>(lookups.load());
  char dist[32];
  std::snprintf(dist, sizeof(dist), "zipf %.2f", theta);
  t->Cell(theta < 0 ? std::string("uniform") : std::string(dist));
  t->Cell(static_cast<uint64_t>(cache_capacity));
  t->Cell(admission == CacheAdmission::kTinyLfu ? "tinylfu" : "lru");
  t->Cell(Human(n / secs));
  t->Cell(100.0 * sink.Sum("mlkv_cache_hits_total") / n, "%.1f%%");
  t->Cell(static_cast<uint64_t>(
      sink.Sum("mlkv_cache_admission_rejects_total")));
  t->Cell(lat.Percentile(0.50));
  t->Cell(lat.Percentile(0.99));
  t->Cell(lat.Percentile(0.999));
  t->EndRow();
}

// Remote serving: the same batched-lookup traffic, but through a loopback
// KvServer + RemoteBackend (untracked MultiGet = the serving read), i.e.
// an inference replica reading a live store over the network instead of
// linking it. Rows report lookups/s plus the server-side request latency
// from the KvServer histogram.
void RunRemoteRow(const Setup& s, bool zipf, Table* t) {
  TempDir dir;
  net::KvServerOptions so;
  so.num_workers = static_cast<size_t>(s.threads);
  net::KvServer server(MakeLoadedMlkv(s, dir.path() + "/backend"), so);
  if (!server.Start().ok()) std::exit(1);
  BackendConfig rcfg;
  rcfg.remote_addr = server.addr();
  std::unique_ptr<KvBackend> remote;
  if (!MakeBackend(BackendKind::kRemote, rcfg, &remote).ok()) std::exit(1);

  std::atomic<uint64_t> lookups{0};
  StopWatch watch;
  std::vector<std::thread> workers;
  for (int w = 0; w < s.threads; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(1000 + w);
      ZipfianGenerator zg(s.rows, 0.99, 2000 + w);
      std::vector<Key> keys(s.batch);
      std::vector<float> out(s.batch * s.dim);
      MultiGetOptions untracked;
      untracked.untracked = true;
      for (uint64_t b = 0; b < s.batches / s.threads; ++b) {
        for (auto& k : keys) {
          k = zipf ? zg.NextScrambled() : rng.Uniform(s.rows);
        }
        if (remote->MultiGet(keys, out.data(), untracked).failed > 0) {
          std::exit(1);
        }
        lookups.fetch_add(keys.size());
      }
    });
  }
  for (auto& th : workers) th.join();
  const double secs = watch.ElapsedSeconds();
  const Histogram& latency = server.request_latency();
  t->Cell(zipf ? "zipfian" : "uniform");
  t->Cell(Human(static_cast<double>(lookups.load()) / secs));
  t->Cell(latency.Percentile(0.50));
  t->Cell(latency.Percentile(0.99));
  t->EndRow();
  remote.reset();
  server.Stop();
}

// --- hedging A/B over a two-endpoint loopback cluster ---

// Each endpoint is primary of one partition and replica of the other, so
// every read has a fallback candidate; both stores are preloaded
// identically so replica reads return the same bytes. Endpoint 0's engine
// is wrapped in a DelayedBackend that sleeps on every Nth request — an
// intermittent straggler, the shape hedging is built for (a constantly
// slow server is a failover problem, not a hedging one).
struct HedgeCluster {
  TempDir dir;
  std::unique_ptr<net::KvServer> servers[2];
  DelayedBackend* slow = nullptr;  // owned by servers[0]

  bool Start(const Setup& s, uint64_t delay_us, uint64_t every_nth) {
    for (int i = 0; i < 2; ++i) {
      std::unique_ptr<KvBackend> engine =
          MakeLoadedMlkv(s, dir.path() + "/ep" + std::to_string(i));
      if (i == 0) {
        DelayedBackend::Options dopt;
        dopt.delay_us = delay_us;
        dopt.every_nth = every_nth;
        auto delayed =
            std::make_unique<DelayedBackend>(std::move(engine), dopt);
        slow = delayed.get();
        engine = std::move(delayed);
      }
      net::KvServerOptions so;
      so.num_workers = 4;
      servers[i] = std::make_unique<net::KvServer>(std::move(engine), so);
      if (!servers[i]->Start().ok()) return false;
    }
    // Map installed after Start (ephemeral ports): each endpoint primary
    // of one partition, replica of the other.
    auto map = std::make_shared<cluster::ClusterMap>();
    const std::vector<std::string> primaries = {servers[0]->addr(),
                                                servers[1]->addr()};
    const std::vector<std::string> replicas = {servers[1]->addr(),
                                               servers[0]->addr()};
    if (!cluster::BuildClusterMap(primaries, replicas, /*route_bits=*/1,
                                  cluster::ReadPreference::kPrimary,
                                  /*epoch=*/1, map.get())
             .ok()) {
      return false;
    }
    servers[0]->UpdateClusterMap(map, 0);
    servers[1]->UpdateClusterMap(map, 1);
    return true;
  }

  void Stop() {
    for (auto& srv : servers) {
      if (srv) srv->Stop();
    }
  }
};

struct HedgeRowResult {
  uint64_t rpcs = 0;  // client-side RPC exchanges (extra-volume basis)
  uint64_t p50 = 0, p99 = 0, p999 = 0;
};

// One traffic run against the cluster; per-batch latency measured at the
// caller (the number an inference service actually serves).
HedgeRowResult RunHedgeRow(const Setup& s, HedgeCluster* hc, uint64_t hedge_us,
                           const char* label, Table* t) {
  cluster::ClusterBackendOptions co;
  co.endpoints = {hc->servers[0]->addr(), hc->servers[1]->addr()};
  co.hedge_us = hedge_us;
  std::unique_ptr<cluster::ClusterBackend> cb;
  if (!cluster::ClusterBackend::Connect(co, &cb).ok()) std::exit(1);

  Histogram lat;
  std::atomic<uint64_t> lookups{0};
  StopWatch watch;
  std::vector<std::thread> workers;
  for (int w = 0; w < s.threads; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(1000 + w);
      std::vector<Key> keys(s.batch);
      std::vector<float> out(s.batch * s.dim);
      MultiGetOptions untracked;
      untracked.untracked = true;
      for (uint64_t b = 0; b < s.batches / s.threads; ++b) {
        for (auto& k : keys) k = rng.Uniform(s.rows);
        const auto t0 = std::chrono::steady_clock::now();
        const BatchResult br = cb->MultiGet(keys, out.data(), untracked);
        if (br.failed > 0) {
          std::fprintf(stderr, "hedge bench: %llu failed key(s): %s\n",
                       static_cast<unsigned long long>(br.failed),
                       br.first_error.ToString().c_str());
          std::exit(1);
        }
        lat.Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
        lookups.fetch_add(keys.size());
      }
    });
  }
  for (auto& th : workers) th.join();
  const double secs = watch.ElapsedSeconds();

  HedgeRowResult r;
  // RPCs the cluster client issued (hedges included), summed over its
  // endpoint clients by ClusterBackend::CollectMetrics. A client with
  // hedging off emits no hedge families: 0.
  obs::MetricsSink sink;
  cb->CollectMetrics(&sink);
  auto count = [&](const char* name) {
    return static_cast<uint64_t>(sink.Sum(name));
  };
  r.rpcs = count("mlkv_net_rpc_requests_total");
  r.p50 = lat.Percentile(0.50);
  r.p99 = lat.Percentile(0.99);
  r.p999 = lat.Percentile(0.999);
  t->Cell(label);
  t->Cell(Human(static_cast<double>(lookups.load()) / secs));
  t->Cell(r.p50);
  t->Cell(r.p99);
  t->Cell(r.p999);
  t->Cell(count("mlkv_cluster_hedge_issued_total"));
  t->Cell(count("mlkv_cluster_hedge_wins_total"));
  t->EndRow();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv,
              {"batches", "hedge", "hedge_us", "remote", "rows", "slow_every",
               "slow_us", "threads"});
  FileDevice::SetGlobalSimulatedCosts(
      flags.Int("nvme_read_us", 30), flags.Double("nvme_read_gbps", 1.0),
      flags.Double("nvme_write_gbps", 1.0));
  if (flags.Has("help")) {
    std::printf(
        "serving: lookup throughput/latency vs cache size and admission\n"
        "  --rows=500000 --batches=2000 --threads=4\n"
        "  --remote   also measure the networked serving path\n"
        "             (loopback KvServer + RemoteBackend)\n"
        "  --hedge    read-hedging A/B on a 2-endpoint loopback cluster\n"
        "             with one intermittently slow server\n"
        "    --hedge_us=500         hedge delay (us); 0 = auto (p99)\n"
        "    --slow_us=3000         injected delay on the slow endpoint\n"
        "    --slow_every=32        delay every Nth request\n");
    return 0;
  }
  Setup s;
  s.rows = flags.Int("rows", 500000, 10000);
  s.batches = flags.Int("batches", 2000, 50);
  s.threads = static_cast<int>(flags.Int("threads", 4, 2));

  Banner(
      "Serving path: lookups/s, hit rate, and batch latency vs cache size "
      "x admission policy");
  std::printf("(out-of-core table: %llu rows x dim %u vs %llu MiB buffer; "
              "cache sized at 1%% and 10%% of the keyspace)\n\n",
              static_cast<unsigned long long>(s.rows), s.dim,
              static_cast<unsigned long long>(s.buffer_mb));
  Table t({"dist", "cache_slots", "policy", "lookups/s", "hit", "adm_rej",
           "p50_us", "p99_us", "p999_us"});
  t.PrintHeader();
  const size_t small = std::max<size_t>(64, static_cast<size_t>(s.rows / 100));
  const size_t large = std::max<size_t>(64, static_cast<size_t>(s.rows / 10));
  for (const double theta : {-1.0, 0.99, 1.2}) {
    for (const size_t cache : {small, large}) {
      for (const CacheAdmission adm :
           {CacheAdmission::kLru, CacheAdmission::kTinyLfu}) {
        RunRow(s, cache, theta, adm, &t);
      }
    }
  }
  std::printf("\nExpected shape: under zipfian skew with a cache a fraction "
              "of the keyspace, TinyLFU admission beats plain LRU on hit "
              "rate (the one-hit tail stops evicting the head) and p99 "
              "falls with it; uniform traffic shows no policy gap.\n");

  if (flags.Has("remote")) {
    Banner("Remote serving: untracked MultiGet over loopback KvServer");
    std::printf("(same table and traffic, every batch pays a TCP round "
                "trip; p50/p99 are server-side request latencies)\n\n");
    Table rt({"dist", "lookups/s", "srv_p50_us", "srv_p99_us"});
    rt.PrintHeader();
    for (const bool zipf : {false, true}) {
      RunRemoteRow(s, zipf, &rt);
    }
    std::printf("\nExpected shape: remote throughput trails the in-process "
                "path by the per-batch wire cost; larger batches close the "
                "gap (see bench_ycsb_suite --remote).\n");
  }

  if (flags.Has("hedge")) {
    // The A/B is a ratio measurement (extra request volume, p99 delta), so
    // it keeps its own smoke config rather than --smoke's tiny defaults:
    // enough batches that one hedge is a fraction of a percent of volume,
    // and stall/delay pushed an order of magnitude above loopback jitter —
    // shared CI runners show multi-ms scheduling noise, and a delay inside
    // that band hedges noise instead of the injected straggler.
    Setup hs = s;
    if (flags.Smoke() && !flags.Has("batches")) hs.batches = 400;
    const uint64_t hedge_us = flags.Int("hedge_us", 500, 6000);
    const uint64_t slow_us = flags.Int("slow_us", 3000, 30000);
    const uint64_t slow_every = flags.Int("slow_every", 32);
    Banner("Read hedging A/B: 2-endpoint loopback cluster, one "
           "intermittently slow server");
    std::printf("(endpoint 0 sleeps %llu us on every %llu-th request; "
                "hedge delay %llu us%s; client-side batch latency)\n\n",
                static_cast<unsigned long long>(slow_us),
                static_cast<unsigned long long>(slow_every),
                static_cast<unsigned long long>(hedge_us),
                hedge_us == 0 ? " [auto p99]" : "");
    HedgeCluster hc;
    if (!hc.Start(s, slow_us, slow_every)) std::exit(1);
    Table ht({"mode", "lookups/s", "p50_us", "p99_us", "p999_us", "hedges",
              "wins"});
    ht.PrintHeader();
    const HedgeRowResult off = RunHedgeRow(hs, &hc, 0, "off", &ht);
    const HedgeRowResult on = RunHedgeRow(
        hs, &hc, hedge_us == 0 ? kHedgeAuto : hedge_us, "hedged", &ht);
    hc.Stop();
    const double extra =
        off.rpcs > 0 ? 100.0 * (static_cast<double>(on.rpcs) /
                                    static_cast<double>(off.rpcs) -
                                1.0)
                     : 0.0;
    std::printf("\nhedging: read p99 %llu -> %llu us (%.1fx), p999 %llu -> "
                "%llu us, +%.1f%% request volume\n",
                static_cast<unsigned long long>(off.p99),
                static_cast<unsigned long long>(on.p99),
                on.p99 > 0 ? static_cast<double>(off.p99) /
                                 static_cast<double>(on.p99)
                           : 0.0,
                static_cast<unsigned long long>(off.p999),
                static_cast<unsigned long long>(on.p999), extra);
    std::printf("Expected shape: without hedging every straggler surfaces "
                "at p99; with it the hedge covers the slow sub-batch for a "
                "few %% extra requests. Unskewed reads pay one pool handoff "
                "plus a row copy (a bounded p50 cost), never a second RPC.\n");
  }
  return 0;
}
