// mlkv_cli: command-line inspection and maintenance for an MLKV directory.
//
//   mlkv_cli <dir> tables
//   mlkv_cli <dir> create <table> <dim> <staleness_bound> [sgd|momentum|adagrad|adam]
//   mlkv_cli <dir> stats <table>
//   mlkv_cli <dir> get <table> <key>
//   mlkv_cli <dir> put <table> <key> <v0,v1,...>
//   mlkv_cli <dir> del <table> <key>
//   mlkv_cli <dir> scan <table> [limit]
//   mlkv_cli <dir> tail <table> [--shard N] [--from ADDR] [--limit N]
//   mlkv_cli <dir> compact <table>
//   mlkv_cli <dir> export <table> <path>
//   mlkv_cli <dir> import <table> <path>
//   mlkv_cli <dir> checkpoint
//
// Network mode (src/net/): serve any backend over TCP, and poke a running
// server by hand — the end-to-end drivable surface of the RPC subsystem.
//
//   mlkv_cli <dir> serve --addr <host:port> --backend <kind>
//                        [--dim N] [--workers N] [--staleness N]
//                        [--cluster_addrs a,b] [--cluster_replicas r,""]
//                        [--cluster_self <addr>] [--replica_of <addr>]
//   mlkv_cli - remote-get --addr <host:port> <key>
//   mlkv_cli - remote-put --addr <host:port> <key> <v0,v1,...>
//   mlkv_cli - stats --addr <host:port> [--watch N]
//   mlkv_cli - cluster-status --addr <host:port>
//
// Demonstrates the operational surface of the library: the manifest
// (OpenExistingTable), log scans, GC, export/import, checkpoints, and the
// embedding server.
#include <algorithm>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "backend/kv_backend.h"
#include "cluster/cluster_map.h"
#include "common/simd.h"
#include "cluster/replicator.h"
#include "kv/log_iterator.h"
#include "kv/update_log.h"
#include "mlkv/mlkv.h"
#include "net/kv_server.h"
#include "net/remote_backend.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/metrics_http.h"

using namespace mlkv;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: mlkv_cli <dir> <command> [args]\n"
      "  tables                              list tables in the manifest\n"
      "  create <t> <dim> <bound> [opt]      create a table\n"
      "  stats <t>                           store statistics\n"
      "  get <t> <key>                       print one embedding\n"
      "  put <t> <key> <v0,v1,...>           write one embedding\n"
      "  del <t> <key>                       delete one embedding\n"
      "  scan <t> [limit]                    list live keys (log order)\n"
      "  tail <t> [--shard N] [--from ADDR] [--limit N]\n"
      "       stream one shard's committed updates (docs/DURABILITY.md);\n"
      "       prints a resume address for the next invocation\n"
      "  compact <t>                         garbage-collect the log\n"
      "  export <t> <path> | import <t> <path>\n"
      "  checkpoint                          checkpoint every open table\n"
      "  serve --addr <h:p> --backend <kind> serve <dir> over TCP\n"
      "        [--dim N] [--workers N] [--staleness N]\n"
      "        [--io_threads N]       I/O engine workers (a batch's cold\n"
      "                               reads go into flight together)\n"
      "        [--durability_mode sync|group]\n"
      "        [--group_commit_window_us N] [--group_commit_max_bytes N]\n"
      "        [--request_threads N]  offload storage phases off workers\n"
      "        [--metrics_addr h:p]   Prometheus /metrics endpoint\n"
      "        [--serve_cache N]      front the backend with an N-vector cache\n"
      "        [--cache_admission lru|tinylfu]  eviction admission policy\n"
      "                               (tinylfu: frequency-sketch-gated, keeps\n"
      "                               hot keys under zipfian churn)\n"
      "        [--slow_request_us N]  slow-request log threshold (0 = auto)\n"
      "        kinds: mlkv faster lsm btree inmemory\n"
      "    cluster mode (docs/CLUSTER.md; --addr needs an explicit port):\n"
      "        [--cluster_addrs a,b,...]   primary endpoints, partition order\n"
      "        [--cluster_replicas r,...]  aligned with primaries, \"\" = none\n"
      "        [--cluster_self <addr>]     this server (default: --addr)\n"
      "        [--route_bits N] [--cluster_epoch N]\n"
      "        [--read_preference primary|replica]\n"
      "        [--replica_of <h:p>]        tail that primary's update feed\n"
      "        [--replica_poll_ms N] [--replica_state <path>]\n"
      "  remote-get --addr <h:p> <key>       read from a running server\n"
      "  remote-put --addr <h:p> <key> <csv> write to a running server\n"
      "  stats --addr <h:p> [--watch N]      a running server's metrics as\n"
      "       Prometheus text, the same as its /metrics (--watch repeats\n"
      "       every N s)\n"
      "  cluster-status --addr <h:p>         map + per-endpoint health\n"
      "  (remote-*/stats/cluster-status ignore <dir>; pass '-')\n");
  return 2;
}

int Fail(const Status& s) {
  std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
  return 1;
}

// The store's durability unit is the checkpoint (paper §II-B), and every
// CLI invocation is its own process — so mutating commands checkpoint
// before exiting or their effect would vanish with the process.
int CommitAndExit(Mlkv* db, int rc) {
  if (rc == 0) {
    const Status s = db->CheckpointAll();
    if (!s.ok()) return Fail(s);
  }
  return rc;
}

std::vector<float> ParseFloats(const std::string& csv) {
  std::vector<float> out;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t next = csv.find(',', pos);
    if (next == std::string::npos) next = csv.size();
    out.push_back(std::strtof(csv.substr(pos, next - pos).c_str(), nullptr));
    pos = next + 1;
  }
  return out;
}

void PrintVector(const float* v, uint32_t dim) {
  std::printf("[");
  for (uint32_t d = 0; d < dim; ++d) {
    std::printf("%s%.4f", d ? ", " : "", v[d]);
  }
  std::printf("]\n");
}

// --flag value pairs and positional arguments after the command word.
struct ArgList {
  std::vector<std::string> positional;
  std::string Flag(const std::string& name, const std::string& def = "") {
    const auto it = flags.find(name);
    return it == flags.end() ? def : it->second;
  }
  bool ParseFrom(int argc, char** argv, int start) {
    for (int i = start; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        if (i + 1 >= argc) return false;  // every flag takes a value
        flags[arg.substr(2)] = argv[++i];
      } else {
        positional.push_back(arg);
      }
    }
    return true;
  }
  std::map<std::string, std::string> flags;
};

bool ParseBackendKind(const std::string& name, BackendKind* out) {
  if (name == "mlkv") *out = BackendKind::kMlkv;
  else if (name == "faster") *out = BackendKind::kFaster;
  else if (name == "lsm") *out = BackendKind::kLsm;
  else if (name == "btree") *out = BackendKind::kBtree;
  else if (name == "inmemory") *out = BackendKind::kInMemory;
  else return false;
  return true;
}

std::sig_atomic_t volatile g_stop_requested = 0;
void HandleStopSignal(int) { g_stop_requested = 1; }

// Comma-split that keeps empty entries — unlike ParseEndpointList, because
// "" in --cluster_replicas means "this primary has no replica".
std::vector<std::string> SplitKeepEmpty(const std::string& csv) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos <= csv.size()) {
    size_t next = csv.find(',', pos);
    if (next == std::string::npos) next = csv.size();
    std::string item = csv.substr(pos, next - pos);
    while (!item.empty() &&
           std::isspace(static_cast<unsigned char>(item.front()))) {
      item.erase(item.begin());
    }
    while (!item.empty() &&
           std::isspace(static_cast<unsigned char>(item.back()))) {
      item.pop_back();
    }
    out.push_back(std::move(item));
    pos = next + 1;
  }
  if (csv.empty()) out.clear();
  return out;
}

// Every flag `serve` and `stats --addr` read. Anything else is rejected,
// so a stale or misspelled flag fails loudly instead of silently running
// the defaults.
constexpr const char* kServeFlags[] = {
    "addr", "backend", "cache_admission", "cluster_addrs", "cluster_epoch",
    "cluster_replicas", "cluster_self", "dim",
    "durability_mode", "group_commit_max_bytes", "group_commit_window_us",
    "io_threads", "metrics_addr", "read_preference", "replica_of",
    "replica_poll_ms", "replica_state", "request_threads", "route_bits",
    "serve_cache", "slow_request_us", "staleness", "workers",
};
constexpr const char* kStatsFlags[] = {"addr", "watch"};

template <size_t N>
bool OnlyKnownFlags(const ArgList& args, const char* cmd,
                    const char* const (&known)[N]) {
  for (const auto& [name, value] : args.flags) {
    if (std::find(std::begin(known), std::end(known), name) ==
        std::end(known)) {
      std::fprintf(stderr, "error: unknown %s flag --%s\n", cmd,
                   name.c_str());
      return false;
    }
  }
  return true;
}

int RunServe(const std::string& dir, ArgList& args) {
  if (!OnlyKnownFlags(args, "serve", kServeFlags)) return Usage();
  const std::string addr = args.Flag("addr", "127.0.0.1:0");
  BackendKind kind = BackendKind::kMlkv;
  if (!ParseBackendKind(args.Flag("backend", "mlkv"), &kind)) return Usage();

  std::string host;
  uint16_t port = 0;
  Status s = net::ParseHostPort(addr, &host, &port, /*allow_port_zero=*/true);
  if (!s.ok()) return Fail(s);

  // Every storage flag defaults to a default BackendConfig's value, except
  // --staleness: a served table defaults to ASP.
  BackendConfig cfg;
  cfg.dir = dir;
  cfg.dim = static_cast<uint32_t>(std::strtoul(
      args.Flag("dim", std::to_string(cfg.dim)).c_str(), nullptr, 10));
  cfg.staleness_bound = static_cast<uint32_t>(std::strtoul(
      args.Flag("staleness", std::to_string(kAspBound)).c_str(), nullptr, 10));
  AsyncIoEngine::Options& engine = cfg.mlkv.engine;
  engine.io_threads = static_cast<size_t>(std::strtoul(
      args.Flag("io_threads", std::to_string(engine.io_threads)).c_str(),
      nullptr, 10));
  FasterOptions& store = cfg.mlkv.store;
  if (!ParseDurabilityMode(
          args.Flag("durability_mode", DurabilityModeName(store.durability)),
          &store.durability)) {
    return Usage();
  }
  GroupCommitter::Options& commit = store.group_commit;
  commit.window_us = std::strtoull(
      args.Flag("group_commit_window_us", std::to_string(commit.window_us))
          .c_str(),
      nullptr, 10);
  commit.max_bytes = std::strtoull(
      args.Flag("group_commit_max_bytes", std::to_string(commit.max_bytes))
          .c_str(),
      nullptr, 10);
  std::unique_ptr<KvBackend> backend;
  s = MakeBackend(kind, cfg, &backend);
  if (!s.ok()) return Fail(s);

  // Optional serving-side cache in front of whatever engine was picked.
  const size_t serve_cache = static_cast<size_t>(
      std::strtoul(args.Flag("serve_cache", "0").c_str(), nullptr, 10));
  if (serve_cache > 0) {
    CacheAdmission admission = CacheAdmission::kLru;
    const std::string admission_name = args.Flag("cache_admission", "lru");
    if (admission_name == "tinylfu") {
      admission = CacheAdmission::kTinyLfu;
    } else if (admission_name != "lru") {
      return Usage();
    }
    s = MakeCachingBackend(std::move(backend), serve_cache, admission,
                           &backend);
    if (!s.ok()) return Fail(s);
  }

  net::KvServerOptions so;
  so.host = host;
  so.port = port;
  so.num_workers = static_cast<size_t>(
      std::strtoul(args.Flag("workers", "4").c_str(), nullptr, 10));
  so.request_threads = static_cast<size_t>(
      std::strtoul(args.Flag("request_threads", "0").c_str(), nullptr, 10));
  so.slow_request_us = std::strtoull(
      args.Flag("slow_request_us", "0").c_str(), nullptr, 10);
  net::KvServer server(std::move(backend), so);
  s = server.Start();
  if (!s.ok()) return Fail(s);

  // Prometheus endpoint over the server's registry (per-server, so the
  // scrape covers exactly this serving process).
  obs::MetricsHttpServer metrics_http(server.metrics());
  const std::string metrics_addr = args.Flag("metrics_addr");
  if (!metrics_addr.empty()) {
    s = metrics_http.Start(metrics_addr);
    if (!s.ok()) {
      server.Stop();
      return Fail(s);
    }
    std::printf("metrics on http://%s/metrics\n", metrics_addr.c_str());
  }

  // Cluster mode: install the map so this server enforces ownership and
  // serves it to clients via kClusterMap.
  const std::string cluster_addrs = args.Flag("cluster_addrs");
  if (!cluster_addrs.empty()) {
    if (port == 0) {
      server.Stop();
      return Fail(Status::InvalidArgument(
          "cluster mode needs an explicit --addr port: the map must name "
          "this server's endpoint"));
    }
    std::vector<std::string> primaries;
    s = net::ParseEndpointList(cluster_addrs, &primaries);
    if (!s.ok()) {
      server.Stop();
      return Fail(s);
    }
    const std::vector<std::string> replicas =
        SplitKeepEmpty(args.Flag("cluster_replicas"));
    cluster::ReadPreference pref = cluster::ReadPreference::kPrimary;
    const std::string pref_name = args.Flag("read_preference", "primary");
    if (pref_name == "replica") {
      pref = cluster::ReadPreference::kReplica;
    } else if (pref_name != "primary") {
      server.Stop();
      return Usage();
    }
    auto map = std::make_shared<cluster::ClusterMap>();
    s = cluster::BuildClusterMap(
        primaries, replicas,
        static_cast<uint32_t>(
            std::strtoul(args.Flag("route_bits", "0").c_str(), nullptr, 10)),
        pref,
        std::strtoull(args.Flag("cluster_epoch", "1").c_str(), nullptr, 10),
        map.get());
    if (!s.ok()) {
      server.Stop();
      return Fail(s);
    }
    const std::string self_addr = args.Flag("cluster_self", server.addr());
    const int self = map->FindEndpoint(self_addr);
    if (self < 0) {
      server.Stop();
      return Fail(Status::InvalidArgument("cluster_self \"" + self_addr +
                                          "\" is not in the cluster map"));
    }
    server.UpdateClusterMap(map, static_cast<uint32_t>(self));
    std::printf("cluster: epoch %llu, %u partition(s) over %zu endpoint(s), "
                "self=%s\n",
                (unsigned long long)map->epoch, map->num_partitions(),
                map->endpoints.size(), self_addr.c_str());
  }

  // Replica mode: tail a primary's committed-update feed into this
  // server's backend; the resume token survives restarts next to the data.
  std::unique_ptr<cluster::Replicator> replicator;
  uint64_t replicator_collector = 0;
  const std::string replica_of = args.Flag("replica_of");
  if (!replica_of.empty()) {
    cluster::ReplicatorOptions ro;
    ro.primary_addr = replica_of;
    ro.poll_interval_ms = std::strtoull(
        args.Flag("replica_poll_ms", "20").c_str(), nullptr, 10);
    ro.state_path = args.Flag("replica_state", dir + "/replica.state");
    replicator = std::make_unique<cluster::Replicator>(server.backend(), ro);
    s = replicator->Start();
    if (!s.ok()) {
      server.Stop();
      return Fail(s);
    }
    // Registered under the registry mutex, so a concurrent scrape or
    // kStats sees the replicator's families either fully or not at all.
    cluster::Replicator* rep = replicator.get();
    replicator_collector = server.metrics()->AddCollector(
        [rep](obs::MetricsSink* sink) { rep->CollectMetrics(sink); });
    std::printf("replicating from %s (state: %s)\n", replica_of.c_str(),
                ro.state_path.c_str());
  }

  std::printf("serving %s (dim=%u, shard_bits=%u, kernels=%s) on %s "
              "— Ctrl-C to stop\n",
              server.backend()->name().c_str(), server.backend()->dim(),
              server.backend()->shard_bits(),
              simd::KernelTierName(simd::ActiveKernelTier()),
              server.addr().c_str());
  std::fflush(stdout);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (!g_stop_requested) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("\nstopping...\n");
  if (replicator != nullptr) {
    server.metrics()->RemoveCollector(replicator_collector);
    replicator->Stop();
  }
  // The summary reads the same exposition kStats and /metrics serve;
  // families an engine does not emit print as 0. The store's mlkv_io_*
  // families are per shard, so their totals sum the backend's samples.
  const std::string text = server.metrics()->ExpositionText();
  obs::MetricsSink io;
  server.backend()->CollectMetrics(&io);
  server.Stop();
  auto sample = [&text](const char* series) {
    double v = 0;
    obs::FindSample(text, series, &v);
    return static_cast<unsigned long long>(v);
  };
  auto io_total = [&io](const char* name) {
    return static_cast<unsigned long long>(io.Sum(name));
  };
  std::printf("served %llu requests over %llu connections "
              "(p50=%lluus p99=%lluus)\n",
              sample("mlkv_server_handled_requests_total"),
              sample("mlkv_server_connections_total"),
              (unsigned long long)server.request_latency().Percentile(0.50),
              (unsigned long long)server.request_latency().Percentile(0.99));
  std::printf("kernels: %s tier for fused optimizer updates and row "
              "copies\n",
              simd::KernelTierName(static_cast<simd::KernelTier>(
                  sample("mlkv_simd_kernel_tier"))));
  std::printf("storage io: %llu disk record reads, %llu pages flushed, "
              "%llu evicted; async reads %llu submitted / %llu completed / "
              "%llu refetched\n",
              io_total("mlkv_io_disk_record_reads_total"),
              io_total("mlkv_io_pages_flushed_total"),
              io_total("mlkv_io_pages_evicted_total"),
              io_total("mlkv_io_async_reads_submitted_total"),
              io_total("mlkv_io_async_reads_completed_total"),
              io_total("mlkv_io_async_reads_refetched_total"));
  std::printf("write pipeline: async writes %llu submitted / %llu completed; "
              "%llu fsyncs, %llu group commits\n",
              io_total("mlkv_io_async_writes_submitted_total"),
              io_total("mlkv_io_async_writes_completed_total"),
              io_total("mlkv_io_fsyncs_total"),
              io_total("mlkv_io_group_commits_total"));
  if (replicator != nullptr) {
    const cluster::ReplicationProgress p = replicator->progress();
    std::printf("replication: %llu records applied, %llu behind, "
                "%llu polls, %llu reconnects, %llu apply failures\n",
                (unsigned long long)p.replicated_records,
                (unsigned long long)p.replica_lag_records,
                (unsigned long long)p.polls,
                (unsigned long long)p.reconnects,
                (unsigned long long)p.apply_failures);
  }
  return 0;
}

// `mlkv_cli - stats --addr <h:p>`: a running server's metrics exposition
// over kStats — the text its /metrics endpoint serves — optionally
// repeated every --watch N seconds.
int RunRemoteStats(ArgList& args) {
  if (!OnlyKnownFlags(args, "stats", kStatsFlags)) return Usage();
  const std::string addr = args.Flag("addr");
  if (addr.empty()) return Usage();
  const uint64_t watch_s =
      std::strtoull(args.Flag("watch", "0").c_str(), nullptr, 10);

  std::unique_ptr<net::RemoteBackend> remote;
  net::RemoteBackendOptions o;
  o.addr = addr;
  o.pool_size = 1;
  Status s = net::RemoteBackend::Connect(o, &remote);
  if (!s.ok()) return Fail(s);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  for (;;) {
    std::string text;
    s = remote->FetchStats(&text);
    if (!s.ok()) return Fail(s);
    // A lone fetch prints the bare exposition, so it can be piped to
    // scripts/check_metrics.sh; --watch separates the repeats.
    if (watch_s != 0) std::printf("--- %s ---\n", addr.c_str());
    std::fwrite(text.data(), 1, text.size(), stdout);
    std::fflush(stdout);
    if (watch_s == 0 || g_stop_requested) break;
    for (uint64_t i = 0; i < watch_s * 10 && !g_stop_requested; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (g_stop_requested) break;
  }
  return 0;
}

int RunClusterStatus(ArgList& args) {
  const std::string addr = args.Flag("addr");
  if (addr.empty()) return Usage();
  std::unique_ptr<net::RemoteBackend> seed;
  net::RemoteBackendOptions o;
  o.addr = addr;
  Status s = net::RemoteBackend::Connect(o, &seed);
  if (!s.ok()) return Fail(s);

  net::PayloadWriter req;
  Status transport;
  std::vector<uint8_t> body;
  size_t off = 0;
  s = seed->CallRaw(net::Opcode::kClusterMap, req, &transport, &body, &off);
  if (s.ok()) s = transport;
  if (!s.ok()) return Fail(s);
  net::PayloadReader r(body.data() + off, body.size() - off);
  cluster::ClusterMap map;
  s = cluster::DecodeClusterMap(&r, &map);
  if (!s.ok()) return Fail(s);

  std::printf("epoch %llu, %u partition(s), read preference: %s\n",
              (unsigned long long)map.epoch, map.num_partitions(),
              map.read_preference == cluster::ReadPreference::kReplica
                  ? "replica"
                  : "primary");
  for (uint32_t p = 0; p < map.num_partitions(); ++p) {
    const cluster::ClusterPartition& part = map.partitions[p];
    std::printf("  partition %-3u primary %s", p,
                map.endpoints[part.primary].c_str());
    for (const uint32_t rep : part.replicas) {
      std::printf("  replica %s", map.endpoints[rep].c_str());
    }
    std::printf("\n");
  }

  static const char* const kRoles[] = {"standalone", "primary", "replica"};
  for (const std::string& ep : map.endpoints) {
    std::unique_ptr<net::RemoteBackend> c;
    net::RemoteBackendOptions eo;
    eo.addr = ep;
    eo.pool_size = 1;
    if (!net::RemoteBackend::Connect(eo, &c).ok()) {
      std::printf("%-22s DOWN\n", ep.c_str());
      continue;
    }
    const net::HandshakeInfo& hs = c->handshake_info();
    std::string text;
    if (!c->FetchStats(&text).ok()) {
      std::printf("%-22s up, role %s (stats unavailable)\n", ep.c_str(),
                  kRoles[hs.cluster_role <= 2 ? hs.cluster_role : 0]);
      continue;
    }
    // Replicator families exist only on replicas; absent reads as 0.
    auto sample = [&text](const char* series) {
      double v = 0;
      obs::FindSample(text, series, &v);
      return v;
    };
    const double n = sample("mlkv_server_request_latency_seconds_count");
    const double mean_us =
        n > 0 ? 1e6 * sample("mlkv_server_request_latency_seconds_sum") / n
              : 0.0;
    std::printf("%-22s up, role %-10s epoch %-4llu %.0f reqs "
                "(mean=%.0fus) replicated=%.0f lag=%.0f\n",
                ep.c_str(),
                kRoles[hs.cluster_role <= 2 ? hs.cluster_role : 0],
                (unsigned long long)hs.cluster_epoch,
                sample("mlkv_server_handled_requests_total"), mean_us,
                sample("mlkv_replicator_records_total"),
                sample("mlkv_replicator_lag_records"));
  }
  return 0;
}

int RunRemote(const std::string& cmd, ArgList& args) {
  const std::string addr = args.Flag("addr");
  if (addr.empty() || args.positional.empty()) return Usage();
  std::unique_ptr<KvBackend> remote;
  net::RemoteBackendOptions o;
  o.addr = addr;
  Status s = net::RemoteBackend::Connect(o, &remote);
  if (!s.ok()) return Fail(s);
  const Key key = std::strtoull(args.positional[0].c_str(), nullptr, 10);

  if (cmd == "remote-get") {
    std::vector<float> v(remote->dim());
    s = remote->PeekEmbedding(key, v.data());  // untracked: a CLI probe
                                               // must not advance clocks
    if (!s.ok()) return Fail(s);
    PrintVector(v.data(), remote->dim());
    return 0;
  }
  // remote-put
  if (args.positional.size() < 2) return Usage();
  const std::vector<float> v = ParseFloats(args.positional[1]);
  if (v.size() != remote->dim()) {
    std::fprintf(stderr, "expected %u floats, got %zu\n", remote->dim(),
                 v.size());
    return 1;
  }
  s = remote->PutEmbedding(key, v.data());
  if (!s.ok()) return Fail(s);
  std::printf("ok\n");
  return 0;
}

bool ParseOptimizer(const std::string& name, OptimizerConfig* out) {
  if (name == "sgd") {
    out->kind = OptimizerKind::kSgd;
  } else if (name == "momentum") {
    out->kind = OptimizerKind::kMomentum;
  } else if (name == "adagrad") {
    out->kind = OptimizerKind::kAdagrad;
  } else if (name == "adam") {
    out->kind = OptimizerKind::kAdam;
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string dir = argv[1];
  const std::string cmd = argv[2];

  // Network commands bypass the local Mlkv open: serve owns its backend
  // via the factory, remote-* never touch local storage at all. `stats`
  // is network mode only when --addr is given (its classic form inspects
  // a local table).
  bool stats_has_addr = false;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--addr") == 0) stats_has_addr = true;
  }
  if (cmd == "serve" || cmd == "remote-get" || cmd == "remote-put" ||
      cmd == "cluster-status" || (cmd == "stats" && stats_has_addr)) {
    ArgList args;
    if (!args.ParseFrom(argc, argv, 3)) return Usage();
    if (cmd == "serve") return RunServe(dir, args);
    if (cmd == "cluster-status") return RunClusterStatus(args);
    if (cmd == "stats") return RunRemoteStats(args);
    return RunRemote(cmd, args);
  }

  MlkvOptions options;
  options.dir = dir;
  std::unique_ptr<Mlkv> db;
  Status s = Mlkv::Open(options, &db);
  if (!s.ok()) return Fail(s);

  auto open_table = [&](const char* id, EmbeddingTable** t) {
    return db->OpenExistingTable(id, t);
  };

  if (cmd == "tables") {
    for (const auto& id : db->ListTables()) {
      EmbeddingTable* t = nullptr;
      if (!open_table(id.c_str(), &t).ok()) continue;
      std::printf("%-24s dim=%-5u bound=%-10u optimizer=%-8s rows~%llu\n",
                  id.c_str(), t->dim(), t->staleness_bound(),
                  OptimizerKindName(t->optimizer().kind),
                  static_cast<unsigned long long>(t->num_embeddings()));
    }
    return 0;
  }

  if (cmd == "create") {
    if (argc < 6) return Usage();
    OptimizerConfig opt;
    if (argc > 6 && !ParseOptimizer(argv[6], &opt)) return Usage();
    EmbeddingTable* t = nullptr;
    s = db->OpenTable(argv[3],
                      static_cast<uint32_t>(std::strtoul(argv[4], nullptr, 10)),
                      static_cast<uint32_t>(std::strtoul(argv[5], nullptr, 10)),
                      &t, opt);
    if (!s.ok()) return Fail(s);
    std::printf("created %s\n", argv[3]);
    return CommitAndExit(db.get(), 0);
  }

  if (cmd == "checkpoint") {
    // Open everything listed in the manifest first so all tables persist.
    for (const auto& id : db->ListTables()) {
      EmbeddingTable* t = nullptr;
      s = open_table(id.c_str(), &t);
      if (!s.ok()) return Fail(s);
    }
    s = db->CheckpointAll();
    if (!s.ok()) return Fail(s);
    std::printf("checkpointed %zu table(s)\n", db->ListTables().size());
    return 0;
  }

  // Everything below needs a table argument.
  if (argc < 4) return Usage();
  EmbeddingTable* table = nullptr;
  s = open_table(argv[3], &table);
  if (!s.ok()) return Fail(s);

  if (cmd == "stats") {
    ShardedStore* store = table->store();
    obs::MetricsSink st;
    store->CollectMetrics(&st);
    const auto ops = [&st](const char* op) {
      return st.Sum("mlkv_shard_ops_total", {"op", op});
    };
    std::printf("reads=%.0f upserts=%.0f rmws=%.0f deletes=%.0f\n",
                ops("read"), ops("upsert"), ops("rmw"), ops("delete"));
    std::printf("inplace=%.0f rcu=%.0f inserts=%.0f\n",
                st.Sum("mlkv_store_inplace_updates_total"),
                st.Sum("mlkv_store_rcu_appends_total"),
                st.Sum("mlkv_store_inserts_total"));
    std::printf("shards=%zu index slots=%llu\n", store->num_shards(),
                (unsigned long long)store->index_slots());
    for (size_t i = 0; i < store->num_shards(); ++i) {
      const auto& log = store->shard(i)->log();
      std::printf("shard %02zu log: begin=%llu head=%llu read_only=%llu "
                  "tail=%llu\n",
                  i, (unsigned long long)log.begin_address(),
                  (unsigned long long)log.head_address(),
                  (unsigned long long)log.read_only_address(),
                  (unsigned long long)log.tail());
    }
    return 0;
  }

  if (cmd == "get") {
    if (argc < 5) return Usage();
    const Key key = std::strtoull(argv[4], nullptr, 10);
    std::vector<float> v(table->dim());
    s = table->Get({&key, 1}, v.data());
    if (!s.ok()) return Fail(s);
    PrintVector(v.data(), table->dim());
    return 0;
  }

  if (cmd == "put") {
    if (argc < 6) return Usage();
    const Key key = std::strtoull(argv[4], nullptr, 10);
    std::vector<float> v = ParseFloats(argv[5]);
    if (v.size() != table->dim()) {
      std::fprintf(stderr, "expected %u floats, got %zu\n", table->dim(),
                   v.size());
      return 1;
    }
    s = table->Put({&key, 1}, v.data());
    if (!s.ok()) return Fail(s);
    std::printf("ok\n");
    return CommitAndExit(db.get(), 0);
  }

  if (cmd == "del") {
    if (argc < 5) return Usage();
    const Key key = std::strtoull(argv[4], nullptr, 10);
    s = table->store()->Delete(key);
    if (!s.ok()) return Fail(s);
    std::printf("ok\n");
    return CommitAndExit(db.get(), 0);
  }

  if (cmd == "scan") {
    const uint64_t limit =
        argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 20;
    uint64_t shown = 0;
    for (size_t sh = 0; sh < table->store()->num_shards() && shown < limit;
         ++sh) {
      for (LiveLogIterator it(table->store()->shard(sh));
           it.Valid() && shown < limit; it.Next(), ++shown) {
        std::printf("%-12llu ", (unsigned long long)it.meta().key);
        PrintVector(reinterpret_cast<const float*>(it.value().data()),
                    table->dim());
      }
    }
    std::printf("(%llu shown)\n", (unsigned long long)shown);
    return 0;
  }

  if (cmd == "tail") {
    ArgList targs;
    if (!targs.ParseFrom(argc, argv, 4)) return Usage();
    const uint64_t limit =
        std::strtoull(targs.Flag("limit", "50").c_str(), nullptr, 10);
    const size_t shard = static_cast<size_t>(
        std::strtoul(targs.Flag("shard", "0").c_str(), nullptr, 10));
    const Address from =
        std::strtoull(targs.Flag("from", "0").c_str(), nullptr, 10);
    if (shard >= table->store()->num_shards()) {
      std::fprintf(stderr, "shard %zu out of range (store has %zu)\n", shard,
                   table->store()->num_shards());
      return 1;
    }
    // The cursor only yields entries below the shard's durable watermark —
    // everything printed here survives a crash.
    UpdateLogCursor cur(table->store()->shard(shard), from);
    UpdateEntry e;
    uint64_t shown = 0;
    while (shown < limit && cur.Next(&e)) {
      std::printf("@%-12llu key=%-12llu gen=%-6u stale=%-6u %s",
                  (unsigned long long)e.address, (unsigned long long)e.key,
                  e.generation, e.staleness,
                  e.tombstone ? "tombstone\n" : "");
      if (!e.tombstone) {
        const uint32_t n =
            std::min<uint32_t>(table->dim(),
                               static_cast<uint32_t>(e.value.size() /
                                                     sizeof(float)));
        PrintVector(reinterpret_cast<const float*>(e.value.data()), n);
      }
      ++shown;
    }
    if (!cur.status().ok()) return Fail(cur.status());
    std::printf("(%llu entries; resume with --from %llu)\n",
                (unsigned long long)shown,
                (unsigned long long)cur.position());
    return 0;
  }

  if (cmd == "compact") {
    CompactionResult r;
    s = table->store()->CompactAll(&r);
    if (!s.ok()) return Fail(s);
    std::printf("scanned=%llu live_copied=%llu dead=%llu tombstones=%llu "
                "new_begin=%llu\n",
                (unsigned long long)r.scanned,
                (unsigned long long)r.live_copied,
                (unsigned long long)r.dead_skipped,
                (unsigned long long)r.tombstones_dropped,
                (unsigned long long)r.new_begin);
    return CommitAndExit(db.get(), 0);
  }

  if (cmd == "export" || cmd == "import") {
    if (argc < 5) return Usage();
    s = cmd == "export" ? table->Export(argv[4]) : table->Import(argv[4]);
    if (!s.ok()) return Fail(s);
    std::printf("ok\n");
    return cmd == "import" ? CommitAndExit(db.get(), 0) : 0;
  }

  return Usage();
}
