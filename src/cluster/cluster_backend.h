// ClusterBackend: the KvBackend seam over a whole cluster. Keys scatter
// by partition (ClusterMap::PartitionOf — the same top-bits routing the
// in-process ShardedStore uses) into per-partition sub-batches that run in
// parallel against their owning servers over pooled RemoteBackend
// connections; per-key BatchResults gather back in caller order. One flag
// (BackendKind::kCluster + BackendConfig::cluster_addrs) puts any trainer
// or bench on an N-server cluster with zero code changes — exactly the
// ShardedStore::MultiExecute shape, lifted onto the wire.
//
// Map discovery: Connect tries the seed endpoints in order; the first
// reachable server answers the handshake (dim) and, when it runs in
// cluster mode, serves the authoritative routing map via kClusterMap.
// Standalone seeds (epoch 0, kClusterMap unsupported) get a client-derived
// map instead: partitions spread round-robin over the seed list,
// unenforced by the servers. When a server rejects keys with per-key
// kWrongPartition (its map moved on), the batch refetches the map and
// retries exactly the rejected keys once under the new epoch.
//
// Failover: a read sub-batch whose chosen endpoint fails at the transport
// level (connect/send/recv — server down) retries against the partition's
// other candidates, as untracked reads when the candidate is not the
// primary (a replica has no staleness authority). With read_preference =
// kReplica the replicas come first and the primary is the fallback,
// offloading primaries entirely. Writes only ever run on the primary: a
// dead primary surfaces as per-key kFailed codes for that partition's keys
// while every other partition's writes land — no whole-batch abort, and no
// blind cross-server retry beyond RemoteBackend's own stale-pool retry
// (which is safe because the request provably never executed).
//
// Tail-latency control (off by default; docs/SERVING.md): with request
// hedging (hedge_us) a read sub-batch races a second attempt against the
// partition's next candidate once the first has been in flight for the
// hedge delay (fixed, or kHedgeAuto = that endpoint's trailing p99). First
// response wins; the loser is cancelled before issue when possible and its
// bytes are discarded otherwise. Writes never hedge — a duplicated
// gradient would double-apply.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "backend/kv_backend.h"
#include "cluster/cluster_map.h"
#include "common/histogram.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "net/remote_backend.h"
#include "obs/metrics.h"

namespace mlkv {
namespace cluster {

struct ClusterBackendOptions {
  // Seed endpoints ("host:port"), any reachable cluster member. The
  // authoritative endpoint set comes from the fetched map; seeds only
  // bootstrap discovery (and become the whole cluster for standalone
  // servers with no map to serve).
  std::vector<std::string> endpoints;
  // Per-endpoint RemoteBackend connection pool (see RemoteBackendOptions).
  size_t pool_size = 8;
  // Scatter helpers for multi-partition batches (the calling thread always
  // participates too). 0 derives min(8, seed count).
  size_t scatter_threads = 0;
  // Read-hedge delay in microseconds. 0 disables hedging; kHedgeAuto
  // derives it per endpoint from that endpoint's trailing read p99
  // (1ms until 64 samples warm the histogram, then clamped to
  // [100us, 100ms]). Only reads hedge.
  uint64_t hedge_us = 0;
};

class ClusterBackend : public KvBackend {
 public:
  static Status Connect(const ClusterBackendOptions& options,
                        std::unique_ptr<KvBackend>* out);
  // Typed variant for tooling that needs map()/RefreshMap().
  static Status Connect(const ClusterBackendOptions& options,
                        std::unique_ptr<ClusterBackend>* out);

  std::string name() const override;
  uint32_t dim() const override { return dim_; }
  // The map's route_bits: batch layout helpers (OrderKeysByShard) then
  // group keys exactly like the cluster scatter does.
  uint32_t shard_bits() const override { return map()->route_bits; }

  BatchResult MultiGet(std::span<const Key> keys, float* out,
                       const MultiGetOptions& options) override;
  BatchResult MultiPut(std::span<const Key> keys,
                       const float* values) override;
  BatchResult MultiApplyGradient(std::span<const Key> keys, const float* grads,
                                 float lr) override;
  // Best-effort: forwards the hint to each touched partition's primary.
  Status Lookahead(std::span<const Key> keys) override;

  // Base families, the RPC counters summed over every endpoint client
  // (mlkv_net_rpc_requests_total / mlkv_net_rpc_retries_total), the
  // per-endpoint routing counters
  // (mlkv_cluster_endpoint_requests_total{endpoint=} /
  // mlkv_cluster_endpoint_failovers_total{endpoint=}) and the client's
  // current map epoch; with hedging on, mlkv_cluster_hedge_{issued,wins}_total.
  void CollectMetrics(obs::MetricsSink* sink) const override;

  // Current routing map snapshot (immutable; swapped whole on refresh).
  std::shared_ptr<const ClusterMap> map() const;
  // Refetches the map from any reachable endpoint; installs it when its
  // epoch is newer than the current one.
  Status RefreshMap();

 private:
  enum class Op { kGet, kPut, kGrad };

  // One server, lazily connected; slots are created once per address and
  // never move, so raw pointers taken under ep_mu_ stay valid for the
  // backend's lifetime (map refreshes only add addresses).
  struct Endpoint {
    std::string addr;
    std::mutex mu;  // guards client creation
    std::unique_ptr<net::RemoteBackend> client;
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> failovers{0};
    // Read sub-batch latency, fed by every read attempt (hedged or not).
    // The histogram's trailing p99 is the kHedgeAuto delay signal; the
    // EWMA is the smoothed display value.
    Histogram latency_us;
    obs::Ewma ewma_us;
  };

  explicit ClusterBackend(ClusterBackendOptions options);

  Endpoint* EndpointFor(const std::string& addr);
  // Lazy connect + dim cross-check (a mixed-dim cluster would silently
  // corrupt rows otherwise).
  Status GetClient(Endpoint* ep, net::RemoteBackend** out);
  Status FetchMapFrom(net::RemoteBackend* client,
                      std::shared_ptr<const ClusterMap>* out);
  void InstallMap(std::shared_ptr<const ClusterMap> m);

  // The scatter/gather core shared by all three batch ops. `rows_out` for
  // Get, `rows_in` for Put/Grad. `allow_epoch_retry` guards the one
  // refetch-and-retry pass on kWrongPartition rejections.
  BatchResult Execute(Op op, std::span<const Key> keys, float* rows_out,
                      const float* rows_in, float lr,
                      const MultiGetOptions& options, bool allow_epoch_retry);
  // One partition's sub-batch against its candidate endpoints (failover
  // order); keys/rows are already gathered contiguous.
  BatchResult ExecutePartition(const ClusterMap& m, size_t partition, Op op,
                               std::span<const Key> keys, float* rows_out,
                               const float* rows_in, float lr,
                               const MultiGetOptions& options);

  // One timed read attempt; feeds the endpoint's latency histogram/EWMA.
  BatchResult TimedGet(Endpoint* ep, net::RemoteBackend* client,
                       std::span<const Key> keys, float* rows_out,
                       const MultiGetOptions& options, bool* down);
  // Effective hedge delay for a primary attempt on `ep` (see hedge_us).
  uint64_t HedgeDelayUs(Endpoint* ep) const;
  // Primary attempt on candidates[0] (whose client is already connected)
  // raced against a delayed hedge on candidates[1]. Returns the number of
  // candidates consumed (1 or 2) so the caller's failover loop resumes
  // after the ones already tried. On success *down is false; on *down,
  // *result holds the folded per-key codes of the losing attempt.
  size_t HedgedGet(const ClusterMap& m, const ClusterPartition& part,
                   const std::vector<uint32_t>& candidates, Endpoint* ep0,
                   net::RemoteBackend* client0, std::span<const Key> keys,
                   float* rows_out, const MultiGetOptions& options,
                   BatchResult* result, bool* down);

  const ClusterBackendOptions options_;
  uint32_t dim_ = 0;  // fixed at Connect; read-only afterwards

  mutable std::mutex map_mu_;
  std::shared_ptr<const ClusterMap> map_;

  mutable std::mutex ep_mu_;  // guards the slot vector, not the slots
  std::vector<std::unique_ptr<Endpoint>> endpoints_;

  std::unique_ptr<ThreadPool> pool_;  // scatter helpers

  std::atomic<uint64_t> hedges_{0};      // hedge attempts issued
  std::atomic<uint64_t> hedge_wins_{0};  // hedge responses used

  mutable std::mutex part_ops_mu_;
  std::vector<uint64_t> partition_ops_;  // keys routed per partition

  // Dedicated pool for hedge attempts — sharing pool_ would let a scatter
  // storm starve (or deadlock behind) the very requests meant to rescue
  // it. Declared last: its destructor joins in-flight hedge tasks (which
  // touch endpoints_/this) before any other member is torn down.
  std::unique_ptr<ThreadPool> hedge_pool_;
};

}  // namespace cluster
}  // namespace mlkv
