// KvServer: a multi-threaded TCP embedding server exposing any KvBackend
// over the net/ wire protocol — the deployment shape the paper assumes
// (trainers and inference replicas sharing one live store as a service).
//
// Threading model: one accept-loop thread plus a configurable worker pool.
// Each worker slot serves one connection at a time, request-by-request
// (the protocol is strictly request/response per connection; concurrency
// comes from connections, matching RemoteBackend's pooled client sockets —
// one checked out per in-flight batch). With more connections than
// workers, quiet connections are requeued between frames (a short idle
// poll) so the pool round-robins over all of them — excess connections
// see added latency, never starvation. Size num_workers to the expected
// number of concurrently batching clients to avoid the requeue path.
//
// Stop() is graceful: it wakes the blocking accept, half-closes the read
// side of every active connection so in-flight requests finish and get
// their responses, then joins all threads. Per-opcode op counters and a
// request-latency histogram live in the server's metrics registry, which
// is served in-process (metrics()) and over the wire (Opcode::kStats).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "backend/kv_backend.h"
#include "cluster/cluster_map.h"
#include "common/histogram.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mlkv {
namespace net {

struct KvServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;       // 0 = ephemeral; the bound port is port()
  size_t num_workers = 4;  // connections served concurrently
  int backlog = 64;
  // A response send blocked this long (client stopped reading) fails and
  // closes the connection instead of wedging the worker — without it, a
  // non-reading peer could also hang Stop()'s drain (SHUT_RD unblocks
  // reads, not sends). 0 disables.
  int send_timeout_ms = 10000;
  // Storage-request offload: with N > 0, MultiGet / MultiPut /
  // MultiApplyGradient requests are handed (connection and all) to a pool
  // of N executor threads, so the worker that decoded the frame goes back
  // to serving other connections while the request's storage phase —
  // possibly an async cold-read wave — completes; the executor sends the
  // response and requeues the connection. 0 (default) serves every
  // request inline on its worker, the classic model.
  size_t request_threads = 0;
  // Cluster mode (see docs/CLUSTER.md): the routing map this server
  // enforces and its own index into the map's endpoints. With a map set,
  // storage requests for keys this endpoint does not own come back with
  // per-key kWrongPartition codes (writes need the partition's primary;
  // reads accept its replicas too), the handshake advertises the map's
  // epoch, and kClusterMap serves the map. Null = standalone (default),
  // nothing enforced. Both can also be swapped at runtime via
  // UpdateClusterMap (the epoch-bump path).
  std::shared_ptr<const cluster::ClusterMap> cluster;
  uint32_t self_endpoint = UINT32_MAX;
  // Metrics registry this server records into. Null (default) gives the
  // server a private registry — two servers in one process (tests,
  // loopback clusters) never merge counters. The server registers a
  // scrape-time collector for its gauges and the backend's families;
  // metrics() exposes whichever registry is in effect (feed it to a
  // MetricsHttpServer for a /metrics endpoint).
  obs::MetricsRegistry* metrics = nullptr;
  // Per-request trace spans (decode -> queue_wait -> execute -> scatter ->
  // shard_execute -> io_wave -> send), feeding the
  // mlkv_request_stage_seconds{stage=} histograms and the slow-request
  // log. Off = zero per-request overhead beyond the counters.
  bool enable_tracing = true;
  // A traced request slower than this (microseconds, measured decode to
  // response-sent) logs its full span breakdown. 0 (default) derives the
  // threshold from trailing latency: p99 x 4 with a 1ms floor, armed after
  // 64 requests of warmup.
  uint64_t slow_request_us = 0;
  // Destination for slow-request reports; null writes to stderr. The
  // callback runs on the request's worker thread — keep it cheap.
  std::function<void(const std::string&)> slow_request_log;
};

class KvServer {
 public:
  // Takes ownership of the backend: any engine behind the KvBackend seam
  // is servable unmodified.
  KvServer(std::unique_ptr<KvBackend> backend, KvServerOptions options = {});
  ~KvServer();  // implies Stop()

  KvServer(const KvServer&) = delete;
  KvServer& operator=(const KvServer&) = delete;

  Status Start();
  // Graceful: unblocks the accept loop, drains in-flight requests (each
  // active connection finishes its current request and receives the
  // response), joins all threads. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  uint16_t port() const { return listener_.port(); }
  std::string addr() const;
  KvBackend* backend() const { return backend_.get(); }

  const Histogram& request_latency() const {
    return latency_cell_->histogram();
  }
  // This server's registry: its own request/connection/latency cells plus
  // collectors for the backend's families. kStats answers with its
  // ExpositionText(), the same text /metrics serves. Owners of other
  // counters (a replica's Replicator) add collectors here.
  obs::MetricsRegistry* metrics() const { return metrics_; }

  // Swaps the enforced cluster map (and this server's endpoint index under
  // the new map) — the epoch-bump path. Thread-safe; in-flight requests
  // finish under whichever map they snapshotted.
  void UpdateClusterMap(std::shared_ptr<const cluster::ClusterMap> map,
                        uint32_t self_endpoint);
  std::shared_ptr<const cluster::ClusterMap> cluster_map() const;

 private:
  void AcceptLoop();
  void WorkerLoop(size_t slot);
  void ServeConnection(Socket conn, size_t slot);
  // Handles one decoded request frame; false ends the connection.
  // `enqueued_us` is non-zero when the frame waited in the request pool
  // (traced as a queue_wait span).
  bool HandleRequest(Socket* conn, const FrameHeader& hdr,
                     std::span<const uint8_t> payload,
                     uint64_t enqueued_us = 0);
  Status SendResponse(Socket* conn, const FrameHeader& req,
                      const Status& transport, const PayloadWriter& body);
  // As above, plus trailing row runs gathered into the same frame (a
  // MultiGet's served rows, aliased from the backend's output buffer).
  // `rows` rides only when the transport status is OK, like `body`.
  Status SendResponse(Socket* conn, const FrameHeader& req,
                      const Status& transport, const PayloadWriter& body,
                      std::span<const std::span<const uint8_t>> rows);

  // One offloaded storage request: the executor owns the connection until
  // the response is sent, then requeues it (or closes it when stopping).
  struct OffloadedRequest {
    Socket conn;
    FrameHeader hdr;
    std::vector<uint8_t> payload;
    uint64_t enqueued_us = 0;  // pool handoff time, for the queue_wait span
  };
  void RunOffloaded(const std::shared_ptr<OffloadedRequest>& req);

  // Snapshot of the current map + self index (one shared_ptr copy per
  // storage request when a map is set).
  struct ClusterView {
    std::shared_ptr<const cluster::ClusterMap> map;
    uint32_t self = UINT32_MAX;
  };
  ClusterView cluster_view() const;
  // This endpoint's role under `map`: 0 standalone, 1 primary, 2 replica.
  static uint8_t RoleUnder(const cluster::ClusterMap& map, uint32_t self);

  std::unique_ptr<KvBackend> backend_;
  const KvServerOptions options_;

  mutable std::mutex cluster_mu_;
  std::shared_ptr<const cluster::ClusterMap> cluster_;
  uint32_t self_endpoint_ = UINT32_MAX;

  ListenSocket listener_;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  // Active connection fd per worker slot (-1 when idle), so Stop() can
  // half-close reads to drain blocked workers. Mutex-guarded — and the
  // worker closes its socket under the same lock — so Stop() can never
  // shutdown() an fd the worker just closed (and the kernel reused).
  std::mutex slots_mu_;
  std::vector<int> slot_fds_;

  std::mutex mu_;
  std::condition_variable pending_cv_;
  std::deque<Socket> pending_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  // Storage-request executors (request_threads > 0); tasks in flight are
  // drained by Stop() before the final pending_ sweep.
  std::unique_ptr<ThreadPool> request_pool_;
  std::atomic<size_t> inflight_requests_{0};

  // Wires registry cells (looked up once at construction; recording is
  // lock-free) and the scrape-time collector for gauges + backend families.
  void InitMetrics();
  void CollectServerMetrics(obs::MetricsSink* sink) const;
  // Post-response trace epilogue: stage histograms + slow-request log.
  void FinishTrace(obs::RequestTrace* trace);

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  uint64_t collector_id_ = 0;

  // Registry cells behind the legacy counters (slot 0 of op_cells_ is
  // unused — opcodes start at 1).
  std::array<obs::Counter*, kOpcodeSlots> op_cells_{};
  obs::Counter* connections_cell_ = nullptr;
  obs::Counter* requests_cell_ = nullptr;
  obs::Counter* transport_errors_cell_ = nullptr;
  obs::Counter* wrong_partition_cell_ = nullptr;
  obs::HistogramCell* latency_cell_ = nullptr;  // microseconds recorded
  obs::MetricFamily* stage_family_ = nullptr;   // per-stage span timings

  // Known stage names resolved to their cells once at InitMetrics:
  // FinishTrace runs per request, and a family map probe per span is
  // measurable in the --metrics_overhead A/B. Unknown stages fall back to
  // the family lookup.
  static constexpr size_t kMaxStageCells = 12;
  std::array<std::pair<const char*, obs::HistogramCell*>, kMaxStageCells>
      stage_cells_{};
  size_t num_stage_cells_ = 0;

  // Cached auto slow-request threshold (slow_request_us == 0): the p99
  // walk over the latency histogram's buckets is too heavy to repeat per
  // request, so it refreshes every 256 requests.
  mutable std::atomic<uint64_t> auto_threshold_{0};
  mutable std::atomic<uint64_t> auto_threshold_refresh_{0};
};

}  // namespace net
}  // namespace mlkv
