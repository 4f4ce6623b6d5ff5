// RemoteBackend: the KvBackend seam over the wire. Implements the batched
// virtuals by framing key spans onto a pooled TCP connection and decoding
// the per-key BatchResult back, so every trainer, bench, and the serving
// path can hit a KvServer-fronted store with one flag
// (BackendKind::kRemote + BackendConfig::remote_addr) and zero code
// changes — the network boundary drops in behind the existing seam.
//
// Connection pool: one socket is checked out per in-flight batch, so
// concurrent trainer threads issue RPCs in parallel instead of
// serializing on a single stream (pair the pool with at least as many
// KvServer workers). Sockets are created on demand, handshake-validated,
// and retained idle up to pool_size; a socket that sees any transport
// error is discarded, never re-pooled.
//
// Stale-pool retry: an idle pooled socket can outlive its server (restart,
// failover) — the next RPC then fails at send or sees a clean close where
// the response should be. KvServer always responds before closing a
// connection, so that failure means the request was never executed: the
// RPC is retried exactly once on a freshly connected socket (and the rest
// of the pool, pointed at the same dead peer, is dropped). Fresh-socket
// failures are genuine and never retried. Caveat: a server that dies
// mid-response leaves the request possibly executed; the retry makes
// MultiApplyGradient at-least-once in that narrow window — acceptable for
// SGD, and the alternative (failing the batch) loses the update entirely.
//
// dim() and shard_bits() are answered from the connect-time handshake, so
// batch layout helpers (train/batch_io.h's OrderKeysByShard) keep working
// against a remote store.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "backend/kv_backend.h"
#include "common/status.h"
#include "net/socket.h"
#include "net/wire.h"

namespace mlkv {
namespace net {

struct RemoteBackendOptions {
  std::string addr;      // "host:port" of a KvServer
  size_t pool_size = 8;  // idle connections retained for reuse
  // Batches larger than this are split into sequential sub-RPCs (results
  // stitched back in caller order — chunks execute in input order, so
  // duplicate-key last-write-wins / gradient-accumulation semantics are
  // preserved). 0 derives the largest count whose request AND response
  // stay under the wire's frame cap for the negotiated dim; tests set it
  // small to exercise the stitching.
  size_t max_keys_per_rpc = 0;
};

class RemoteBackend : public KvBackend {
 public:
  // Connects, handshakes (negotiating dim / shard_bits / backend name),
  // and returns the backend ready for batched calls.
  static Status Connect(const RemoteBackendOptions& options,
                        std::unique_ptr<KvBackend>* out);
  // Typed variant for callers that need the extended surface below
  // (ClusterBackend, Replicator, cluster-status tooling).
  static Status Connect(const RemoteBackendOptions& options,
                        std::unique_ptr<RemoteBackend>* out);

  std::string name() const override { return "Remote(" + remote_name_ + ")"; }
  uint32_t dim() const override { return dim_; }
  uint32_t shard_bits() const override { return shard_bits_; }

  BatchResult MultiGet(std::span<const Key> keys, float* out,
                       const MultiGetOptions& options) override;
  BatchResult MultiPut(std::span<const Key> keys,
                       const float* values) override;
  BatchResult MultiApplyGradient(std::span<const Key> keys,
                                 const float* grads, float lr) override;
  Status Lookahead(std::span<const Key> keys) override;

  // Base families plus this client's RPC counters
  // (mlkv_net_rpc_requests_total / mlkv_net_rpc_retries_total).
  void CollectMetrics(obs::MetricsSink* sink) const override;
  // Writes those two families (ClusterBackend sums them over its
  // endpoint clients first).
  static void AddRpcMetrics(uint64_t requests, uint64_t retries,
                            obs::MetricsSink* sink);
  uint64_t rpc_requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  uint64_t rpc_retries() const {
    return retries_.load(std::memory_order_relaxed);
  }

  // Liveness probe, and the server's metrics registry as Prometheus text
  // (kStats; the same exposition its /metrics endpoint serves — read
  // series out of it with obs::FindSample). Not part of the KvBackend
  // contract.
  Status Ping();
  Status FetchStats(std::string* exposition);

  // --- extended surface for cluster mode ---

  // Like the KvBackend virtuals, but report whether a failure was the
  // transport itself (connect/send/recv — the server may be down) rather
  // than per-key outcomes the server computed. ClusterBackend uses the
  // distinction to fail a read sub-batch over to a replica. `transport_down`
  // may be null; it is set true only on transport failure.
  BatchResult MultiGetEx(std::span<const Key> keys, float* out,
                         const MultiGetOptions& options, bool* transport_down);
  BatchResult MultiPutEx(std::span<const Key> keys, const float* values,
                         bool* transport_down);
  BatchResult MultiApplyGradientEx(std::span<const Key> keys,
                                   const float* grads, float lr,
                                   bool* transport_down);

  // One raw request/response exchange over a pooled socket (kClusterMap,
  // kSubscribe, kReplicate, tooling). On OK, `transport` holds the
  // response's transport status and the op body is body[*body_off..].
  Status CallRaw(Opcode op, const PayloadWriter& request, Status* transport,
                 std::vector<uint8_t>* body, size_t* body_off);

  const std::string& addr() const { return options_.addr; }
  // Connect-time handshake (cluster epoch / role included).
  const HandshakeInfo& handshake_info() const { return handshake_; }

 private:
  explicit RemoteBackend(RemoteBackendOptions options)
      : options_(std::move(options)) {}

  // Single-RPC implementations; the public virtuals chunk oversized
  // batches across them.
  BatchResult MultiGetChunk(std::span<const Key> keys, float* out,
                            const MultiGetOptions& options,
                            bool* transport_down);
  BatchResult MultiWriteChunk(Opcode op, std::span<const Key> keys,
                              const float* rows, float lr,
                              bool* transport_down);

  // Checkout/checkin around one RPC; a fresh socket handshakes and must
  // agree with the connect-time dim (a pool pointed at a different server
  // generation would silently corrupt rows otherwise). `pooled` reports
  // whether the socket came from the idle pool (retry eligibility).
  Status CheckOut(Socket* out, bool* pooled);
  void CheckIn(Socket s);
  // Fresh connect + handshake + dim check (no pool involvement).
  Status ConnectFresh(Socket* out);
  // One request/response exchange. On OK, `transport` is the response's
  // transport status and the op body is body[*body_off..] — an offset,
  // not an erase, so a near-cap response is never memmoved. Retries once
  // on a fresh socket when a pooled socket turns out to be stale (safe for
  // `aux` too: the caller's span outlives the whole call). `aux` rides the
  // frame after the request bytes as a gathered second piece — the write
  // path sends raw caller row bytes through it with no encode copy.
  Status Rpc(Opcode op, const PayloadWriter& request, Status* transport,
             std::vector<uint8_t>* body, size_t* body_off,
             std::span<const uint8_t> aux = {});
  // The exchange itself on an already-checked-out socket; does not pool.
  Status Exchange(Socket* s, Opcode op, const PayloadWriter& request,
                  Status* transport, std::vector<uint8_t>* body,
                  size_t* body_off, std::span<const uint8_t> aux = {});
  // Folds a transport-level failure into a per-key result: every key gets
  // the failure code, so callers see the standard BatchResult contract.
  BatchResult FailAll(size_t n, const Status& s);

  const RemoteBackendOptions options_;
  std::string host_;
  uint16_t port_ = 0;
  uint32_t dim_ = 0;
  uint32_t shard_bits_ = 0;
  size_t max_keys_per_rpc_ = 0;  // resolved at Connect (needs dim)
  std::string remote_name_;
  HandshakeInfo handshake_;

  std::mutex pool_mu_;
  std::vector<Socket> pool_;
  std::atomic<uint64_t> next_request_id_{1};
  std::atomic<uint64_t> requests_{0};  // RPC exchanges attempted
  std::atomic<uint64_t> retries_{0};   // stale-pool fresh-socket retries
};

}  // namespace net
}  // namespace mlkv
