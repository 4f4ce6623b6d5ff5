#include "net/kv_server.h"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/clock.h"
#include "common/simd.h"

namespace mlkv {
namespace net {

namespace {

// Ownership filtering for cluster mode: which of a request's keys this
// endpoint may serve under the current map. Unowned keys are answered
// per-key with kWrongPartition (the transport status stays OK) so the
// owned portion of a mis-routed batch is still served — a stale client
// refetches the map and retries only the rejected keys.
struct OwnedSubset {
  bool enforce = false;   // a map is set and this server knows its index
  bool all_owned = true;  // fast path: nothing to filter
  std::vector<Key> keys;      // owned keys, batch order
  std::vector<uint32_t> pos;  // original position of keys[i]
  Status reject;              // per-key status for the unowned rest
};

OwnedSubset FilterOwned(const cluster::ClusterMap* map, uint32_t self,
                        std::span<const Key> keys, bool for_write) {
  OwnedSubset f;
  if (map == nullptr || self >= map->endpoints.size()) return f;
  f.enforce = true;
  for (const Key k : keys) {
    const bool owned =
        for_write ? map->OwnsForWrite(self, k) : map->OwnsForRead(self, k);
    if (!owned) {
      f.all_owned = false;
      break;
    }
  }
  if (f.all_owned) return f;
  f.reject = Status::WrongPartition("not owner; cluster epoch " +
                                    std::to_string(map->epoch));
  f.keys.reserve(keys.size());
  f.pos.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const bool owned = for_write ? map->OwnsForWrite(self, keys[i])
                                 : map->OwnsForRead(self, keys[i]);
    if (owned) {
      f.keys.push_back(keys[i]);
      f.pos.push_back(static_cast<uint32_t>(i));
    }
  }
  return f;
}

// Expands the owned sub-batch's result back over the full key span:
// unowned positions carry the reject code (counted failed), owned ones
// their served outcome — counts stay consistent with the codes.
BatchResult ExpandResult(const OwnedSubset& f, size_t n,
                         const BatchResult& sub) {
  BatchResult full;
  full.codes.assign(n, f.reject.code());
  full.found = sub.found;
  full.missing = sub.missing;
  full.busy = sub.busy;
  full.failed = sub.failed + (n - f.pos.size());
  full.first_error = sub.failed > 0 ? sub.first_error : f.reject;
  for (size_t i = 0; i < f.pos.size(); ++i) {
    full.codes[f.pos[i]] = sub.codes[i];
  }
  return full;
}

}  // namespace

KvServer::KvServer(std::unique_ptr<KvBackend> backend,
                   KvServerOptions options)
    : backend_(std::move(backend)),
      options_(std::move(options)),
      cluster_(options_.cluster),
      self_endpoint_(options_.self_endpoint),
      slot_fds_(options_.num_workers == 0 ? 1 : options_.num_workers, -1) {
  if (options_.request_threads > 0) {
    request_pool_ = std::make_unique<ThreadPool>(options_.request_threads);
  }
  InitMetrics();
}

void KvServer::InitMetrics() {
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  obs::MetricFamily* ops = metrics_->CounterFamily(
      "mlkv_server_requests_total", "Requests handled per opcode", {"op"});
  for (uint8_t raw = 0; raw < kOpcodeSlots; ++raw) {
    if (!ValidOpcode(raw)) continue;
    op_cells_[raw] = ops->GetCounter({OpcodeName(static_cast<Opcode>(raw))});
  }
  connections_cell_ =
      metrics_
          ->CounterFamily("mlkv_server_connections_total",
                          "Client connections accepted")
          ->GetCounter();
  requests_cell_ = metrics_
                       ->CounterFamily("mlkv_server_handled_requests_total",
                                       "Requests handled across all opcodes")
                       ->GetCounter();
  transport_errors_cell_ =
      metrics_
          ->CounterFamily("mlkv_server_transport_errors_total",
                          "Torn frames, version mismatches, decode failures")
          ->GetCounter();
  wrong_partition_cell_ =
      metrics_
          ->CounterFamily(
              "mlkv_server_wrong_partition_keys_total",
              "Keys rejected per-key because this endpoint does not own them")
          ->GetCounter();
  latency_cell_ =
      metrics_
          ->HistogramFamily("mlkv_server_request_latency_seconds",
                            "Request handling time, decode to response sent")
          ->GetHistogram();
  stage_family_ = metrics_->HistogramFamily(
      "mlkv_request_stage_seconds",
      "Time spent per traced request stage", {"stage"});
  // Pre-resolve the stages the server itself emits so FinishTrace's
  // per-span lookup is a strcmp scan, not a family map probe.
  for (const char* stage : {"queue_wait", "decode", "execute", "scatter",
                            "shard_execute", "io_wave", "send", "rpc"}) {
    stage_cells_[num_stage_cells_++] = {stage,
                                        stage_family_->GetHistogram({stage})};
  }
  collector_id_ = metrics_->AddCollector(
      [this](obs::MetricsSink* sink) { CollectServerMetrics(sink); });
}

void KvServer::CollectServerMetrics(obs::MetricsSink* sink) const {
  sink->AddGauge("mlkv_server_inflight_requests",
                 "Storage requests currently offloaded to the request pool",
                 static_cast<double>(
                     inflight_requests_.load(std::memory_order_relaxed)));
  sink->AddGauge("mlkv_simd_kernel_tier",
                 "Active SIMD dispatch tier (simd::KernelTier)",
                 static_cast<double>(
                     static_cast<uint8_t>(simd::ActiveKernelTier())));
  const ClusterView cv = cluster_view();
  if (cv.map != nullptr) {
    sink->AddGauge("mlkv_cluster_epoch", "Enforced cluster map epoch",
                   static_cast<double>(cv.map->epoch));
    sink->AddGauge("mlkv_cluster_role",
                   "This endpoint's role (0 standalone, 1 primary, 2 replica)",
                   static_cast<double>(RoleUnder(*cv.map, cv.self)));
  }
  backend_->CollectMetrics(sink);
}

void KvServer::UpdateClusterMap(
    std::shared_ptr<const cluster::ClusterMap> map, uint32_t self_endpoint) {
  std::lock_guard<std::mutex> lk(cluster_mu_);
  cluster_ = std::move(map);
  self_endpoint_ = self_endpoint;
}

std::shared_ptr<const cluster::ClusterMap> KvServer::cluster_map() const {
  std::lock_guard<std::mutex> lk(cluster_mu_);
  return cluster_;
}

KvServer::ClusterView KvServer::cluster_view() const {
  std::lock_guard<std::mutex> lk(cluster_mu_);
  return {cluster_, self_endpoint_};
}

uint8_t KvServer::RoleUnder(const cluster::ClusterMap& map, uint32_t self) {
  uint8_t role = 0;
  for (const cluster::ClusterPartition& p : map.partitions) {
    if (p.primary == self) return 1;
    for (const uint32_t r : p.replicas) {
      if (r == self) role = 2;
    }
  }
  return role;
}

KvServer::~KvServer() {
  Stop();
  // The collector captures `this`; unhook before members die (matters when
  // the registry is externally owned and outlives this server).
  metrics_->RemoveCollector(collector_id_);
}

std::string KvServer::addr() const {
  return options_.host + ":" + std::to_string(port());
}

Status KvServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already running");
  }
  MLKV_RETURN_NOT_OK(
      listener_.Listen(options_.host, options_.port, options_.backlog));
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(slot_fds_.size());
  for (size_t slot = 0; slot < slot_fds_.size(); ++slot) {
    workers_.emplace_back([this, slot] { WorkerLoop(slot); });
  }
  return Status::OK();
}

void KvServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  {
    // The store must be ordered with the workers' predicate evaluation
    // (which runs under mu_), or a worker that just found the predicate
    // false could block after our notify and sleep forever.
    std::lock_guard<std::mutex> lk(mu_);
    stopping_.store(true, std::memory_order_release);
  }
  listener_.Wake();
  // Half-close reads on active connections: each worker finishes and
  // answers its in-flight request, then sees EOF and releases the slot.
  // Raw shutdown, not Socket, so ownership (and the close) stays with the
  // serving worker.
  {
    std::lock_guard<std::mutex> lk(slots_mu_);
    for (const int active : slot_fds_) {
      if (active >= 0) ::shutdown(active, SHUT_RD);
    }
  }
  pending_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  // Offloaded storage requests drain AFTER the workers are joined: a
  // worker mid-frame could still start an offload after an earlier drain
  // observed zero, but once no worker remains, inflight_requests_ can only
  // fall. Each task finishes, answers (sends bounded by send_timeout_ms),
  // and closes or requeues its connection — so nothing repopulates
  // pending_ after the final sweep below, and no task outlives Stop().
  while (inflight_requests_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    pending_.clear();  // queued-but-never-served connections just close
  }
  listener_.Close();
}

void KvServer::AcceptLoop() {
  for (;;) {
    Socket conn;
    const Status s = listener_.Accept(&conn);
    if (s.IsAborted()) return;  // woken by Stop()
    if (!s.ok()) {
      if (stopping_.load(std::memory_order_acquire)) return;
      // Transient accept failure; keep serving. The sleep matters under
      // fd exhaustion (EMFILE): poll reports the queued connection as
      // readable immediately, so retrying without it busy-spins a core
      // until an fd frees.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    connections_cell_->Add();
    if (options_.send_timeout_ms > 0) {
      (void)conn.SetSendTimeoutMs(options_.send_timeout_ms);
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      pending_.push_back(std::move(conn));
    }
    pending_cv_.notify_one();
  }
}

void KvServer::WorkerLoop(size_t slot) {
  for (;;) {
    Socket conn;
    {
      std::unique_lock<std::mutex> lk(mu_);
      pending_cv_.wait(lk, [this] {
        return stopping_.load(std::memory_order_acquire) || !pending_.empty();
      });
      if (pending_.empty()) return;  // stopping with nothing queued
      conn = std::move(pending_.front());
      pending_.pop_front();
    }
    ServeConnection(std::move(conn), slot);
  }
}

// How long a connection may sit quiet before its worker considers handing
// the slot to a waiting connection. Bounds the extra latency a request
// sees under slot contention; irrelevant when connections <= workers.
constexpr int kIdlePollMs = 10;

void KvServer::ServeConnection(Socket conn, size_t slot) {
  {
    std::lock_guard<std::mutex> lk(slots_mu_);
    slot_fds_[slot] = conn.fd();
  }
  // Publish-then-check: Stop() may have swept slot_fds_ between the queue
  // pop and the registration above — shut down ourselves so the drain
  // still sees EOF after the current (none yet) request.
  if (stopping_.load(std::memory_order_acquire)) conn.ShutdownRead();
  FrameHeader hdr;
  std::vector<uint8_t> payload;
  for (;;) {
    // Between frames the connection holds no in-flight state, so a quiet
    // one can be requeued to let a waiting connection have the slot —
    // otherwise idle pooled client sockets would pin every worker and
    // excess connections would hang instead of round-robining.
    const Status ready = conn.WaitReadable(kIdlePollMs);
    if (ready.IsTimedOut()) {
      if (!stopping_.load(std::memory_order_acquire)) {
        std::unique_lock<std::mutex> lk(mu_);
        if (!pending_.empty()) {
          {
            std::lock_guard<std::mutex> slk(slots_mu_);
            slot_fds_[slot] = -1;
          }
          pending_.push_back(std::move(conn));
          lk.unlock();
          pending_cv_.notify_one();
          return;
        }
      }
      continue;  // keep waiting (on Stop, the SHUT_RD sweep wakes us)
    }
    if (!ready.ok()) break;
    const Status s = RecvFrame(&conn, &hdr, &payload);
    if (s.IsAborted()) break;  // clean close between frames
    if (s.IsNotSupported()) {
      // Version mismatch: the frame was well-formed, so answer with the
      // reason before hanging up — the client gets a decodable error
      // instead of a mystery disconnect.
      PayloadWriter empty;
      (void)SendResponse(&conn, hdr, s, empty);
      transport_errors_cell_->Add();
      break;
    }
    if (!s.ok()) {  // torn/corrupt frame: the stream cannot be trusted
      transport_errors_cell_->Add();
      break;
    }
    const uint8_t raw_op = static_cast<uint8_t>(hdr.opcode);
    const bool storage_op = raw_op == static_cast<uint8_t>(Opcode::kMultiGet) ||
                            raw_op ==
                                static_cast<uint8_t>(Opcode::kMultiPut) ||
                            raw_op == static_cast<uint8_t>(
                                          Opcode::kMultiApplyGradient);
    if (request_pool_ != nullptr && storage_op) {
      // Offload the storage phase: the executor owns the connection until
      // the response is on the wire, then requeues it; this worker turns
      // around and serves other connections meanwhile.
      {
        std::lock_guard<std::mutex> lk(slots_mu_);
        slot_fds_[slot] = -1;
      }
      inflight_requests_.fetch_add(1, std::memory_order_acq_rel);
      auto req = std::make_shared<OffloadedRequest>();
      req->conn = std::move(conn);
      req->hdr = hdr;
      req->payload = std::move(payload);
      req->enqueued_us = NowMicros();
      if (request_pool_->TrySubmit([this, req] { RunOffloaded(req); })) {
        return;
      }
      // Executor queue full (or shutting down): degrade to inline.
      inflight_requests_.fetch_sub(1, std::memory_order_acq_rel);
      conn = std::move(req->conn);
      payload = std::move(req->payload);
      {
        std::lock_guard<std::mutex> lk(slots_mu_);
        slot_fds_[slot] = conn.fd();
      }
      if (stopping_.load(std::memory_order_acquire)) conn.ShutdownRead();
    }
    if (!HandleRequest(&conn, hdr, payload)) break;
  }
  // Deregister and close atomically w.r.t. Stop()'s shutdown sweep, so a
  // swept fd is always still ours.
  std::lock_guard<std::mutex> lk(slots_mu_);
  slot_fds_[slot] = -1;
  conn.Close();
}

void KvServer::RunOffloaded(const std::shared_ptr<OffloadedRequest>& req) {
  const bool keep =
      HandleRequest(&req->conn, req->hdr, req->payload, req->enqueued_us);
  if (keep && !stopping_.load(std::memory_order_acquire)) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      pending_.push_back(std::move(req->conn));
    }
    pending_cv_.notify_one();
  } else {
    req->conn.Close();
  }
  inflight_requests_.fetch_sub(1, std::memory_order_acq_rel);
}

Status KvServer::SendResponse(Socket* conn, const FrameHeader& req,
                              const Status& transport,
                              const PayloadWriter& body) {
  return SendResponse(conn, req, transport, body, {});
}

Status KvServer::SendResponse(Socket* conn, const FrameHeader& req,
                              const Status& transport,
                              const PayloadWriter& body,
                              std::span<const std::span<const uint8_t>> rows) {
  PayloadWriter prefix;
  prefix.StatusOf(transport);
  // Gathered as separate payload pieces — the (possibly large) body is
  // never copied into a status-prefixed buffer, and a MultiGet's served
  // rows go straight from the backend's buffer to the wire.
  const std::span<const uint8_t> b =
      transport.ok() ? std::span<const uint8_t>(body.bytes())
                     : std::span<const uint8_t>();
  if (!transport.ok() || rows.empty()) {
    return SendFrame(conn, req.opcode, kFlagResponse, req.request_id,
                     prefix.bytes(), b);
  }
  return SendFrame(conn, req.opcode, kFlagResponse, req.request_id,
                   prefix.bytes(), b, rows);
}

bool KvServer::HandleRequest(Socket* conn, const FrameHeader& hdr,
                             std::span<const uint8_t> payload,
                             uint64_t enqueued_us) {
  const uint8_t raw_op = static_cast<uint8_t>(hdr.opcode);
  if (!ValidOpcode(raw_op)) {
    transport_errors_cell_->Add();
    PayloadWriter empty;
    const Status s = Status::NotSupported(
        "unknown opcode " + std::to_string(raw_op));
    // Frame boundaries are intact, so the connection stays usable.
    return SendResponse(conn, hdr, s, empty).ok();
  }
  op_cells_[raw_op]->Add();
  requests_cell_->Add();
  const uint64_t start_us = NowMicros();

  // Trace root for this request; the thread-local context carries it into
  // the backend (scatter workers and cluster fan-outs re-install it on
  // their threads). The client's request id is the trace id, so an
  // upstream server's slow log stitches to ours by id.
  std::unique_ptr<obs::RequestTrace> trace;
  if (options_.enable_tracing && obs::MetricsEnabled()) {
    trace = std::make_unique<obs::RequestTrace>(OpcodeName(hdr.opcode),
                                                hdr.request_id);
    if (enqueued_us != 0 && start_us > enqueued_us) {
      trace->AddSpan("queue_wait", "", obs::RequestTrace::kNoParent,
                     enqueued_us, start_us - enqueued_us);
    }
  }
  obs::ScopedTraceContext trace_ctx(
      obs::TraceContext{trace.get(), obs::RequestTrace::kNoParent});

  Status transport = Status::OK();
  PayloadWriter body;
  // MultiGet's served rows ride the response as iovec runs over this
  // buffer instead of being copy-encoded into `body` — both live until the
  // gathered send at the bottom completes (zero-copy on little-endian
  // hosts; see wire.h kRawFloatRowsMatchWire).
  std::vector<float> row_storage;
  std::vector<std::span<const uint8_t>> row_runs;
  switch (hdr.opcode) {
    case Opcode::kHandshake: {
      HandshakeInfo info;
      info.dim = backend_->dim();
      info.shard_bits = backend_->shard_bits();
      info.backend_name = backend_->name();
      const ClusterView cv = cluster_view();
      if (cv.map != nullptr) {
        info.cluster_epoch = cv.map->epoch;
        info.cluster_role = RoleUnder(*cv.map, cv.self);
      }
      EncodeHandshakeInfo(info, &body);
      break;
    }
    case Opcode::kMultiGet: {
      MultiGetRequest req;
      {
        obs::ScopedSpan decode_span("decode");
        transport = DecodeMultiGetRequest(payload, &req);
      }
      if (transport.ok()) {
        const uint32_t dim = backend_->dim();
        // The request bounds the key count, but the response is
        // dim-amplified — preflight it against the frame cap before any
        // allocation or backend work (only well-behaved RemoteBackend
        // clients chunk; the server must not trust that).
        const size_t resp_bytes =
            req.keys.size() * (size_t{dim} * 4 + 1) + 64;
        if (resp_bytes > kMaxPayloadBytes) {
          transport = Status::InvalidArgument(
              "MultiGet of " + std::to_string(req.keys.size()) +
              " keys exceeds the response frame limit; chunk the batch");
          break;
        }
        MultiGetOptions opts;
        opts.init_missing = req.init_missing;
        opts.untracked = req.untracked;
        const ClusterView cv = cluster_view();
        const OwnedSubset f =
            FilterOwned(cv.map.get(), cv.self, req.keys, /*for_write=*/false);
        if (!f.enforce || f.all_owned) {
          row_storage.resize(req.keys.size() * size_t{dim});
          BatchResult r;
          {
            obs::ScopedSpan execute_span("execute");
            r = backend_->MultiGet(req.keys, row_storage.data(), opts);
          }
          EncodeBatchResult(r, &body);
          if (kRawFloatRowsMatchWire) {
            CollectServedRowRuns(r.codes, row_storage.data(), dim, &row_runs);
          } else {
            EncodeServedRows(r.codes, row_storage.data(), dim, &body);
          }
        } else {
          // Serve only the owned sub-batch and gather its rows directly:
          // owned positions are increasing and unowned keys are never kOk,
          // so the sub-batch's served rows already sit in full-batch key
          // order — no full-size buffer, no re-expansion copy.
          wrong_partition_cell_->Add(req.keys.size() - f.keys.size());
          row_storage.resize(f.keys.size() * size_t{dim});
          BatchResult sub;
          {
            obs::ScopedSpan execute_span("execute");
            sub = backend_->MultiGet(f.keys, row_storage.data(), opts);
          }
          EncodeBatchResult(ExpandResult(f, req.keys.size(), sub), &body);
          if (kRawFloatRowsMatchWire) {
            CollectServedRowRuns(sub.codes, row_storage.data(), dim,
                                 &row_runs);
          } else {
            EncodeServedRows(sub.codes, row_storage.data(), dim, &body);
          }
        }
      }
      break;
    }
    case Opcode::kMultiPut:
    case Opcode::kMultiApplyGradient: {
      const bool is_put = hdr.opcode == Opcode::kMultiPut;
      MultiWriteRequest req;
      {
        obs::ScopedSpan decode_span("decode");
        transport = DecodeMultiWriteRequest(payload, backend_->dim(), &req);
      }
      if (transport.ok()) {
        const ClusterView cv = cluster_view();
        const OwnedSubset f =
            FilterOwned(cv.map.get(), cv.self, req.keys, /*for_write=*/true);
        if (!f.enforce || f.all_owned) {
          obs::ScopedSpan execute_span("execute");
          EncodeBatchResult(
              is_put ? backend_->MultiPut(req.keys, req.rows.data())
                     : backend_->MultiApplyGradient(req.keys,
                                                    req.rows.data(), req.lr),
              &body);
        } else {
          wrong_partition_cell_->Add(req.keys.size() - f.keys.size());
          const uint32_t dim = backend_->dim();
          std::vector<float> sub_rows(f.keys.size() * size_t{dim});
          for (size_t i = 0; i < f.pos.size(); ++i) {
            simd::CopyFloats(sub_rows.data() + i * size_t{dim},
                             req.rows.data() + f.pos[i] * size_t{dim}, dim);
          }
          BatchResult sub;
          {
            obs::ScopedSpan execute_span("execute");
            sub = is_put ? backend_->MultiPut(f.keys, sub_rows.data())
                         : backend_->MultiApplyGradient(
                               f.keys, sub_rows.data(), req.lr);
          }
          EncodeBatchResult(ExpandResult(f, req.keys.size(), sub), &body);
        }
      }
      break;
    }
    case Opcode::kLookahead: {
      std::vector<Key> keys;
      transport = DecodeLookaheadRequest(payload, &keys);
      if (transport.ok()) transport = backend_->Lookahead(keys);
      break;
    }
    case Opcode::kStats: {
      // The registry's exposition, raw to the end of the frame.
      const std::string text = metrics_->ExpositionText();
      body.Bytes(reinterpret_cast<const uint8_t*>(text.data()), text.size());
      break;
    }
    case Opcode::kPing: {
      break;  // empty body: liveness plus round-trip timing
    }
    case Opcode::kClusterMap: {
      const auto map = cluster_map();
      if (map == nullptr) {
        transport = Status::NotSupported("server is not in cluster mode");
      } else {
        cluster::EncodeClusterMap(*map, &body);
      }
      break;
    }
    case Opcode::kSubscribe: {
      const uint32_t shards = backend_->replication_shards();
      if (shards == 0) {
        transport =
            Status::NotSupported(backend_->name() + " has no replication feed");
        break;
      }
      SubscribeResponse resp;
      resp.shard_durables.resize(shards, 0);
      for (uint32_t sh = 0; sh < shards && transport.ok(); ++sh) {
        std::vector<UpdateEntry> none;
        uint64_t next = 0;
        transport = backend_->ReadCommittedUpdates(
            sh, 0, /*max_records=*/0, /*max_bytes=*/0, &none, &next,
            &resp.shard_durables[sh]);
      }
      if (transport.ok()) EncodeSubscribeResponse(resp, &body);
      break;
    }
    case Opcode::kReplicate: {
      ReplicateRequest req;
      transport = DecodeReplicateRequest(payload, &req);
      const uint32_t shards = backend_->replication_shards();
      if (transport.ok() && req.shard >= shards) {
        transport = shards == 0
                        ? Status::NotSupported(backend_->name() +
                                               " has no replication feed")
                        : Status::InvalidArgument("replicate: shard " +
                                                  std::to_string(req.shard) +
                                                  " out of range");
      }
      if (transport.ok()) {
        // Clamp both caps so the response stays under the frame limit no
        // matter what the replica asked for (values ride uncompressed).
        ReplicateResponse resp;
        transport = backend_->ReadCommittedUpdates(
            req.shard, req.from,
            std::min<uint32_t>(req.max_records, 1u << 16),
            std::min<uint32_t>(req.max_bytes, kMaxPayloadBytes / 2),
            &resp.entries, &resp.next_from, &resp.durable);
        if (transport.ok()) EncodeReplicateResponse(resp, &body);
      }
      break;
    }
  }
  if (!transport.ok()) {
    transport_errors_cell_->Add();
  }
  latency_cell_->Observe(NowMicros() - start_us);
  Status sent;
  {
    obs::ScopedSpan send_span("send");
    sent = SendResponse(conn, hdr, transport, body, row_runs);
  }
  if (trace != nullptr) FinishTrace(trace.get());
  if (!sent.ok()) return false;
  // A request the server could not even decode leaves the stream suspect
  // only when framing was at fault; decode errors above are payload-level
  // with intact framing, so the connection survives them.
  return true;
}

void KvServer::FinishTrace(obs::RequestTrace* trace) {
  trace->Finish();
  trace->ForEachSpan([this](const obs::TraceSpan& span) {
    // Server-emitted stages were pre-resolved at InitMetrics; the strcmp
    // scan over ~8 entries beats a family mutex + map probe per span.
    // Stages from elsewhere (a backend with its own names) fall back to
    // the lazy family lookup.
    obs::HistogramCell* cell = nullptr;
    for (size_t i = 0; i < num_stage_cells_; ++i) {
      if (stage_cells_[i].first == span.stage ||
          std::strcmp(stage_cells_[i].first, span.stage) == 0) {
        cell = stage_cells_[i].second;
        break;
      }
    }
    if (cell == nullptr) cell = stage_family_->GetHistogram({span.stage});
    if (cell != nullptr) cell->Observe(span.dur_us);
  });
  uint64_t threshold = options_.slow_request_us;
  if (threshold == 0) {
    // Auto threshold: trailing p99 x 4 with a 1ms floor, armed only after
    // enough requests that the percentile means something. The p99 walk
    // over the histogram's buckets is too heavy per request, so the value
    // is cached and refreshed every 256 requests.
    const Histogram& h = latency_cell_->histogram();
    const uint64_t n = h.count();
    if (n < 64) return;
    threshold = auto_threshold_.load(std::memory_order_relaxed);
    const uint64_t last = auto_threshold_refresh_.load(std::memory_order_relaxed);
    if (threshold == 0 || n - last >= 256) {
      threshold = std::max<uint64_t>(1000, h.Percentile(0.99) * 4);
      auto_threshold_.store(threshold, std::memory_order_relaxed);
      auto_threshold_refresh_.store(n, std::memory_order_relaxed);
    }
  }
  if (trace->total_us() < threshold) return;
  char head[160];
  std::snprintf(head, sizeof(head),
                "slow request op=%s id=%llu total=%lluus threshold=%lluus\n",
                trace->op(),
                static_cast<unsigned long long>(trace->request_id()),
                static_cast<unsigned long long>(trace->total_us()),
                static_cast<unsigned long long>(threshold));
  std::string report = head;
  report += trace->Render();
  if (options_.slow_request_log) {
    options_.slow_request_log(report);
  } else {
    std::fwrite(report.data(), 1, report.size(), stderr);
  }
}

}  // namespace net
}  // namespace mlkv
