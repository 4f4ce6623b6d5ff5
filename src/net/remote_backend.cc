#include "net/remote_backend.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mlkv {
namespace net {

namespace {

// Performs the handshake on a fresh socket and returns the server's
// negotiated parameters.
Status Handshake(Socket* s, uint64_t request_id, HandshakeInfo* out) {
  MLKV_RETURN_NOT_OK(SendFrame(s, Opcode::kHandshake, 0, request_id, {}));
  FrameHeader hdr;
  std::vector<uint8_t> payload;
  MLKV_RETURN_NOT_OK(RecvFrame(s, &hdr, &payload));
  if (hdr.request_id != request_id || hdr.opcode != Opcode::kHandshake ||
      (hdr.flags & kFlagResponse) == 0) {
    return Status::Corruption("handshake: mismatched response frame");
  }
  PayloadReader r(payload.data(), payload.size());
  Status transport;
  if (!r.ReadStatus(&transport)) {
    return Status::Corruption("handshake: truncated response");
  }
  MLKV_RETURN_NOT_OK(transport);
  return DecodeHandshakeInfo(&r, out);
}

}  // namespace

Status RemoteBackend::Connect(const RemoteBackendOptions& options,
                              std::unique_ptr<KvBackend>* out) {
  std::unique_ptr<RemoteBackend> typed;
  MLKV_RETURN_NOT_OK(Connect(options, &typed));
  *out = std::move(typed);
  return Status::OK();
}

Status RemoteBackend::Connect(const RemoteBackendOptions& options,
                              std::unique_ptr<RemoteBackend>* out) {
  if (options.addr.empty()) {
    return Status::InvalidArgument(
        "remote backend needs an address (BackendConfig::remote_addr)");
  }
  auto b = std::unique_ptr<RemoteBackend>(new RemoteBackend(options));
  MLKV_RETURN_NOT_OK(ParseHostPort(options.addr, &b->host_, &b->port_));
  Socket s;
  MLKV_RETURN_NOT_OK(Socket::Connect(b->host_, b->port_, &s));
  HandshakeInfo info;
  MLKV_RETURN_NOT_OK(Handshake(
      &s, b->next_request_id_.fetch_add(1, std::memory_order_relaxed),
      &info));
  if (info.dim == 0) {
    return Status::InvalidArgument("remote backend reports dim 0");
  }
  b->dim_ = info.dim;
  b->shard_bits_ = info.shard_bits;
  b->remote_name_ = info.backend_name;
  b->handshake_ = info;
  b->max_keys_per_rpc_ = options.max_keys_per_rpc;
  if (b->max_keys_per_rpc_ == 0) {
    // Conservative per-key wire cost covering both directions: key (8B,
    // request) + row (dim floats, either direction) + code byte and
    // counts slack. Keeps every sub-RPC's request and response under the
    // frame cap regardless of op.
    const size_t per_key = sizeof(Key) + size_t{info.dim} * 4 + 16;
    b->max_keys_per_rpc_ =
        std::max<size_t>(1, (kMaxPayloadBytes - 4096) / per_key);
  }
  b->CheckIn(std::move(s));
  *out = std::move(b);
  return Status::OK();
}

Status RemoteBackend::CheckOut(Socket* out, bool* pooled) {
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    if (!pool_.empty()) {
      *out = std::move(pool_.back());
      pool_.pop_back();
      *pooled = true;
      return Status::OK();
    }
  }
  *pooled = false;
  return ConnectFresh(out);
}

Status RemoteBackend::ConnectFresh(Socket* out) {
  Socket s;
  MLKV_RETURN_NOT_OK(Socket::Connect(host_, port_, &s));
  HandshakeInfo info;
  MLKV_RETURN_NOT_OK(Handshake(
      &s, next_request_id_.fetch_add(1, std::memory_order_relaxed), &info));
  if (info.dim != dim_) {
    return Status::Corruption("remote backend dim changed: " +
                              std::to_string(info.dim) + " vs " +
                              std::to_string(dim_));
  }
  *out = std::move(s);
  return Status::OK();
}

void RemoteBackend::CheckIn(Socket s) {
  std::lock_guard<std::mutex> lk(pool_mu_);
  if (pool_.size() < options_.pool_size) pool_.push_back(std::move(s));
  // else: drop — the socket closes, bounding idle fds.
}

Status RemoteBackend::Exchange(Socket* s, Opcode op,
                               const PayloadWriter& request,
                               Status* transport, std::vector<uint8_t>* body,
                               size_t* body_off, std::span<const uint8_t> aux) {
  // Inside a traced request, the sub-RPC reuses the outer request id so a
  // cluster hop's server-side trace can be stitched to this client span by
  // id. Safe: the protocol is strictly request/response per socket, so the
  // id only has to match within one exchange.
  const obs::RequestTrace* trace = obs::CurrentTrace();
  const uint64_t id =
      trace != nullptr
          ? trace->request_id()
          : next_request_id_.fetch_add(1, std::memory_order_relaxed);
  MLKV_RETURN_NOT_OK(aux.empty()
                         ? SendFrame(s, op, 0, id, request.bytes())
                         : SendFrame(s, op, 0, id, request.bytes(), aux));
  FrameHeader hdr;
  MLKV_RETURN_NOT_OK(RecvFrame(s, &hdr, body));
  if (hdr.request_id != id || hdr.opcode != op ||
      (hdr.flags & kFlagResponse) == 0) {
    return Status::Corruption("rpc: response does not match request");
  }
  PayloadReader r(body->data(), body->size());
  if (!r.ReadStatus(transport)) {
    return Status::Corruption("rpc: truncated response status");
  }
  *body_off = body->size() - r.remaining();
  return Status::OK();
}

Status RemoteBackend::Rpc(Opcode op, const PayloadWriter& request,
                          Status* transport, std::vector<uint8_t>* body,
                          size_t* body_off, std::span<const uint8_t> aux) {
  obs::ScopedSpan rpc_span("rpc", options_.addr);
  Socket s;
  bool pooled = false;
  MLKV_RETURN_NOT_OK(CheckOut(&s, &pooled));
  requests_.fetch_add(1, std::memory_order_relaxed);
  // Any failure in the exchange discards the socket (it falls out of
  // scope un-pooled): a torn stream must never serve the next batch.
  Status st = Exchange(&s, op, request, transport, body, body_off, aux);
  if (st.ok()) {
    CheckIn(std::move(s));
    return st;
  }
  // Stale-pool retry (see header comment): a pooled socket whose server
  // went away fails at send, or at recv with a clean close (Aborted) or a
  // reset (IOError). The server answers every request it reads before
  // closing, so this request was never executed — retry exactly once on a
  // fresh socket, and drop the rest of the pool (same dead peer).
  if (!pooled || !(st.IsAborted() || st.IsIOError())) return st;
  s.Close();
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    pool_.clear();
  }
  Socket fresh;
  MLKV_RETURN_NOT_OK(ConnectFresh(&fresh));
  retries_.fetch_add(1, std::memory_order_relaxed);
  body->clear();
  st = Exchange(&fresh, op, request, transport, body, body_off, aux);
  if (st.ok()) CheckIn(std::move(fresh));
  return st;
}

Status RemoteBackend::CallRaw(Opcode op, const PayloadWriter& request,
                              Status* transport, std::vector<uint8_t>* body,
                              size_t* body_off) {
  return Rpc(op, request, transport, body, body_off);
}

void RemoteBackend::CollectMetrics(obs::MetricsSink* sink) const {
  KvBackend::CollectMetrics(sink);
  AddRpcMetrics(rpc_requests(), rpc_retries(), sink);
}

void RemoteBackend::AddRpcMetrics(uint64_t requests, uint64_t retries,
                                  obs::MetricsSink* sink) {
  sink->AddCounter("mlkv_net_rpc_requests_total",
                   "RPCs issued to remote KvServers", requests);
  sink->AddCounter("mlkv_net_rpc_retries_total",
                   "Fresh-socket retries after a dead pooled connection",
                   retries);
}

BatchResult RemoteBackend::FailAll(size_t n, const Status& s) {
  BatchResult r(n);
  for (size_t i = 0; i < n; ++i) r.Record(i, s);
  return r;
}

BatchResult RemoteBackend::MultiGetChunk(std::span<const Key> keys,
                                         float* out,
                                         const MultiGetOptions& options,
                                         bool* transport_down) {
  PayloadWriter w;
  EncodeMultiGetRequest(keys, options.init_missing, options.untracked, &w);
  Status transport;
  std::vector<uint8_t> body;
  size_t off = 0;
  Status s = Rpc(Opcode::kMultiGet, w, &transport, &body, &off);
  if (!s.ok() && transport_down != nullptr) *transport_down = true;
  if (s.ok() && !transport.ok()) s = transport;
  if (!s.ok()) return FailAll(keys.size(), s);
  BatchResult result;
  PayloadReader r(body.data() + off, body.size() - off);
  s = DecodeMultiGetResponse(&r, keys.size(), dim_, &result, out);
  if (!s.ok()) return FailAll(keys.size(), s);
  return result;
}

BatchResult RemoteBackend::MultiWriteChunk(Opcode op,
                                           std::span<const Key> keys,
                                           const float* rows, float lr,
                                           bool* transport_down) {
  PayloadWriter w;
  std::span<const uint8_t> aux;
  if (kRawFloatRowsMatchWire) {
    // The caller's rows already are their wire bytes: encode only the
    // lr+keys header and gather the row block straight from the caller's
    // buffer into the frame (safe across the stale-pool retry — `keys`
    // and `rows` outlive the whole Rpc call).
    EncodeMultiWriteRequestHeader(keys, lr, &w);
    aux = std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(rows),
                                   keys.size() * size_t{dim_} * 4);
  } else {
    EncodeMultiWriteRequest(keys, rows, dim_, lr, &w);
  }
  Status transport;
  std::vector<uint8_t> body;
  size_t off = 0;
  Status s = Rpc(op, w, &transport, &body, &off, aux);
  if (!s.ok() && transport_down != nullptr) *transport_down = true;
  if (s.ok() && !transport.ok()) s = transport;
  if (!s.ok()) return FailAll(keys.size(), s);
  BatchResult result;
  PayloadReader r(body.data() + off, body.size() - off);
  s = DecodeBatchResult(&r, &result);
  if (s.ok()) s = r.Finish("write response");
  if (!s.ok() || result.codes.size() != keys.size()) {
    return FailAll(keys.size(),
                   s.ok() ? Status::Corruption("rpc: result size mismatch")
                          : s);
  }
  return result;
}

BatchResult RemoteBackend::MultiGet(std::span<const Key> keys, float* out,
                                    const MultiGetOptions& options) {
  return MultiGetEx(keys, out, options, nullptr);
}

BatchResult RemoteBackend::MultiGetEx(std::span<const Key> keys, float* out,
                                      const MultiGetOptions& options,
                                      bool* transport_down) {
  if (keys.size() <= max_keys_per_rpc_) {
    return MultiGetChunk(keys, out, options, transport_down);
  }
  // Sequential sub-RPCs in input order: semantics match one big call
  // (first occurrence of a duplicate still bootstraps, later ones find).
  BatchResult result;
  result.codes.reserve(keys.size());
  for (size_t off = 0; off < keys.size(); off += max_keys_per_rpc_) {
    const size_t n = std::min(max_keys_per_rpc_, keys.size() - off);
    result.Append(MultiGetChunk(keys.subspan(off, n),
                                out + off * size_t{dim_}, options,
                                transport_down));
  }
  return result;
}

BatchResult RemoteBackend::MultiPut(std::span<const Key> keys,
                                    const float* values) {
  return MultiPutEx(keys, values, nullptr);
}

BatchResult RemoteBackend::MultiPutEx(std::span<const Key> keys,
                                      const float* values,
                                      bool* transport_down) {
  if (keys.size() <= max_keys_per_rpc_) {
    return MultiWriteChunk(Opcode::kMultiPut, keys, values, 0.0f,
                           transport_down);
  }
  // In-order chunks keep duplicate-key Puts last-occurrence-wins.
  BatchResult result;
  result.codes.reserve(keys.size());
  for (size_t off = 0; off < keys.size(); off += max_keys_per_rpc_) {
    const size_t n = std::min(max_keys_per_rpc_, keys.size() - off);
    result.Append(MultiWriteChunk(Opcode::kMultiPut, keys.subspan(off, n),
                                  values + off * size_t{dim_}, 0.0f,
                                  transport_down));
  }
  return result;
}

BatchResult RemoteBackend::MultiApplyGradient(std::span<const Key> keys,
                                              const float* grads, float lr) {
  return MultiApplyGradientEx(keys, grads, lr, nullptr);
}

BatchResult RemoteBackend::MultiApplyGradientEx(std::span<const Key> keys,
                                                const float* grads, float lr,
                                                bool* transport_down) {
  if (keys.size() <= max_keys_per_rpc_) {
    return MultiWriteChunk(Opcode::kMultiApplyGradient, keys, grads, lr,
                           transport_down);
  }
  // Sequential applies accumulate — SGD is linear in the gradient.
  BatchResult result;
  result.codes.reserve(keys.size());
  for (size_t off = 0; off < keys.size(); off += max_keys_per_rpc_) {
    const size_t n = std::min(max_keys_per_rpc_, keys.size() - off);
    result.Append(MultiWriteChunk(Opcode::kMultiApplyGradient,
                                  keys.subspan(off, n),
                                  grads + off * size_t{dim_}, lr,
                                  transport_down));
  }
  return result;
}

Status RemoteBackend::Lookahead(std::span<const Key> keys) {
  for (size_t off = 0; off < keys.size(); off += max_keys_per_rpc_) {
    const size_t n = std::min(max_keys_per_rpc_, keys.size() - off);
    PayloadWriter w;
    EncodeLookaheadRequest(keys.subspan(off, n), &w);
    Status transport;
    std::vector<uint8_t> body;
    size_t body_off = 0;
    MLKV_RETURN_NOT_OK(
        Rpc(Opcode::kLookahead, w, &transport, &body, &body_off));
    MLKV_RETURN_NOT_OK(transport);
  }
  return Status::OK();
}

Status RemoteBackend::Ping() {
  PayloadWriter w;
  Status transport;
  std::vector<uint8_t> body;
  size_t off = 0;
  MLKV_RETURN_NOT_OK(Rpc(Opcode::kPing, w, &transport, &body, &off));
  return transport;
}

Status RemoteBackend::FetchStats(std::string* exposition) {
  PayloadWriter w;
  Status transport;
  std::vector<uint8_t> body;
  size_t off = 0;
  MLKV_RETURN_NOT_OK(Rpc(Opcode::kStats, w, &transport, &body, &off));
  MLKV_RETURN_NOT_OK(transport);
  exposition->assign(body.begin() + off, body.end());
  return Status::OK();
}

}  // namespace net
}  // namespace mlkv
