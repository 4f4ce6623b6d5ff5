#include "net/wire.h"

#include <cstring>

namespace mlkv {
namespace net {

namespace {

void PutU16(std::vector<uint8_t>* b, uint16_t v) {
  b->push_back(static_cast<uint8_t>(v));
  b->push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(std::vector<uint8_t>* b, uint32_t v) {
  for (int i = 0; i < 4; ++i) b->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(std::vector<uint8_t>* b, uint64_t v) {
  for (int i = 0; i < 8; ++i) b->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t LoadU64(const uint8_t* p) {
  return static_cast<uint64_t>(LoadU32(p)) |
         static_cast<uint64_t>(LoadU32(p + 4)) << 32;
}

// Status codes arrive from an untrusted peer; an out-of-range byte must
// be rejected here, not fed to Status::ToString()'s name table.
bool ValidStatusCode(uint8_t c) {
  return c <= static_cast<uint8_t>(Status::Code::kWrongPartition);
}

}  // namespace

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kHandshake: return "Handshake";
    case Opcode::kMultiGet: return "MultiGet";
    case Opcode::kMultiPut: return "MultiPut";
    case Opcode::kMultiApplyGradient: return "MultiApplyGradient";
    case Opcode::kLookahead: return "Lookahead";
    case Opcode::kStats: return "Stats";
    case Opcode::kPing: return "Ping";
    case Opcode::kClusterMap: return "ClusterMap";
    case Opcode::kSubscribe: return "Subscribe";
    case Opcode::kReplicate: return "Replicate";
  }
  return "?";
}

void EncodeFrameHeader(const FrameHeader& h, uint8_t out[kFrameHeaderSize]) {
  uint8_t* p = out;
  for (int i = 0; i < 4; ++i) *p++ = static_cast<uint8_t>(kWireMagic >> (8 * i));
  *p++ = h.version;
  *p++ = static_cast<uint8_t>(h.opcode);
  *p++ = static_cast<uint8_t>(h.flags);
  *p++ = static_cast<uint8_t>(h.flags >> 8);
  for (int i = 0; i < 8; ++i) {
    *p++ = static_cast<uint8_t>(h.request_id >> (8 * i));
  }
  for (int i = 0; i < 4; ++i) {
    *p++ = static_cast<uint8_t>(h.payload_len >> (8 * i));
  }
}

Status DecodeFrameHeader(const uint8_t in[kFrameHeaderSize], FrameHeader* out) {
  if (LoadU32(in) != kWireMagic) {
    return Status::Corruption("wire: bad frame magic");
  }
  out->version = in[4];
  out->opcode = static_cast<Opcode>(in[5]);
  out->flags = static_cast<uint16_t>(in[6] | in[7] << 8);
  out->request_id = LoadU64(in + 8);
  out->payload_len = LoadU32(in + 16);
  if (out->payload_len > kMaxPayloadBytes) {
    return Status::Corruption("wire: payload length " +
                              std::to_string(out->payload_len) +
                              " exceeds limit");
  }
  // Version-checked after the structural fields so the caller still has
  // the request_id to answer a mismatched peer with.
  if (out->version != kWireVersion) {
    return Status::NotSupported("wire: version " +
                                std::to_string(out->version) + ", expected " +
                                std::to_string(kWireVersion));
  }
  return Status::OK();
}

// --- PayloadWriter -------------------------------------------------------

void PayloadWriter::U16(uint16_t v) { PutU16(&buf_, v); }
void PayloadWriter::U32(uint32_t v) { PutU32(&buf_, v); }
void PayloadWriter::U64(uint64_t v) { PutU64(&buf_, v); }

void PayloadWriter::F32(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU32(&buf_, bits);
}

void PayloadWriter::Floats(const float* v, size_t n) {
  // Bulk rows are the bytes that dominate MultiGet/MultiPut frames. On a
  // little-endian host the in-memory floats already are the wire encoding,
  // so the whole block is one memcpy; the per-word store loop remains the
  // byte-order-correct fallback.
  const size_t start = buf_.size();
  buf_.resize(start + n * 4);
  uint8_t* p = buf_.data() + start;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, v, n * 4);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    uint32_t bits;
    std::memcpy(&bits, &v[i], sizeof(bits));
    p[0] = static_cast<uint8_t>(bits);
    p[1] = static_cast<uint8_t>(bits >> 8);
    p[2] = static_cast<uint8_t>(bits >> 16);
    p[3] = static_cast<uint8_t>(bits >> 24);
    p += 4;
  }
}

void PayloadWriter::Keys(std::span<const Key> keys) {
  U32(static_cast<uint32_t>(keys.size()));
  for (const Key k : keys) U64(k);
}

void PayloadWriter::Str(std::string_view s) {
  const size_t n = std::min<size_t>(s.size(), UINT16_MAX);
  U16(static_cast<uint16_t>(n));
  buf_.insert(buf_.end(), s.begin(), s.begin() + n);
}

void PayloadWriter::StatusOf(const Status& s) {
  U8(static_cast<uint8_t>(s.code()));
  Str(s.message());
}

void PayloadWriter::Bytes(const uint8_t* p, size_t n) {
  buf_.insert(buf_.end(), p, p + n);
}

// --- PayloadReader -------------------------------------------------------

bool PayloadReader::Take(size_t n, const uint8_t** out) {
  if (failed_ || static_cast<size_t>(end_ - p_) < n) {
    failed_ = true;
    return false;
  }
  *out = p_;
  p_ += n;
  return true;
}

bool PayloadReader::U8(uint8_t* v) {
  const uint8_t* p;
  if (!Take(1, &p)) return false;
  *v = *p;
  return true;
}

bool PayloadReader::U16(uint16_t* v) {
  const uint8_t* p;
  if (!Take(2, &p)) return false;
  *v = static_cast<uint16_t>(p[0] | p[1] << 8);
  return true;
}

bool PayloadReader::U32(uint32_t* v) {
  const uint8_t* p;
  if (!Take(4, &p)) return false;
  *v = LoadU32(p);
  return true;
}

bool PayloadReader::U64(uint64_t* v) {
  const uint8_t* p;
  if (!Take(8, &p)) return false;
  *v = LoadU64(p);
  return true;
}

bool PayloadReader::F32(float* v) {
  uint32_t bits;
  if (!U32(&bits)) return false;
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

bool PayloadReader::Floats(float* out, size_t n) {
  // Mirror of PayloadWriter::Floats: one bounds check for the whole row
  // block, then one memcpy straight into the caller's output on a
  // little-endian host — this is the client's MultiGet hot path.
  const uint8_t* p;
  if (!Take(n * 4, &p)) return false;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, p, n * 4);
    return true;
  }
  for (size_t i = 0; i < n; ++i) {
    const uint32_t bits = LoadU32(p + i * 4);
    std::memcpy(&out[i], &bits, sizeof(out[i]));
  }
  return true;
}

bool PayloadReader::Keys(std::vector<Key>* out) {
  uint32_t count;
  if (!U32(&count)) return false;
  // A key costs 8 bytes on the wire, so `remaining` bounds the count a
  // well-formed payload can carry — reject before allocating.
  if (count > remaining() / sizeof(Key)) {
    failed_ = true;
    return false;
  }
  out->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!U64(&(*out)[i])) return false;
  }
  return true;
}

bool PayloadReader::Str(std::string* out) {
  uint16_t n;
  if (!U16(&n)) return false;
  const uint8_t* p;
  if (!Take(n, &p)) return false;
  out->assign(reinterpret_cast<const char*>(p), n);
  return true;
}

bool PayloadReader::Bytes(uint8_t* out, size_t n) {
  const uint8_t* p;
  if (!Take(n, &p)) return false;
  std::memcpy(out, p, n);
  return true;
}

bool PayloadReader::ReadStatus(Status* out) {
  uint8_t code;
  std::string msg;
  if (!U8(&code) || !Str(&msg)) return false;
  if (!ValidStatusCode(code)) {
    failed_ = true;
    return false;
  }
  *out = Status::FromCode(static_cast<Status::Code>(code), std::move(msg));
  return true;
}

Status PayloadReader::Finish(const char* what) const {
  if (failed_) {
    return Status::Corruption(std::string("wire: truncated ") + what);
  }
  if (p_ != end_) {
    return Status::Corruption(std::string("wire: trailing bytes after ") +
                              what);
  }
  return Status::OK();
}

// --- messages ------------------------------------------------------------

void EncodeHandshakeInfo(const HandshakeInfo& h, PayloadWriter* w) {
  w->U32(h.dim);
  w->U32(h.shard_bits);
  w->Str(h.backend_name);
  w->U64(h.cluster_epoch);
  w->U8(h.cluster_role);
}

Status DecodeHandshakeInfo(PayloadReader* r, HandshakeInfo* out) {
  r->U32(&out->dim);
  r->U32(&out->shard_bits);
  r->Str(&out->backend_name);
  r->U64(&out->cluster_epoch);
  r->U8(&out->cluster_role);
  return r->Finish("handshake");
}

void EncodeMultiGetRequest(std::span<const Key> keys, bool init_missing,
                           bool untracked, PayloadWriter* w) {
  w->U8(init_missing ? 1 : 0);
  w->U8(untracked ? 1 : 0);
  w->Keys(keys);
}

Status DecodeMultiGetRequest(std::span<const uint8_t> payload,
                             MultiGetRequest* out) {
  PayloadReader r(payload);
  uint8_t init, untracked;
  r.U8(&init);
  r.U8(&untracked);
  r.Keys(&out->keys);
  MLKV_RETURN_NOT_OK(r.Finish("MultiGet request"));
  out->init_missing = init != 0;
  out->untracked = untracked != 0;
  return Status::OK();
}

void EncodeMultiWriteRequest(std::span<const Key> keys, const float* rows,
                             uint32_t dim, float lr, PayloadWriter* w) {
  EncodeMultiWriteRequestHeader(keys, lr, w);
  w->Floats(rows, keys.size() * size_t{dim});
}

void EncodeMultiWriteRequestHeader(std::span<const Key> keys, float lr,
                                   PayloadWriter* w) {
  w->F32(lr);
  w->Keys(keys);
}

Status DecodeMultiWriteRequest(std::span<const uint8_t> payload, uint32_t dim,
                               MultiWriteRequest* out) {
  PayloadReader r(payload);
  r.F32(&out->lr);
  r.Keys(&out->keys);
  if (r.ok() && r.remaining() != out->keys.size() * size_t{dim} * 4) {
    return Status::InvalidArgument(
        "wire: write request row block does not match key count x dim");
  }
  out->rows.resize(out->keys.size() * size_t{dim});
  r.Floats(out->rows.data(), out->rows.size());
  return r.Finish("write request");
}

void EncodeLookaheadRequest(std::span<const Key> keys, PayloadWriter* w) {
  w->Keys(keys);
}

Status DecodeLookaheadRequest(std::span<const uint8_t> payload,
                              std::vector<Key>* out) {
  PayloadReader r(payload);
  r.Keys(out);
  return r.Finish("Lookahead request");
}

void EncodeBatchResult(const BatchResult& r, PayloadWriter* w) {
  w->U32(static_cast<uint32_t>(r.codes.size()));
  for (const Status::Code c : r.codes) w->U8(static_cast<uint8_t>(c));
  w->U32(static_cast<uint32_t>(r.found));
  w->U32(static_cast<uint32_t>(r.missing));
  w->U32(static_cast<uint32_t>(r.busy));
  w->U32(static_cast<uint32_t>(r.failed));
  w->StatusOf(r.first_error);
}

Status DecodeBatchResult(PayloadReader* r, BatchResult* out) {
  uint32_t n;
  if (!r->U32(&n) || n > r->remaining()) {  // one byte per code
    return Status::Corruption("wire: truncated BatchResult");
  }
  out->codes.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint8_t c = 0;
    r->U8(&c);
    if (!ValidStatusCode(c)) {
      return Status::Corruption("wire: invalid status code in BatchResult");
    }
    out->codes[i] = static_cast<Status::Code>(c);
  }
  uint32_t found = 0, missing = 0, busy = 0, failed = 0;
  r->U32(&found);
  r->U32(&missing);
  r->U32(&busy);
  r->U32(&failed);
  r->ReadStatus(&out->first_error);
  if (!r->ok()) return Status::Corruption("wire: truncated BatchResult");
  out->found = found;
  out->missing = missing;
  out->busy = busy;
  out->failed = failed;
  return Status::OK();
}

void EncodeServedRows(std::span<const Status::Code> codes, const float* rows,
                      uint32_t dim, PayloadWriter* w) {
  for (size_t i = 0; i < codes.size(); ++i) {
    if (codes[i] == Status::Code::kOk) {
      w->Floats(rows + i * size_t{dim}, dim);
    }
  }
}

void EncodeMultiGetResponse(const BatchResult& r, const float* rows,
                            uint32_t dim, PayloadWriter* w) {
  EncodeBatchResult(r, w);
  EncodeServedRows(r.codes, rows, dim, w);
}

void CollectServedRowRuns(std::span<const Status::Code> codes,
                          const float* rows, uint32_t dim,
                          std::vector<std::span<const uint8_t>>* runs) {
  const auto* bytes = reinterpret_cast<const uint8_t*>(rows);
  const size_t row_bytes = size_t{dim} * sizeof(float);
  size_t i = 0;
  while (i < codes.size()) {
    if (codes[i] != Status::Code::kOk) {
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j < codes.size() && codes[j] == Status::Code::kOk) ++j;
    runs->emplace_back(bytes + i * row_bytes, (j - i) * row_bytes);
    i = j;
  }
}

Status DecodeMultiGetResponse(PayloadReader* r, size_t n_keys, uint32_t dim,
                              BatchResult* result, float* out) {
  MLKV_RETURN_NOT_OK(DecodeBatchResult(r, result));
  if (result->codes.size() != n_keys) {
    return Status::Corruption("wire: MultiGet response key count mismatch");
  }
  // Decode contiguous kOk runs as one Floats call each: on the all-hit
  // warm path the entire row block lands in the caller's output span with
  // a single memcpy (see PayloadReader::Floats).
  size_t i = 0;
  while (i < n_keys) {
    if (result->codes[i] != Status::Code::kOk) {
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j < n_keys && result->codes[j] == Status::Code::kOk) ++j;
    if (!r->Floats(out + i * size_t{dim}, (j - i) * size_t{dim})) break;
    i = j;
  }
  return r->Finish("MultiGet response");
}

// --- replication payloads ------------------------------------------------

void EncodeSubscribeResponse(const SubscribeResponse& s, PayloadWriter* w) {
  w->U32(static_cast<uint32_t>(s.shard_durables.size()));
  for (const uint64_t d : s.shard_durables) w->U64(d);
}

Status DecodeSubscribeResponse(PayloadReader* r, SubscribeResponse* out) {
  uint32_t n = 0;
  if (!r->U32(&n) || n > r->remaining() / 8) {
    return Status::Corruption("wire: truncated Subscribe response");
  }
  out->shard_durables.resize(n);
  for (uint64_t& d : out->shard_durables) r->U64(&d);
  return r->Finish("Subscribe response");
}

void EncodeReplicateRequest(const ReplicateRequest& q, PayloadWriter* w) {
  w->U32(q.shard);
  w->U64(q.from);
  w->U32(q.max_records);
  w->U32(q.max_bytes);
}

Status DecodeReplicateRequest(std::span<const uint8_t> payload,
                              ReplicateRequest* out) {
  PayloadReader r(payload);
  r.U32(&out->shard);
  r.U64(&out->from);
  r.U32(&out->max_records);
  r.U32(&out->max_bytes);
  return r.Finish("Replicate request");
}

void EncodeReplicateResponse(const ReplicateResponse& s, PayloadWriter* w) {
  w->U64(s.next_from);
  w->U64(s.durable);
  w->U32(static_cast<uint32_t>(s.entries.size()));
  for (const UpdateEntry& e : s.entries) {
    w->U64(e.address);
    w->U64(e.key);
    w->U32(e.generation);
    w->U32(e.staleness);
    w->U8(e.tombstone ? 1 : 0);
    // Values cross the wire as opaque byte blobs (the replica re-upserts
    // them verbatim), not as float rows — no dim assumption here.
    w->U32(static_cast<uint32_t>(e.value.size()));
    w->Bytes(reinterpret_cast<const uint8_t*>(e.value.data()), e.value.size());
  }
}

Status DecodeReplicateResponse(PayloadReader* r, ReplicateResponse* out) {
  r->U64(&out->next_from);
  r->U64(&out->durable);
  uint32_t n = 0;
  // Each entry costs at least 29 bytes on the wire; bound before resize.
  if (!r->U32(&n) || n > r->remaining() / 29) {
    return Status::Corruption("wire: truncated Replicate response");
  }
  out->entries.resize(n);
  for (UpdateEntry& e : out->entries) {
    uint8_t tomb = 0;
    uint32_t len = 0;
    r->U64(&e.address);
    r->U64(&e.key);
    r->U32(&e.generation);
    r->U32(&e.staleness);
    r->U8(&tomb);
    if (!r->U32(&len) || len > r->remaining()) {
      return Status::Corruption("wire: truncated Replicate entry");
    }
    e.tombstone = tomb != 0;
    e.value.resize(len);
    if (len != 0 &&
        !r->Bytes(reinterpret_cast<uint8_t*>(e.value.data()), len)) {
      return Status::Corruption("wire: truncated Replicate entry");
    }
  }
  return r->Finish("Replicate response");
}

}  // namespace net
}  // namespace mlkv
