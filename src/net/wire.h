// Versioned length-prefixed binary wire protocol for the embedding-store
// RPC subsystem (net/). One frame per request or response:
//
//   | magic u32 | version u8 | opcode u8 | flags u16 | request_id u64 |
//   | payload_len u32 | payload bytes ... |
//
// All integers are explicit little-endian regardless of host byte order,
// decoded with bounds-checked readers — a corrupt or truncated frame is a
// Status::Corruption, never an out-of-bounds read. The payload encodings
// mirror the batch-first KvBackend seam: one MultiGet / MultiPut /
// MultiApplyGradient frame per minibatch phase, with the per-key
// BatchResult codes and found/missing/busy/failed counts serialized back
// in every response, so a remote store reports exactly what the in-process
// seam reports.
//
// Response framing: every response echoes the request's opcode and
// request_id with kFlagResponse set, and its payload begins with a
// transport-level status (code + message). The op-specific body follows
// only when that status is OK — per-key outcomes (missing keys, staleness
// aborts) live inside the body's BatchResult and leave the transport
// status OK.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/batch_result.h"
#include "common/status.h"
#include "kv/record.h"
#include "kv/update_log.h"

namespace mlkv {
namespace net {

// "MLKV" when the little-endian u32 is viewed as bytes.
inline constexpr uint32_t kWireMagic = 0x564B4C4Du;
// v2: kStats responses carry the backend's storage-I/O block (disk record
// reads, page traffic, pending-pipeline counters) after the server fields.
// v3: the storage-I/O block grows four write-pipeline counters (flush-wave
// submissions/completions, fsyncs, group commits).
// v4: cluster mode — handshakes carry the cluster epoch + role, kClusterMap
// serves the routing map, kSubscribe/kReplicate ship the committed-update
// feed to replicas, kStats grows replication counters, and responses may
// carry per-key kWrongPartition codes.
// v5: kStats responses carry the server's selected SIMD kernel tier. The
// MultiGet response bytes are unchanged, but servers now gather the served
// rows straight from the backend's buffer (see CollectServedRowRuns) instead
// of copy-encoding them — byte-identical on the wire.
// v6: the kStats response body is the server's metrics exposition
// (Prometheus text, raw bytes to the end of the frame) instead of a
// fixed struct, so new metrics never change the protocol.
inline constexpr uint8_t kWireVersion = 6;
inline constexpr size_t kFrameHeaderSize = 20;
// Upper bound on a single payload; a header announcing more is corrupt
// (or hostile) and the connection is dropped before any allocation.
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;

enum class Opcode : uint8_t {
  kHandshake = 1,  // negotiate dim / shard_bits / backend name
  kMultiGet = 2,
  kMultiPut = 3,
  kMultiApplyGradient = 4,
  kLookahead = 5,
  kStats = 6,      // the server's metrics exposition (Prometheus text)
  kPing = 7,
  kClusterMap = 8,  // fetch the current ClusterMap (routing table + epoch)
  kSubscribe = 9,   // replica: learn the primary's shard count + watermarks
  kReplicate = 10,  // replica: poll one shard's committed-update feed
};
// Dense per-opcode counter arrays index by the raw opcode value.
inline constexpr size_t kOpcodeSlots = 11;

inline bool ValidOpcode(uint8_t raw) {
  return raw >= static_cast<uint8_t>(Opcode::kHandshake) &&
         raw <= static_cast<uint8_t>(Opcode::kReplicate);
}

const char* OpcodeName(Opcode op);

inline constexpr uint16_t kFlagResponse = 1u << 0;

struct FrameHeader {
  uint8_t version = kWireVersion;
  Opcode opcode = Opcode::kPing;
  uint16_t flags = 0;
  uint64_t request_id = 0;
  uint32_t payload_len = 0;
};

void EncodeFrameHeader(const FrameHeader& h, uint8_t out[kFrameHeaderSize]);
// Rejects bad magic / oversized payloads as Corruption and an unknown
// version as NotSupported (the caller can still answer with the echoed
// request_id, since the rest of the header decoded).
Status DecodeFrameHeader(const uint8_t in[kFrameHeaderSize], FrameHeader* out);

// --- bounds-checked payload primitives -----------------------------------

class PayloadWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void F32(float v);
  void Floats(const float* v, size_t n);
  void Keys(std::span<const Key> keys);  // count u32 + count u64s
  void Str(std::string_view s);          // length u16 + bytes
  void StatusOf(const Status& s);        // code u8 + message Str
  void Bytes(const uint8_t* p, size_t n);  // raw bytes, no length prefix

  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

// Every Read* returns false once the buffer is exhausted; decoders turn
// that into Status::Corruption("truncated payload") exactly once at the
// end instead of checking each primitive.
class PayloadReader {
 public:
  PayloadReader(const uint8_t* data, size_t n) : p_(data), end_(data + n) {}
  explicit PayloadReader(std::span<const uint8_t> payload)
      : PayloadReader(payload.data(), payload.size()) {}

  bool U8(uint8_t* v);
  bool U16(uint16_t* v);
  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  bool F32(float* v);
  bool Floats(float* out, size_t n);
  bool Keys(std::vector<Key>* out);  // count-prefixed, bounds-checked
  bool Str(std::string* out);
  bool ReadStatus(Status* out);
  bool Bytes(uint8_t* out, size_t n);  // raw bytes, caller-sized

  bool ok() const { return !failed_; }
  bool AtEnd() const { return !failed_ && p_ == end_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  // Corruption unless every read succeeded and consumed the whole payload
  // (trailing garbage means the two sides disagree about the encoding).
  Status Finish(const char* what) const;

 private:
  bool Take(size_t n, const uint8_t** out);
  const uint8_t* p_;
  const uint8_t* end_;
  bool failed_ = false;
};

// --- message payloads ----------------------------------------------------

struct HandshakeInfo {
  uint32_t dim = 0;
  uint32_t shard_bits = 0;
  std::string backend_name;
  // Cluster fields (v4). epoch 0 = standalone server (no map to fetch);
  // anything else invites the client to issue kClusterMap and route by
  // partition. role: 0 standalone, 1 primary (of >=1 partition), 2 replica.
  uint64_t cluster_epoch = 0;
  uint8_t cluster_role = 0;
};

void EncodeHandshakeInfo(const HandshakeInfo& h, PayloadWriter* w);
Status DecodeHandshakeInfo(PayloadReader* r, HandshakeInfo* out);

struct MultiGetRequest {
  bool init_missing = true;
  bool untracked = false;
  std::vector<Key> keys;
};

void EncodeMultiGetRequest(std::span<const Key> keys, bool init_missing,
                           bool untracked, PayloadWriter* w);
inline void EncodeMultiGetRequest(const MultiGetRequest& q,
                                  PayloadWriter* w) {
  EncodeMultiGetRequest(q.keys, q.init_missing, q.untracked, w);
}
Status DecodeMultiGetRequest(std::span<const uint8_t> payload,
                             MultiGetRequest* out);

// MultiPut and MultiApplyGradient share one shape: keys + one dim-float
// row per key (values or gradients) + lr (ignored by Put).
struct MultiWriteRequest {
  float lr = 0.0f;
  std::vector<Key> keys;
  std::vector<float> rows;  // keys.size() * dim floats
};

void EncodeMultiWriteRequest(std::span<const Key> keys, const float* rows,
                             uint32_t dim, float lr, PayloadWriter* w);
// The request minus its row block (lr + keys). On little-endian hosts
// (kRawFloatRowsMatchWire) the rows' in-memory bytes already are their
// wire encoding, so the caller sends this header plus the raw row bytes
// as a gathered two-piece frame — the write path's counterpart of
// CollectServedRowRuns, sparing one full-row-block copy per request.
void EncodeMultiWriteRequestHeader(std::span<const Key> keys, float lr,
                                   PayloadWriter* w);
// `dim` cross-checks the row block against the key count.
Status DecodeMultiWriteRequest(std::span<const uint8_t> payload, uint32_t dim,
                               MultiWriteRequest* out);

void EncodeLookaheadRequest(std::span<const Key> keys, PayloadWriter* w);
Status DecodeLookaheadRequest(std::span<const uint8_t> payload,
                              std::vector<Key>* out);

// Per-key codes as u8s plus the summary counts. The counts ride explicitly
// because they are not derivable from the codes (an initialized missing key
// is code kOk but counted missing).
void EncodeBatchResult(const BatchResult& r, PayloadWriter* w);
Status DecodeBatchResult(PayloadReader* r, BatchResult* out);

// MultiGet response body: BatchResult, then the served rows packed in key
// order — one dim-float row per kOk code, nothing for the rest (their
// output rows are unspecified by contract, so they never cross the wire).
void EncodeMultiGetResponse(const BatchResult& r, const float* rows,
                            uint32_t dim, PayloadWriter* w);

// The copy-encode row half of EncodeMultiGetResponse on its own: appends
// the dim-float row of every kOk code in `codes` to `w`. Kept as the
// big-endian fallback and as the byte-identity reference the gather path
// is tested against.
void EncodeServedRows(std::span<const Status::Code> codes, const float* rows,
                      uint32_t dim, PayloadWriter* w);

// True when a float row's in-memory bytes already are its wire encoding
// (the wire is explicitly little-endian), so served rows can ride the
// response as iovecs over the backend's buffer with no encode copy.
inline constexpr bool kRawFloatRowsMatchWire =
    std::endian::native == std::endian::little;

// Zero-copy counterpart of EncodeServedRows, valid only when
// kRawFloatRowsMatchWire: appends the byte runs of the served rows to
// `runs`, coalescing consecutive kOk rows so the all-hit warm path is a
// single span over the whole buffer. The spans alias `rows`, which must
// stay alive until the gathered send completes.
void CollectServedRowRuns(std::span<const Status::Code> codes,
                          const float* rows, uint32_t dim,
                          std::vector<std::span<const uint8_t>>* runs);
// Scatters served rows to `out` (n_keys * dim floats, caller-owned);
// rows whose code is not kOk are left untouched.
Status DecodeMultiGetResponse(PayloadReader* r, size_t n_keys, uint32_t dim,
                              BatchResult* result, float* out);

// --- replication payloads (wire v4) --------------------------------------

// kSubscribe request is empty; the response describes the primary's feed
// topology so a replica can size its per-shard resume tokens.
struct SubscribeResponse {
  std::vector<uint64_t> shard_durables;  // index = shard, value = durable addr
};

void EncodeSubscribeResponse(const SubscribeResponse& s, PayloadWriter* w);
Status DecodeSubscribeResponse(PayloadReader* r, SubscribeResponse* out);

// kReplicate: one poll of a single shard's committed-update feed, starting
// at the caller's resume token `from` (0 = oldest retained update).
struct ReplicateRequest {
  uint32_t shard = 0;
  uint64_t from = 0;
  uint32_t max_records = 0;  // server clamps; 0 = watermark probe only
  uint32_t max_bytes = 0;    // server clamps under the frame cap
};

void EncodeReplicateRequest(const ReplicateRequest& q, PayloadWriter* w);
Status DecodeReplicateRequest(std::span<const uint8_t> payload,
                              ReplicateRequest* out);

// Entries ride in log-address order. `next_from` is the resume token after
// the last entry; `durable` is the shard's durable watermark at poll time
// (next_from < durable means more entries are immediately available).
struct ReplicateResponse {
  uint64_t next_from = 0;
  uint64_t durable = 0;
  std::vector<UpdateEntry> entries;
};

void EncodeReplicateResponse(const ReplicateResponse& s, PayloadWriter* w);
Status DecodeReplicateResponse(PayloadReader* r, ReplicateResponse* out);

}  // namespace net
}  // namespace mlkv
