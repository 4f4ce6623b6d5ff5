// Net subsystem tests: wire round-trips and bounds-checked parsing,
// corrupt/truncated-frame rejection, the version-mismatch handshake
// failure, server lifecycle (Stop with in-flight requests, post-Stop
// connects), op counters, and the pooled RemoteBackend under concurrent
// callers. Everything runs over in-process loopback sockets.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "backend/kv_backend.h"
#include "common/clock.h"
#include "common/simd.h"
#include "io/temp_dir.h"
#include "net/kv_server.h"
#include "net/remote_backend.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace mlkv {
namespace net {
namespace {

// One series out of a metrics exposition (a kStats body or a server's
// local scrape); a missing series fails the test and reads as -1.
double Sample(const std::string& exposition, std::string_view series) {
  double v = -1;
  EXPECT_TRUE(obs::FindSample(exposition, series, &v)) << series;
  return v;
}

// A family's total over its label sets (e.g. a store family summed over
// `shard`); a family with no sample fails the test and reads as -1.
double FamilySum(const std::string& exposition, std::string_view name) {
  double total = 0;
  bool found = false;
  std::istringstream lines(exposition);
  for (std::string line; std::getline(lines, line);) {
    if (!line.starts_with(name)) continue;
    const char next = line.size() > name.size() ? line[name.size()] : '\0';
    if (next != ' ' && next != '{') continue;
    total += std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
    found = true;
  }
  EXPECT_TRUE(found) << name;
  return found ? total : -1;
}

// --- wire round-trips ----------------------------------------------------

TEST(WireTest, FrameHeaderRoundTrip) {
  FrameHeader h;
  h.opcode = Opcode::kMultiGet;
  h.flags = kFlagResponse;
  h.request_id = 0x0123456789ABCDEFull;
  h.payload_len = 4096;
  uint8_t buf[kFrameHeaderSize];
  EncodeFrameHeader(h, buf);
  FrameHeader d;
  ASSERT_TRUE(DecodeFrameHeader(buf, &d).ok());
  EXPECT_EQ(d.version, kWireVersion);
  EXPECT_EQ(d.opcode, Opcode::kMultiGet);
  EXPECT_EQ(d.flags, kFlagResponse);
  EXPECT_EQ(d.request_id, h.request_id);
  EXPECT_EQ(d.payload_len, h.payload_len);
}

TEST(WireTest, FrameHeaderIsLittleEndianOnTheWire) {
  FrameHeader h;
  h.opcode = Opcode::kPing;
  h.request_id = 0x0102030405060708ull;
  h.payload_len = 0x11223344;
  uint8_t buf[kFrameHeaderSize];
  EncodeFrameHeader(h, buf);
  // Magic spells "MLKV" byte-for-byte.
  EXPECT_EQ(std::memcmp(buf, "MLKV", 4), 0);
  // Low byte first.
  EXPECT_EQ(buf[8], 0x08);
  EXPECT_EQ(buf[15], 0x01);
  EXPECT_EQ(buf[16], 0x44);
  EXPECT_EQ(buf[19], 0x11);
}

TEST(WireTest, FrameHeaderRejectsBadMagic) {
  FrameHeader h;
  uint8_t buf[kFrameHeaderSize];
  EncodeFrameHeader(h, buf);
  buf[0] ^= 0xFF;
  FrameHeader d;
  EXPECT_TRUE(DecodeFrameHeader(buf, &d).IsCorruption());
}

TEST(WireTest, FrameHeaderRejectsVersionMismatchButKeepsRequestId) {
  FrameHeader h;
  h.version = kWireVersion + 7;
  h.request_id = 42;
  uint8_t buf[kFrameHeaderSize];
  EncodeFrameHeader(h, buf);
  FrameHeader d;
  const Status s = DecodeFrameHeader(buf, &d);
  EXPECT_TRUE(s.IsNotSupported());
  EXPECT_EQ(d.request_id, 42u);  // caller can still answer the peer
}

TEST(WireTest, FrameHeaderRejectsOversizedPayload) {
  FrameHeader h;
  h.payload_len = kMaxPayloadBytes + 1;
  uint8_t buf[kFrameHeaderSize];
  EncodeFrameHeader(h, buf);
  FrameHeader d;
  EXPECT_TRUE(DecodeFrameHeader(buf, &d).IsCorruption());
}

TEST(WireTest, PayloadPrimitivesRoundTrip) {
  PayloadWriter w;
  w.U8(0xAB);
  w.U16(0xCDEF);
  w.U32(0xDEADBEEF);
  w.U64(0xFEEDFACECAFEBEEFull);
  w.F32(-1.5f);
  w.Str("backend");
  w.StatusOf(Status::Busy("staleness"));
  PayloadReader r(w.bytes().data(), w.bytes().size());
  uint8_t a;
  uint16_t b;
  uint32_t c;
  uint64_t d;
  float f;
  std::string s;
  Status st;
  EXPECT_TRUE(r.U8(&a) && r.U16(&b) && r.U32(&c) && r.U64(&d) && r.F32(&f) &&
              r.Str(&s) && r.ReadStatus(&st));
  EXPECT_EQ(a, 0xAB);
  EXPECT_EQ(b, 0xCDEF);
  EXPECT_EQ(c, 0xDEADBEEFu);
  EXPECT_EQ(d, 0xFEEDFACECAFEBEEFull);
  EXPECT_FLOAT_EQ(f, -1.5f);
  EXPECT_EQ(s, "backend");
  EXPECT_TRUE(st.IsBusy());
  EXPECT_EQ(st.message(), "staleness");
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(r.Finish("test").ok());
}

TEST(WireTest, ReaderRejectsTruncationEverywhere) {
  PayloadWriter w;
  MultiGetRequest req;
  req.keys = {1, 2, 3, 4, 5};
  EncodeMultiGetRequest(req, &w);
  const auto& full = w.bytes();
  // Every strict prefix must decode to Corruption, never crash or succeed.
  for (size_t cut = 0; cut < full.size(); ++cut) {
    MultiGetRequest out;
    const Status s = DecodeMultiGetRequest(
        std::span<const uint8_t>(full.data(), cut), &out);
    EXPECT_FALSE(s.ok()) << "prefix of " << cut << " bytes decoded";
  }
  MultiGetRequest out;
  EXPECT_TRUE(DecodeMultiGetRequest(full, &out).ok());
  EXPECT_EQ(out.keys, req.keys);
}

TEST(WireTest, ReaderRejectsTrailingGarbage) {
  PayloadWriter w;
  MultiGetRequest req;
  req.keys = {9};
  EncodeMultiGetRequest(req, &w);
  auto bytes = w.bytes();
  bytes.push_back(0x77);
  MultiGetRequest out;
  EXPECT_TRUE(DecodeMultiGetRequest(bytes, &out).IsCorruption());
}

TEST(WireTest, KeyCountCannotExceedPayload) {
  // A hostile count prefix must be rejected before allocation.
  PayloadWriter w;
  w.U8(1);
  w.U8(0);
  w.U32(0x40000000);  // claims 1G keys in a tiny payload
  MultiGetRequest out;
  EXPECT_FALSE(DecodeMultiGetRequest(w.bytes(), &out).ok());
}

TEST(WireTest, WriteRequestValidatesRowBlock) {
  std::vector<Key> keys = {1, 2};
  std::vector<float> rows(2 * 4, 1.0f);
  PayloadWriter w;
  EncodeMultiWriteRequest(keys, rows.data(), 4, 0.5f, &w);
  MultiWriteRequest out;
  ASSERT_TRUE(DecodeMultiWriteRequest(w.bytes(), 4, &out).ok());
  EXPECT_FLOAT_EQ(out.lr, 0.5f);
  EXPECT_EQ(out.keys, keys);
  EXPECT_EQ(out.rows, rows);
  // The same bytes against a different dim must be rejected, not mis-split.
  EXPECT_FALSE(DecodeMultiWriteRequest(w.bytes(), 8, &out).ok());
}

TEST(WireTest, BatchResultRoundTripKeepsCountsAndError) {
  BatchResult r(4);
  r.Record(0, Status::OK());
  r.RecordInitialized(1);  // code kOk but counted missing
  r.Record(2, Status::Busy());
  r.Record(3, Status::IOError("disk on fire", 5));
  PayloadWriter w;
  EncodeBatchResult(r, &w);
  PayloadReader reader(w.bytes().data(), w.bytes().size());
  BatchResult d;
  ASSERT_TRUE(DecodeBatchResult(&reader, &d).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(d.codes, r.codes);
  EXPECT_EQ(d.found, 1u);
  EXPECT_EQ(d.missing, 1u);
  EXPECT_EQ(d.busy, 1u);
  EXPECT_EQ(d.failed, 1u);
  EXPECT_TRUE(d.first_error.IsIOError());
  EXPECT_NE(d.first_error.message().find("disk on fire"), std::string::npos);
  EXPECT_TRUE(d.StatusAt(2).IsBusy());
}

TEST(WireTest, RejectsOutOfRangeStatusCodes) {
  // Status codes come from an untrusted peer; an out-of-range byte must
  // fail decode, never reach Status::ToString()'s name table.
  {
    PayloadWriter w;
    w.U8(200);
    w.Str("bogus");
    PayloadReader r(w.bytes().data(), w.bytes().size());
    Status s;
    EXPECT_FALSE(r.ReadStatus(&s));
    EXPECT_FALSE(r.ok());
  }
  {
    PayloadWriter w;
    w.U32(1);   // one key
    w.U8(200);  // invalid per-key code
    w.U32(0);
    w.U32(0);
    w.U32(0);
    w.U32(1);
    w.StatusOf(Status::IOError("x"));
    PayloadReader r(w.bytes().data(), w.bytes().size());
    BatchResult out;
    EXPECT_TRUE(DecodeBatchResult(&r, &out).IsCorruption());
  }
}

TEST(WireTest, MultiGetResponsePacksOnlyServedRows) {
  constexpr uint32_t kDim = 3;
  BatchResult r(3);
  r.Record(0, Status::OK());
  r.Record(1, Status::NotFound());
  r.Record(2, Status::OK());
  const float rows[9] = {1, 2, 3, 99, 99, 99, 7, 8, 9};
  PayloadWriter w;
  EncodeMultiGetResponse(r, rows, kDim, &w);
  // Payload holds exactly 2 rows, not 3.
  PayloadReader probe(w.bytes().data(), w.bytes().size());
  BatchResult header_only;
  ASSERT_TRUE(DecodeBatchResult(&probe, &header_only).ok());
  EXPECT_EQ(probe.remaining(), 2 * kDim * sizeof(float));

  float out[9] = {-5, -5, -5, -5, -5, -5, -5, -5, -5};
  BatchResult d;
  PayloadReader reader(w.bytes().data(), w.bytes().size());
  ASSERT_TRUE(DecodeMultiGetResponse(&reader, 3, kDim, &d, out).ok());
  EXPECT_FLOAT_EQ(out[0], 1);
  EXPECT_FLOAT_EQ(out[3], -5);  // missing row untouched
  EXPECT_FLOAT_EQ(out[6], 7);
}

TEST(WireTest, GatheredRowRunsByteIdenticalToCopyEncode) {
  // The server's zero-copy send path frames [EncodeBatchResult bytes]
  // followed by the CollectServedRowRuns spans as iovecs. That
  // concatenation must be byte-identical to the copy path
  // (EncodeMultiGetResponse) for every hole pattern, or old and new
  // clients would disagree about the same response.
  if (!kRawFloatRowsMatchWire) GTEST_SKIP() << "big-endian host";
  constexpr uint32_t kDim = 3;
  const float rows[5 * kDim] = {1,  2,  3,  4,  5,  6,  7, 8,
                                9, 10, 11, 12, 13, 14, 15};
  // Hole patterns: leading, trailing, interior holes; all served; none.
  const Status ok = Status::OK();
  const Status nf = Status::NotFound();
  const Status busy = Status::Busy();
  const std::vector<std::vector<Status>> patterns = {
      {nf, ok, ok, nf, ok},
      {ok, busy, ok, ok, nf},
      {ok, ok, ok, ok, ok},
      {nf, busy, nf, nf, nf},
  };
  for (const auto& statuses : patterns) {
    BatchResult r(statuses.size());
    for (size_t i = 0; i < statuses.size(); ++i) {
      r.Record(i, statuses[i]);
    }
    PayloadWriter copy_path;
    EncodeMultiGetResponse(r, rows, kDim, &copy_path);

    PayloadWriter body;
    EncodeBatchResult(r, &body);
    std::vector<std::span<const uint8_t>> runs;
    CollectServedRowRuns(r.codes, rows, kDim, &runs);
    std::vector<uint8_t> gathered(body.bytes().begin(), body.bytes().end());
    for (const auto& run : runs) {
      gathered.insert(gathered.end(), run.begin(), run.end());
    }
    ASSERT_EQ(gathered.size(), copy_path.bytes().size());
    EXPECT_EQ(std::memcmp(gathered.data(), copy_path.bytes().data(),
                          gathered.size()),
              0);
  }
}

TEST(WireTest, WriteHeaderPlusRawRowsByteIdenticalToCopyEncode) {
  // The client's zero-copy write path frames [EncodeMultiWriteRequestHeader
  // bytes] followed by the caller's raw float block as a gathered second
  // piece. That concatenation must be byte-identical to the copy path
  // (EncodeMultiWriteRequest), or servers would decode the two encodings
  // of the same request differently.
  if (!kRawFloatRowsMatchWire) GTEST_SKIP() << "big-endian host";
  constexpr uint32_t kDim = 3;
  std::vector<Key> keys = {42, 7, 19};
  std::vector<float> rows(keys.size() * kDim);
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = static_cast<float>(i) * 0.25f - 1.0f;
  }
  PayloadWriter copy_path;
  EncodeMultiWriteRequest(keys, rows.data(), kDim, 0.125f, &copy_path);

  PayloadWriter header;
  EncodeMultiWriteRequestHeader(keys, 0.125f, &header);
  std::vector<uint8_t> gathered(header.bytes().begin(), header.bytes().end());
  const uint8_t* raw = reinterpret_cast<const uint8_t*>(rows.data());
  gathered.insert(gathered.end(), raw, raw + rows.size() * sizeof(float));
  ASSERT_EQ(gathered.size(), copy_path.bytes().size());
  EXPECT_EQ(std::memcmp(gathered.data(), copy_path.bytes().data(),
                        gathered.size()),
            0);

  // And the gathered bytes decode back to the original request.
  MultiWriteRequest out;
  ASSERT_TRUE(DecodeMultiWriteRequest(gathered, kDim, &out).ok());
  EXPECT_FLOAT_EQ(out.lr, 0.125f);
  EXPECT_EQ(out.keys, keys);
  EXPECT_EQ(out.rows, rows);
}

TEST(WireTest, CollectServedRowRunsCoalescesAdjacentRows) {
  if (!kRawFloatRowsMatchWire) GTEST_SKIP() << "big-endian host";
  constexpr uint32_t kDim = 2;
  const float rows[4 * kDim] = {0, 1, 2, 3, 4, 5, 6, 7};
  BatchResult r(4);
  r.Record(0, Status::OK());
  r.Record(1, Status::OK());
  r.Record(2, Status::NotFound());
  r.Record(3, Status::OK());
  std::vector<std::span<const uint8_t>> runs;
  CollectServedRowRuns(r.codes, rows, kDim, &runs);
  // Rows 0-1 coalesce into one span; row 3 is its own.
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].size(), 2 * kDim * sizeof(float));
  EXPECT_EQ(runs[1].size(), kDim * sizeof(float));
  EXPECT_EQ(runs[0].data(), reinterpret_cast<const uint8_t*>(rows));
}

TEST(WireTest, HandshakeInfoRoundTrip) {
  HandshakeInfo h{16, 3, "MLKV"};
  PayloadWriter w;
  EncodeHandshakeInfo(h, &w);
  PayloadReader r(w.bytes().data(), w.bytes().size());
  HandshakeInfo d;
  ASSERT_TRUE(DecodeHandshakeInfo(&r, &d).ok());
  EXPECT_EQ(d.dim, 16u);
  EXPECT_EQ(d.shard_bits, 3u);
  EXPECT_EQ(d.backend_name, "MLKV");
}

TEST(WireTest, ParseEndpointListForms) {
  std::vector<std::string> out;
  ASSERT_TRUE(ParseEndpointList("h1:7700,h2:7701", &out).ok());
  EXPECT_EQ(out, (std::vector<std::string>{"h1:7700", "h2:7701"}));

  // Whitespace around entries is trimmed; entries are normalized through
  // ParseHostPort (bare ":port" gets the loopback host).
  out.clear();
  ASSERT_TRUE(ParseEndpointList("  h1:7700 ,\th2:7701 , :7702", &out).ok());
  EXPECT_EQ(out, (std::vector<std::string>{"h1:7700", "h2:7701",
                                           "127.0.0.1:7702"}));

  out.clear();
  EXPECT_TRUE(ParseEndpointList("", &out).IsInvalidArgument());
  EXPECT_TRUE(ParseEndpointList("h1:7700,,h2:7701", &out).IsInvalidArgument());
  EXPECT_TRUE(ParseEndpointList("h1:7700,", &out).IsInvalidArgument());
  EXPECT_TRUE(ParseEndpointList("h1:7700, h2", &out).IsInvalidArgument());
  EXPECT_TRUE(ParseEndpointList("h1:99999", &out).IsInvalidArgument());
  EXPECT_TRUE(ParseEndpointList("h1:0", &out).IsInvalidArgument());
}

TEST(WireTest, ReplicationPayloadsRoundTrip) {
  SubscribeResponse sub;
  sub.shard_durables = {64, 0, 4096};
  PayloadWriter w1;
  EncodeSubscribeResponse(sub, &w1);
  PayloadReader r1(w1.bytes().data(), w1.bytes().size());
  SubscribeResponse dsub;
  ASSERT_TRUE(DecodeSubscribeResponse(&r1, &dsub).ok());
  EXPECT_EQ(dsub.shard_durables, sub.shard_durables);

  ReplicateRequest req;
  req.shard = 2;
  req.from = 12345;
  req.max_records = 512;
  req.max_bytes = 1 << 20;
  PayloadWriter w2;
  EncodeReplicateRequest(req, &w2);
  ReplicateRequest dreq;
  ASSERT_TRUE(DecodeReplicateRequest(w2.bytes(), &dreq).ok());
  EXPECT_EQ(dreq.shard, req.shard);
  EXPECT_EQ(dreq.from, req.from);
  EXPECT_EQ(dreq.max_records, req.max_records);
  EXPECT_EQ(dreq.max_bytes, req.max_bytes);

  ReplicateResponse resp;
  resp.next_from = 2048;
  resp.durable = 4096;
  UpdateEntry a;
  a.address = 64;
  a.key = 7;
  a.generation = 3;
  a.staleness = 1;
  a.tombstone = false;
  a.value = {'a', 'b', 'c', 'd'};
  UpdateEntry b;
  b.address = 128;
  b.key = 9;
  b.tombstone = true;  // tombstones ship with an empty value
  resp.entries = {a, b};
  PayloadWriter w3;
  EncodeReplicateResponse(resp, &w3);
  PayloadReader r3(w3.bytes().data(), w3.bytes().size());
  ReplicateResponse dresp;
  ASSERT_TRUE(DecodeReplicateResponse(&r3, &dresp).ok());
  EXPECT_EQ(dresp.next_from, resp.next_from);
  EXPECT_EQ(dresp.durable, resp.durable);
  ASSERT_EQ(dresp.entries.size(), 2u);
  EXPECT_EQ(dresp.entries[0].address, a.address);
  EXPECT_EQ(dresp.entries[0].key, a.key);
  EXPECT_EQ(dresp.entries[0].generation, a.generation);
  EXPECT_EQ(dresp.entries[0].staleness, a.staleness);
  EXPECT_FALSE(dresp.entries[0].tombstone);
  EXPECT_EQ(dresp.entries[0].value, a.value);
  EXPECT_TRUE(dresp.entries[1].tombstone);
  EXPECT_TRUE(dresp.entries[1].value.empty());

  // Truncation anywhere must be rejected, never read out of bounds.
  for (size_t cut = 0; cut + 1 < w3.bytes().size(); cut += 5) {
    PayloadReader r(w3.bytes().data(), cut);
    ReplicateResponse d;
    EXPECT_FALSE(DecodeReplicateResponse(&r, &d).ok()) << "cut " << cut;
  }
}

TEST(WireTest, ParseHostPortForms) {
  std::string host;
  uint16_t port = 0;
  ASSERT_TRUE(ParseHostPort("127.0.0.1:7700", &host, &port).ok());
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 7700);
  ASSERT_TRUE(ParseHostPort(":8080", &host, &port).ok());
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 8080);
  EXPECT_FALSE(ParseHostPort("nocolon", &host, &port).ok());
  EXPECT_FALSE(ParseHostPort("h:99999", &host, &port).ok());
  EXPECT_FALSE(ParseHostPort("h:0", &host, &port).ok());
  EXPECT_TRUE(ParseHostPort("h:0", &host, &port, true).ok());
}

// --- server + client over loopback ---------------------------------------

std::unique_ptr<KvBackend> MakeInMemory(uint32_t dim = 8) {
  BackendConfig cfg;
  cfg.dim = dim;
  cfg.dir = "";  // in-memory backend: no files
  std::unique_ptr<KvBackend> b;
  // InMemory ignores dir contents but the factory creates the dir; give a
  // scratch path under /tmp via the temp-dir-free direct kind.
  cfg.dir = "/tmp/mlkv-net-test-inmem";
  if (!MakeBackend(BackendKind::kInMemory, cfg, &b).ok()) return nullptr;
  return b;
}

class LoopbackServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    KvServerOptions opts;
    opts.num_workers = 4;
    server_ = std::make_unique<KvServer>(MakeInMemory(), opts);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  // A series out of the server's own registry (what kStats would return).
  double Local(std::string_view series) const {
    return Sample(server_->metrics()->ExpositionText(), series);
  }

  std::unique_ptr<KvServer> server_;
};

TEST_F(LoopbackServerTest, RemoteBackendHandshakesAndRoundTrips) {
  RemoteBackendOptions o;
  o.addr = server_->addr();
  std::unique_ptr<KvBackend> remote;
  ASSERT_TRUE(RemoteBackend::Connect(o, &remote).ok());
  EXPECT_EQ(remote->dim(), 8u);
  EXPECT_EQ(remote->name(), "Remote(InMemory)");

  std::vector<Key> keys = {10, 20, 30};
  std::vector<float> values(3 * 8);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<float>(i) * 0.25f;
  }
  EXPECT_TRUE(remote->MultiPut(keys, values.data()).AllOk());
  std::vector<float> out(3 * 8, -1.0f);
  const BatchResult got = remote->MultiGet(keys, out.data());
  EXPECT_TRUE(got.AllOk());
  EXPECT_EQ(got.found, 3u);
  EXPECT_EQ(out, values);
}

TEST_F(LoopbackServerTest, PingStatsAndOpCounters) {
  RemoteBackendOptions o;
  o.addr = server_->addr();
  std::unique_ptr<KvBackend> remote;
  ASSERT_TRUE(RemoteBackend::Connect(o, &remote).ok());
  auto* rb = static_cast<RemoteBackend*>(remote.get());
  ASSERT_TRUE(rb->Ping().ok());
  std::vector<Key> keys = {1, 2};
  std::vector<float> buf(2 * 8);
  remote->MultiGet(keys, buf.data());
  remote->MultiGet(keys, buf.data());
  remote->MultiPut(keys, buf.data());
  std::string text;
  ASSERT_TRUE(rb->FetchStats(&text).ok());
  EXPECT_EQ(Sample(text, "mlkv_server_requests_total{op=\"MultiGet\"}"), 2);
  EXPECT_EQ(Sample(text, "mlkv_server_requests_total{op=\"MultiPut\"}"), 1);
  EXPECT_EQ(Sample(text, "mlkv_server_requests_total{op=\"Ping\"}"), 1);
  EXPECT_GE(Sample(text, "mlkv_server_requests_total{op=\"Handshake\"}"), 1);
  // The kStats request counts itself before the text is rendered.
  EXPECT_EQ(Sample(text, "mlkv_server_requests_total{op=\"Stats\"}"), 1);
  const double requests =
      Sample(text, "mlkv_server_handled_requests_total");
  EXPECT_GE(requests, 6);
  // The in-process view agrees with the wire view.
  EXPECT_GE(Local("mlkv_server_handled_requests_total"), requests);
  EXPECT_GE(static_cast<double>(server_->request_latency().count()),
            requests);
}

TEST_F(LoopbackServerTest, StatsCarriesKernelTier) {
  RemoteBackendOptions o;
  o.addr = server_->addr();
  std::unique_ptr<RemoteBackend> remote;
  ASSERT_TRUE(RemoteBackend::Connect(o, &remote).ok());
  std::string text;
  ASSERT_TRUE(remote->FetchStats(&text).ok());
  EXPECT_EQ(Sample(text, "mlkv_simd_kernel_tier"),
            static_cast<double>(simd::ActiveKernelTier()));
}

TEST_F(LoopbackServerTest, LookaheadTravelsTheWire) {
  RemoteBackendOptions o;
  o.addr = server_->addr();
  std::unique_ptr<KvBackend> remote;
  ASSERT_TRUE(RemoteBackend::Connect(o, &remote).ok());
  std::vector<Key> keys = {5, 6, 7};
  EXPECT_TRUE(remote->Lookahead(keys).ok());
  EXPECT_EQ(Local("mlkv_server_requests_total{op=\"Lookahead\"}"), 1);
}

TEST_F(LoopbackServerTest, VersionMismatchHandshakeFails) {
  Socket raw;
  ASSERT_TRUE(Socket::Connect("127.0.0.1", server_->port(), &raw).ok());
  FrameHeader h;
  h.version = kWireVersion + 1;
  h.opcode = Opcode::kHandshake;
  h.request_id = 77;
  uint8_t buf[kFrameHeaderSize];
  EncodeFrameHeader(h, buf);
  ASSERT_TRUE(raw.SendAll(buf, sizeof(buf)).ok());
  // The server answers with a decodable NotSupported error...
  FrameHeader resp;
  std::vector<uint8_t> payload;
  ASSERT_TRUE(RecvFrame(&raw, &resp, &payload).ok());
  EXPECT_EQ(resp.request_id, 77u);
  EXPECT_NE(resp.flags & kFlagResponse, 0);
  PayloadReader r(payload.data(), payload.size());
  Status transport;
  ASSERT_TRUE(r.ReadStatus(&transport));
  EXPECT_TRUE(transport.IsNotSupported());
  EXPECT_NE(transport.message().find("version"), std::string::npos);
  // ...then hangs up.
  uint8_t byte;
  EXPECT_TRUE(raw.RecvAll(&byte, 1, /*eof_ok=*/true).IsAborted());
}

TEST_F(LoopbackServerTest, CorruptMagicDropsConnectionServerSurvives) {
  {
    Socket raw;
    ASSERT_TRUE(Socket::Connect("127.0.0.1", server_->port(), &raw).ok());
    uint8_t garbage[kFrameHeaderSize];
    std::memset(garbage, 0x5A, sizeof(garbage));
    ASSERT_TRUE(raw.SendAll(garbage, sizeof(garbage)).ok());
    uint8_t byte;
    EXPECT_FALSE(raw.RecvAll(&byte, 1, /*eof_ok=*/true).ok());
  }
  // A frame announcing more payload than it delivers must not wedge the
  // worker either.
  {
    Socket raw;
    ASSERT_TRUE(Socket::Connect("127.0.0.1", server_->port(), &raw).ok());
    FrameHeader h;
    h.opcode = Opcode::kPing;
    h.payload_len = 100;
    uint8_t buf[kFrameHeaderSize];
    EncodeFrameHeader(h, buf);
    ASSERT_TRUE(raw.SendAll(buf, sizeof(buf)).ok());
    // close with the payload never sent
  }
  // The server still serves fresh connections.
  RemoteBackendOptions o;
  o.addr = server_->addr();
  std::unique_ptr<KvBackend> remote;
  ASSERT_TRUE(RemoteBackend::Connect(o, &remote).ok());
  ASSERT_TRUE(static_cast<RemoteBackend*>(remote.get())->Ping().ok());
  EXPECT_GE(Local("mlkv_server_transport_errors_total"), 1);
}

TEST_F(LoopbackServerTest, UnknownOpcodeGetsErrorButKeepsConnection) {
  Socket raw;
  ASSERT_TRUE(Socket::Connect("127.0.0.1", server_->port(), &raw).ok());
  FrameHeader h;
  h.opcode = static_cast<Opcode>(99);
  h.request_id = 5;
  uint8_t buf[kFrameHeaderSize];
  EncodeFrameHeader(h, buf);
  ASSERT_TRUE(raw.SendAll(buf, sizeof(buf)).ok());
  FrameHeader resp;
  std::vector<uint8_t> payload;
  ASSERT_TRUE(RecvFrame(&raw, &resp, &payload).ok());
  PayloadReader r(payload.data(), payload.size());
  Status transport;
  ASSERT_TRUE(r.ReadStatus(&transport));
  EXPECT_TRUE(transport.IsNotSupported());
  // Frame boundaries were intact, so the connection still works.
  FrameHeader ping;
  ping.opcode = Opcode::kPing;
  ping.request_id = 6;
  EncodeFrameHeader(ping, buf);
  ASSERT_TRUE(raw.SendAll(buf, sizeof(buf)).ok());
  ASSERT_TRUE(RecvFrame(&raw, &resp, &payload).ok());
  EXPECT_EQ(resp.request_id, 6u);
}

TEST_F(LoopbackServerTest, ParallelPooledClients) {
  RemoteBackendOptions o;
  o.addr = server_->addr();
  o.pool_size = 4;
  std::unique_ptr<KvBackend> remote;
  ASSERT_TRUE(RemoteBackend::Connect(o, &remote).ok());
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::vector<Key> keys(16);
      std::vector<float> values(16 * 8), out(16 * 8);
      for (int round = 0; round < 50; ++round) {
        for (size_t i = 0; i < keys.size(); ++i) {
          keys[i] = static_cast<Key>(t) * 100000 + round * 16 + i;
          for (int d = 0; d < 8; ++d) {
            values[i * 8 + d] = static_cast<float>(keys[i] + d);
          }
        }
        if (!remote->MultiPut(keys, values.data()).AllOk() ||
            !remote->MultiGet(keys, out.data()).AllOk() || out != values) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(LoopbackServerTest, OversizedBatchesChunkAcrossRpcs) {
  RemoteBackendOptions o;
  o.addr = server_->addr();
  o.max_keys_per_rpc = 7;  // force chunk stitching on modest batches
  std::unique_ptr<KvBackend> remote;
  ASSERT_TRUE(RemoteBackend::Connect(o, &remote).ok());

  constexpr size_t kN = 100;
  std::vector<Key> keys(kN);
  for (size_t i = 0; i < kN; ++i) keys[i] = 500 + i;
  keys[3] = keys[95];   // duplicates spanning chunk boundaries
  keys[10] = keys[60];
  std::vector<float> values(kN * 8);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<float>(i) * 0.1f;
  }
  // Last-occurrence-wins must survive chunking.
  const BatchResult put = remote->MultiPut(keys, values.data());
  EXPECT_TRUE(put.AllOk());
  ASSERT_EQ(put.size(), kN);
  std::vector<float> out(kN * 8);
  const BatchResult got = remote->MultiGet(keys, out.data());
  EXPECT_TRUE(got.AllOk());
  EXPECT_EQ(got.found, kN);
  for (int d = 0; d < 8; ++d) {
    EXPECT_FLOAT_EQ(out[3 * 8 + d], values[95 * 8 + d]);  // dup reads last
    EXPECT_FLOAT_EQ(out[10 * 8 + d], values[60 * 8 + d]);
  }
  // Mixed found/missing codes land at caller positions across chunks.
  std::vector<Key> probe(kN);
  for (size_t i = 0; i < kN; ++i) {
    probe[i] = i % 2 == 0 ? keys[i] : 900000 + i;
  }
  MultiGetOptions no_init;
  no_init.init_missing = false;
  const BatchResult mixed = remote->MultiGet(probe, out.data(), no_init);
  ASSERT_EQ(mixed.size(), kN);
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(mixed.codes[i], i % 2 == 0 ? Status::Code::kOk
                                         : Status::Code::kNotFound)
        << "key " << i;
  }
  EXPECT_EQ(mixed.found + mixed.missing, kN);
  // Served rows land intact around the holes — the server gathers them
  // straight from its backend buffer as iovecs, so any run-boundary bug
  // would show up as shifted row data here.
  for (int d = 0; d < 8; ++d) {
    EXPECT_FLOAT_EQ(out[0 * 8 + d], values[0 * 8 + d]);
    EXPECT_FLOAT_EQ(out[2 * 8 + d], values[2 * 8 + d]);
    EXPECT_FLOAT_EQ(out[98 * 8 + d], values[98 * 8 + d]);
  }
  // The server really saw multiple MultiGet frames per call.
  EXPECT_GE(Local("mlkv_server_requests_total{op=\"MultiGet\"}"),
            2 * ((kN + 6) / 7));
}

TEST_F(LoopbackServerTest, ServerRejectsDimAmplifiedOversizeMultiGet) {
  // A client that skips chunking (hostile, or max_keys_per_rpc overridden)
  // can fit a key list in one frame whose dim-amplified response would
  // not fit. The server must refuse before doing any backend work, with a
  // decodable error on an intact stream.
  RemoteBackendOptions o;
  o.addr = server_->addr();
  o.max_keys_per_rpc = 1u << 26;  // defeat the client-side chunking
  std::unique_ptr<KvBackend> remote;
  ASSERT_TRUE(RemoteBackend::Connect(o, &remote).ok());
  const size_t n = kMaxPayloadBytes / (8 * 4 + 1) + 1024;  // over resp cap
  std::vector<Key> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = i;
  std::vector<float> out(n * 8);
  MultiGetOptions no_init;
  no_init.init_missing = false;  // reject must come before any execution
  const BatchResult r = remote->MultiGet(keys, out.data(), no_init);
  EXPECT_EQ(r.failed, n);
  EXPECT_TRUE(r.first_error.IsInvalidArgument());
  // Payload-level error: frame boundaries intact, connection reusable.
  std::vector<Key> one = {1};
  EXPECT_TRUE(remote->MultiGet(one, out.data()).AllOk());
}

TEST_F(LoopbackServerTest, MoreConnectionsThanWorkersRoundRobin) {
  // 4 workers (fixture) but 6 single-connection clients issuing RPCs in
  // lockstep: quiet connections must yield their slots, so every client
  // makes progress instead of the 5th+ hanging forever.
  constexpr int kClients = 6;
  std::vector<std::unique_ptr<KvBackend>> clients(kClients);
  for (int c = 0; c < kClients; ++c) {
    RemoteBackendOptions o;
    o.addr = server_->addr();
    o.pool_size = 1;
    ASSERT_TRUE(RemoteBackend::Connect(o, &clients[c]).ok());
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<Key> keys = {static_cast<Key>(c) * 1000};
      std::vector<float> buf(8);
      for (int round = 0; round < 20; ++round) {
        if (!clients[c]->MultiGet(keys, buf.data()).AllOk()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(LoopbackServerTest, StopUnblocksIdleConnectionsAndRejectsNew) {
  RemoteBackendOptions o;
  o.addr = server_->addr();
  std::unique_ptr<KvBackend> remote;
  ASSERT_TRUE(RemoteBackend::Connect(o, &remote).ok());
  ASSERT_TRUE(static_cast<RemoteBackend*>(remote.get())->Ping().ok());
  // One idle pooled connection is parked in a worker's RecvFrame; Stop
  // must return promptly anyway.
  server_->Stop();
  EXPECT_FALSE(server_->running());
  // The client's next RPC fails cleanly instead of hanging.
  std::vector<Key> keys = {1};
  std::vector<float> buf(8);
  const BatchResult r = remote->MultiGet(keys, buf.data());
  EXPECT_EQ(r.failed, 1u);
}

// Backend wrapper whose MultiGet blocks until released — makes the
// "Stop() drains in-flight requests" guarantee testable deterministically.
class GatedBackend : public KvBackend {
 public:
  explicit GatedBackend(std::unique_ptr<KvBackend> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  uint32_t dim() const override { return inner_->dim(); }

  BatchResult MultiGet(std::span<const Key> keys, float* out,
                       const MultiGetOptions& options) override {
    {
      std::unique_lock<std::mutex> lk(mu_);
      entered_ = true;
      entered_cv_.notify_all();
      release_cv_.wait(lk, [this] { return released_; });
    }
    return inner_->MultiGet(keys, out, options);
  }
  BatchResult MultiPut(std::span<const Key> keys,
                       const float* values) override {
    return inner_->MultiPut(keys, values);
  }
  BatchResult MultiApplyGradient(std::span<const Key> keys,
                                 const float* grads, float lr) override {
    return inner_->MultiApplyGradient(keys, grads, lr);
  }

  void WaitEntered() {
    std::unique_lock<std::mutex> lk(mu_);
    entered_cv_.wait(lk, [this] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lk(mu_);
    released_ = true;
    release_cv_.notify_all();
  }

 private:
  std::unique_ptr<KvBackend> inner_;
  std::mutex mu_;
  std::condition_variable entered_cv_, release_cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST(KvServerStopTest, StopDrainsInFlightRequest) {
  auto gated = std::make_unique<GatedBackend>(MakeInMemory());
  GatedBackend* gate = gated.get();
  KvServerOptions opts;
  opts.num_workers = 2;
  KvServer server(std::move(gated), opts);
  ASSERT_TRUE(server.Start().ok());

  // Seed a value through the ungated path.
  RemoteBackendOptions o;
  o.addr = server.addr();
  std::unique_ptr<KvBackend> remote;
  ASSERT_TRUE(RemoteBackend::Connect(o, &remote).ok());
  std::vector<Key> keys = {7};
  std::vector<float> v(8, 3.5f);
  ASSERT_TRUE(remote->MultiPut(keys, v.data()).AllOk());

  // In-flight MultiGet parks inside the backend...
  BatchResult got;
  std::vector<float> out(8, 0.0f);
  std::thread client([&] { got = remote->MultiGet(keys, out.data()); });
  gate->WaitEntered();

  // ...Stop begins while the request is mid-execution...
  std::thread stopper([&] { server.Stop(); });
  gate->Release();

  // ...and both sides finish: the client gets its full response, Stop
  // returns once the drain completes.
  client.join();
  stopper.join();
  EXPECT_TRUE(got.AllOk());
  EXPECT_EQ(out, v);
  EXPECT_FALSE(server.running());
}

TEST(KvServerOffloadTest, OffloadFreesTheWorkerForOtherConnections) {
  // One worker, but storage requests execute on a request pool: while
  // client A's MultiGet is parked inside the backend, the lone worker must
  // still serve client B — impossible if the request ran inline.
  auto gated = std::make_unique<GatedBackend>(MakeInMemory());
  GatedBackend* gate = gated.get();
  KvServerOptions opts;
  opts.num_workers = 1;
  opts.request_threads = 2;
  KvServer server(std::move(gated), opts);
  ASSERT_TRUE(server.Start().ok());

  RemoteBackendOptions o;
  o.addr = server.addr();
  std::unique_ptr<KvBackend> a, b;
  ASSERT_TRUE(RemoteBackend::Connect(o, &a).ok());
  ASSERT_TRUE(RemoteBackend::Connect(o, &b).ok());

  std::vector<Key> keys = {5};
  std::vector<float> v(8, 2.25f);
  ASSERT_TRUE(b->MultiPut(keys, v.data()).AllOk());

  BatchResult got;
  std::vector<float> out(8, 0.0f);
  std::thread blocked([&] { got = a->MultiGet(keys, out.data()); });
  gate->WaitEntered();
  // A is parked in the backend on the offload pool; B's RPCs — another
  // storage op and a ping — go through the (single) freed worker.
  std::vector<float> v2(8, 9.75f);
  EXPECT_TRUE(b->MultiPut({keys.data(), 1}, v2.data()).AllOk());
  EXPECT_TRUE(static_cast<RemoteBackend*>(b.get())->Ping().ok());
  gate->Release();
  blocked.join();
  EXPECT_TRUE(got.AllOk());
  // A's read linearized either before or after B's second put.
  EXPECT_TRUE(out == v || out == v2);
  // A's connection was requeued after the offloaded response: it serves
  // the next request normally.
  EXPECT_TRUE(a->MultiGet(keys, out.data()).AllOk());
  EXPECT_EQ(out, v2);
  server.Stop();
}

TEST(KvServerOffloadTest, StopDrainsOffloadedInFlightRequest) {
  auto gated = std::make_unique<GatedBackend>(MakeInMemory());
  GatedBackend* gate = gated.get();
  KvServerOptions opts;
  opts.num_workers = 1;
  opts.request_threads = 1;
  KvServer server(std::move(gated), opts);
  ASSERT_TRUE(server.Start().ok());

  RemoteBackendOptions o;
  o.addr = server.addr();
  std::unique_ptr<KvBackend> remote;
  ASSERT_TRUE(RemoteBackend::Connect(o, &remote).ok());
  std::vector<Key> keys = {7};
  std::vector<float> v(8, 3.5f);
  ASSERT_TRUE(remote->MultiPut(keys, v.data()).AllOk());

  BatchResult got;
  std::vector<float> out(8, 0.0f);
  std::thread client([&] { got = remote->MultiGet(keys, out.data()); });
  gate->WaitEntered();
  std::thread stopper([&] { server.Stop(); });
  gate->Release();
  client.join();
  stopper.join();
  // The offloaded request finished and answered before Stop returned.
  EXPECT_TRUE(got.AllOk());
  EXPECT_EQ(out, v);
  EXPECT_FALSE(server.running());
}

TEST(KvServerIoStatsTest, ColdReadCountersTravelTheWire) {
  // A FASTER backend with a tiny buffer behind a server: cold remote
  // MultiGets must surface disk and pending-pipeline counters through the
  // kStats opcode — the remote operator's view of I/O behavior.
  TempDir dir;
  BackendConfig cfg;
  cfg.dir = dir.File("b");
  cfg.dim = 8;
  cfg.buffer_bytes = 1u << 16;
  cfg.index_slots = 4096;
  cfg.mlkv.engine.io_threads = 2;
  std::unique_ptr<KvBackend> backend;
  ASSERT_TRUE(MakeBackend(BackendKind::kFaster, cfg, &backend).ok());
  KvServer server(std::move(backend));
  ASSERT_TRUE(server.Start().ok());

  RemoteBackendOptions o;
  o.addr = server.addr();
  std::unique_ptr<KvBackend> remote;
  ASSERT_TRUE(RemoteBackend::Connect(o, &remote).ok());
  constexpr size_t kN = 2000;
  std::vector<Key> keys(kN);
  std::vector<float> rows(kN * 8);
  for (size_t i = 0; i < kN; ++i) {
    keys[i] = i;
    for (int d = 0; d < 8; ++d) rows[i * 8 + d] = static_cast<float>(i);
  }
  ASSERT_TRUE(remote->MultiPut(keys, rows.data()).AllOk());
  std::vector<float> out(kN * 8, 0.0f);
  ASSERT_TRUE(remote->MultiGet(keys, out.data()).AllOk());
  EXPECT_EQ(out, rows);

  std::string text;
  ASSERT_TRUE(
      static_cast<RemoteBackend*>(remote.get())->FetchStats(&text).ok());
  EXPECT_GT(FamilySum(text, "mlkv_io_disk_record_reads_total"), 0);
  EXPECT_GT(FamilySum(text, "mlkv_io_pages_flushed_total"), 0);
  EXPECT_GT(FamilySum(text, "mlkv_io_async_reads_submitted_total"), 0);
  EXPECT_EQ(FamilySum(text, "mlkv_io_async_reads_submitted_total"),
            FamilySum(text, "mlkv_io_async_reads_completed_total"));
  server.Stop();
}

TEST(KvServerStopTest, StopNotWedgedByPeerThatStopsReading) {
  // A worker mid-send to a client that never reads blocks once the TCP
  // buffers fill; SHUT_RD can't unblock a send, so the send timeout must
  // bound the drain or Stop() would join() forever.
  KvServerOptions opts;
  opts.num_workers = 1;
  opts.send_timeout_ms = 300;
  KvServer server(MakeInMemory(), opts);
  ASSERT_TRUE(server.Start().ok());

  Socket raw;
  ASSERT_TRUE(Socket::Connect("127.0.0.1", server.port(), &raw).ok());
  // ~1.5M fresh keys at dim 8 → ~49 MiB of initialized rows back: well
  // past any loopback socket buffering, and under the 64 MiB frame cap.
  constexpr size_t kN = 1500000;
  std::vector<Key> keys(kN);
  for (size_t i = 0; i < kN; ++i) keys[i] = i;
  PayloadWriter w;
  EncodeMultiGetRequest(keys, /*init_missing=*/true, /*untracked=*/true, &w);
  ASSERT_TRUE(SendFrame(&raw, Opcode::kMultiGet, 0, 1, w.bytes()).ok());
  // Never read the response; give the worker time to start sending.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const uint64_t start = NowMicros();
  server.Stop();
  // Bounded by the send timeout (+ the backend work), not forever. The
  // bound is generous for sanitizer builds.
  EXPECT_LT(NowMicros() - start, 60ull * 1000 * 1000);
}

TEST(KvServerStopTest, StopIsIdempotentAndRestartable) {
  KvServerOptions opts;
  opts.num_workers = 1;
  KvServer server(MakeInMemory(), opts);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t first_port = server.port();
  ASSERT_NE(first_port, 0);
  server.Stop();
  server.Stop();  // no-op
  // A stopped server can be started again (fresh ephemeral port is fine).
  ASSERT_TRUE(server.Start().ok());
  RemoteBackendOptions o;
  o.addr = server.addr();
  std::unique_ptr<KvBackend> remote;
  ASSERT_TRUE(RemoteBackend::Connect(o, &remote).ok());
  ASSERT_TRUE(static_cast<RemoteBackend*>(remote.get())->Ping().ok());
  server.Stop();
}

TEST(KvServerRestartTest, StalePooledSocketRetriesOnFreshConnection) {
  // A pooled client socket can outlive its server (restart / failover).
  // KvServer always responds before closing, so a clean close where the
  // response should be means the request never executed — the client must
  // retry once on a fresh socket instead of folding the batch to failures.
  KvServerOptions opts;
  opts.num_workers = 2;
  auto first = std::make_unique<KvServer>(MakeInMemory(), opts);
  ASSERT_TRUE(first->Start().ok());
  const uint16_t port = first->port();

  RemoteBackendOptions o;
  o.addr = first->addr();
  std::unique_ptr<RemoteBackend> remote;
  ASSERT_TRUE(RemoteBackend::Connect(o, &remote).ok());
  ASSERT_TRUE(remote->Ping().ok());  // pools a now-doomed idle socket

  first->Stop();
  first.reset();
  // Same port, new server process-equivalent.
  opts.port = port;
  KvServer second(MakeInMemory(), opts);
  ASSERT_TRUE(second.Start().ok());

  std::vector<Key> keys = {1, 2, 3};
  std::vector<float> values(3 * 8, 1.25f);
  const BatchResult put = remote->MultiPut(keys, values.data());
  EXPECT_TRUE(put.AllOk()) << put.status().ToString();
  std::vector<float> out(3 * 8, -1.0f);
  EXPECT_TRUE(remote->MultiGet(keys, out.data(), MultiGetOptions{}).AllOk());
  EXPECT_EQ(out, values);
  EXPECT_GE(remote->rpc_retries(), 1u)
      << "the stale pooled socket should have been retried, not failed";

  remote.reset();
  second.Stop();
}

}  // namespace
}  // namespace net
}  // namespace mlkv
