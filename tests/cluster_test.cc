// Cluster mode: routing-map construction and wire fidelity, scatter/gather
// parity against a single sharded store, primary→replica log shipping, and
// failover (dead primary: reads survive via the replica, writes degrade to
// per-key failures instead of whole-batch aborts).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "backend/delayed_backend.h"
#include "backend/kv_backend.h"
#include "cluster/cluster_backend.h"
#include "cluster/cluster_map.h"
#include "cluster/replicator.h"
#include "common/hash.h"
#include "common/spin_wait.h"
#include "io/temp_dir.h"
#include "kv/faster_store.h"
#include "mlkv/mlkv.h"
#include "net/kv_server.h"
#include "net/remote_backend.h"
#include "obs/metrics.h"

namespace mlkv {
namespace {

using cluster::BuildClusterMap;
using cluster::ClusterBackend;
using cluster::ClusterMap;
using cluster::ReadPreference;
using cluster::Replicator;

// --- ClusterMap ----------------------------------------------------------

TEST(ClusterMapTest, BuildSpreadsPartitionsRoundRobin) {
  ClusterMap m;
  ASSERT_TRUE(BuildClusterMap({"a:1", "b:2"}, {}, /*route_bits=*/2,
                              ReadPreference::kPrimary, 5, &m)
                  .ok());
  EXPECT_EQ(m.epoch, 5u);
  EXPECT_EQ(m.route_bits, 2u);
  EXPECT_EQ(m.num_partitions(), 4u);
  ASSERT_EQ(m.endpoints.size(), 2u);
  EXPECT_EQ(m.partitions[0].primary, 0u);
  EXPECT_EQ(m.partitions[1].primary, 1u);
  EXPECT_EQ(m.partitions[2].primary, 0u);
  EXPECT_EQ(m.partitions[3].primary, 1u);
  EXPECT_TRUE(m.Validate().ok());
}

TEST(ClusterMapTest, BuildDerivesRouteBitsAndAttachesReplicas) {
  ClusterMap m;
  // 3 primaries -> ceil(log2(3)) = 2 route bits; server 0 has a replica.
  ASSERT_TRUE(BuildClusterMap({"a:1", "b:2", "c:3"}, {"r:9", "", ""},
                              /*route_bits=*/0, ReadPreference::kReplica, 1,
                              &m)
                  .ok());
  EXPECT_EQ(m.route_bits, 2u);
  ASSERT_EQ(m.endpoints.size(), 4u);  // 3 primaries + 1 replica
  EXPECT_EQ(m.read_preference, ReadPreference::kReplica);
  const uint32_t replica_idx = static_cast<uint32_t>(m.FindEndpoint("r:9"));
  for (uint32_t p = 0; p < m.num_partitions(); ++p) {
    if (m.partitions[p].primary == 0) {
      ASSERT_EQ(m.partitions[p].replicas.size(), 1u) << "partition " << p;
      EXPECT_EQ(m.partitions[p].replicas[0], replica_idx);
    } else {
      EXPECT_TRUE(m.partitions[p].replicas.empty()) << "partition " << p;
    }
  }
}

TEST(ClusterMapTest, BuildRejectsBadShapes) {
  ClusterMap m;
  EXPECT_FALSE(BuildClusterMap({}, {}, 0, ReadPreference::kPrimary, 1, &m)
                   .ok());
  EXPECT_FALSE(BuildClusterMap({"a:1"}, {"r:1", "r:2"}, 0,
                               ReadPreference::kPrimary, 1, &m)
                   .ok());
  EXPECT_FALSE(BuildClusterMap({"a:1"}, {}, 17, ReadPreference::kPrimary, 1,
                               &m)
                   .ok());
  // More primaries than partitions: some servers would own nothing.
  EXPECT_FALSE(BuildClusterMap({"a:1", "b:2", "c:3"}, {}, /*route_bits=*/1,
                               ReadPreference::kPrimary, 1, &m)
                   .ok());
}

TEST(ClusterMapTest, OwnershipFollowsPartitionAssignment) {
  ClusterMap m;
  ASSERT_TRUE(BuildClusterMap({"a:1", "b:2"}, {"r:9", ""}, 1,
                              ReadPreference::kPrimary, 1, &m)
                  .ok());
  const uint32_t replica_idx = static_cast<uint32_t>(m.FindEndpoint("r:9"));
  for (Key k = 0; k < 64; ++k) {
    const size_t p = m.PartitionOf(k);
    const uint32_t owner = m.partitions[p].primary;
    EXPECT_TRUE(m.OwnsForWrite(owner, k));
    EXPECT_FALSE(m.OwnsForWrite(1 - owner, k));
    EXPECT_TRUE(m.OwnsForRead(owner, k));
    EXPECT_EQ(m.OwnsForRead(replica_idx, k), owner == 0u);
    EXPECT_FALSE(m.OwnsForWrite(replica_idx, k));
  }
}

TEST(ClusterMapTest, EncodeDecodeRoundTrips) {
  ClusterMap m;
  ASSERT_TRUE(BuildClusterMap({"host-a:7700", "host-b:7701"}, {"rep:7900", ""},
                              2, ReadPreference::kReplica, 42, &m)
                  .ok());
  net::PayloadWriter w;
  EncodeClusterMap(m, &w);
  net::PayloadReader r(w.bytes().data(), w.bytes().size());
  ClusterMap out;
  ASSERT_TRUE(DecodeClusterMap(&r, &out).ok());
  EXPECT_EQ(out.epoch, m.epoch);
  EXPECT_EQ(out.route_bits, m.route_bits);
  EXPECT_EQ(out.read_preference, m.read_preference);
  EXPECT_EQ(out.table, m.table);
  EXPECT_EQ(out.endpoints, m.endpoints);
  ASSERT_EQ(out.partitions.size(), m.partitions.size());
  for (size_t p = 0; p < m.partitions.size(); ++p) {
    EXPECT_EQ(out.partitions[p].primary, m.partitions[p].primary);
    EXPECT_EQ(out.partitions[p].replicas, m.partitions[p].replicas);
  }
}

TEST(ClusterMapTest, DecodeRejectsTruncation) {
  ClusterMap m;
  ASSERT_TRUE(BuildClusterMap({"a:1", "b:2"}, {}, 1, ReadPreference::kPrimary,
                              1, &m)
                  .ok());
  net::PayloadWriter w;
  EncodeClusterMap(m, &w);
  for (size_t cut = 0; cut + 1 < w.bytes().size(); cut += 3) {
    net::PayloadReader r(w.bytes().data(), cut);
    ClusterMap out;
    EXPECT_FALSE(DecodeClusterMap(&r, &out).ok()) << "cut " << cut;
  }
}

TEST(ClusterMapTest, MutualReplicasReuseEndpointSlots) {
  // Each primary replicates the other: a replica address already present
  // must resolve to the existing endpoint index, not a duplicate slot —
  // one server is one endpoint, or its self-identification (and with it
  // read-ownership enforcement) splits across slots.
  ClusterMap m;
  ASSERT_TRUE(BuildClusterMap({"a:1", "b:2"}, {"b:2", "a:1"}, 1,
                              ReadPreference::kPrimary, 1, &m)
                  .ok());
  ASSERT_EQ(m.endpoints.size(), 2u);
  EXPECT_EQ(m.partitions[0].replicas, std::vector<uint32_t>{1u});
  EXPECT_EQ(m.partitions[1].replicas, std::vector<uint32_t>{0u});
  for (Key k = 0; k < 32; ++k) {
    EXPECT_TRUE(m.OwnsForRead(0, k));
    EXPECT_TRUE(m.OwnsForRead(1, k));
    EXPECT_NE(m.OwnsForWrite(0, k), m.OwnsForWrite(1, k));
  }
  // A primary listed as its own replica adds nothing and is dropped.
  ClusterMap self;
  ASSERT_TRUE(BuildClusterMap({"a:1"}, {"a:1"}, 0, ReadPreference::kPrimary,
                              1, &self)
                  .ok());
  EXPECT_EQ(self.endpoints.size(), 1u);
  EXPECT_TRUE(self.partitions[0].replicas.empty());
}

// --- cluster harness -----------------------------------------------------

struct TestServer {
  std::unique_ptr<net::KvServer> server;
  std::string addr;
};

TestServer StartServer(const std::string& dir, uint32_t shard_bits,
                       BackendKind kind = BackendKind::kFaster) {
  BackendConfig cfg;
  cfg.dir = dir;
  cfg.dim = 8;
  cfg.buffer_bytes = 4ull << 20;
  cfg.staleness_bound = UINT32_MAX - 1;
  cfg.shard_bits = shard_bits;
  std::unique_ptr<KvBackend> engine;
  EXPECT_TRUE(MakeBackend(kind, cfg, &engine).ok());
  net::KvServerOptions so;
  so.num_workers = 6;
  TestServer t;
  t.server = std::make_unique<net::KvServer>(std::move(engine), so);
  EXPECT_TRUE(t.server->Start().ok());
  t.addr = t.server->addr();
  return t;
}

// --- scatter/gather parity ----------------------------------------------

// The cluster is a layout knob, not a semantic one: a 2-server cluster
// (each server one ShardedStore) must produce byte-identical rows and
// per-key codes to a single in-process store driven through the same op
// sequence. Valid because conformance already pins results to be
// shard-layout-independent.
TEST(ClusterParityTest, ByteIdenticalToSingleShardedStore) {
  TempDir dir;
  BackendConfig cfg;
  cfg.dir = dir.File("single");
  cfg.dim = 8;
  cfg.buffer_bytes = 4ull << 20;
  cfg.staleness_bound = UINT32_MAX - 1;
  cfg.shard_bits = 2;
  std::unique_ptr<KvBackend> single;
  ASSERT_TRUE(MakeBackend(BackendKind::kFaster, cfg, &single).ok());

  TestServer s0 = StartServer(dir.File("srv0"), /*shard_bits=*/1);
  TestServer s1 = StartServer(dir.File("srv1"), /*shard_bits=*/1);
  auto map = std::make_shared<ClusterMap>();
  ASSERT_TRUE(BuildClusterMap({s0.addr, s1.addr}, {}, 1,
                              ReadPreference::kPrimary, 1, map.get())
                  .ok());
  s0.server->UpdateClusterMap(map, 0);
  s1.server->UpdateClusterMap(map, 1);

  cluster::ClusterBackendOptions co;
  co.endpoints = {s0.addr, s1.addr};
  std::unique_ptr<KvBackend> clustered;
  ASSERT_TRUE(ClusterBackend::Connect(co, &clustered).ok());
  EXPECT_EQ(clustered->dim(), 8u);

  constexpr size_t kN = 400;
  std::vector<Key> keys(kN);
  for (size_t i = 0; i < kN; ++i) keys[i] = i * 13 + 1;
  keys[5] = keys[50];  // duplicates ride along
  auto expect_same = [](const BatchResult& a, const BatchResult& b,
                        const char* what) {
    EXPECT_EQ(a.codes, b.codes) << what;
    EXPECT_EQ(a.found, b.found) << what;
    EXPECT_EQ(a.missing, b.missing) << what;
    EXPECT_EQ(a.busy, b.busy) << what;
    EXPECT_EQ(a.failed, b.failed) << what;
  };

  std::vector<float> la(kN * 8), ca(kN * 8);
  expect_same(single->MultiGet(keys, la.data()),
              clustered->MultiGet(keys, ca.data()), "init MultiGet");
  EXPECT_EQ(la, ca);

  std::vector<float> grads(kN * 8);
  for (size_t i = 0; i < grads.size(); ++i) {
    grads[i] = static_cast<float>(i % 17) * 0.125f - 1.0f;
  }
  expect_same(single->MultiApplyGradient(keys, grads.data(), 0.05f),
              clustered->MultiApplyGradient(keys, grads.data(), 0.05f),
              "MultiApplyGradient");

  std::vector<float> values(kN * 8);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<float>(i) * 0.5f;
  }
  expect_same(single->MultiPut({keys.data(), 128}, values.data()),
              clustered->MultiPut({keys.data(), 128}, values.data()),
              "MultiPut");

  std::vector<Key> probe(keys.begin(), keys.begin() + 200);
  for (size_t i = 0; i < probe.size(); i += 3) probe[i] = 1000000 + i;
  MultiGetOptions no_init;
  no_init.init_missing = false;
  std::vector<float> lb(probe.size() * 8, -3.0f), cb(probe.size() * 8, -3.0f);
  expect_same(single->MultiGet(probe, lb.data(), no_init),
              clustered->MultiGet(probe, cb.data(), no_init),
              "mixed MultiGet");
  EXPECT_EQ(lb, cb);

  clustered.reset();
  s0.server->Stop();
  s1.server->Stop();
}

// --- replication ---------------------------------------------------------

TEST(ReplicationTest, ReplicaConvergesToPrimaryAndResumes) {
  TempDir dir;
  TestServer primary = StartServer(dir.File("primary"), /*shard_bits=*/1);

  BackendConfig rcfg;
  rcfg.dir = dir.File("replica");
  rcfg.dim = 8;
  rcfg.buffer_bytes = 4ull << 20;
  rcfg.staleness_bound = UINT32_MAX - 1;
  rcfg.shard_bits = 1;
  std::unique_ptr<KvBackend> replica;
  ASSERT_TRUE(MakeBackend(BackendKind::kFaster, rcfg, &replica).ok());

  net::RemoteBackendOptions ro;
  ro.addr = primary.addr;
  std::unique_ptr<KvBackend> writer;
  ASSERT_TRUE(net::RemoteBackend::Connect(ro, &writer).ok());

  constexpr size_t kN = 300;
  std::vector<Key> keys(kN);
  std::vector<float> values(kN * 8);
  for (size_t i = 0; i < kN; ++i) {
    keys[i] = i * 7 + 3;
    for (int d = 0; d < 8; ++d) values[i * 8 + d] = i * 10.0f + d;
  }
  ASSERT_TRUE(writer->MultiPut(keys, values.data()).AllOk());

  cluster::ReplicatorOptions opts;
  opts.primary_addr = primary.addr;
  opts.state_path = dir.File("replica.state");
  {
    Replicator rep(replica.get(), opts);
    ASSERT_TRUE(rep.Start().ok());
    ASSERT_TRUE(rep.WaitCaughtUp(20000));
    const cluster::ReplicationProgress p = rep.progress();
    EXPECT_TRUE(p.connected);
    EXPECT_GE(p.replicated_records, kN);
    EXPECT_EQ(p.replica_lag_records, 0u);
    rep.Stop();
  }
  std::vector<float> out(8);
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(replica->PeekEmbedding(keys[i], out.data()).ok()) << i;
    for (int d = 0; d < 8; ++d) {
      ASSERT_EQ(out[d], values[i * 8 + d]) << "key " << keys[i];
    }
  }

  // More writes while the replicator is down; a restarted replicator picks
  // up from the persisted resume tokens and ships only the delta.
  for (size_t i = 0; i < kN; ++i) values[i * 8] += 1000.0f;
  ASSERT_TRUE(writer->MultiPut(keys, values.data()).AllOk());
  Replicator rep2(replica.get(), opts);
  ASSERT_TRUE(rep2.Start().ok());
  ASSERT_TRUE(rep2.WaitCaughtUp(20000));
  // Resume means no full replay: the second pass ships about one update
  // per key, not the whole history again.
  EXPECT_LE(rep2.progress().replicated_records, 2 * kN);
  rep2.Stop();
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(replica->PeekEmbedding(keys[i], out.data()).ok()) << i;
    ASSERT_EQ(out[0], values[i * 8]) << "key " << keys[i];
  }

  writer.reset();
  primary.server->Stop();
}

// A record appended while a poll's seal drains the in-place writers lands
// between the sealed address and Persist's tail snapshot: durable, yet
// still mutable. The poll must not pass it, or an in-place update after
// the poll never reaches the feed. A pinned in-place writer holds the seal
// open while the append happens, so the interleaving is deterministic.
TEST(ReplicationTest, PollStopsAtRecordsAppendedDuringTheSeal) {
  TempDir dir;
  MlkvOptions o;
  o.dir = dir.File("db");
  o.shard_bits = 0;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(o, &db).ok());
  EmbeddingTable* table = nullptr;
  ASSERT_TRUE(db->OpenTable("emb", 8, kAspBound, &table).ok());
  std::unique_ptr<KvBackend> backend;
  ASSERT_TRUE(MakeTableBackend(table, &backend).ok());
  FasterStore* shard = table->store()->shard(0);
  HybridLog* log = shard->mutable_log();

  const Key pinned = 1, late = 2;
  const std::vector<float> first(8, 1.0f), second(8, 2.0f);
  ASSERT_TRUE(backend->PutEmbedding(pinned, first.data()).ok());
  RecordMeta meta;
  Address pinned_at = kInvalidAddress;
  ASSERT_TRUE(shard->PeekMeta(pinned, &meta, &pinned_at).ok());
  const Address sealed = log->tail();
  ASSERT_LT(log->read_only_address(), sealed);
  ASSERT_TRUE(log->BeginInPlaceWrite(pinned_at));

  std::vector<UpdateEntry> entries;
  uint64_t next = 0, durable = 0;
  std::thread poll([&] {
    EXPECT_TRUE(backend
                    ->ReadCommittedUpdates(0, 0, 1000, 0, &entries, &next,
                                           &durable)
                    .ok());
  });
  // The seal has moved the boundary and now waits for the pin.
  SpinWaitUntil([&] { return log->read_only_address() >= sealed; });
  ASSERT_TRUE(backend->PutEmbedding(late, first.data()).ok());
  log->EndInPlaceWrite(pinned_at);
  poll.join();

  // `late` is still mutable, so this rewrites it in place.
  ASSERT_TRUE(backend->PutEmbedding(late, second.data()).ok());
  ASSERT_TRUE(backend
                  ->ReadCommittedUpdates(0, next, 1000, 0, &entries, &next,
                                         &durable)
                  .ok());
  const UpdateEntry* last = nullptr;
  for (const UpdateEntry& e : entries) {
    if (e.key == late) last = &e;
  }
  ASSERT_NE(last, nullptr);
  ASSERT_EQ(last->value.size(), second.size() * sizeof(float));
  EXPECT_EQ(std::memcmp(last->value.data(), second.data(),
                        last->value.size()),
            0)
      << "the feed lost the in-place update";
}

// --- failover ------------------------------------------------------------

TEST(ReplicationTest, ReplicaRegistryRendersReplicatorFamilies) {
  // The replica server's registry carries the tailer's counters through a
  // collector, so kStats and /metrics on the replica report its progress.
  TempDir dir;
  TestServer primary = StartServer(dir.File("primary"), 1);
  TestServer replica = StartServer(dir.File("replica"), 1);

  net::RemoteBackendOptions wo;
  wo.addr = primary.addr;
  std::unique_ptr<KvBackend> writer;
  ASSERT_TRUE(net::RemoteBackend::Connect(wo, &writer).ok());
  constexpr size_t kN = 100;
  std::vector<Key> keys(kN);
  std::vector<float> values(kN * 8, 0.5f);
  for (size_t i = 0; i < kN; ++i) keys[i] = i + 1;
  ASSERT_TRUE(writer->MultiPut(keys, values.data()).AllOk());

  cluster::ReplicatorOptions ropts;
  ropts.primary_addr = primary.addr;
  ropts.poll_interval_ms = 5;
  Replicator rep(replica.server->backend(), ropts);
  ASSERT_TRUE(rep.Start().ok());
  obs::MetricsRegistry* reg = replica.server->metrics();
  const uint64_t collector = reg->AddCollector(
      [&rep](obs::MetricsSink* sink) { rep.CollectMetrics(sink); });
  ASSERT_TRUE(rep.WaitCaughtUp(20000));

  const std::string text = reg->ExpositionText();
  double records = -1, lag = -1, reconnects = -1;
  ASSERT_TRUE(obs::FindSample(text, "mlkv_replicator_records_total", &records));
  ASSERT_TRUE(obs::FindSample(text, "mlkv_replicator_lag_records", &lag));
  ASSERT_TRUE(
      obs::FindSample(text, "mlkv_replicator_reconnects_total", &reconnects));
  EXPECT_GE(records, static_cast<double>(kN));
  EXPECT_EQ(lag, 0);
  EXPECT_TRUE(text.find("mlkv_replicator_lag_records 0\n") !=
              std::string::npos);

  // Unregistered before the replicator stops: the families leave with it.
  reg->RemoveCollector(collector);
  rep.Stop();
  EXPECT_EQ(reg->ExpositionText().find("mlkv_replicator_"), std::string::npos);

  writer.reset();
  replica.server->Stop();
  primary.server->Stop();
}

TEST(ClusterFailoverTest, ReadsSurvivePrimaryLossWritesDegradePerKey) {
  TempDir dir;
  TestServer p0 = StartServer(dir.File("p0"), 1);
  TestServer p1 = StartServer(dir.File("p1"), 1);
  TestServer rep = StartServer(dir.File("rep"), 1);

  // rep replicates p0 and serves partition-0 reads when p0 is gone.
  auto map = std::make_shared<ClusterMap>();
  ASSERT_TRUE(BuildClusterMap({p0.addr, p1.addr}, {rep.addr, ""}, 1,
                              ReadPreference::kPrimary, 1, map.get())
                  .ok());
  p0.server->UpdateClusterMap(map, 0);
  p1.server->UpdateClusterMap(map, 1);
  rep.server->UpdateClusterMap(
      map, static_cast<uint32_t>(map->FindEndpoint(rep.addr)));

  cluster::ReplicatorOptions ropts;
  ropts.primary_addr = p0.addr;
  ropts.poll_interval_ms = 5;
  Replicator replicator(rep.server->backend(), ropts);
  ASSERT_TRUE(replicator.Start().ok());

  cluster::ClusterBackendOptions co;
  co.endpoints = {p0.addr, p1.addr};
  std::unique_ptr<ClusterBackend> client;
  ASSERT_TRUE(ClusterBackend::Connect(co, &client).ok());

  constexpr size_t kN = 200;
  std::vector<Key> keys(kN);
  std::vector<float> values(kN * 8);
  for (size_t i = 0; i < kN; ++i) {
    keys[i] = i + 1;
    for (int d = 0; d < 8; ++d) values[i * 8 + d] = i * 2.0f + d;
  }
  ASSERT_TRUE(client->MultiPut(keys, values.data()).AllOk());
  {
    const bool caught = replicator.WaitCaughtUp(20000);
    const cluster::ReplicationProgress p = replicator.progress();
    ASSERT_TRUE(caught) << "connected=" << p.connected
                        << " polls=" << p.polls
                        << " replicated=" << p.replicated_records
                        << " lag=" << p.replica_lag_records
                        << " apply_failures=" << p.apply_failures
                        << " reconnects=" << p.reconnects;
  }
  replicator.Stop();  // final state shipped; now kill the primary

  p0.server->Stop();

  // Reads: partition-0 sub-batches fail over to the replica; the whole
  // batch still serves every key with the written bytes.
  MultiGetOptions untracked;
  untracked.untracked = true;
  untracked.init_missing = false;
  std::vector<float> out(kN * 8, -1.0f);
  const BatchResult got = client->MultiGet(keys, out.data(), untracked);
  EXPECT_TRUE(got.AllOk()) << got.status().ToString();
  EXPECT_EQ(out, values);
  obs::MetricsSink sink;
  client->CollectMetrics(&sink);
  const std::vector<std::pair<std::string, std::string>> dead_endpoint = {
      {"endpoint", p0.addr}};
  double failovers = 0;
  for (const obs::MetricsSink::Sample& x : sink.samples()) {
    if (x.name == "mlkv_cluster_endpoint_failovers_total" &&
        x.labels == dead_endpoint) {
      failovers = x.value;
    }
  }
  EXPECT_GT(failovers, 0) << "partition-0 reads should have failed over";

  // Writes: no blind retry on another server — partition-0 keys report
  // per-key failures, partition-1 keys still land.
  const BatchResult put = client->MultiPut(keys, values.data());
  EXPECT_GT(put.failed, 0u);
  EXPECT_GT(put.found, 0u);
  const auto m = client->map();
  for (size_t i = 0; i < kN; ++i) {
    const bool on_dead = m->partitions[m->PartitionOf(keys[i])].primary == 0;
    if (on_dead) {
      EXPECT_NE(put.codes[i], Status::Code::kOk) << "key " << keys[i];
    } else {
      EXPECT_EQ(put.codes[i], Status::Code::kOk) << "key " << keys[i];
    }
  }

  client.reset();
  p1.server->Stop();
  rep.server->Stop();
}

// --- stale-epoch recovery ------------------------------------------------

TEST(ClusterEpochTest, StaleClientRefetchesMapAndRetriesRejectedKeys) {
  TempDir dir;
  TestServer s0 = StartServer(dir.File("s0"), 1);
  TestServer s1 = StartServer(dir.File("s1"), 1);

  // v1: s0 owns everything (s1 not even in the map yet).
  auto v1 = std::make_shared<ClusterMap>();
  ASSERT_TRUE(
      BuildClusterMap({s0.addr}, {}, 1, ReadPreference::kPrimary, 1, v1.get())
          .ok());
  s0.server->UpdateClusterMap(v1, 0);

  cluster::ClusterBackendOptions co;
  co.endpoints = {s0.addr, s1.addr};
  std::unique_ptr<ClusterBackend> client;
  ASSERT_TRUE(ClusterBackend::Connect(co, &client).ok());
  EXPECT_EQ(client->map()->epoch, 1u);

  constexpr size_t kN = 100;
  std::vector<Key> keys(kN);
  std::vector<float> values(kN * 8);
  for (size_t i = 0; i < kN; ++i) {
    keys[i] = i * 3 + 1;
    for (int d = 0; d < 8; ++d) values[i * 8 + d] = i + d * 0.5f;
  }
  ASSERT_TRUE(client->MultiPut(keys, values.data()).AllOk());

  // The map moves on: v2 splits the partitions across both servers. The
  // client still routes by v1 until s0 rejects the moved keys.
  auto v2 = std::make_shared<ClusterMap>();
  ASSERT_TRUE(BuildClusterMap({s0.addr, s1.addr}, {}, 1,
                              ReadPreference::kPrimary, 2, v2.get())
                  .ok());
  s0.server->UpdateClusterMap(v2, 0);
  s1.server->UpdateClusterMap(v2, 1);

  for (size_t i = 0; i < values.size(); ++i) values[i] += 100.0f;
  const BatchResult put = client->MultiPut(keys, values.data());
  EXPECT_TRUE(put.AllOk()) << put.status().ToString();
  EXPECT_EQ(client->map()->epoch, 2u) << "rejection should refetch the map";

  // Every key reads back through the new routing with the new bytes.
  MultiGetOptions no_init;
  no_init.init_missing = false;
  std::vector<float> out(kN * 8);
  const BatchResult got = client->MultiGet(keys, out.data(), no_init);
  EXPECT_TRUE(got.AllOk()) << got.status().ToString();
  EXPECT_EQ(out, values);

  client.reset();
  s0.server->Stop();
  s1.server->Stop();
}

// --- hedging -------------------------------------------------------------

// Two loopback servers, each the primary of one partition and the replica
// of the other (the mutual-replica map above), both preloaded with the
// same rows so either side can serve any read. Server 0's engine sits
// behind a DelayedBackend with the caller's script.
struct HedgeCluster {
  TestServer s0, s1;
  DelayedBackend* slow = nullptr;  // server 0's decorator (server-owned)
  std::vector<Key> keys;
  std::vector<float> values;
};

HedgeCluster StartMutualReplicaPair(TempDir& dir,
                                    DelayedBackend::Options delay,
                                    size_t rows) {
  HedgeCluster hc;
  hc.keys.resize(rows);
  hc.values.resize(rows * 8);
  for (size_t i = 0; i < rows; ++i) {
    hc.keys[i] = i + 1;
    for (int d = 0; d < 8; ++d) hc.values[i * 8 + d] = i * 2.0f + d;
  }
  for (int i = 0; i < 2; ++i) {
    BackendConfig cfg;
    cfg.dir = dir.File(i == 0 ? "hp0" : "hp1");
    cfg.dim = 8;
    cfg.buffer_bytes = 4ull << 20;
    cfg.staleness_bound = UINT32_MAX - 1;
    cfg.shard_bits = 1;
    std::unique_ptr<KvBackend> engine;
    EXPECT_TRUE(MakeBackend(BackendKind::kFaster, cfg, &engine).ok());
    EXPECT_TRUE(engine->MultiPut(hc.keys, hc.values.data()).AllOk());
    if (i == 0) {
      auto d = std::make_unique<DelayedBackend>(std::move(engine), delay);
      hc.slow = d.get();
      engine = std::move(d);
    }
    net::KvServerOptions so;
    so.num_workers = 4;
    TestServer& t = i == 0 ? hc.s0 : hc.s1;
    t.server = std::make_unique<net::KvServer>(std::move(engine), so);
    EXPECT_TRUE(t.server->Start().ok());
    t.addr = t.server->addr();
  }
  auto map = std::make_shared<ClusterMap>();
  EXPECT_TRUE(BuildClusterMap({hc.s0.addr, hc.s1.addr},
                              {hc.s1.addr, hc.s0.addr}, 1,
                              ReadPreference::kPrimary, 1, map.get())
                  .ok());
  hc.s0.server->UpdateClusterMap(map, 0);
  hc.s1.server->UpdateClusterMap(map, 1);
  return hc;
}

TEST(ClusterHedgeTest, HedgingRecoversSlowEndpointReads) {
  TempDir dir;
  DelayedBackend::Options d;
  d.delay_us = 20000;  // every read on server 0 stalls well past the delay
  HedgeCluster hc = StartMutualReplicaPair(dir, d, 128);

  cluster::ClusterBackendOptions co;
  co.endpoints = {hc.s0.addr, hc.s1.addr};
  co.hedge_us = 1000;
  std::unique_ptr<ClusterBackend> client;
  ASSERT_TRUE(ClusterBackend::Connect(co, &client).ok());

  MultiGetOptions o;
  o.untracked = true;
  o.init_missing = false;
  std::vector<float> out(hc.keys.size() * 8);
  for (int rep = 0; rep < 5; ++rep) {
    std::fill(out.begin(), out.end(), -1.0f);
    const BatchResult r = client->MultiGet(hc.keys, out.data(), o);
    ASSERT_TRUE(r.AllOk()) << r.status().ToString();
    // First response wins, and the winner's bytes must be exactly the
    // written rows — whichever side served them.
    EXPECT_EQ(out, hc.values);
  }
  obs::MetricsSink sink;
  client->CollectMetrics(&sink);
  EXPECT_GT(sink.Sum("mlkv_cluster_hedge_issued_total"), 0);
  EXPECT_GT(sink.Sum("mlkv_cluster_hedge_wins_total"), 0);
  EXPECT_GT(hc.slow->delays(), 0u);
  client.reset();
  hc.s0.server->Stop();
  hc.s1.server->Stop();
}

TEST(ClusterHedgeTest, WritesNeverHedge) {
  TempDir dir;
  DelayedBackend::Options d;
  d.delay_us = 3000;
  d.delay_writes = true;  // even a slow write path must not hedge
  HedgeCluster hc = StartMutualReplicaPair(dir, d, 64);

  cluster::ClusterBackendOptions co;
  co.endpoints = {hc.s0.addr, hc.s1.addr};
  co.hedge_us = 200;  // far below the write stall
  std::unique_ptr<ClusterBackend> client;
  ASSERT_TRUE(ClusterBackend::Connect(co, &client).ok());

  std::vector<float> grads(hc.keys.size() * 8, 0.0f);
  for (int rep = 0; rep < 3; ++rep) {
    ASSERT_TRUE(client->MultiPut(hc.keys, hc.values.data()).AllOk());
    ASSERT_TRUE(
        client->MultiApplyGradient(hc.keys, grads.data(), 0.0f).AllOk());
  }
  obs::MetricsSink sink;
  client->CollectMetrics(&sink);
  EXPECT_EQ(sink.Sum("mlkv_cluster_hedge_issued_total"), 0);
  EXPECT_EQ(sink.Sum("mlkv_cluster_hedge_wins_total"), 0);
  // The RPC counters scrape as one sum over the endpoint clients: at
  // least one RPC per write call above.
  int rpc_samples = 0;
  for (const obs::MetricsSink::Sample& x : sink.samples()) {
    if (x.name != "mlkv_net_rpc_requests_total") continue;
    ++rpc_samples;
    EXPECT_GE(x.value, 6);
  }
  EXPECT_EQ(rpc_samples, 1);
  client.reset();
  hc.s0.server->Stop();
  hc.s1.server->Stop();
}

}  // namespace
}  // namespace mlkv
