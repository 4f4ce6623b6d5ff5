// Replicator: the replica half of primary→replica log shipping. A replica
// KvServer owns one of these: a background thread that tails the primary's
// committed-update feed (kSubscribe to learn the shard topology, then
// kReplicate polls per shard) and applies each entry to the local backend
// in log order via KvBackend::ApplyReplicatedUpdate. Routing is by key on
// the replica side, so the replica's shard layout need not match the
// primary's.
//
// Resume: per-shard resume tokens (the primary's log addresses) advance
// only after an entry applies, and are persisted to `state_path` (tmp +
// rename, best-effort) after every round — a restarted replica re-polls
// from its last applied position instead of from the log head. A token
// that fell behind the primary's compaction horizon surfaces as the
// cursor's Corruption; the operator re-seeds the replica.
//
// Catch-up: the replica is caught up when a full round over all shards
// returned no entries and every resume token reached the primary's durable
// watermark. WaitCaughtUp() parks until then (tests, ordered failover).
// Primary loss is not fatal — the loop keeps re-connecting (reconnects
// counted) so a bounced primary resumes shipping where it left off.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "backend/kv_backend.h"
#include "common/status.h"
#include "net/remote_backend.h"

namespace mlkv {
namespace cluster {

struct ReplicatorOptions {
  std::string primary_addr;  // "host:port" of the primary KvServer
  uint64_t poll_interval_ms = 20;    // idle sleep between caught-up polls
  uint32_t max_records_per_poll = 1024;
  uint32_t max_bytes_per_poll = 4u << 20;
  // Resume-token file ("" = in-memory only; a restart re-replays the log).
  std::string state_path;
};

// Point-in-time replication counters (the replica server's registry
// scrapes them through Replicator::CollectMetrics).
struct ReplicationProgress {
  uint64_t replicated_records = 0;  // entries applied locally
  uint64_t replica_lag_records = 0;  // fetched but not yet applied
  uint64_t polls = 0;
  uint64_t reconnects = 0;      // primary connections after the first
  uint64_t apply_failures = 0;  // local applies that failed (token held)
  bool connected = false;
  bool caught_up = false;
};

class Replicator {
 public:
  // `local` must outlive the replicator; Stop() (or destruction) joins the
  // tail thread before `local` may be torn down.
  Replicator(KvBackend* local, ReplicatorOptions options);
  ~Replicator();

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  // Loads persisted resume tokens and starts the tail thread. OK even when
  // the primary is down — the loop connects when it can.
  Status Start();
  void Stop();

  ReplicationProgress progress() const;
  // Scrape-time families: mlkv_replicator_records_total,
  // mlkv_replicator_lag_records, mlkv_replicator_reconnects_total. A
  // replica KvServer registers this with metrics()->AddCollector and
  // removes the collector before the replicator dies.
  void CollectMetrics(obs::MetricsSink* sink) const;
  // Blocks until a round that started after this call found nothing left
  // to ship (or timeout) — i.e. the replica holds everything the primary
  // had committed before the wait began.
  bool WaitCaughtUp(uint64_t timeout_ms);

 private:
  void Loop();
  // One full round over all shards; reports whether anything shipped.
  Status PollRound(bool* shipped);
  Status EnsureClient();
  Status LoadState();
  void SaveState();

  KvBackend* const local_;
  const ReplicatorOptions options_;

  // Tail-thread-only state.
  std::unique_ptr<net::RemoteBackend> client_;
  std::vector<uint64_t> positions_;  // per primary shard resume token
  bool ever_connected_ = false;

  std::atomic<uint64_t> replicated_{0};
  std::atomic<uint64_t> lag_{0};
  std::atomic<uint64_t> polls_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> apply_failures_{0};
  std::atomic<bool> connected_{false};
  std::atomic<bool> caught_up_{false};

  std::mutex mu_;
  std::condition_variable cv_;  // Stop wake-up + WaitCaughtUp
  bool stop_ = false;
  std::thread thread_;
  bool started_ = false;
};

}  // namespace cluster
}  // namespace mlkv
