#include "cluster/replicator.h"

#include <chrono>
#include <cstdio>
#include <fstream>

#include "net/wire.h"
#include "obs/metrics.h"

namespace mlkv {
namespace cluster {

Replicator::Replicator(KvBackend* local, ReplicatorOptions options)
    : local_(local), options_(std::move(options)) {}

Replicator::~Replicator() { Stop(); }

Status Replicator::Start() {
  if (options_.primary_addr.empty()) {
    return Status::InvalidArgument("replicator: primary_addr is empty");
  }
  if (started_) return Status::InvalidArgument("replicator already started");
  (void)LoadState();  // best-effort: a bad file just replays the log
  started_ = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = false;
  }
  thread_ = std::thread(&Replicator::Loop, this);
  return Status::OK();
}

void Replicator::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  started_ = false;
}

ReplicationProgress Replicator::progress() const {
  ReplicationProgress p;
  p.replicated_records = replicated_.load(std::memory_order_relaxed);
  p.replica_lag_records = lag_.load(std::memory_order_relaxed);
  p.polls = polls_.load(std::memory_order_relaxed);
  p.reconnects = reconnects_.load(std::memory_order_relaxed);
  p.apply_failures = apply_failures_.load(std::memory_order_relaxed);
  p.connected = connected_.load(std::memory_order_acquire);
  p.caught_up = caught_up_.load(std::memory_order_acquire);
  return p;
}

void Replicator::CollectMetrics(obs::MetricsSink* sink) const {
  sink->AddCounter("mlkv_replicator_records_total",
                   "Update records fetched and applied by the replication "
                   "tailer",
                   replicated_.load(std::memory_order_relaxed));
  sink->AddGauge("mlkv_replicator_lag_records",
                 "Fetched-but-unapplied update records (0 = caught up)",
                 static_cast<double>(lag_.load(std::memory_order_relaxed)));
  sink->AddCounter("mlkv_replicator_reconnects_total",
                   "Primary connection re-establishments",
                   reconnects_.load(std::memory_order_relaxed));
}

bool Replicator::WaitCaughtUp(uint64_t timeout_ms) {
  // caught_up_ is a level, not an edge: it may still be true from a round
  // that predates writes the caller just made. Requiring two more completed
  // rounds guarantees one that *started* after this call — so "caught up"
  // means caught up with everything written before the wait began.
  const uint64_t target = polls_.load(std::memory_order_relaxed) + 2;
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&]() {
    return caught_up_.load(std::memory_order_acquire) &&
           polls_.load(std::memory_order_relaxed) >= target;
  });
}

void Replicator::Loop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return;
    }
    Status st = EnsureClient();
    bool shipped = false;
    if (st.ok()) {
      st = PollRound(&shipped);
      if (st.ok()) {
        polls_.fetch_add(1, std::memory_order_relaxed);
        SaveState();
        cv_.notify_all();  // caught_up_ may have flipped
        // A full poll still drained entries: the primary is ahead, keep
        // pulling without the idle sleep.
        if (shipped) continue;
      }
    }
    if (!st.ok()) {
      // Transport loss or a server-side refusal: drop the connection and
      // retry from the persisted tokens after the idle interval.
      if (client_) {
        client_.reset();
        connected_.store(false, std::memory_order_release);
      }
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::milliseconds(options_.poll_interval_ms),
                 [this]() { return stop_; });
    if (stop_) return;
  }
}

Status Replicator::EnsureClient() {
  if (client_) return Status::OK();
  net::RemoteBackendOptions ro;
  ro.addr = options_.primary_addr;
  ro.pool_size = 1;  // one stream: the feed is polled strictly in order
  std::unique_ptr<net::RemoteBackend> c;
  MLKV_RETURN_NOT_OK(net::RemoteBackend::Connect(ro, &c));

  // Learn the primary's feed topology; size the resume tokens to it.
  net::PayloadWriter req;
  Status transport;
  std::vector<uint8_t> body;
  size_t off = 0;
  MLKV_RETURN_NOT_OK(
      c->CallRaw(net::Opcode::kSubscribe, req, &transport, &body, &off));
  MLKV_RETURN_NOT_OK(transport);
  net::PayloadReader r(body.data() + off, body.size() - off);
  net::SubscribeResponse sub;
  MLKV_RETURN_NOT_OK(DecodeSubscribeResponse(&r, &sub));
  if (sub.shard_durables.empty()) {
    return Status::NotSupported("primary reports no replication shards");
  }
  if (positions_.size() != sub.shard_durables.size()) {
    // Topology changed under our persisted tokens (or first start): the
    // addresses are per-shard, so a different shard count resets them.
    positions_.assign(sub.shard_durables.size(), 0);
  }

  client_ = std::move(c);
  if (ever_connected_) reconnects_.fetch_add(1, std::memory_order_relaxed);
  ever_connected_ = true;
  connected_.store(true, std::memory_order_release);
  return Status::OK();
}

Status Replicator::PollRound(bool* shipped) {
  *shipped = false;
  bool all_caught = true;
  for (uint32_t sh = 0; sh < positions_.size(); ++sh) {
    net::ReplicateRequest req;
    req.shard = sh;
    req.from = positions_[sh];
    req.max_records = options_.max_records_per_poll;
    req.max_bytes = options_.max_bytes_per_poll;
    net::PayloadWriter w;
    EncodeReplicateRequest(req, &w);
    Status transport;
    std::vector<uint8_t> body;
    size_t off = 0;
    MLKV_RETURN_NOT_OK(
        client_->CallRaw(net::Opcode::kReplicate, w, &transport, &body, &off));
    MLKV_RETURN_NOT_OK(transport);
    net::PayloadReader r(body.data() + off, body.size() - off);
    net::ReplicateResponse resp;
    MLKV_RETURN_NOT_OK(DecodeReplicateResponse(&r, &resp));

    const size_t n = resp.entries.size();
    if (n != 0) {
      *shipped = true;
      lag_.fetch_add(n, std::memory_order_relaxed);
      bool stalled = false;
      for (size_t i = 0; i < n; ++i) {
        const UpdateEntry& e = resp.entries[i];
        const Status st = local_->ApplyReplicatedUpdate(e);
        if (!st.ok()) {
          // Hold the token at the failed entry; next round refetches from
          // here, so log order is never violated by a skipped record.
          apply_failures_.fetch_add(1, std::memory_order_relaxed);
          lag_.fetch_sub(n - i, std::memory_order_relaxed);
          stalled = true;
          break;
        }
        replicated_.fetch_add(1, std::memory_order_relaxed);
        lag_.fetch_sub(1, std::memory_order_relaxed);
        positions_[sh] = i + 1 < n ? resp.entries[i + 1].address
                                   : resp.next_from;
      }
      if (stalled) {
        all_caught = false;
        continue;
      }
    }
    // Adopt the server cursor's resume point even when no records came
    // back: the cursor skips trailing gap fill (page padding, retracted
    // records), so an empty response can still move the token up to the
    // durable watermark — holding the old one would read as permanent lag.
    positions_[sh] = resp.next_from;
    if (positions_[sh] < resp.durable || n != 0) all_caught = false;
  }
  caught_up_.store(all_caught, std::memory_order_release);
  return Status::OK();
}

Status Replicator::LoadState() {
  if (options_.state_path.empty()) return Status::OK();
  std::ifstream in(options_.state_path);
  if (!in) return Status::NotFound("no replica state file");
  std::string magic, addr;
  size_t n = 0;
  if (!std::getline(in, magic) || magic != "mlkv-replica-state v1") {
    return Status::Corruption("replica state: bad header");
  }
  if (!std::getline(in, addr) || addr != options_.primary_addr) {
    return Status::Corruption("replica state: different primary");
  }
  if (!(in >> n) || n == 0 || n > 4096) {
    return Status::Corruption("replica state: bad shard count");
  }
  std::vector<uint64_t> pos(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (!(in >> pos[i])) return Status::Corruption("replica state: truncated");
  }
  positions_ = std::move(pos);
  return Status::OK();
}

void Replicator::SaveState() {
  if (options_.state_path.empty() || positions_.empty()) return;
  const std::string tmp = options_.state_path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return;  // best-effort: a restart just replays the log
    out << "mlkv-replica-state v1\n" << options_.primary_addr << "\n"
        << positions_.size() << "\n";
    for (const uint64_t p : positions_) out << p << "\n";
  }
  std::rename(tmp.c_str(), options_.state_path.c_str());
}

}  // namespace cluster
}  // namespace mlkv
