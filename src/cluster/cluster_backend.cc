#include "cluster/cluster_backend.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>

#include "common/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mlkv {
namespace cluster {

namespace {

bool IsHardCode(Status::Code c) {
  return c != Status::Code::kOk && c != Status::Code::kNotFound &&
         c != Status::Code::kBusy;
}

}  // namespace

ClusterBackend::ClusterBackend(ClusterBackendOptions options)
    : options_(std::move(options)) {
  // Sized for concurrent batches, not just one: every caller thread wants
  // up to endpoints-1 helpers at once (the caller runs one sub-batch
  // itself), and a starved pool quietly serializes the scatter — the
  // caller drains the sub-batches one RPC at a time and the fan-out win
  // disappears.
  const size_t threads =
      options_.scatter_threads != 0
          ? options_.scatter_threads
          : std::min<size_t>(16,
                             std::max<size_t>(4, options_.endpoints.size() * 4));
  pool_ = std::make_unique<ThreadPool>(threads);
  if (options_.hedge_us != 0) {
    // Hedge tasks mostly sleep (waiting out the delay), so the pool is
    // sized for concurrent sleepers, not CPU.
    hedge_pool_ = std::make_unique<ThreadPool>(threads);
  }
}

Status ClusterBackend::Connect(const ClusterBackendOptions& options,
                               std::unique_ptr<KvBackend>* out) {
  std::unique_ptr<ClusterBackend> b;
  MLKV_RETURN_NOT_OK(Connect(options, &b));
  *out = std::move(b);
  return Status::OK();
}

Status ClusterBackend::Connect(const ClusterBackendOptions& options,
                               std::unique_ptr<ClusterBackend>* out) {
  if (options.endpoints.empty()) {
    return Status::InvalidArgument("cluster: endpoint list is empty");
  }
  auto b = std::unique_ptr<ClusterBackend>(new ClusterBackend(options));
  Status last = Status::IOError("cluster: no seed endpoint reachable");
  net::RemoteBackend* seed = nullptr;
  for (const std::string& addr : options.endpoints) {
    Endpoint* ep = b->EndpointFor(addr);
    std::lock_guard<std::mutex> lock(ep->mu);
    net::RemoteBackendOptions ro;
    ro.addr = addr;
    ro.pool_size = options.pool_size;
    std::unique_ptr<net::RemoteBackend> c;
    last = net::RemoteBackend::Connect(ro, &c);
    if (!last.ok()) continue;
    b->dim_ = c->dim();
    seed = c.get();
    ep->client = std::move(c);
    break;
  }
  if (seed == nullptr) return last;

  std::shared_ptr<const ClusterMap> m;
  Status st = b->FetchMapFrom(seed, &m);
  if (!st.ok()) {
    if (!st.IsNotSupported()) return st;
    // Standalone seeds (no map to serve): derive the round-robin layout
    // client-side. Epoch 0 = unenforced — the servers accept every key.
    auto derived = std::make_shared<ClusterMap>();
    MLKV_RETURN_NOT_OK(BuildClusterMap(options.endpoints, {}, /*route_bits=*/0,
                                       ReadPreference::kPrimary, /*epoch=*/0,
                                       derived.get()));
    m = std::move(derived);
  }
  b->InstallMap(std::move(m));
  *out = std::move(b);
  return Status::OK();
}

std::string ClusterBackend::name() const {
  return "Cluster(n=" + std::to_string(map()->endpoints.size()) + ")";
}

std::shared_ptr<const ClusterMap> ClusterBackend::map() const {
  std::lock_guard<std::mutex> lock(map_mu_);
  return map_;
}

void ClusterBackend::InstallMap(std::shared_ptr<const ClusterMap> m) {
  std::lock_guard<std::mutex> lock(map_mu_);
  map_ = std::move(m);
}

Status ClusterBackend::RefreshMap() {
  // Try every endpoint the current map names, then any seed not in it.
  std::vector<std::string> addrs = map()->endpoints;
  for (const std::string& s : options_.endpoints) {
    if (std::find(addrs.begin(), addrs.end(), s) == addrs.end()) {
      addrs.push_back(s);
    }
  }
  Status last = Status::IOError("cluster: no endpoint served a map");
  for (const std::string& addr : addrs) {
    Endpoint* ep = EndpointFor(addr);
    net::RemoteBackend* client = nullptr;
    Status st = GetClient(ep, &client);
    if (!st.ok()) {
      last = st;
      continue;
    }
    std::shared_ptr<const ClusterMap> m;
    st = FetchMapFrom(client, &m);
    if (!st.ok()) {
      last = st;
      continue;
    }
    std::lock_guard<std::mutex> lock(map_mu_);
    if (m->epoch > map_->epoch) map_ = std::move(m);
    return Status::OK();
  }
  return last;
}

ClusterBackend::Endpoint* ClusterBackend::EndpointFor(const std::string& addr) {
  std::lock_guard<std::mutex> lock(ep_mu_);
  for (const auto& e : endpoints_) {
    if (e->addr == addr) return e.get();
  }
  endpoints_.push_back(std::make_unique<Endpoint>());
  endpoints_.back()->addr = addr;
  return endpoints_.back().get();
}

Status ClusterBackend::GetClient(Endpoint* ep, net::RemoteBackend** out) {
  std::lock_guard<std::mutex> lock(ep->mu);
  if (!ep->client) {
    net::RemoteBackendOptions ro;
    ro.addr = ep->addr;
    ro.pool_size = options_.pool_size;
    std::unique_ptr<net::RemoteBackend> c;
    MLKV_RETURN_NOT_OK(net::RemoteBackend::Connect(ro, &c));
    if (c->dim() != dim_) {
      return Status::InvalidArgument(
          "cluster endpoint " + ep->addr + " serves dim " +
          std::to_string(c->dim()) + ", cluster dim is " +
          std::to_string(dim_));
    }
    ep->client = std::move(c);
  }
  *out = ep->client.get();
  return Status::OK();
}

Status ClusterBackend::FetchMapFrom(net::RemoteBackend* client,
                                    std::shared_ptr<const ClusterMap>* out) {
  net::PayloadWriter req;
  Status transport;
  std::vector<uint8_t> body;
  size_t off = 0;
  MLKV_RETURN_NOT_OK(
      client->CallRaw(net::Opcode::kClusterMap, req, &transport, &body, &off));
  MLKV_RETURN_NOT_OK(transport);
  net::PayloadReader r(body.data() + off, body.size() - off);
  auto m = std::make_shared<ClusterMap>();
  MLKV_RETURN_NOT_OK(DecodeClusterMap(&r, m.get()));
  *out = std::move(m);
  return Status::OK();
}

BatchResult ClusterBackend::MultiGet(std::span<const Key> keys, float* out,
                                     const MultiGetOptions& options) {
  return Execute(Op::kGet, keys, out, nullptr, 0.0f, options,
                 /*allow_epoch_retry=*/true);
}

BatchResult ClusterBackend::MultiPut(std::span<const Key> keys,
                                     const float* values) {
  return Execute(Op::kPut, keys, nullptr, values, 0.0f, {},
                 /*allow_epoch_retry=*/true);
}

BatchResult ClusterBackend::MultiApplyGradient(std::span<const Key> keys,
                                               const float* grads, float lr) {
  return Execute(Op::kGrad, keys, nullptr, grads, lr, {},
                 /*allow_epoch_retry=*/true);
}

Status ClusterBackend::Lookahead(std::span<const Key> keys) {
  if (keys.empty()) return Status::OK();
  auto m = map();
  std::vector<std::vector<Key>> per(m->num_partitions());
  for (const Key k : keys) per[m->PartitionOf(k)].push_back(k);
  for (size_t p = 0; p < per.size(); ++p) {
    if (per[p].empty()) continue;
    Endpoint* ep = EndpointFor(m->endpoints[m->partitions[p].primary]);
    net::RemoteBackend* client = nullptr;
    if (!GetClient(ep, &client).ok()) continue;  // a hint: best-effort
    (void)client->Lookahead(per[p]);
  }
  return Status::OK();
}

void ClusterBackend::CollectMetrics(obs::MetricsSink* sink) const {
  KvBackend::CollectMetrics(sink);
  std::vector<Endpoint*> eps;
  {
    std::lock_guard<std::mutex> lock(ep_mu_);
    eps.reserve(endpoints_.size());
    for (const auto& e : endpoints_) eps.push_back(e.get());
  }
  uint64_t rpc_requests = 0, rpc_retries = 0;
  for (Endpoint* ep : eps) {
    std::lock_guard<std::mutex> lock(ep->mu);
    if (!ep->client) continue;
    rpc_requests += ep->client->rpc_requests();
    rpc_retries += ep->client->rpc_retries();
  }
  net::RemoteBackend::AddRpcMetrics(rpc_requests, rpc_retries, sink);
  for (Endpoint* ep : eps) {
    sink->AddCounter("mlkv_cluster_endpoint_requests_total",
                     "Sub-batches routed to this cluster endpoint.",
                     ep->requests.load(std::memory_order_relaxed),
                     {{"endpoint", ep->addr}});
    sink->AddCounter("mlkv_cluster_endpoint_failovers_total",
                     "Sub-batches that left this endpoint for a fallback.",
                     ep->failovers.load(std::memory_order_relaxed),
                     {{"endpoint", ep->addr}});
    sink->AddGauge("mlkv_cluster_endpoint_latency_ewma_us",
                   "Smoothed read sub-batch latency to this endpoint (us).",
                   ep->ewma_us.value(), {{"endpoint", ep->addr}});
    sink->AddGauge("mlkv_cluster_endpoint_latency_p99_us",
                   "Trailing read p99 to this endpoint (us); the kHedgeAuto "
                   "hedge-delay signal.",
                   static_cast<double>(ep->latency_us.Percentile(0.99)),
                   {{"endpoint", ep->addr}});
  }
  sink->AddGauge("mlkv_cluster_map_epoch",
                 "Epoch of the client's installed routing map.",
                 static_cast<double>(map()->epoch));
  if (hedge_pool_) {
    sink->AddCounter("mlkv_cluster_hedge_issued_total",
                     "Read hedge attempts that reached the wire.",
                     static_cast<double>(hedges_.load(std::memory_order_relaxed)));
    sink->AddCounter(
        "mlkv_cluster_hedge_wins_total",
        "Read hedges whose response was used (first-response-wins).",
        static_cast<double>(hedge_wins_.load(std::memory_order_relaxed)));
  }
  {
    std::lock_guard<std::mutex> lock(part_ops_mu_);
    for (size_t p = 0; p < partition_ops_.size(); ++p) {
      sink->AddCounter("mlkv_cluster_partition_ops_total",
                       "Keys routed to this partition by this client.",
                       static_cast<double>(partition_ops_[p]),
                       {{"partition", std::to_string(p)}});
    }
  }
}

BatchResult ClusterBackend::TimedGet(Endpoint* ep, net::RemoteBackend* client,
                                     std::span<const Key> keys, float* rows_out,
                                     const MultiGetOptions& options,
                                     bool* down) {
  const auto t0 = std::chrono::steady_clock::now();
  BatchResult r = client->MultiGetEx(keys, rows_out, options, down);
  const uint64_t us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  ep->latency_us.Record(us);
  ep->ewma_us.Observe(static_cast<double>(us));
  return r;
}

uint64_t ClusterBackend::HedgeDelayUs(Endpoint* ep) const {
  if (options_.hedge_us != kHedgeAuto) return options_.hedge_us;
  // Auto mode: that endpoint's own trailing read p99 — a hedge fires only
  // for requests already slower than 99% of their peers. Until the
  // histogram has warmed, 1ms is a conservative stand-in.
  if (ep->latency_us.count() < 64) return 1000;
  return std::clamp<uint64_t>(ep->latency_us.Percentile(0.99), 100, 100000);
}

size_t ClusterBackend::HedgedGet(const ClusterMap& m,
                                 const ClusterPartition& part,
                                 const std::vector<uint32_t>& candidates,
                                 Endpoint* ep0, net::RemoteBackend* client0,
                                 std::span<const Key> keys, float* rows_out,
                                 const MultiGetOptions& options,
                                 BatchResult* result, bool* down) {
  // Shared between the caller and both attempt tasks. Either task may
  // outlive the caller (the caller returns as soon as a winner is
  // decided), so the keys are copied in and each attempt writes its own
  // private row buffer — never the caller's rows_out, whose lifetime ends
  // with the caller. The caller copies the winner's buffer out before
  // returning; the loser's bytes are simply dropped.
  struct HedgeState {
    std::mutex mu;
    std::condition_variable cv;
    int winner = -1;  // -1 undecided, 0 primary, 1 hedge; first success
    bool a0_done = false;
    bool down0 = false;
    bool hedge_done = false;  // hedge task finished (issued or cancelled)
    bool hedge_issued = false;
    std::vector<Key> keys_copy;
    std::vector<float> buf0, buf1;
    BatchResult r0, r1;
  };
  auto hs = std::make_shared<HedgeState>();
  hs->keys_copy.assign(keys.begin(), keys.end());
  hs->buf0.resize(keys.size() * dim_);
  hs->buf1.resize(keys.size() * dim_);

  MultiGetOptions o0 = options;
  if (candidates[0] != part.primary) o0.untracked = true;
  const bool a0_launched = hedge_pool_->TrySubmit([this, hs, ep0, client0,
                                                   o0]() {
    ep0->requests.fetch_add(1, std::memory_order_relaxed);
    bool down0 = false;
    BatchResult r0 =
        TimedGet(ep0, client0, hs->keys_copy, hs->buf0.data(), o0, &down0);
    std::lock_guard<std::mutex> lock(hs->mu);
    hs->r0 = std::move(r0);
    hs->down0 = down0;
    hs->a0_done = true;
    if (!down0 && hs->winner == -1) hs->winner = 0;
    if (down0) ep0->failovers.fetch_add(1, std::memory_order_relaxed);
    hs->cv.notify_all();
  });
  if (!a0_launched) {
    // No hedge capacity: degrade to a plain inline attempt.
    ep0->requests.fetch_add(1, std::memory_order_relaxed);
    bool down0 = false;
    *result = TimedGet(ep0, client0, keys, rows_out, o0, &down0);
    *down = down0;
    if (down0) ep0->failovers.fetch_add(1, std::memory_order_relaxed);
    return 1;
  }

  // The caller owns the hedge delay: it waits for the primary to answer
  // inside the window, and only when the window expires (or the primary
  // reports transport-down, which fast-forwards the delay — the hedge
  // doubles as the failover hop) does a hedge task get created. Fast
  // reads therefore cost one pool handoff and one row copy, never a
  // second task.
  const uint64_t delay_us = HedgeDelayUs(ep0);
  std::unique_lock<std::mutex> lock(hs->mu);
  hs->cv.wait_for(lock, std::chrono::microseconds(delay_us),
                  [&hs] { return hs->a0_done; });
  if (hs->winner == 0) {
    simd::CopyFloats(rows_out, hs->buf0.data(), keys.size() * dim_);
    *result = std::move(hs->r0);
    *down = false;
    return 1;
  }

  // Primary is slow or down: issue the hedge to the next candidate.
  lock.unlock();
  Endpoint* ep1 = EndpointFor(m.endpoints[candidates[1]]);
  MultiGetOptions o1 = options;
  if (candidates[1] != part.primary) o1.untracked = true;
  const bool h_launched = hedge_pool_->TrySubmit([this, hs, ep1, o1]() {
    {
      // The primary may have answered between the caller's timeout and
      // this task running; don't waste an RPC on a decided race.
      std::lock_guard<std::mutex> lock(hs->mu);
      if (hs->winner != -1) {
        hs->hedge_done = true;
        hs->cv.notify_all();
        return;
      }
    }
    net::RemoteBackend* client1 = nullptr;
    const Status cs = GetClient(ep1, &client1);
    bool down1 = true;
    BatchResult r1;
    if (cs.ok()) {
      ep1->requests.fetch_add(1, std::memory_order_relaxed);
      hedges_.fetch_add(1, std::memory_order_relaxed);
      down1 = false;
      r1 = TimedGet(ep1, client1, hs->keys_copy, hs->buf1.data(), o1, &down1);
    } else {
      r1 = BatchResult(hs->keys_copy.size());
      for (size_t i = 0; i < hs->keys_copy.size(); ++i) r1.Record(i, cs);
    }
    std::lock_guard<std::mutex> lock(hs->mu);
    hs->r1 = std::move(r1);
    hs->hedge_issued = true;
    if (!down1 && hs->winner == -1) hs->winner = 1;
    if (down1) ep1->failovers.fetch_add(1, std::memory_order_relaxed);
    hs->hedge_done = true;
    hs->cv.notify_all();
  });

  // First response wins: the caller unblocks the moment either attempt
  // succeeds, while the loser finishes in the background against the
  // shared state. Both tasks always terminate (one RPC each), so the
  // both-failed wait cannot hang.
  lock.lock();
  if (!h_launched) hs->hedge_done = true;
  hs->cv.wait(lock, [&hs] {
    return hs->winner != -1 || (hs->a0_done && hs->hedge_done);
  });
  if (hs->winner == 0) {
    simd::CopyFloats(rows_out, hs->buf0.data(), keys.size() * dim_);
    *result = std::move(hs->r0);
    *down = false;
    return 1;
  }
  if (hs->winner == 1) {
    hedge_wins_.fetch_add(1, std::memory_order_relaxed);
    simd::CopyFloats(rows_out, hs->buf1.data(), keys.size() * dim_);
    *result = std::move(hs->r1);
    *down = false;
    return 2;
  }
  // Both attempts failed at the transport level. Fold the hedge's per-key
  // codes when it consumed its candidate (issued its connect/RPC), the
  // primary's when the hedge was cancelled or never launched.
  *down = true;
  if (hs->hedge_issued) {
    *result = std::move(hs->r1);
    return 2;
  }
  *result = std::move(hs->r0);
  return 1;
}

BatchResult ClusterBackend::ExecutePartition(const ClusterMap& m, size_t p,
                                             Op op, std::span<const Key> keys,
                                             float* rows_out,
                                             const float* rows_in, float lr,
                                             const MultiGetOptions& options) {
  const ClusterPartition& part = m.partitions[p];
  // Candidate endpoints in attempt order. Writes only ever run on the
  // primary; reads fail over to replicas (or start there under kReplica).
  std::vector<uint32_t> candidates;
  if (op == Op::kGet && m.read_preference == ReadPreference::kReplica &&
      !part.replicas.empty()) {
    candidates = part.replicas;
    candidates.push_back(part.primary);
  } else {
    candidates.push_back(part.primary);
    if (op == Op::kGet) {
      candidates.insert(candidates.end(), part.replicas.begin(),
                        part.replicas.end());
    }
  }

  Status last = Status::IOError("cluster: no reachable endpoint for partition " +
                                std::to_string(p));
  BatchResult folded;  // transport failure folded to per-key codes
  bool have_folded = false;
  size_t c0 = 0;
  // Hedged read: race candidates[0] against a delayed attempt on
  // candidates[1]; the plain failover loop resumes after whatever the
  // hedge pair consumed.
  if (op == Op::kGet && hedge_pool_ && candidates.size() >= 2) {
    Endpoint* ep0 = EndpointFor(m.endpoints[candidates[0]]);
    net::RemoteBackend* client0 = nullptr;
    const Status st = GetClient(ep0, &client0);
    if (!st.ok()) {
      last = st;
      ep0->failovers.fetch_add(1, std::memory_order_relaxed);
      c0 = 1;
    } else {
      bool down = false;
      BatchResult r;
      const size_t consumed = HedgedGet(m, part, candidates, ep0, client0,
                                        keys, rows_out, options, &r, &down);
      if (!down) return r;
      folded = std::move(r);
      have_folded = true;
      c0 = consumed;
    }
  }
  for (size_t c = c0; c < candidates.size(); ++c) {
    const uint32_t idx = candidates[c];
    Endpoint* ep = EndpointFor(m.endpoints[idx]);
    net::RemoteBackend* client = nullptr;
    const Status st = GetClient(ep, &client);
    if (!st.ok()) {
      last = st;
      if (c + 1 < candidates.size()) {
        ep->failovers.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }
    ep->requests.fetch_add(1, std::memory_order_relaxed);
    bool down = false;
    BatchResult r;
    switch (op) {
      case Op::kGet: {
        MultiGetOptions o = options;
        // A non-primary candidate serves the read consistency-free: a
        // replica has no staleness authority over the partition.
        if (idx != part.primary) o.untracked = true;
        r = TimedGet(ep, client, keys, rows_out, o, &down);
        break;
      }
      case Op::kPut:
        r = client->MultiPutEx(keys, rows_in, &down);
        break;
      case Op::kGrad:
        r = client->MultiApplyGradientEx(keys, rows_in, lr, &down);
        break;
    }
    if (!down) return r;
    folded = std::move(r);
    have_folded = true;
    // Writes stop here: retrying a possibly-executed write on another
    // server risks double-applying; the per-key failure codes stand.
    if (op != Op::kGet) return folded;
    if (c + 1 < candidates.size()) {
      ep->failovers.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (have_folded) return folded;
  BatchResult fail(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) fail.Record(i, last);
  return fail;
}

BatchResult ClusterBackend::Execute(Op op, std::span<const Key> keys,
                                    float* rows_out, const float* rows_in,
                                    float lr, const MultiGetOptions& options,
                                    bool allow_epoch_retry) {
  const size_t n = keys.size();
  BatchResult full(n);
  if (n == 0) return full;
  const std::shared_ptr<const ClusterMap> m = map();
  const size_t d = dim_;
  const size_t nparts = m->num_partitions();

  std::vector<uint32_t> part(n);
  std::vector<size_t> counts(nparts, 0);
  for (size_t i = 0; i < n; ++i) {
    part[i] = static_cast<uint32_t>(m->PartitionOf(keys[i]));
    ++counts[part[i]];
  }
  {
    std::lock_guard<std::mutex> lock(part_ops_mu_);
    if (partition_ops_.size() < nparts) partition_ops_.resize(nparts, 0);
    for (size_t p = 0; p < nparts; ++p) partition_ops_[p] += counts[p];
  }
  size_t nonempty = 0, only = 0;
  for (size_t p = 0; p < nparts; ++p) {
    if (counts[p] != 0) {
      ++nonempty;
      only = p;
    }
  }

  if (nonempty == 1) {
    // Single-partition batch: the caller's spans are already contiguous.
    full = ExecutePartition(*m, only, op, keys, rows_out, rows_in, lr, options);
  } else {
    // Stable counting-sort scatter (same shape as ShardedStore's): caller
    // positions grouped by partition, in-order within each group so
    // duplicate-key semantics survive the hop.
    std::vector<size_t> offsets(nparts + 1, 0);
    for (size_t p = 0; p < nparts; ++p) offsets[p + 1] = offsets[p] + counts[p];
    std::vector<size_t> pos(offsets.begin(), offsets.end() - 1);
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[pos[part[i]]++] = i;

    struct SubTask {
      size_t partition;
      size_t begin;
      size_t end;
    };
    std::vector<SubTask> tasks;
    for (size_t p = 0; p < nparts; ++p) {
      if (counts[p] != 0) tasks.push_back({p, offsets[p], offsets[p + 1]});
    }
    std::vector<BatchResult> sub(tasks.size());

    std::atomic<size_t> next{0};
    auto worker = [&]() {
      for (;;) {
        const size_t t = next.fetch_add(1, std::memory_order_relaxed);
        if (t >= tasks.size()) return;
        const SubTask& task = tasks[t];
        const size_t cnt = task.end - task.begin;
        std::vector<Key> sub_keys(cnt);
        for (size_t j = 0; j < cnt; ++j) {
          sub_keys[j] = keys[order[task.begin + j]];
        }
        std::vector<float> sub_rows(cnt * d);
        if (op != Op::kGet) {
          for (size_t j = 0; j < cnt; ++j) {
            simd::CopyFloats(&sub_rows[j * d],
                             rows_in + order[task.begin + j] * d, d);
          }
        }
        sub[t] = ExecutePartition(
            *m, task.partition, op, sub_keys,
            op == Op::kGet ? sub_rows.data() : nullptr,
            op == Op::kGet ? nullptr : sub_rows.data(), lr, options);
        if (op == Op::kGet) {
          for (size_t j = 0; j < cnt; ++j) {
            if (sub[t].codes[j] == Status::Code::kOk) {
              simd::CopyFloats(rows_out + order[task.begin + j] * d,
                               &sub_rows[j * d], d);
            }
          }
        }
      }
    };

    // Helpers claim tasks off the shared counter; the calling thread
    // always participates, so a full pool queue can never deadlock a
    // batch. A local latch (not ThreadPool::Drain) keeps concurrent
    // batches from waiting on each other's tasks.
    struct Latch {
      std::mutex mu;
      std::condition_variable cv;
      size_t pending = 0;
    };
    auto latch = std::make_shared<Latch>();
    const size_t helpers =
        std::min(pool_->num_threads(), tasks.size() > 0 ? tasks.size() - 1 : 0);
    // Helpers inherit the caller's trace context so their ExecutePartition
    // rpc spans land in the same request tree (the caller thread already
    // has it installed).
    const obs::TraceContext trace_ctx = obs::CurrentTraceContext();
    for (size_t h = 0; h < helpers; ++h) {
      {
        std::lock_guard<std::mutex> lock(latch->mu);
        ++latch->pending;
      }
      const bool queued = pool_->TrySubmit([&worker, latch, trace_ctx]() {
        obs::ScopedTraceContext trace_scope(trace_ctx);
        worker();
        std::lock_guard<std::mutex> lock(latch->mu);
        --latch->pending;
        latch->cv.notify_all();
      });
      if (!queued) {
        std::lock_guard<std::mutex> lock(latch->mu);
        --latch->pending;
      }
    }
    worker();
    {
      std::unique_lock<std::mutex> lock(latch->mu);
      latch->cv.wait(lock, [&latch]() { return latch->pending == 0; });
    }

    // Gather: codes back to caller positions, counts accumulated.
    for (size_t t = 0; t < tasks.size(); ++t) {
      const SubTask& task = tasks[t];
      const BatchResult& s = sub[t];
      for (size_t j = 0; j < task.end - task.begin; ++j) {
        full.codes[order[task.begin + j]] = s.codes[j];
      }
      full.found += s.found;
      full.missing += s.missing;
      full.busy += s.busy;
      if (full.failed == 0 && s.failed > 0) full.first_error = s.first_error;
      full.failed += s.failed;
    }
  }

  // Stale-map recovery: per-key kWrongPartition means the server's map
  // moved on. Refetch; if the epoch actually changed, retry exactly the
  // rejected keys once under the new routing.
  if (!allow_epoch_retry) return full;
  bool any_stale = false;
  for (const Status::Code c : full.codes) {
    if (c == Status::Code::kWrongPartition) {
      any_stale = true;
      break;
    }
  }
  if (!any_stale) return full;
  const uint64_t old_epoch = m->epoch;
  if (!RefreshMap().ok()) return full;
  if (map()->epoch == old_epoch) return full;

  std::vector<size_t> stale;
  std::vector<Key> retry_keys;
  for (size_t i = 0; i < n; ++i) {
    if (full.codes[i] == Status::Code::kWrongPartition) {
      stale.push_back(i);
      retry_keys.push_back(keys[i]);
    }
  }
  std::vector<float> retry_rows(stale.size() * d);
  if (op != Op::kGet) {
    for (size_t j = 0; j < stale.size(); ++j) {
      simd::CopyFloats(&retry_rows[j * d], rows_in + stale[j] * d, d);
    }
  }
  const BatchResult again = Execute(
      op, retry_keys, op == Op::kGet ? retry_rows.data() : nullptr,
      op == Op::kGet ? nullptr : retry_rows.data(), lr, options,
      /*allow_epoch_retry=*/false);
  for (size_t j = 0; j < stale.size(); ++j) {
    full.codes[stale[j]] = again.codes[j];
    if (op == Op::kGet && again.codes[j] == Status::Code::kOk) {
      simd::CopyFloats(rows_out + stale[j] * d, &retry_rows[j * d], d);
    }
  }
  // The stale keys were all counted failed; swap in the retry's outcome.
  full.failed -= stale.size();
  full.found += again.found;
  full.missing += again.missing;
  full.busy += again.busy;
  full.failed += again.failed;
  if (full.failed == 0) {
    full.first_error = Status::OK();
  } else if (again.failed > 0) {
    full.first_error = again.first_error;
  } else if (full.first_error.IsWrongPartition()) {
    // Remaining failures predate the retry; surface one of their codes.
    for (const Status::Code c : full.codes) {
      if (IsHardCode(c)) {
        full.first_error = Status::FromCode(c);
        break;
      }
    }
  }
  return full;
}

}  // namespace cluster
}  // namespace mlkv
