#include "workloads.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <thread>
#include <utility>

#include "backend/kv_backend.h"
#include "common/hash.h"
#include "common/random.h"
#include "net/kv_server.h"
#include "obs/metrics.h"
#include "train/batch_io.h"
#include "train/ctr_trainer.h"

namespace mlkv::suite {

namespace {

constexpr uint64_t kMiB = 1ull << 20;

// --- ctr_ooc: out-of-core CTR training (the paper's Fig. 2/9 regime) ---
constexpr int kCtrFields = 8;
constexpr uint64_t kCtrCardinality = 10000;  // per field: 80k keys, ~7.7 MB
constexpr uint32_t kCtrDim = 16;
constexpr uint64_t kCtrBufferBytes = 4 * kMiB;
// Sizes each round's training job from --seconds so the run trains for
// about --seconds. Measured on a 4-vCPU Xeon under the simulated device:
// 6 jobs of 73 batches per worker trained at ~2.4k samples/s, i.e. ~9.4
// batches/s per worker including the final eval.
constexpr double kCtrBatchesPerSecond = 9.4;
// Held-out AUC is checked only for jobs at least this long; shorter ones
// (--seconds of a smoke run) have not learned enough to tell from chance.
constexpr uint64_t kCtrAucMinBatches = 50;
constexpr double kCtrMinAuc = 0.55;

// --- serve_ooc: 200k x dim 64 rows (~55 MB of records) ---
constexpr Key kRows = 200000;
constexpr uint32_t kRowDim = 64;
constexpr double kZipfTheta = 0.99;
constexpr int kClientThreads = 2;
// The table is larger than the 32 MiB buffer, and nearly every key that
// misses the serving cache is read from the device (~0.94 record reads per
// engine key). A batch of 256 keys takes ~34 ms, so 18 batches/s keep the
// two server workers about a third busy. Shorter batches (7-15 ms) had a
// p90 that rose by up to 64% in phases of heavy host load, against up to
// 22% for their p50: a stall of a few ms is a large share of a short batch.
constexpr uint64_t kServeBufferBytes = 32 * kMiB;
constexpr size_t kServeCacheRows = 2000;
constexpr size_t kServeBatchKeys = 256;
constexpr double kServeBatchesPerSecond = 18;

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return Hash64(seed * 0x9E3779B97F4A7C15ull + stream);
}

void Fail(Round* r, uint64_t n, std::string what) {
  r->failed += n;
  if (r->errors.size() < 4) r->errors.push_back(std::move(what));
}

// Set-up failures are environment errors, not measurements: the run ends
// without a result.
void Check(const Status& s, const char* what) {
  if (s.ok()) return;
  std::fprintf(stderr, "bench_mlkv: %s: %s\n", what, s.ToString().c_str());
  std::exit(1);
}

// A round's backend directory, removed when the round ends. Declared before
// the backends so it outlives them.
class RoundDir {
 public:
  RoundDir(const RunConfig& cfg, int index)
      : path_(cfg.dir + "/" + cfg.workload + "-" +
              std::to_string(::getpid()) + "-" + std::to_string(index)) {}
  ~RoundDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  RoundDir(const RoundDir&) = delete;
  RoundDir& operator=(const RoundDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  const std::string path_;
};

struct Snapshot {
  Families counters, gauges;
};

Snapshot Snap(const KvBackend& b) {
  obs::MetricsSink sink;
  b.CollectMetrics(&sink);
  Snapshot s;
  for (const obs::MetricsSink::Sample& x : sink.samples()) {
    (x.kind == obs::MetricKind::kGauge ? s.gauges : s.counters)[x.name] +=
        x.value;
  }
  return s;
}

Families Window(const Snapshot& before, const Snapshot& after) {
  Families f = after.gauges;
  for (const auto& [name, v] : after.counters) {
    const auto it = before.counters.find(name);
    f[name] = v - (it == before.counters.end() ? 0 : it->second);
  }
  return f;
}

std::unique_ptr<KvBackend> Wrap(std::unique_ptr<KvBackend> inner,
                                const char* name, SeamStats* stats,
                                SpanStore* spans, bool timed,
                                bool step_intervals = false) {
  SeamOptions o;
  o.name = name;
  o.timed = timed;
  o.step_intervals = step_intervals;
  o.spans = spans;
  return std::make_unique<SeamBackend>(std::move(inner), o, stats);
}

std::unique_ptr<KvBackend> OpenMlkv(const BackendConfig& config) {
  std::unique_ptr<KvBackend> b;
  Check(MakeBackend(BackendKind::kMlkv, config, &b), "open MLKV backend");
  return b;
}

// Writes rows [0, kRows): element 0 holds the key (exact in float below
// 2^24), the rest 1.
void PreloadRows(KvBackend* b) {
  constexpr size_t kChunk = 4096;
  std::vector<Key> keys(kChunk);
  std::vector<float> rows(kChunk * kRowDim, 1.0f);
  for (Key base = 0; base < kRows; base += kChunk) {
    const size_t n = static_cast<size_t>(std::min<Key>(kChunk, kRows - base));
    for (size_t i = 0; i < n; ++i) {
      keys[i] = base + i;
      rows[i * kRowDim] = static_cast<float>(keys[i]);
    }
    const BatchResult r = b->MultiPut({keys.data(), n}, rows.data());
    if (r.failed > 0) Check(r.first_error, "preload rows");
  }
}

double Seconds(uint64_t from_ns, uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

Round RunCtr(const RunConfig& cfg, int index, bool traced) {
  Round r;
  r.traced = traced;
  r.row_bytes = kCtrDim * sizeof(float);
  const uint64_t t0 = NowNs();
  const RoundDir dir(cfg, index);
  const Key keys = kCtrFields * kCtrCardinality;
  BackendConfig bc;
  bc.dir = dir.path();
  bc.dim = kCtrDim;
  bc.buffer_bytes = kCtrBufferBytes;
  bc.index_slots = keys;
  bc.staleness_bound = 8;
  std::unique_ptr<KvBackend> engine = OpenMlkv(bc);
  // Model resident on disk before the first step, as in the Fig. 2 runs.
  PreloadKeys(engine.get(), keys);
  KvBackend* raw = engine.get();
  if (traced) {
    engine = Wrap(std::move(engine), "engine", &r.engine, cfg.spans, true);
  }
  // The client seam stays in untraced rounds as a count-only decorator:
  // failed keys are a correctness check, and the interval between a
  // worker's successive tracked reads is its step time.
  std::unique_ptr<KvBackend> client =
      Wrap(std::move(engine), "client", &r.client, cfg.spans, traced,
           /*step_intervals=*/true);

  CtrTrainerOptions o;
  o.data.num_fields = kCtrFields;
  o.data.field_cardinality = kCtrCardinality;
  o.data.zipf_theta = 0.9;
  // Labels straight from the planted model: a job of this size then clears
  // the AUC check with margin. Only labels change; the key stream does not.
  o.data.label_noise = 0;
  o.data.seed = SubSeed(cfg.seed, 1);
  o.dim = kCtrDim;
  o.batch_size = 128;
  o.num_workers = kClientThreads;
  o.train_batches = std::max<uint64_t>(
      10, static_cast<uint64_t>(cfg.seconds * kCtrBatchesPerSecond /
                                cfg.rounds));
  o.eval_every = static_cast<int>(o.train_batches);  // one eval, at the end
  o.eval_samples = 2000;
  o.lookahead_depth = 4;
  o.compute_micros_per_batch = 500;
  o.seed = SubSeed(cfg.seed, 2);

  const Snapshot before = Snap(*raw);
  r.setup_s = Seconds(t0, NowNs());
  const TrainResult tr = CtrTrainer(client.get(), o).Train();
  r.families = Window(before, Snap(*raw));

  r.measure_s = tr.seconds;
  r.items = tr.samples;
  r.latency_ns = std::move(r.client.step_ns);
  r.auc = tr.final_metric;
  r.emb_s = tr.embedding_seconds;
  r.fwd_s = tr.forward_seconds;
  r.bwd_s = tr.backward_seconds;
  r.eval_s = static_cast<double>(r.client.untracked_get_ns) * 1e-9;
  r.busy_aborts = tr.busy_aborts;
  r.attempted = r.client.data_keys();
  if (r.client.failed_keys > 0) {
    Fail(&r, r.client.failed_keys, "storage calls failed keys");
  }
  if (o.train_batches >= kCtrAucMinBatches && !(r.auc >= kCtrMinAuc)) {
    Fail(&r, 1, "held-out AUC " + std::to_string(r.auc) + " < 0.55");
  }
  return r;
}

// Open loop: each sender owns a fixed schedule (kServeBatchesPerSecond /
// kClientThreads batches per second, staggered) and times every batch from
// when it was due, so a stall also charges the batches queued behind it.
Round RunServe(const RunConfig& cfg, int index, bool traced) {
  Round r;
  r.traced = traced;
  r.row_bytes = kRowDim * sizeof(float);
  const uint64_t t0 = NowNs();
  const RoundDir dir(cfg, index);
  BackendConfig bc;
  bc.dir = dir.path();
  bc.dim = kRowDim;
  bc.buffer_bytes = kServeBufferBytes;
  bc.index_slots = kRows;
  std::unique_ptr<KvBackend> engine = OpenMlkv(bc);
  PreloadRows(engine.get());
  if (traced) {
    engine = Wrap(std::move(engine), "engine", &r.engine, cfg.spans, true);
  }
  std::unique_ptr<KvBackend> cached;
  Check(MakeCachingBackend(std::move(engine), kServeCacheRows,
                           CacheAdmission::kTinyLfu, &cached),
        "caching backend");
  if (traced) {
    cached = Wrap(std::move(cached), "server", &r.server, cfg.spans, true);
  }
  net::KvServerOptions so;
  so.num_workers = kClientThreads;
  // The slow-request log would print span trees mid-measurement; the
  // metrics registry stays on, as in production.
  so.enable_tracing = false;
  auto server = std::make_unique<net::KvServer>(std::move(cached), so);
  Check(server->Start(), "start KvServer");
  BackendConfig rc;
  rc.remote_addr = server->addr();
  rc.remote_pool_size = kClientThreads;
  std::unique_ptr<KvBackend> remote;
  Check(MakeBackend(BackendKind::kRemote, rc, &remote), "connect");
  KvBackend* remote_raw = remote.get();
  if (traced) {
    remote = Wrap(std::move(remote), "client", &r.client, cfg.spans, true);
  }
  std::vector<ZipfianGenerator> gens;
  for (int s = 0; s < kClientThreads; ++s) {
    gens.emplace_back(kRows, kZipfTheta, SubSeed(cfg.seed, 10 + s));
  }
  const Snapshot server_before = Snap(*server->backend());
  const Snapshot client_before = Snap(*remote_raw);

  struct Sender {
    std::vector<uint64_t> latency_ns;
    uint64_t late_batches = 0, late_ns = 0, attempted = 0, failed = 0,
             wrong = 0, served = 0, last_done = 0;
  };
  std::vector<Sender> senders(kClientThreads);
  const uint64_t window_ns =
      static_cast<uint64_t>(cfg.seconds / cfg.rounds * 1e9);
  const uint64_t period_ns = static_cast<uint64_t>(
      1e9 * kClientThreads / kServeBatchesPerSecond);
  constexpr uint64_t kGiveUpNs = 5000000000ull;  // overrun -> unsent
  // Timer wake-ups land ~60 us late here; sleeping to just before the due
  // time and spinning the rest keeps that error out of every batch.
  constexpr uint64_t kSpinBeforeDueNs = 100000;
  const uint64_t start = NowNs();
  r.setup_s = Seconds(t0, start);
  const uint64_t end = start + window_ns;
  std::vector<std::thread> threads;
  for (int s = 0; s < kClientThreads; ++s) {
    threads.emplace_back([&, s] {
      Sender& me = senders[s];
      ZipfianGenerator& zg = gens[s];
      std::vector<Key> keys(kServeBatchKeys);
      std::vector<float> out(kServeBatchKeys * kRowDim);
      MultiGetOptions untracked;
      untracked.untracked = true;
      for (auto& k : keys) k = zg.NextScrambled();
      const uint64_t offset = period_ns * s / kClientThreads;
      for (uint64_t j = 0;; ++j) {
        const uint64_t due = start + offset + j * period_ns;
        if (due >= end) break;
        uint64_t now = NowNs();
        if (now > end + kGiveUpNs) {
          const uint64_t unsent = (end - due + period_ns - 1) / period_ns;
          me.attempted += unsent * kServeBatchKeys;
          me.failed += unsent * kServeBatchKeys;
          break;
        }
        if (now + kSpinBeforeDueNs < due) {
          std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
              std::chrono::nanoseconds(due - kSpinBeforeDueNs)));
        }
        while (now < due) now = NowNs();
        const uint64_t late = now - due;
        me.late_ns += late;
        if (late > 1000000) ++me.late_batches;
        const BatchResult br = remote->MultiGet(keys, out.data(), untracked);
        const uint64_t done = NowNs();
        me.latency_ns.push_back(done - due);
        me.last_done = done;
        me.attempted += kServeBatchKeys;
        for (size_t i = 0; i < kServeBatchKeys; ++i) {
          if (br.codes[i] != Status::Code::kOk) {
            ++me.failed;
          } else if (out[i * kRowDim] != static_cast<float>(keys[i])) {
            ++me.wrong;
          } else {
            ++me.served;
          }
        }
        for (auto& k : keys) k = zg.NextScrambled();
      }
    });
  }
  for (auto& t : threads) t.join();
  uint64_t last_done = start;
  for (Sender& s : senders) {
    r.latency_ns.insert(r.latency_ns.end(), s.latency_ns.begin(),
                        s.latency_ns.end());
    r.late_batches += s.late_batches;
    r.late_ns_total += s.late_ns;
    r.attempted += s.attempted;
    r.items += s.served;
    last_done = std::max(last_done, s.last_done);
    if (s.failed > 0) Fail(&r, s.failed, "MultiGet failed or unsent keys");
    if (s.wrong > 0) Fail(&r, s.wrong, "served row's first float != key");
  }
  r.measure_s = Seconds(start, last_done);
  r.families = Window(server_before, Snap(*server->backend()));
  r.client_families = Window(client_before, Snap(*remote_raw));
  return r;
}

}  // namespace

const std::vector<std::string>& Workloads() {
  static const std::vector<std::string> names = {"ctr_ooc", "serve_ooc"};
  return names;
}

Round RunRound(const RunConfig& cfg, int index, bool traced) {
  if (cfg.workload == "ctr_ooc") return RunCtr(cfg, index, traced);
  return RunServe(cfg, index, traced);
}

}  // namespace mlkv::suite
