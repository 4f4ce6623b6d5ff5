#include "kv/sharded_store.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/spin_wait.h"
#include "obs/trace.h"

namespace mlkv {

std::string ShardedStore::ShardFilePath(const std::string& path,
                                        uint32_t shard, uint32_t shard_bits) {
  if (shard_bits == 0) return path;
  char dir_name[16];
  std::snprintf(dir_name, sizeof(dir_name), "shard-%02u", shard);
  const std::filesystem::path p(path);
  return (p.parent_path() / dir_name / p.filename()).string();
}

bool ShardedStore::CheckpointExists(const ShardedStoreOptions& options,
                                    const std::string& prefix) {
  if (options.shard_bits == 0) {
    return std::filesystem::exists(prefix + ".meta");
  }
  // Sharded checkpoints are only valid once the commit marker exists (see
  // Checkpoint): a partial set of shard files is not a checkpoint.
  return std::filesystem::exists(prefix + ".shards");
}

FasterOptions ShardedStore::ShardOptions(size_t i) const {
  // Note options_.io (the batched-read wave engine) and options_.store.io
  // (each shard's flush-wave engine) are set independently by the caller;
  // MLKV and the FASTER backend point both at one engine.
  FasterOptions o = options_.store;
  if (options_.shard_bits == 0) return o;
  o.path = ShardFilePath(options_.store.path, static_cast<uint32_t>(i),
                         options_.shard_bits);
  o.mem_size = std::max(options_.store.mem_size >> options_.shard_bits,
                        kMinShardMemBytes);
  o.index_slots = std::max(options_.store.index_slots >> options_.shard_bits,
                           kMinShardIndexSlots);
  return o;
}

Status ShardedStore::OpenShards(const ShardedStoreOptions& options,
                                const std::string* recover_prefix) {
  if (options.shard_bits > kMaxShardBits) {
    return Status::InvalidArgument("shard_bits must be <= 8");
  }
  options_ = options;
  const size_t n = size_t{1} << options.shard_bits;
  mask_ = n - 1;
  shards_.clear();
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const FasterOptions so = ShardOptions(i);
    if (options.shard_bits > 0) {
      std::error_code ec;
      std::filesystem::create_directories(
          std::filesystem::path(so.path).parent_path(), ec);
      if (ec) {
        return Status::IOError("create shard dir: " + ec.message());
      }
    }
    auto shard = std::make_unique<FasterStore>();
    if (recover_prefix != nullptr) {
      MLKV_RETURN_NOT_OK(shard->Recover(
          so, ShardFilePath(*recover_prefix, static_cast<uint32_t>(i),
                            options.shard_bits)));
    } else {
      MLKV_RETURN_NOT_OK(shard->Open(so));
    }
    shards_.push_back(std::move(shard));
  }
  return Status::OK();
}

Status ShardedStore::Open(const ShardedStoreOptions& options) {
  return OpenShards(options, nullptr);
}

Status ShardedStore::Recover(const ShardedStoreOptions& options,
                             const std::string& prefix) {
  return OpenShards(options, &prefix);
}

// The batch is decomposed into tasks — each a stable run of `order`
// (caller indices) against one shard: one task per non-empty shard (the
// scatter). A given key lands in exactly one sub-batch, in caller order, so
// same-key operations never race and a duplicate-key Put still resolves
// last-occurrence-wins.
bool ShardedStore::BuildScatter(std::span<const Key> keys, bool force_tasks,
                                std::vector<uint32_t>* order,
                                std::vector<SubBatch>* tasks) const {
  const size_t n = keys.size();
  if (shards_.size() == 1) {
    if (!force_tasks) return false;  // caller runs the inline loop
    order->resize(n);
    for (size_t i = 0; i < n; ++i) (*order)[i] = static_cast<uint32_t>(i);
    tasks->push_back({shards_[0].get(), 0, static_cast<uint32_t>(n)});
    return true;
  }

  // Stable counting sort of caller indices by shard: shard b's sub-batch
  // is order[offset[b] .. offset[b+1]), in caller order.
  const size_t num_shards = shards_.size();
  std::vector<uint32_t> shard_of(n);
  std::vector<uint32_t> offset(num_shards + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    shard_of[i] = static_cast<uint32_t>(ShardIndexOf(keys[i]));
    ++offset[shard_of[i] + 1];
  }
  for (size_t b = 0; b < num_shards; ++b) offset[b + 1] += offset[b];
  order->resize(n);
  {
    std::vector<uint32_t> cursor(offset.begin(), offset.end() - 1);
    for (size_t i = 0; i < n; ++i) {
      (*order)[cursor[shard_of[i]]++] = static_cast<uint32_t>(i);
    }
  }
  for (size_t b = 0; b < num_shards; ++b) {
    if (offset[b + 1] == offset[b]) continue;
    tasks->push_back({shards_[b].get(), offset[b], offset[b + 1]});
  }
  return true;
}

void ShardedStore::MultiExecute(std::span<const Key> keys, const ShardOp& op,
                                BatchResult* result, bool stop_on_error) {
  // No-op without an active request trace; otherwise the scatter span
  // parents every shard_execute span RunTasks opens (including on pool
  // threads — RunTasks captures this thread's context before fanning out).
  obs::ScopedSpan scatter_span("scatter");
  const size_t n = keys.size();
  result->Reset(n);
  if (n == 0) return;
  if (n == 1) {  // single-key wrappers: no partitioning machinery
    op(ShardFor(keys[0]), keys[0], 0, result, 0);
    return;
  }

  std::vector<uint32_t> order;
  std::vector<SubBatch> tasks;
  if (!BuildScatter(keys, /*force_tasks=*/false, &order, &tasks)) {
    FasterStore* s = shards_[0].get();
    for (size_t i = 0; i < n; ++i) {
      op(s, keys[i], i, result, i);
      if (stop_on_error && result->codes[i] != Status::Code::kOk) break;
    }
    return;
  }

  std::vector<BatchResult> parts(tasks.size());
  auto run_task = [&](size_t t) {
    const SubBatch& task = tasks[t];
    BatchResult* part = &parts[t];
    part->Reset(task.end - task.begin);
    for (uint32_t j = 0; j < task.end - task.begin; ++j) {
      const uint32_t i = order[task.begin + j];
      op(task.store, keys[i], i, part, j);
      if (stop_on_error && part->codes[j] != Status::Code::kOk) break;
    }
  };
  RunTasks(tasks, run_task);

  // Gather: scatter codes back to caller indices; sum the counts. The
  // first hard error of the lowest-numbered task survives.
  GatherParts(order, tasks, parts, result);
}

void ShardedStore::RunTasks(const std::vector<SubBatch>& tasks,
                            const std::function<void(size_t)>& run_task) {
  // Snapshot the caller's trace context here: pool helpers run on threads
  // with no (or a stale) thread-local context, so each claimed sub-batch
  // re-installs the caller's before opening its shard_execute span.
  const obs::TraceContext trace_ctx = obs::CurrentTraceContext();
  const auto traced_run = [&run_task, trace_ctx](size_t t) {
    obs::ScopedTraceContext ctx(trace_ctx);
    obs::ScopedSpan span("shard_execute");
    run_task(t);
  };
  if (options_.pool == nullptr || tasks.size() == 1) {
    // Nothing to overlap: run the sub-batches directly, skipping the
    // shared-state fan-in machinery entirely.
    for (size_t t = 0; t < tasks.size(); ++t) traced_run(t);
  } else {
    // Execute with work stealing off a shared claim counter: the caller
    // and up to `helpers` pool workers each grab the next unclaimed
    // sub-batch. The caller never waits on the pool's queue — if the
    // workers are busy (or stuck behind queued lookahead prefetches) it
    // simply runs every sub-batch itself, so the scatter can never be
    // slower than the inline loop by more than a queue handoff. Helpers
    // that start after all sub-batches are claimed only touch the
    // heap-shared state: the claim check fails and they exit without
    // dereferencing this frame (which is guaranteed alive for any
    // SUCCESSFUL claim — the fan-in below cannot pass until that task's
    // completion is counted).
    struct ScatterState {
      std::atomic<size_t> next{0};
      std::atomic<size_t> done{0};
      size_t count = 0;
      std::function<void(size_t)> run;  // only called on a successful claim
    };
    auto state = std::make_shared<ScatterState>();
    state->count = tasks.size();
    state->run = [&traced_run](size_t t) { traced_run(t); };
    const auto work = [](const std::shared_ptr<ScatterState>& s) {
      for (;;) {
        const size_t t = s->next.fetch_add(1, std::memory_order_acq_rel);
        if (t >= s->count) return;
        s->run(t);
        s->done.fetch_add(1, std::memory_order_acq_rel);
      }
    };
    size_t offloadable = 0;
    for (const SubBatch& task : tasks) {
      if (task.end - task.begin >= kParallelMinKeys) ++offloadable;
    }
    size_t helpers = std::min(offloadable, tasks.size() - 1);
    helpers = std::min(helpers, options_.pool->num_threads());
    for (size_t h = 0; h < helpers; ++h) {
      if (!options_.pool->TrySubmit([state, work] { work(state); })) {
        break;  // queue full / shutting down: the caller covers the rest
      }
    }
    work(state);
    SpinWaitUntil([&] {
      return state->done.load(std::memory_order_acquire) == tasks.size();
    });
  }
}

void ShardedStore::MultiExecuteRead(std::span<const Key> keys,
                                    const ShardReadOp& op,
                                    BatchResult* result, bool stop_on_error) {
  AsyncIoEngine* io = options_.io;
  if (io == nullptr || stop_on_error || keys.size() <= 1) {
    // No engine, the fail-fast legacy contract, or a single key (nothing
    // to overlap): the unchanged blocking path, op with a null sink.
    MultiExecute(
        keys,
        [&op](FasterStore* shard, Key key, size_t i, BatchResult* part,
              size_t pi) { op(shard, key, i, part, pi, nullptr); },
        result, stop_on_error);
    return;
  }

  obs::ScopedSpan scatter_span("scatter");
  const size_t n = keys.size();
  result->Reset(n);
  std::vector<uint32_t> order;
  std::vector<SubBatch> tasks;
  // force_tasks: even a lone shard goes through the task path — the wave
  // is exactly what overlaps its cold misses.
  BuildScatter(keys, /*force_tasks=*/true, &order, &tasks);
  std::vector<BatchResult> parts(tasks.size());
  std::vector<PendingSink> sinks(tasks.size());
  auto run_task = [&](size_t t) {
    const SubBatch& task = tasks[t];
    BatchResult* part = &parts[t];
    part->Reset(task.end - task.begin);
    for (uint32_t j = 0; j < task.end - task.begin; ++j) {
      const uint32_t i = order[task.begin + j];
      op(task.store, keys[i], i, part, j, &sinks[t]);
    }
  };
  RunTasks(tasks, run_task);

  // One submission wave across every shard's sub-batch; completions (and
  // their finish callbacks, which record into the parts) run here on the
  // calling thread.
  {
    obs::ScopedSpan io_span("io_wave");
    PendingReadWave wave(io);
    for (PendingSink& sink : sinks) wave.Adopt(&sink);
    wave.CompleteAll();
  }

  GatherParts(order, tasks, parts, result);
}

// Gather: scatter codes back to caller indices; sum the counts. The first
// hard error of the lowest-numbered task survives.
void ShardedStore::GatherParts(const std::vector<uint32_t>& order,
                               const std::vector<SubBatch>& tasks,
                               const std::vector<BatchResult>& parts,
                               BatchResult* result) {
  for (size_t t = 0; t < tasks.size(); ++t) {
    const BatchResult& part = parts[t];
    for (uint32_t j = 0; j < part.codes.size(); ++j) {
      result->codes[order[tasks[t].begin + j]] = part.codes[j];
    }
    result->found += part.found;
    result->missing += part.missing;
    result->busy += part.busy;
    if (result->failed == 0 && part.failed > 0) {
      result->first_error = part.first_error;
    }
    result->failed += part.failed;
  }
}

Status ShardedStore::Checkpoint(const std::string& prefix) {
  for (size_t i = 0; i < shards_.size(); ++i) {
    MLKV_RETURN_NOT_OK(shards_[i]->Checkpoint(ShardFilePath(
        prefix, static_cast<uint32_t>(i), options_.shard_bits)));
  }
  if (options_.shard_bits == 0) return Status::OK();
  // Commit: the marker appears (atomically, via rename) only after every
  // shard's files are durably in place.
  const std::string marker = prefix + ".shards";
  const std::string tmp = marker + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.is_open()) return Status::IOError("open " + tmp);
    out << options_.shard_bits << '\n';
    out.flush();
    if (!out.good()) return Status::IOError("write " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, marker, ec);
  if (ec) return Status::IOError("commit checkpoint marker: " + ec.message());
  return Status::OK();
}

namespace {
void Accumulate(const CompactionResult& r, CompactionResult* total) {
  if (total == nullptr) return;
  total->scanned += r.scanned;
  total->live_copied += r.live_copied;
  total->dead_skipped += r.dead_skipped;
  total->tombstones_dropped += r.tombstones_dropped;
  // Aggregate new_begin is the SUM of per-shard begin addresses over the
  // shards that actually compacted — the quantity log_begin_total()
  // reports, so before/after comparisons stay meaningful across shard
  // counts. Shards skipped by MaybeCompact report kInvalidAddress.
  if (r.new_begin == kInvalidAddress) return;
  if (total->new_begin == kInvalidAddress) total->new_begin = 0;
  total->new_begin += r.new_begin;
}
}  // namespace

Status ShardedStore::PersistAll() {
  for (auto& shard : shards_) {
    MLKV_RETURN_NOT_OK(shard->Persist());
  }
  return Status::OK();
}

Status ShardedStore::CompactAll(CompactionResult* total) {
  for (auto& shard : shards_) {
    CompactionResult r;
    MLKV_RETURN_NOT_OK(shard->Compact(shard->log().read_only_address(), &r));
    Accumulate(r, total);
  }
  return Status::OK();
}

Status ShardedStore::MaybeCompact(uint64_t max_log_bytes,
                                  CompactionResult* total) {
  const uint64_t per_shard = max_log_bytes / shards_.size();
  for (auto& shard : shards_) {
    CompactionResult r;
    MLKV_RETURN_NOT_OK(shard->MaybeCompact(per_shard, &r));
    Accumulate(r, total);
  }
  return Status::OK();
}

void ShardedStore::CollectMetrics(obs::MetricsSink* sink) const {
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->CollectMetrics(sink, std::to_string(i));
  }
}

uint64_t ShardedStore::approximate_size() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->approximate_size();
  return total;
}

uint64_t ShardedStore::index_slots() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->index_slots();
  return total;
}

uint64_t ShardedStore::log_begin_total() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->log().begin_address();
  return total;
}

uint64_t ShardedStore::log_read_only_total() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->log().read_only_address();
  }
  return total;
}

uint64_t ShardedStore::log_tail_total() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->log().tail();
  return total;
}

uint64_t ShardedStore::device_bytes_read() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->mutable_log()->device()->bytes_read();
  }
  return total;
}

uint64_t ShardedStore::device_bytes_written() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->mutable_log()->device()->bytes_written();
  }
  return total;
}

}  // namespace mlkv
