// Bench-side instrumentation for the MLKV benchmark: a KvBackend decorator
// that times calls into one layer from outside ("a seam"), an in-memory
// span store written out as Chrome trace-event JSON, and exact
// percentiles over raw samples.
//
// Nothing here reaches inside src/: every number is taken at a public
// KvBackend boundary. A workload stacks one SeamBackend per layer it wants
// to see (client -> server top -> engine); calls that nest on one thread
// nest as spans, so a layer's self time is its span time minus the time of
// the spans opened inside it.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "backend/kv_backend.h"

namespace mlkv::suite {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Nearest-rank percentile of raw samples (q in [0, 1]); 0 for no samples.
// Exact by construction — no bucketing, unlike common/Histogram, whose
// ~11% log buckets are wider than the regression bounds.
inline double Percentile(std::vector<uint64_t> v, double q) {
  if (v.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::max(1.0, static_cast<double>(v.size()) * q + 0.999999999));
  const size_t i = std::min(rank, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(i), v.end());
  return static_cast<double>(v[i]);
}

// Completed spans kept in memory until the run ends. Beyond `max_spans` the
// trace file is truncated; the per-seam statistics still see every call.
class SpanStore {
 public:
  struct Span {
    const char* seam;  // static strings: spans outlive the seams
    const char* op;
    uint32_t tid;
    uint32_t keys;
    uint64_t start_ns, end_ns;
  };

  explicit SpanStore(size_t max_spans) : max_spans_(max_spans) {}

  void Add(const Span& s) {
    std::lock_guard<std::mutex> lk(mu_);
    if (spans_.size() < max_spans_) {
      spans_.push_back(s);
    } else {
      ++dropped_;
    }
  }

  // Small dense thread ids for the trace viewer's rows.
  static uint32_t ThreadId() {
    static std::atomic<uint32_t> next{1};
    thread_local const uint32_t id = next.fetch_add(1);
    return id;
  }

  // Chrome trace-event JSON ("X" complete events, microseconds relative to
  // `origin_ns`); opens in Perfetto or chrome://tracing.
  bool WriteChromeTrace(const std::string& path, uint64_t origin_ns) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lk(mu_);
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const uint64_t start = s.start_ns >= origin_ns ? s.start_ns - origin_ns : 0;
      std::fprintf(f,
                   "%s{\"name\":\"%s.%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"keys\":%u}}\n",
                   i == 0 ? "" : ",", s.seam, s.op, s.tid, start / 1e3,
                   (s.end_ns - s.start_ns) / 1e3, s.keys);
    }
    std::fprintf(f, "],\"otherData\":{\"dropped_spans\":%llu}}\n",
                 static_cast<unsigned long long>(dropped_));
    return std::fclose(f) == 0;
  }

 private:
  const size_t max_spans_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

enum class Op { kGet, kPut, kApply, kLookahead };
inline constexpr size_t kNumOps = 4;
inline constexpr const char* kOpNames[kNumOps] = {"get", "put", "apply",
                                                  "lookahead"};

// Everything one seam saw. Counting (keys, failed keys) is always on; call
// timing and spans only when the seam is timed, so an untraced run keeps
// just the count-only decorator.
struct SeamStats {
  struct PerOp {
    uint64_t calls = 0;
    uint64_t keys = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;  // total minus spans opened inside these calls
    std::vector<uint64_t> ns;  // one sample per call
  };
  PerOp ops[kNumOps];
  uint64_t failed_keys = 0;
  uint64_t untracked_get_ns = 0;  // evaluation / serving reads
  // Interval between successive tracked MultiGets on one thread: a
  // trainer's step time, observed from outside the trainer.
  std::vector<uint64_t> step_ns;

  const PerOp& op(Op o) const { return ops[static_cast<size_t>(o)]; }

  uint64_t data_calls() const {
    return op(Op::kGet).calls + op(Op::kPut).calls + op(Op::kApply).calls;
  }
  uint64_t data_ns() const {
    return op(Op::kGet).total_ns + op(Op::kPut).total_ns +
           op(Op::kApply).total_ns;
  }
  uint64_t data_self_ns() const {
    return op(Op::kGet).self_ns + op(Op::kPut).self_ns +
           op(Op::kApply).self_ns;
  }
  uint64_t data_keys() const {
    return op(Op::kGet).keys + op(Op::kPut).keys + op(Op::kApply).keys;
  }
  std::vector<uint64_t> data_samples() const {
    std::vector<uint64_t> all;
    for (Op o : {Op::kGet, Op::kPut, Op::kApply}) {
      all.insert(all.end(), op(o).ns.begin(), op(o).ns.end());
    }
    return all;
  }
};

struct SeamOptions {
  const char* name = "seam";  // static; span name prefix, e.g. "engine"
  bool timed = false;         // per-call samples + spans
  bool step_intervals = false;
  SpanStore* spans = nullptr;  // required when timed
};

// KvBackend decorator recording one seam. Forwards every virtual to the
// wrapped backend; the storage calls are counted (and timed when asked).
class SeamBackend : public KvBackend {
 public:
  SeamBackend(std::unique_ptr<KvBackend> inner, SeamOptions options,
              SeamStats* stats)
      : inner_(std::move(inner)), options_(options), stats_(stats) {}

  std::string name() const override { return inner_->name(); }
  uint32_t dim() const override { return inner_->dim(); }
  uint32_t shard_bits() const override { return inner_->shard_bits(); }

  BatchResult MultiGet(std::span<const Key> keys, float* out,
                       const MultiGetOptions& options) override {
    if (options_.step_intervals && !options.untracked) NoteStep();
    const Call c = Begin();
    BatchResult r = inner_->MultiGet(keys, out, options);
    const uint64_t ns = End(c, Op::kGet, keys.size(), r.failed);
    if (options.untracked && ns > 0) {
      std::lock_guard<std::mutex> lk(mu_);
      stats_->untracked_get_ns += ns;
    }
    return r;
  }
  BatchResult MultiPut(std::span<const Key> keys,
                       const float* values) override {
    const Call c = Begin();
    BatchResult r = inner_->MultiPut(keys, values);
    End(c, Op::kPut, keys.size(), r.failed);
    return r;
  }
  BatchResult MultiApplyGradient(std::span<const Key> keys, const float* grads,
                                 float lr) override {
    const Call c = Begin();
    BatchResult r = inner_->MultiApplyGradient(keys, grads, lr);
    End(c, Op::kApply, keys.size(), r.failed);
    return r;
  }
  Status Lookahead(std::span<const Key> keys) override {
    const Call c = Begin();
    Status s = inner_->Lookahead(keys);
    End(c, Op::kLookahead, keys.size(), s.ok() ? 0 : keys.size());
    return s;
  }
  void WaitIdle() override { inner_->WaitIdle(); }
  uint64_t device_bytes_read() const override {
    return inner_->device_bytes_read();
  }
  uint64_t device_bytes_written() const override {
    return inner_->device_bytes_written();
  }
  void CollectMetrics(obs::MetricsSink* sink) const override {
    inner_->CollectMetrics(sink);
  }

 private:
  // One open timed call on this thread. `child_ns` accumulates the time of
  // timed calls made inside it (the next seam down, same thread).
  struct Frame {
    uint64_t child_ns = 0;
  };
  struct Call {
    uint64_t start_ns = 0;  // 0 = untimed
  };
  static std::vector<Frame>& Stack() {
    thread_local std::vector<Frame> stack;
    return stack;
  }

  Call Begin() {
    if (!options_.timed) return {};
    Stack().push_back({});
    return {NowNs()};
  }

  // Returns the call's duration (0 when untimed).
  uint64_t End(const Call& c, Op op, size_t keys, size_t failed) {
    uint64_t ns = 0, self_ns = 0;
    if (c.start_ns != 0) {
      const uint64_t end = NowNs();
      ns = end - c.start_ns;
      std::vector<Frame>& stack = Stack();
      self_ns = ns - std::min(ns, stack.back().child_ns);
      stack.pop_back();
      if (!stack.empty()) stack.back().child_ns += ns;
      options_.spans->Add({options_.name, kOpNames[static_cast<size_t>(op)],
                           SpanStore::ThreadId(),
                           static_cast<uint32_t>(keys), c.start_ns, end});
    }
    std::lock_guard<std::mutex> lk(mu_);
    SeamStats::PerOp& p = stats_->ops[static_cast<size_t>(op)];
    ++p.calls;
    p.keys += keys;
    stats_->failed_keys += failed;
    if (c.start_ns != 0) {
      p.total_ns += ns;
      p.self_ns += self_ns;
      p.ns.push_back(ns);
    }
    return ns;
  }

  void NoteStep() {
    thread_local const SeamBackend* owner = nullptr;
    thread_local uint64_t last_ns = 0;
    const uint64_t now = NowNs();
    if (owner == this && last_ns != 0) {
      std::lock_guard<std::mutex> lk(mu_);
      stats_->step_ns.push_back(now - last_ns);
    }
    owner = this;
    last_ns = now;
  }

  std::unique_ptr<KvBackend> inner_;
  const SeamOptions options_;
  SeamStats* stats_;
  std::mutex mu_;
};

}  // namespace mlkv::suite
