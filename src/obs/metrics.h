// MetricsRegistry: one process-visible catalog of named counters, gauges,
// and histograms, with Prometheus v0.0.4 text exposition. Two usage shapes:
//
//  * Native cells — code that owns a hot counter asks a family for its cell
//    once (label values fixed at lookup) and keeps the returned pointer.
//    Cell pointers are stable for the registry's lifetime and the record
//    path is lock-free (relaxed atomics; histograms reuse
//    common/histogram.h's log-bucketed layout). Registration itself takes a
//    mutex, so look cells up at wiring time, not per request.
//
//  * Collectors — subsystems that own their counters as plain atomics (a
//    FasterStore's, emitted per shard by FasterStore::CollectMetrics via
//    KvBackend::CollectMetrics; a RemoteBackend's RPC atomics; a
//    Replicator's progress…) register a pull callback. The callback runs
//    at scrape time and writes samples into a MetricsSink; the atomics
//    stay the source of truth and the registry is a view over them.
//
// Both the HTTP /metrics endpoint and the wire kStats opcode serve
// ExpositionText(), so readers of either pick series out of the same text
// (FindSample).
//
// SetMetricsEnabled(false) turns every native record path into a no-op —
// the measurement mode behind bench_ycsb_suite --metrics_overhead. While
// disabled, migrated counters (and the snapshots viewing them) freeze.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"

namespace mlkv {
namespace obs {

// Process-wide runtime switch for every native record path (Counter::Add,
// Gauge::Set, HistogramCell::Observe). Collectors still run at scrape time
// — they only read state owned elsewhere. Defaults to enabled.
void SetMetricsEnabled(bool enabled);

inline std::atomic<bool>& MetricsEnabledFlag() {
  static std::atomic<bool> enabled{true};
  return enabled;
}

inline bool MetricsEnabled() {
  return MetricsEnabledFlag().load(std::memory_order_relaxed);
}

// Monotonic counter. Lock-free; value() is exact once writers quiesce.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    if (MetricsEnabled()) v_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

// Point-in-time value; Set overwrites, Add accumulates (CAS loop).
class Gauge {
 public:
  void Set(double v) {
    if (MetricsEnabled()) v_.store(v, std::memory_order_relaxed);
  }
  void Add(double d) {
    if (!MetricsEnabled()) return;
    double prev = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(prev, prev + d,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// A histogram cell records raw values (typically microseconds) into the
// shared log-bucketed Histogram; the owning family's HistogramSpec maps
// them to exposition units and fixed `le` bounds at scrape time.
class HistogramCell {
 public:
  void Observe(uint64_t v) {
    if (MetricsEnabled()) h_.Record(v);
  }
  const Histogram& histogram() const { return h_; }

 private:
  Histogram h_;
};

// Exponentially weighted moving average of observed samples — the cheap
// "recent typical value" companion to a full histogram (per-endpoint RPC
// latency feeding the hedging decision). Lock-free: a CAS loop like
// Gauge::Add; the first sample seeds the average so warmup is not dragged
// toward zero. alpha is the weight of each new sample (1/8 tracks a
// latency signal without chasing every spike).
class Ewma {
 public:
  explicit Ewma(double alpha = 0.125) : alpha_(alpha) {}

  void Observe(double sample) {
    if (!MetricsEnabled()) return;
    if (count_.fetch_add(1, std::memory_order_relaxed) == 0) {
      v_.store(sample, std::memory_order_relaxed);
      return;
    }
    double prev = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(prev, prev + alpha_ * (sample - prev),
                                     std::memory_order_relaxed)) {
    }
  }

  double value() const { return v_.load(std::memory_order_relaxed); }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  const double alpha_;
  std::atomic<double> v_{0.0};
  std::atomic<uint64_t> count_{0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

// Exposition shape of a histogram family: recorded-unit -> exposition-unit
// scale (default: microseconds recorded, seconds exposed) and the `le`
// bucket bounds in exposition units. Cumulative bucket counts come from
// Histogram::CountAtOrBelow, so bounds need not align with the log buckets.
struct HistogramSpec {
  double scale = 1e-6;
  std::vector<double> bounds;  // empty = DefaultLatencyBounds()
};

const std::vector<double>& DefaultLatencyBounds();

// One named family of cells sharing a metric name, help string, kind, and
// label-key set. Cells are addressed by their label values (one value per
// key, positional); the unlabeled family is a single cell with no labels.
class MetricFamily {
 public:
  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }
  MetricKind kind() const { return kind_; }
  const std::vector<std::string>& label_keys() const { return label_keys_; }

  // Cell lookup: creates on first use, returns the same stable pointer
  // afterwards. The label value count must match label_keys(). Wrong-kind
  // lookups return nullptr (a programming error surfaced loudly in tests).
  Counter* GetCounter(std::vector<std::string> label_values = {});
  Gauge* GetGauge(std::vector<std::string> label_values = {});
  HistogramCell* GetHistogram(std::vector<std::string> label_values = {});

 private:
  friend class MetricsRegistry;
  MetricFamily(std::string name, std::string help, MetricKind kind,
               std::vector<std::string> label_keys, HistogramSpec spec)
      : name_(std::move(name)),
        help_(std::move(help)),
        kind_(kind),
        label_keys_(std::move(label_keys)),
        spec_(std::move(spec)) {}

  template <typename Cell>
  Cell* GetCell(std::map<std::vector<std::string>, std::unique_ptr<Cell>>* m,
                MetricKind want, std::vector<std::string> label_values);

  const std::string name_;
  const std::string help_;
  const MetricKind kind_;
  const std::vector<std::string> label_keys_;
  const HistogramSpec spec_;

  // std::map keeps cells ordered by label tuple, so family iteration (and
  // the exposition text) is deterministic regardless of creation order.
  mutable std::mutex mu_;
  std::map<std::vector<std::string>, std::unique_ptr<Counter>> counters_;
  std::map<std::vector<std::string>, std::unique_ptr<Gauge>> gauges_;
  std::map<std::vector<std::string>, std::unique_ptr<HistogramCell>>
      histograms_;
};

// Scrape-time sample buffer a collector writes into. Label values are
// copied (callers may pass temporaries like std::to_string(shard)).
class MetricsSink {
 public:
  struct Sample {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    std::vector<std::pair<std::string, std::string>> labels;
    double value = 0;
  };
  using Label = std::pair<std::string_view, std::string_view>;

  void AddCounter(std::string_view name, std::string_view help,
                  uint64_t value, std::initializer_list<Label> labels = {});
  void AddGauge(std::string_view name, std::string_view help, double value,
                std::initializer_list<Label> labels = {});

  const std::vector<Sample>& samples() const { return samples_; }
  // Sum of the samples named `name` across their label sets, or only of
  // those carrying `label` when one is given (e.g. {"op", "read"}); 0 when
  // none was emitted.
  double Sum(std::string_view name, Label label = {}) const;

 private:
  void Push(std::string_view name, std::string_view help, MetricKind kind,
            double value, std::initializer_list<Label> labels);
  std::vector<Sample> samples_;
};

// Validation used by tests and the exposition checker: Prometheus metric
// names are [a-zA-Z_:][a-zA-Z0-9_:]*, label keys [a-zA-Z_][a-zA-Z0-9_]*.
bool ValidMetricName(std::string_view name);
bool ValidLabelKey(std::string_view key);

// Looks up one sample in Prometheus text exposition. `series` is the
// sample name plus its label set exactly as ExpositionText() renders it,
// e.g. `mlkv_server_requests_total{op="MultiGet"}`; a name that is only a
// prefix of another sample's name does not match. False when absent.
bool FindSample(std::string_view exposition, std::string_view series,
                double* value);

// The registry. KvServer instances own a private registry each (so two
// servers in one process — tests, loopback clusters — never merge their
// counters); Default() serves code without a natural owner.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry* Default();

  // Family lookup: creates on first use; later calls with the same name
  // return the same family (help/kind/label_keys of the first call win).
  MetricFamily* CounterFamily(std::string_view name, std::string_view help,
                              std::vector<std::string> label_keys = {});
  MetricFamily* GaugeFamily(std::string_view name, std::string_view help,
                            std::vector<std::string> label_keys = {});
  MetricFamily* HistogramFamily(std::string_view name, std::string_view help,
                                std::vector<std::string> label_keys = {},
                                HistogramSpec spec = {});

  // Pull collectors, run (under the registry mutex) by every scrape.
  // RemoveCollector before anything the callback captures dies.
  uint64_t AddCollector(std::function<void(MetricsSink*)> fn);
  void RemoveCollector(uint64_t id);

  // Prometheus v0.0.4 text exposition: one # HELP / # TYPE header per
  // family (native families first, then collector-only families), samples
  // ordered by label tuple, label values escaped per the format spec.
  std::string ExpositionText() const;

  size_t FamilyCount() const;

 private:
  MetricFamily* GetFamily(std::string_view name, std::string_view help,
                          MetricKind kind,
                          std::vector<std::string> label_keys,
                          HistogramSpec spec);

  mutable std::mutex mu_;
  // std::map: exposition iterates families in name order.
  std::map<std::string, std::unique_ptr<MetricFamily>, std::less<>>
      families_;
  uint64_t next_collector_id_ = 1;
  std::vector<std::pair<uint64_t, std::function<void(MetricsSink*)>>>
      collectors_;
};

}  // namespace obs
}  // namespace mlkv
