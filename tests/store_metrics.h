// Test-side reader of a hybrid-log store's counters, the same path a scrape
// takes: CollectMetrics into a sink, then one family summed over its
// samples (so over `shard`). A family with no matching sample fails the
// test, so a misspelt name never reads as 0.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>

#include "kv/faster_store.h"
#include "kv/sharded_store.h"
#include "obs/metrics.h"

namespace mlkv {

using MetricLabels = std::initializer_list<obs::MetricsSink::Label>;

// Sum of the samples of family `name`; with `labels` set (e.g.
// {{"op", "rmw"}}), only the samples carrying all of them.
inline uint64_t MetricSum(const obs::MetricsSink& sink, std::string_view name,
                          MetricLabels labels = {}) {
  bool emitted = false;
  double total = 0;
  for (const obs::MetricsSink::Sample& s : sink.samples()) {
    if (s.name != name) continue;
    const bool match = std::all_of(
        labels.begin(), labels.end(), [&](const obs::MetricsSink::Label& l) {
          return std::find(s.labels.begin(), s.labels.end(),
                           std::pair<std::string, std::string>(l)) !=
                 s.labels.end();
        });
    if (!match) continue;
    emitted = true;
    total += s.value;
  }
  EXPECT_TRUE(emitted) << "no sample of " << name << " with the given labels";
  return static_cast<uint64_t>(total);
}

// One scrape of a store (a bare FasterStore is labelled shard "0").
inline obs::MetricsSink StoreSamples(const FasterStore& store) {
  obs::MetricsSink sink;
  store.CollectMetrics(&sink, "0");
  return sink;
}

inline obs::MetricsSink StoreSamples(const ShardedStore& store) {
  obs::MetricsSink sink;
  store.CollectMetrics(&sink);
  return sink;
}

// MetricSum over a fresh scrape of `store`.
template <typename Store>
uint64_t StoreMetric(const Store& store, std::string_view name,
                     MetricLabels labels = {}) {
  return MetricSum(StoreSamples(store), name, labels);
}

}  // namespace mlkv
