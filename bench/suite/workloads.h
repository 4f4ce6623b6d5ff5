// The two benchmark workloads. Each run of the driver executes several
// rounds of one workload; a round builds a fresh stack (set-up), measures
// one window, checks the outputs, and tears the stack down.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "seams.h"

namespace mlkv::suite {

// Registry families read through KvBackend::CollectMetrics, summed over
// their labels. Counters are deltas over the measured window; gauges are
// read at its end.
using Families = std::map<std::string, double>;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;   // measured time across all rounds
  int rounds = 4;
  std::string dir;       // scratch root for backend files
  SpanStore* spans = nullptr;  // set in traced rounds
};

struct Round {
  bool traced = false;
  double setup_s = 0;    // round start to the first timed operation
  double measure_s = 0;
  uint64_t items = 0;    // samples trained (ctr) or keys served
  std::vector<uint64_t> latency_ns;  // per batch (ctr: per training step)
  uint64_t late_batches = 0;  // open loop: sent > 1 ms behind schedule
  uint64_t late_ns_total = 0;
  uint64_t attempted = 0;  // key operations issued by the workload
  uint64_t failed = 0;     // failed or wrong key operations + failed checks
  std::vector<std::string> errors;  // first few failure descriptions

  Families families;  // the engine's process side (server side for serve)
  Families client_families;  // the RemoteBackend's own families (serve)
  SeamStats client, server, engine;
  double row_bytes = 0;  // one embedding row, for write amplification

  // ctr_ooc only
  double auc = 0;
  double emb_s = 0, fwd_s = 0, bwd_s = 0;
  double eval_s = 0;  // untracked MultiGets: the held-out eval
  uint64_t busy_aborts = 0;
};

// The names --workload accepts.
const std::vector<std::string>& Workloads();

// Runs round `index` of cfg.workload; a traced round wraps every seam in a
// timed SeamBackend recording spans into cfg.spans.
Round RunRound(const RunConfig& cfg, int index, bool traced);

}  // namespace mlkv::suite
