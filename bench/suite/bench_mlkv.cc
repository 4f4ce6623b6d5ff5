// bench_mlkv: one workload of the MLKV benchmark per process.
//
//   bench_mlkv --workload=<name> --seed=N --seconds=S --dir=<scratch>
//              [--trace=<chrome-trace.json>]
//
// A run is the workload's rounds. Every round builds a fresh stack, and its
// set-up time is one setup_s sample; it then runs seconds/rounds of load
// (ctr_ooc: a job of the matching size), checks the outputs, and tears
// down. Without --trace the stack carries no timing decorators and the run
// reports end-to-end metrics. With --trace, odd rounds wrap every seam in a
// timed SeamBackend: they yield the per-layer metrics and the trace file,
// and the even (untraced) rounds give the baseline for trace.overhead.
//
// Output: one "name value unit" line per metric, then a JSON object on the
// last line: {"correct", "attempted", "failed", "metrics"}. Exits 1 when a
// correctness check failed, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/simd.h"
#include "io/file_device.h"
#include "seams.h"
#include "workloads.h"

using namespace mlkv;
using namespace mlkv::suite;

namespace {

constexpr size_t kMaxSpans = 200000;
// Rounds per run, each one fresh stack and one set-up sample.
constexpr int kRounds = 6;
// tail_ms. A 40 s run has ~720 ctr_ooc steps and ~720 serve_ooc batches, so
// p90 has ~70 samples beyond it; the per-layer tail.p99_ms keeps the further
// tail.
constexpr double kTailQuantile = 0.90;

struct Flags {
  const std::string* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  std::string dir;
  std::string trace;
};

[[noreturn]] void Usage(const std::string& error) {
  std::string names;
  for (const std::string& w : Workloads()) {
    names += (names.empty() ? "" : "|") + w;
  }
  std::fprintf(stderr,
               "bench_mlkv: %s\n"
               "known flags: --workload=<%s> --seed=N --seconds=S "
               "--dir=<scratch dir> --trace=<file>\n",
               error.c_str(), names.c_str());
  std::exit(2);
}

// Strict: a misspelled flag must not silently measure the default config.
Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      Usage("expected --flag=value, got '" + arg + "'");
    }
    const std::string name = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    char* rest = nullptr;
    if (name == "workload") {
      for (const std::string& w : Workloads()) {
        if (w == value) f.workload = &w;
      }
      if (f.workload == nullptr) Usage("unknown workload '" + value + "'");
    } else if (name == "seed") {
      f.seed = std::strtoull(value.c_str(), &rest, 10);
    } else if (name == "seconds") {
      f.seconds = std::strtod(value.c_str(), &rest);
    } else if (name == "dir") {
      f.dir = value;
    } else if (name == "trace") {
      f.trace = value;
    } else {
      Usage("unknown flag --" + name);
    }
    if (rest != nullptr && (*rest != '\0' || value.empty())) {
      Usage("bad value for --" + name + ": '" + value + "'");
    }
  }
  if (f.workload == nullptr) Usage("--workload is required");
  if (f.dir.empty()) Usage("--dir is required");
  if (!(f.seconds > 0)) Usage("need --seconds > 0");
  return f;
}

double Div(double a, double b) { return b != 0 ? a / b : 0; }

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void Merge(const SeamStats& from, SeamStats* into) {
  for (size_t i = 0; i < kNumOps; ++i) {
    const SeamStats::PerOp& a = from.ops[i];
    SeamStats::PerOp& b = into->ops[i];
    b.calls += a.calls;
    b.keys += a.keys;
    b.total_ns += a.total_ns;
    b.self_ns += a.self_ns;
    b.ns.insert(b.ns.end(), a.ns.begin(), a.ns.end());
  }
  into->failed_keys += from.failed_keys;
  into->untracked_get_ns += from.untracked_get_ns;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Work, per-batch latency and generator lateness, pooled over a set of
// rounds.
struct Load {
  uint64_t items = 0;
  double measure_s = 0;
  std::vector<uint64_t> latency_ns;
  uint64_t late_batches = 0;
  uint64_t late_ns = 0;

  void Add(const Round& r) {
    items += r.items;
    measure_s += r.measure_s;
    latency_ns.insert(latency_ns.end(), r.latency_ns.begin(),
                      r.latency_ns.end());
    late_batches += r.late_batches;
    late_ns += r.late_ns_total;
  }
  double Ms(double q) const { return Percentile(latency_ns, q) / 1e6; }
};

// Set-up is the median over all rounds. The rate and the percentiles pool
// the untraced rounds: a round holds only ~120 batches, and percentiles
// taken per round moved by ~5% from run to run on sampling alone.
std::vector<Metric> EndToEnd(const std::vector<Round>& rounds,
                             const Load& plain) {
  std::vector<double> setups;
  for (const Round& r : rounds) setups.push_back(r.setup_s);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {
      {"setup_s", Median(setups), "s"},
      {"items_per_s", Div(static_cast<double>(plain.items), plain.measure_s),
       "1/s"},
      {"p50_ms", plain.Ms(0.50), "ms"},
      {"tail_ms", plain.Ms(kTailQuantile), "ms"},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB"},
  };
}

std::vector<Metric> PerLayer(const std::vector<Round>& rounds,
                             const Load& plain) {
  SeamStats client, server, engine;
  Families fam, client_fam;
  Load traced;
  double auc = 0, emb = 0, compute = 0, eval = 0, wall = 0;
  double written_bytes = 0;  // keys written x row bytes
  uint64_t busy_aborts = 0;
  int n = 0;
  for (const Round& r : rounds) {
    if (!r.traced) continue;
    ++n;
    Merge(r.client, &client);
    Merge(r.server, &server);
    Merge(r.engine, &engine);
    for (const auto& [k, v] : r.families) fam[k] += v;
    for (const auto& [k, v] : r.client_families) client_fam[k] += v;
    traced.Add(r);
    auc += r.auc;
    emb += r.emb_s;
    compute += r.fwd_s + r.bwd_s;
    eval += r.eval_s;
    wall += r.measure_s;
    written_bytes += static_cast<double>(r.engine.op(Op::kPut).keys +
                                         r.engine.op(Op::kApply).keys) *
                     r.row_bytes;
    busy_aborts += r.busy_aborts;
  }
  auto F = [&fam](const char* name) { return fam[name]; };
  auto Us = [](const std::vector<uint64_t>& v, double q) {
    return Percentile(v, q) / 1e3;
  };
  auto MeanNs = [](const SeamStats& s) {
    return Div(static_cast<double>(s.data_ns()),
               static_cast<double>(s.data_calls()));
  };
  const std::vector<uint64_t> client_ns = client.data_samples();
  const std::vector<uint64_t> engine_ns = engine.data_samples();
  const double lookahead_ns =
      static_cast<double>(client.op(Op::kLookahead).total_ns);
  const double engine_get_keys =
      static_cast<double>(engine.op(Op::kGet).keys);
  const double inplace = F("mlkv_store_inplace_updates_total");
  const double rcu = F("mlkv_store_rcu_appends_total");
  const double promotions = F("mlkv_store_promotions_total");
  const double skipped = F("mlkv_store_promotions_skipped_total");
  const double hits = F("mlkv_cache_hits_total");
  const double misses = F("mlkv_cache_misses_total");
  const double written = F("mlkv_io_device_written_bytes_total");
  const double client_mean = MeanNs(client);
  const double server_mean = MeanNs(server);
  constexpr double kMb = 1 << 20;
  return {
      // client seam: the workload's own calls into its top KvBackend
      {"client.p50_us", Us(client_ns, 0.50), "us"},
      {"client.p99_us", Us(client_ns, 0.99), "us"},
      {"client.keys_per_call",
       Div(static_cast<double>(client.data_keys()),
           static_cast<double>(client.data_calls())),
       "count"},
      {"client.get_share",
       Div(static_cast<double>(client.op(Op::kGet).total_ns),
           static_cast<double>(client.data_ns())),
       "ratio"},
      {"client.lookahead_share",
       Div(lookahead_ns, static_cast<double>(client.data_ns()) + lookahead_ns),
       "ratio"},
      // everything between the client and the engine: wire, server
      // dispatch and cache for serve_ooc; a decorator for in-process runs
      {"stack.above_engine_us",
       Div(static_cast<double>(client.data_ns()) -
               static_cast<double>(engine.data_ns()),
           static_cast<double>(client.data_calls())) / 1e3,
       "us"},
      {"net.wire_share",
       server.data_calls() > 0 ? Div(client_mean - server_mean, client_mean)
                               : 0,
       "ratio"},
      {"net.rpc_retries", client_fam["mlkv_net_rpc_retries_total"], "count"},
      {"serve.cache_self_share",
       Div(static_cast<double>(server.data_self_ns()),
           static_cast<double>(server.data_ns())),
       "ratio"},
      {"serve.cache_hit_ratio", Div(hits, hits + misses), "ratio"},
      {"serve.admission_reject_ratio",
       Div(F("mlkv_cache_admission_rejects_total"), misses), "ratio"},
      // engine seam: calls into the MLKV backend itself
      {"engine.p50_us", Us(engine_ns, 0.50), "us"},
      {"engine.p99_us", Us(engine_ns, 0.99), "us"},
      {"engine.calls_per_client_call",
       Div(static_cast<double>(engine.data_calls()),
           static_cast<double>(client.data_calls())),
       "ratio"},
      {"train.emb_share", Div(emb, emb + compute), "ratio"},
      {"train.eval_share", Div(eval, wall), "ratio"},
      {"train.busy_aborts", static_cast<double>(busy_aborts), "count"},
      {"train.auc", Div(auc, n), "ratio"},
      {"kv.inplace_updates", inplace, "count"},
      {"kv.rcu_appends", rcu, "count"},
      {"kv.rcu_share", Div(rcu, rcu + inplace), "ratio"},
      {"kv.promotions", promotions, "count"},
      {"kv.promotions_skipped", skipped, "count"},
      {"kv.prefetch_useful_ratio", Div(promotions, promotions + skipped),
       "ratio"},
      {"kv.staleness_waits", F("mlkv_store_staleness_waits_total"), "count"},
      {"kv.busy_aborts", F("mlkv_store_busy_aborts_total"), "count"},
      {"kv.log_span_mb", Div(F("mlkv_store_log_span_bytes"), n) / kMb, "MiB"},
      {"io.disk_record_reads", F("mlkv_io_disk_record_reads_total"), "count"},
      {"io.disk_reads_per_get_key",
       Div(F("mlkv_io_disk_record_reads_total"), engine_get_keys), "ratio"},
      {"io.read_mb", F("mlkv_io_device_read_bytes_total") / kMb, "MiB"},
      {"io.pages_evicted", F("mlkv_io_pages_evicted_total"), "count"},
      {"io.written_mb", written / kMb, "MiB"},
      {"io.write_amp", Div(written, written_bytes), "ratio"},
      {"io.pages_flushed", F("mlkv_io_pages_flushed_total"), "count"},
      // the load generator and the latency tail (untraced rounds)
      {"load.late_batch_share",
       Div(static_cast<double>(plain.late_batches),
           static_cast<double>(plain.latency_ns.size())),
       "ratio"},
      {"tail.p99_ms", plain.Ms(0.99), "ms"},
      {"tail.p999_ms", plain.Ms(0.999), "ms"},
      {"tail.max_ms", plain.Ms(1.0), "ms"},
      {"trace.overhead", Div(traced.Ms(0.50), plain.Ms(0.50)), "ratio"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  // Simulated SSD: files land in the page cache here, so device costs are
  // charged explicitly, as sleeps. The figure benches charge 30 us per read;
  // with the kernel's 50 us timer slack that sleep takes ~87 us, and a cold
  // read adds ~30 us of CPU. In phases of heavy load on the shared host,
  // every wake-up comes ~10 us later and CPU work runs ~30% slower, which
  // moved serve_ooc's p50 by 17% at 30 us. At 150 us (~207 us slept) the
  // same shifts are a much smaller share of a read.
  FileDevice::SetGlobalSimulatedCosts(150, 1.0, 1.0);
  std::filesystem::create_directories(flags.dir);
  const uint64_t origin = NowNs();
  SpanStore spans(flags.trace.empty() ? 0 : kMaxSpans);

  RunConfig cfg;
  cfg.workload = *flags.workload;
  cfg.seed = flags.seed;
  cfg.seconds = flags.seconds;
  cfg.rounds = kRounds;
  cfg.dir = flags.dir;
  std::vector<Round> rounds;
  for (int i = 0; i < cfg.rounds; ++i) {
    const bool traced = !flags.trace.empty() && i % 2 == 1;
    cfg.spans = traced ? &spans : nullptr;
    rounds.push_back(RunRound(cfg, i, traced));
  }

  Load plain;
  uint64_t attempted = 0, failed = 0;
  for (const Round& r : rounds) {
    if (!r.traced) plain.Add(r);
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& e : r.errors) {
      std::fprintf(stderr, "bench_mlkv: %s round: %s\n",
                   r.traced ? "traced" : "untraced", e.c_str());
    }
  }
  const double late_ms_mean =
      Div(static_cast<double>(plain.late_ns),
          static_cast<double>(plain.latency_ns.size())) / 1e6;
  if (late_ms_mean > 1.0) {
    std::fprintf(stderr,
                 "bench_mlkv: load generator ran %.2f ms late on average; "
                 "latencies are not comparable\n", late_ms_mean);
  }

  std::vector<Metric> metrics = EndToEnd(rounds, plain);
  if (!flags.trace.empty()) {
    const std::vector<Metric> layers = PerLayer(rounds, plain);
    metrics.insert(metrics.end(), layers.begin(), layers.end());
    if (!spans.WriteChromeTrace(flags.trace, origin)) {
      std::fprintf(stderr, "bench_mlkv: cannot write %s\n",
                   flags.trace.c_str());
      return 1;
    }
  }

  const bool correct = failed == 0;
  std::printf("workload %s seed %llu rounds %d kernels %s\n",
              flags.workload->c_str(),
              static_cast<unsigned long long>(flags.seed), cfg.rounds,
              simd::KernelTierName(simd::ActiveKernelTier()));
  for (const Metric& m : metrics) {
    std::printf("%-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
