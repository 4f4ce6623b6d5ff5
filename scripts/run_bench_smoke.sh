#!/usr/bin/env bash
# Smoke-run every benchmark binary with tiny iteration counts (--smoke; see
# bench/bench_util.h). Catches "bench rotted" without paying bench runtimes.
# Each bench's stdout is kept under <log_dir> so CI can publish the tables
# (e.g. the fig2 shard-scaling sweep) as a per-PR artifact.
#
# Usage: scripts/run_bench_smoke.sh [build_dir] [log_dir]
#        (defaults: build, <build_dir>/bench-smoke-logs)
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build}"
bench_dir="${build_dir}/bench"
log_dir="${2:-${build_dir}/bench-smoke-logs}"

if [[ ! -d "${bench_dir}" ]]; then
  echo "error: ${bench_dir} not found — build with MLKV_BUILD_BENCH=ON first" >&2
  exit 1
fi
mkdir -p "${log_dir}"

failed=0
# The glob below picks up every bench binary, including
# bench_micro_kernels --smoke — the scalar-vs-vector table for the fused
# optimizer kernels, which is how a runner whose CPU lacks AVX2 still
# shows up in the published artifacts (speedup column ~1.0x).
for bench in "${bench_dir}"/bench_*; do
  [[ -x "${bench}" ]] || continue
  name="$(basename "${bench}")"
  if [[ "${name}" == "bench_micro_store" ]]; then
    # Google Benchmark binary: its own flag vocabulary.
    args=(--benchmark_min_time=0.01)
  else
    args=(--smoke)
  fi
  echo "=== ${name} ${args[*]}"
  if ! "${bench}" "${args[@]}" > "${log_dir}/${name}.txt"; then
    echo "FAILED: ${name}" >&2
    failed=1
  fi
done
# Every bench except the Google Benchmark one parses flags strictly
# (bench/bench_util.h): an unknown name must exit non-zero rather than
# silently run the default config. --smoke keeps a regression short.
for bench in "${bench_dir}"/bench_*; do
  [[ -x "${bench}" ]] || continue
  name="$(basename "${bench}")"
  [[ "${name}" == "bench_micro_store" ]] && continue
  if "${bench}" --smoke --typo=1 > /dev/null 2>&1; then
    echo "FAILED: ${name} accepted unknown flag --typo=1" >&2
    failed=1
  fi
done
# One remote-mode smoke: the same batch sweep through a loopback KvServer
# (RemoteBackend), so the network path is exercised wherever the smoke
# suite runs — including the Release bench-smoke CI job.
if [[ -x "${bench_dir}/bench_ycsb_suite" ]]; then
  echo "=== bench_ycsb_suite --smoke --remote"
  if ! "${bench_dir}/bench_ycsb_suite" --smoke --remote \
      > "${log_dir}/bench_ycsb_suite_remote.txt"; then
    echo "FAILED: bench_ycsb_suite --remote" >&2
    failed=1
  fi
fi
# One async cold-read smoke: the cold-working-set MultiGet sweep over the
# pending-read pipeline's io_threads, so the engine's async disk path is
# exercised on every merge; once on the simulated NVMe device, and once on
# raw page-cache files (no simulated costs).
if [[ -x "${bench_dir}/bench_fig9_lookahead" ]]; then
  echo "=== bench_fig9_lookahead --smoke --cold"
  if ! "${bench_dir}/bench_fig9_lookahead" --smoke --cold \
      > "${log_dir}/bench_fig9_lookahead_cold.txt"; then
    echo "FAILED: bench_fig9_lookahead --cold" >&2
    failed=1
  fi
  echo "=== bench_fig9_lookahead --smoke --cold (raw device)"
  if ! "${bench_dir}/bench_fig9_lookahead" --smoke --cold --nvme_read_us=0 \
      --nvme_read_gbps=0 --nvme_write_gbps=0 \
      > "${log_dir}/bench_fig9_lookahead_cold_raw.txt"; then
    echo "FAILED: bench_fig9_lookahead --cold (raw device)" >&2
    failed=1
  fi
fi

# One durability smoke: the write-pipeline sweeps alone (group-committed
# flushes vs per-batch full flush, incremental vs full checkpoint bytes),
# so the async write path and the delta-checkpoint format are exercised on
# every merge. See docs/DURABILITY.md.
if [[ -x "${bench_dir}/bench_checkpoint" ]]; then
  echo "=== bench_checkpoint --smoke --durability"
  if ! "${bench_dir}/bench_checkpoint" --smoke --durability \
      > "${log_dir}/bench_checkpoint_durability.txt"; then
    echo "FAILED: bench_checkpoint --durability" >&2
    failed=1
  fi
fi

# One cluster smoke: two self-hosted loopback KvServers behind a
# ClusterBackend vs one server behind a RemoteBackend, uniform MultiGet on a
# working set that overflows a single box's 2 MiB buffer (simulated NVMe
# read costs apply). The speedup column is the scale-out check: the 2-server
# cluster should show >= 1.5x the single server's aggregate keys/s. See
# docs/CLUSTER.md for the flag rationale — skewed draws or starved
# shard/worker counts measure the cache or the queue, not the second box.
if [[ -x "${bench_dir}/bench_ycsb_suite" ]]; then
  echo "=== bench_ycsb_suite --cluster_addrs=self"
  if ! "${bench_dir}/bench_ycsb_suite" --no_suite --no_batch_sweep \
      --keys=60000 --ops=60000 --threads=8 --buffer_mb=2 --shard_bits=4 \
      --server_workers=4 --batch_size=256 --cluster_addrs=self \
      > "${log_dir}/bench_ycsb_suite_cluster.txt"; then
    echo "FAILED: bench_ycsb_suite --cluster_addrs=self" >&2
    failed=1
  fi
fi

# One serving-tail smoke: the bench_serving --hedge A/B — a 2-endpoint
# mutual-replica loopback cluster where one server stalls every Nth read,
# measured with hedging off then on (see docs/SERVING.md). Asserts the
# headline the feature exists for: hedged read p99 strictly below the
# unhedged p99, for < 5% extra request volume. Also asserts the hedged
# p50 (unskewed requests, which pay one pool handoff + row copy but never
# a second RPC) stays below the unhedged p99 — the common path must not
# itself drift into the old tail.
if [[ -x "${bench_dir}/bench_serving" ]]; then
  echo "=== bench_serving --smoke --hedge"
  hedge_log="${log_dir}/bench_serving_hedge.txt"
  if ! "${bench_dir}/bench_serving" --smoke --hedge > "${hedge_log}"; then
    echo "FAILED: bench_serving --hedge" >&2
    failed=1
  else
    # "hedging: read p99 <off> -> <on> us (...), p999 ..., +<pct>% request volume"
    read -r off_p99 on_p99 vol_pct <<< "$(sed -n \
      's/^hedging: read p99 \([0-9]*\) -> \([0-9]*\) us.*+\([0-9.]*\)% request volume.*/\1 \2 \3/p' \
      "${hedge_log}")"
    on_p50="$(awk '$1 == "hedged" { print $3; exit }' "${hedge_log}")"
    if [[ -z "${off_p99:-}" || -z "${on_p99:-}" || -z "${on_p50:-}" ]]; then
      echo "FAILED: bench_serving --hedge produced no A/B summary" >&2
      failed=1
    elif (( on_p99 >= off_p99 )); then
      echo "FAILED: hedging did not improve read p99 (${off_p99} -> ${on_p99} us)" >&2
      failed=1
    elif (( on_p50 >= off_p99 )); then
      echo "FAILED: hedged unskewed p50 (${on_p50} us) regressed into the unhedged p99 (${off_p99} us)" >&2
      failed=1
    elif ! awk -v v="${vol_pct}" 'BEGIN { exit !(v < 5.0) }'; then
      echo "FAILED: hedging cost ${vol_pct}% extra request volume (>= 5%)" >&2
      failed=1
    fi
  fi
fi

# One observability smoke: serve a store with --metrics_addr, scrape
# GET /metrics, keep the exposition as an artifact, and validate it with
# scripts/check_metrics.sh (duplicate families, bad names, histogram
# invariants). The same registry also answers the wire kStats opcode
# (`mlkv_cli - stats --addr`): that text is validated too, and its
# # TYPE family list must match the /metrics scrape's. See
# docs/OBSERVABILITY.md for the metric catalog.
cli="${build_dir}/examples/mlkv_cli"
if [[ -x "${cli}" ]] && command -v curl > /dev/null; then
  echo "=== mlkv_cli serve --metrics_addr + /metrics scrape"
  obs_dir="$(mktemp -d)"
  trap 'rm -rf "${obs_dir}"' EXIT
  rm -f "${log_dir}/metrics_stats.prom"
  "${cli}" "${obs_dir}/store" create smoke 8 16 adagrad \
    > "${log_dir}/metrics_scrape_serve.txt"
  "${cli}" "${obs_dir}/store" serve --addr 127.0.0.1:7399 --backend mlkv \
    --dim 8 --metrics_addr 127.0.0.1:7398 \
    >> "${log_dir}/metrics_scrape_serve.txt" 2>&1 &
  serve_pid=$!
  scrape_ok=0
  for _ in $(seq 1 50); do
    if curl -fsS http://127.0.0.1:7398/metrics \
        -o "${log_dir}/metrics_scrape.prom" 2> /dev/null; then
      scrape_ok=1
      break
    fi
    sleep 0.2
  done
  # Drive a few requests through the wire path so server/op families have
  # non-zero samples in the published scrape, then re-scrape.
  if [[ "${scrape_ok}" == 1 ]]; then
    "${cli}" - remote-put --addr 127.0.0.1:7399 1 1,2,3,4,5,6,7,8 \
      >> "${log_dir}/metrics_scrape_serve.txt"
    "${cli}" - remote-get --addr 127.0.0.1:7399 1 \
      >> "${log_dir}/metrics_scrape_serve.txt"
    "${cli}" - stats --addr 127.0.0.1:7399 \
      > "${log_dir}/metrics_stats.prom" \
      2>> "${log_dir}/metrics_scrape_serve.txt" || true
    curl -fsS --max-time 2 http://127.0.0.1:7398/nope \
      -o /dev/null 2> /dev/null || true  # 404 path: must not wedge serving
    curl -fsS http://127.0.0.1:7398/metrics \
      -o "${log_dir}/metrics_scrape.prom"
  fi
  kill "${serve_pid}" 2> /dev/null || true
  wait "${serve_pid}" 2> /dev/null || true
  if [[ "${scrape_ok}" != 1 ]]; then
    echo "FAILED: /metrics scrape (server never came up)" >&2
    failed=1
  elif ! scripts/check_metrics.sh "${log_dir}/metrics_scrape.prom"; then
    echo "FAILED: check_metrics.sh rejected the exposition" >&2
    failed=1
  elif [[ ! -s "${log_dir}/metrics_stats.prom" ]]; then
    echo "FAILED: mlkv_cli stats --addr printed no exposition" >&2
    failed=1
  elif ! scripts/check_metrics.sh "${log_dir}/metrics_stats.prom"; then
    echo "FAILED: check_metrics.sh rejected the kStats exposition" >&2
    failed=1
  elif ! diff <(grep '^# TYPE ' "${log_dir}/metrics_scrape.prom") \
      <(grep '^# TYPE ' "${log_dir}/metrics_stats.prom"); then
    echo "FAILED: kStats and /metrics expose different families" >&2
    failed=1
  fi
fi

echo "bench output tables: ${log_dir}"
exit "${failed}"
