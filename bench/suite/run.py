#!/usr/bin/env python3
"""Builds and runs the MLKV benchmark defined in BENCHMARK.json.

One workload, one seed (the form a harness calls; the last stdout line is
the JSON result):

    python3 bench/suite/run.py --workload ctr_ooc --seed 1 --seconds 15 --trace 0

Every workload, N seeds each, with medians and quartiles per metric:

    python3 bench/suite/run.py --all --reps 10 [--trace 1] [--summary out.json]

Smoke check (every workload for 2 s, untraced and traced; fails unless
every metric BENCHMARK.json names is emitted with its declared unit):

    python3 bench/suite/run.py --smoke

The driver is built from this checkout's sources into .bench_build/ (or
$CARGO_TARGET_DIR when set). Backend files go to .bench_build/work/ and are
removed after each run; --trace 1 writes a Chrome trace per workload to
.bench_build/traces/<workload>.json. Exit status is non-zero when the build
fails, a metric is missing, or any correctness check fails.
"""

import argparse
import fcntl
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SUITE = Path(__file__).resolve().parent
DRIVER_TIMEOUT_S = 170


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds bench_mlkv; returns its path."""
    out = build_root()
    out.mkdir(parents=True, exist_ok=True)
    cmake_dir = out / "cmake"
    log = out / "build.log"
    with open(out / "build.lock", "w") as lock, open(log, "w") as log_file:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        generated = [cmake_dir / "build.ninja", cmake_dir / "Makefile"]
        if not any(p.exists() for p in generated):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(SUITE), "-B", str(cmake_dir),
                          "-DCMAKE_BUILD_TYPE=Release"] + gen)
        steps.append(["cmake", "--build", str(cmake_dir), "--target",
                      "bench_mlkv", "-j", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log_file, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text().splitlines()[-30:]
                sys.stderr.write("build failed (%s):\n%s\n"
                                 % (log, "\n".join(tail)))
                sys.exit(1)
    return cmake_dir / "bench_mlkv"


def run_one(exe, spec, workload, seed, seconds, trace):
    """Runs one workload; returns (driver exit code, result dict, header)."""
    work = build_root() / "work" / str(os.getpid())
    cmd = [str(exe), "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--dir=" + str(work)]
    if trace:
        traces = build_root() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd.append("--trace=" + str(traces / (workload + ".json")))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("%s: timed out after %d s\n"
                         % (workload, DRIVER_TIMEOUT_S))
        sys.exit(1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write("%s: driver exited %d without a result\n"
                         % (workload, proc.returncode))
        sys.exit(1)
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            sys.stderr.write("%s: metric %s missing or not in %s: %r\n"
                             % (workload, m["name"], m["unit"], got))
            sys.exit(1)
        metrics[m["name"]] = got
    result["metrics"] = metrics
    return proc.returncode, result, lines[0]


def print_result(header, result):
    print(header)
    for name, m in result["metrics"].items():
        print("  %-30s %14.6g %s" % (name, m["value"], m["unit"]))


def host_info(header):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "machine": platform.machine(),
            "kernels": header.split("kernels")[-1].strip()}


def run_all(exe, spec, args):
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    traces = [0, 1] if args.smoke else [args.trace]
    summary = {"seconds": args.seconds, "first_seed": args.seed,
               "reps": args.reps, "workloads": {}}
    ok = True
    header = ""
    for workload in workloads:
        for trace in traces:
            values = {}
            for seed in range(args.seed, args.seed + args.reps):
                code, result, header = run_one(exe, spec, workload, seed,
                                               args.seconds, trace)
                print_result("%s seed %d trace %d: correct=%s attempted=%d "
                             "failed=%d" % (workload, seed, trace,
                                            result["correct"],
                                            result["attempted"],
                                            result["failed"]), result)
                ok = ok and code == 0 and result["correct"]
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            if args.reps < 2:
                continue
            print("%s over %d seeds (median, q1, q3, iqr/median):"
                  % (workload, args.reps))
            stats = {}
            for name, vals in values.items():
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else 0.0
                bound = bounds.get(name)
                flag = ""
                if not trace and bound and spread > bound / 3:
                    flag = "  <- above a third of the bound %.2f" % bound
                print("  %-30s %14.6g %14.6g %14.6g %7.3f%s"
                      % (name, med, q1, q3, spread, flag))
                stats[name] = {"median": med, "q1": q1, "q3": q3,
                               "iqr_over_median": spread}
            summary["workloads"].setdefault(workload, {}).update(stats)
    summary["host"] = host_info(header)
    if args.summary:
        Path(args.summary).write_text(json.dumps(summary, indent=1) + "\n")
    if args.smoke:
        print("smoke %s" % ("OK" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=names)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--summary", help="write --all medians/quartiles here")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if args.smoke:
        args.seconds, args.reps = 2, 1
    if not (args.all or args.smoke) and args.workload is None:
        p.error("give --workload, --all or --smoke")

    exe = build()
    if args.all or args.smoke:
        return run_all(exe, spec, args)
    code, result, header = run_one(exe, spec, args.workload, args.seed,
                                   args.seconds, args.trace)
    print_result(header, result)
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
