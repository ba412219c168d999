#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/ and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  The first run configures and builds the
measuring program into .bench_build/perfbench (Release); later runs reuse it.

Workloads (closed loop, 3 worker threads pinned to CPUs 0-2, the driver and
the 2 ms pending-node sampler on CPU 3; SMR calibration scan_threshold=128,
era_freq=36, Hyaline batch_capacity=128, asymmetric fences on, background
reclaimer off):

  tree-hln   Natarajan-Mittal tree under Hyaline through AnyMap::Session;
             keys uniform in [0,100000), 50000 live; 50/25/25.  Short ops, so
             per-op fixed costs (activation, batch retire, dispatch) weigh
             most (paper Fig 9b).
  kv-ycsb-a  KvStore, 8 shards, EBR; 1,000,000 16-byte keys with 128-byte
             values (more than L3); Zipfian(0.99) keys; 50% get, 50% put.
             The serving layer: hashing, routing, key compares, one value
             blob alloc and one retire per put.
  list-hp    HListWF (Harris list, SCOT, wait-free search) under HP through
             AnyMap::Session; keys uniform in [0,512), 256 live; 50% contains,
             25% insert, 25% erase (paper Fig 8a).  Runnable, but not listed
             in BENCHMARK.json: about 1% of its ops are slowed by the
             membarrier IPIs of other workers' scans, so its p99s sit on that
             cliff and moved 16-34% between 10-run batches on a shared 4-vCPU
             host, more than any bound the benchmark may set.

--trace 0 prints the end-to-end metrics (throughput, read/update p50/p99,
mean unreclaimed nodes, resident memory once loaded, median set-up time);
the peak resident memory of the whole run is printed as a fact line, not a
metric, because on tree-hln the node pool grows through the run at a rate
that differs from run to run.  --trace 1 prints the per-layer metrics:
counter deltas over a traced window (the pool's growth among them), the
layer ladder (typed structure, type-erased session, KvStore session,
replaying the same op streams), SMR primitive timings and the driver's own
costs; it also writes the traced window's spans to .bench_build/traces/.

Every run checks outputs: per key, the final membership must equal the
initial one plus the successful inserts minus the successful erases, and
every kv value read must name its key.  Any mismatch is a failed op; the
run then exits 1.  The last stdout line is the result as one JSON object.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "scot_perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be between 1 and 60")
    if args.seed < 0:
        fail("--seed must be non-negative")
    return args


def check_environment():
    # Either variable silently changes the library defaults under test.
    for var in ("SCOT_ASYM", "SCOT_BG"):
        if var in os.environ:
            fail(f"refusing to run with {var} set; unset it")
    for needed in ("src/scot.hpp", "src/CMakeLists.txt",
                   "perfbench/CMakeLists.txt", "BENCHMARK.json"):
        if not os.path.isfile(needed):
            fail(f"{needed} not found; run from the repository root")


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j3"])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      env=env, timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build timed out: {' '.join(cmd)}")
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")


def source_digest():
    """sha256 over the library sources and the benchmark, in path order."""
    h = hashlib.sha256()
    for root in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    args = parse_args()
    check_environment()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    trace_path = os.path.join(".bench_build", "traces",
                              f"{args.workload}-seed{args.seed}.json")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        cmd += ["--trace-out", trace_path]
    start = time.monotonic()
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"scot_perfbench exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("scot_perfbench printed nothing")
    raw = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} missing from the run")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    facts = dict(raw["info"])
    facts.update(workload=args.workload, seed=args.seed,
                 seconds=args.seconds, trace=args.trace, git_sha=git_sha(),
                 source_sha256=source_digest(),
                 wall_s=round(time.monotonic() - start, 3))
    attempted, failed = raw["attempted"], raw["failed"]
    correct = failed == 0 and attempted > 0

    for key in sorted(facts):
        print(f"# {key}: {facts[key]}")
    for name, m in metrics.items():
        base = raw["metrics"][name].get("base")
        print(f"{name} = {m['value']:.6g} {m['unit']}"
              + (f"  (base: {base})" if base else ""))
    print(f"failed_frac = {failed / max(attempted, 1):.6g}"
          f"  (base: {failed} failed / {attempted} attempted)")
    if args.trace:
        print(f"# spans written to {trace_path}")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    results_dir = os.path.join(".bench_build", "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump({"result": result, "facts": facts,
                   "all_metrics": raw["metrics"]}, f, indent=1)
    print(json.dumps(result))
    if not correct:
        print(f"perfbench: {failed} of {attempted} ops had a wrong outcome",
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
