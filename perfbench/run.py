#!/usr/bin/env python3
"""End-to-end figure-sweep benchmark of the hms simulator.

    python3 perfbench/run.py --workload nmm-cold|ndm-warm \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (and the simulator library from src/) in Release mode
under .bench_build/, then runs repetitions of the workload, each in a fresh
process, until S seconds have passed (at least MIN_REPS). Every repetition
sets up its starting state, times one sweep through sim::ExperimentRunner
with the library's defaults, and digests the results. --trace 1 runs the
traced repetition instead, which also rebuilds the sweep layer by layer.

The last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}; end-to-end metrics with --trace 0, per-layer with --trace 1.
See perfbench/README.md for the workloads and the layer table.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_work"
DRIVER = BUILD_DIR / "perfbench_driver"

WORKLOADS = ("nmm-cold", "ndm-warm")
# Capacity and footprint divisor. The figure benches default to 64; 512 (the
# scale of the repo's paper-claims tests) keeps a repetition at a few
# seconds on a 4-core host, so that a run holds enough repetitions for a
# steady median.
SCALE = 512
# The sweeps' worker count: 4, or fewer on a host with fewer cores.
MAX_THREADS = 4
MIN_REPS = 3
MIN_TRACED_REPS = 1
# A run stops starting repetitions once the next one could end past this.
HARD_LIMIT_S = 150.0
GOLDEN = HERE / "golden.json"

# name -> (unit, better, bound): the end-to-end metrics, medians of the
# run's repetitions. failed_cell_share is printed in the summary; in the
# JSON it is `failed` / `attempted`.
END_TO_END = {
    "sweep_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.25),
}

# name -> (unit, better): per-layer metrics of the traced run.
PER_LAYER = {
    "workloads.gen_s": ("s", "lower"),
    "workloads.refs": ("count", "higher"),
    "cache.front_s": ("s", "lower"),
    "cache.front_refs_per_s": ("1/s", "higher"),
    "trace.encode_s": ("s", "lower"),
    "trace.encoded_bytes": ("bytes", "lower"),
    "trace.residual_accesses": ("count", "higher"),
    "trace.decode_s": ("s", "lower"),
    "cache.back_s": ("s", "lower"),
    "cache.back_accesses": ("count", "higher"),
    "cache.back_accesses_per_s": ("1/s", "higher"),
    "trace.store_append_s": ("s", "lower"),
    "trace.store_misses": ("count", "lower"),
    "trace.store_load_s": ("s", "lower"),
    "trace.store_hits": ("count", "higher"),
    "sim.capture_s": ("s", "lower"),
    "sim.capture_max_s": ("s", "lower"),
    "sim.base_report_s": ("s", "lower"),
    "sim.replay_s": ("s", "lower"),
    "sim.replay_self_s": ("s", "lower"),
    "sim.work_over_wall": ("ratio", "higher"),
    "sim.checkpoint_appends": ("count", "higher"),
    "sim.cells": ("count", "higher"),
    "sim.failed_cells": ("count", "lower"),
    "designs.placements": ("count", "higher"),
    "model.eval_s": ("s", "lower"),
    "model.evals": ("count", "higher"),
    "sim.decompose_s": ("s", "lower"),
    "sim.traced_wall_s": ("s", "lower"),
    "sim.sweep_untraced_s": ("s", "lower"),
}
# Reported by the traced run but left out of the JSON: each reads exactly 0
# on the workloads that never call its layer.
PRINTED_ONLY = ("designs.range_profile_s", "sim.checkpoint_append_s")


def clean_env():
    """The environment minus every inherited HMS_* knob."""
    return {k: v for k, v in os.environ.items() if not k.startswith("HMS_")}


def thread_count():
    return max(1, min(MAX_THREADS, len(os.sched_getaffinity(0))))


def build(env):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: no simulator sources under src/")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    for cmd in (
        ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "-j", str(thread_count())],
    ):
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")
    cache = (BUILD_DIR / "CMakeCache.txt").read_text()
    if "CMAKE_BUILD_TYPE:STRING=Release" not in cache:
        raise SystemExit("perfbench: refusing a build that is not Release")
    # The digest and self-time arithmetic the results rest on.
    selftest = subprocess.run([str(BUILD_DIR / "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr, check=False)
    if selftest.returncode != 0:
        raise SystemExit("perfbench: selftest failed")


def source_commit():
    """The git commit when there is one, else a digest of src/ and perfbench/."""
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def compiler():
    cache = BUILD_DIR / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            cxx = line.split("=", 1)[1]
            out = subprocess.run([cxx, "--version"], capture_output=True,
                                 text=True, check=False).stdout
            return out.splitlines()[0] if out else cxx
    return "unknown"


def run_rep(args, threads, rep, env, deadline):
    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{rep}"
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
           "--scale", str(SCALE), "--threads", str(threads),
           "--dir", str(workdir)]
    if args.trace:
        cmd.append("--traced")
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()),
                              check=False)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: repetition timed out")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: driver exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartile_spread(values):
    """(q3 - q1) / median, with quartiles as statistics.quantiles gives them."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def golden_digest(workload, seed):
    golden = json.loads(GOLDEN.read_text())
    if seed != golden["seed"] or SCALE != golden["scale"]:
        return None
    return golden["digests"]["ndm" if workload.startswith("ndm") else "nmm"]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    env = clean_env()
    build(env)
    threads = thread_count()
    provenance = {
        "cpu": cpu_model(), "nproc": os.cpu_count(), "compiler": compiler(),
        "build_type": "Release", "commit": source_commit(),
        "threads": threads, "scale": SCALE, "seed": args.seed,
        "workload": args.workload, "trace": args.trace,
    }
    print("provenance: " + json.dumps(provenance), flush=True)

    min_reps = MIN_TRACED_REPS if args.trace else MIN_REPS
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S + 20
    reps = []
    while True:
        t0 = time.monotonic()
        reps.append(run_rep(args, threads, len(reps), env, deadline))
        took = time.monotonic() - t0
        elapsed = time.monotonic() - start
        # Start another repetition only if it should end within --seconds
        # (or while below the minimum, within the hard limit).
        limit = args.seconds if len(reps) >= min_reps else HARD_LIMIT_S
        if elapsed + took > limit:
            break

    # Correctness: every repetition digests identically, equal to the
    # committed digest at the golden seed, and the traced rebuild equals
    # the sweep bit for bit. A mismatching repetition fails all its cells.
    # A traced repetition evaluates every cell twice: untraced, then rebuilt.
    expected = golden_digest(args.workload, args.seed) or reps[0]["digest"]
    attempted = failed = 0
    for r in reps:
        cells = r["cells"] * (2 if args.trace else 1)
        attempted += cells
        ok = r["digest"] == expected
        if args.trace:
            ok = ok and r["traced_digest"] == r["digest"]
        failed += r["failed_cells"] if ok else cells
    print(f"digest {reps[0]['digest']} (expected {expected}), "
          f"{len(reps)} repetitions, {attempted} cells, {failed} failed",
          flush=True)

    metrics = {}
    if args.trace:
        layers = {k: statistics.median(r["layers"][k] for r in reps)
                  for k in reps[0]["layers"]}
        for name in sorted(layers):
            print(f"  {name:28s} {layers[name]:.6g}", flush=True)
        for name, (unit, _) in PER_LAYER.items():
            metrics[name] = {"value": layers[name], "unit": unit}
    else:
        for key in END_TO_END:
            values = [r[key] for r in reps]
            print(f"  {key:12s} median {statistics.median(values):.6g} "
                  f"{END_TO_END[key][0]}  spread {quartile_spread(values):.3f}"
                  f"  min {min(values):.6g}  max {max(values):.6g}", flush=True)
            metrics[key] = {"value": statistics.median(values),
                            "unit": END_TO_END[key][0]}
        print(f"  failed_cell_share {failed / attempted:.6g} ratio", flush=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
