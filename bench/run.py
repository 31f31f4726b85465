"""Benchmark of multisym: one workload, measured for a fixed time.

Usage:
    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every iteration runs in a fresh interpreter (``child.py``), one at a time,
because the package memoises per size in module state and a user pays that
cost on every ``multisym verify`` process.  Iterations repeat until
``--seconds`` have passed.  With ``--trace 0`` the last line of stdout is a
JSON object with the end-to-end metrics; with ``--trace 1`` untraced and
traced iterations alternate and it holds the per-layer metrics of the median
traced iteration, its times rescaled like ``wall_ref_s`` (see ``child.py``).  Any wrong answer makes the run exit 1 after printing its
result; a missing or broken package makes it exit 2 without one.  Each run
also writes its raw samples and provenance to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from workloads import WORKLOADS  # noqa: E402

# import-only children per run, on top of the import each iteration times
SETUP_SAMPLES = 15
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 120


class ChildError(RuntimeError):
    """A child interpreter failed before reporting (crash, timeout, no package)."""


def run_child(workload: str, seed: int, trace: bool, setup_only: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), workload, str(seed),
           "1" if trace else "0", *(["setup-only"] if setup_only else [])]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildError(f"child exceeded {CHILD_TIMEOUT_S} s: {cmd}") from None
    if proc.returncode != 0:
        raise ChildError(f"child exited {proc.returncode}: {proc.stderr.strip()}")
    try:
        report = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise ChildError(f"child printed no report: {proc.stdout[-500:]!r}") from None
    return report


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run iterations for ``seconds``; return (every child's report, untraced
    iterations, traced iterations)."""
    run_child(workload, seed, False, setup_only=True)  # warm the file cache and .pyc
    setups = [run_child(workload, seed, False, setup_only=True)
              for _ in range(SETUP_SAMPLES)]
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced if trace else plain) < MIN_ITERATIONS:
        # with tracing, untraced and traced iterations alternate
        turn = traced if trace and len(traced) < len(plain) else plain
        turn.append(run_child(workload, seed, turn is traced))
    return setups + plain + traced, plain, traced


def provenance(seed: int) -> dict:
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), platform.machine())
    except OSError:
        cpu = platform.machine()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
            timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "multisym")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def end_to_end(children, plain) -> dict:
    return {
        "wall_ref_s": {"value": statistics.median(it["wall_ref_s"] for it in plain),
                       "unit": "s"},
        "setup_s": {"value": statistics.median(it["setup_ref_s"] for it in children),
                    "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(it["peak_rss_mb"] for it in plain),
                        "unit": "MB"},
    }


def per_layer(plain, traced) -> dict:
    from tracer import unit

    ordered = sorted(traced, key=lambda it: it["wall_ref_s"])
    layers = dict(ordered[(len(ordered) - 1) // 2]["layers"])
    layers["trace.overhead_s"] = (statistics.median(it["wall_ref_s"] for it in traced)
                                  - statistics.median(it["wall_ref_s"] for it in plain))
    return {name: {"value": value, "unit": unit(name)} for name, value in layers.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        children, plain, traced = measure(args.workload, args.seed, args.seconds,
                                        bool(args.trace))
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    iterations = plain + traced
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    metrics = per_layer(plain, traced) if args.trace else end_to_end(children, plain)

    samples = {
        "setup_s": [it["setup_s"] for it in children],
        "setup_ref_s": [it["setup_ref_s"] for it in children],
        "wall_s": [it["wall_s"] for it in plain],
        "wall_ref_s": [it["wall_ref_s"] for it in plain],
        "probe_s": [it["probe_s"] for it in plain],
        "peak_rss_mb": [it["peak_rss_mb"] for it in plain],
        "traced_wall_s": [it["wall_s"] for it in traced],
    }
    if args.workload == "point-queries":
        latencies = [x for it in plain for x in it["latencies_s"]]
        samples["query_latency_us"] = {
            "calls": len(latencies),
            "p50": quantile(latencies, 0.5) * 1e6,
            "p99": quantile(latencies, 0.99) * 1e6,
            "per_iteration_p50": [quantile(it["latencies_s"], 0.5) * 1e6 for it in plain],
            "per_iteration_p99": [quantile(it["latencies_s"], 0.99) * 1e6 for it in plain],
        }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "attempted": attempted,
        "failed": failed,
        "failures": [f for it in iterations for f in it["failures"]][:20],
        "suite_lines": plain[0].get("suite_lines"),
        "samples": samples,
        "layers_per_traced_iteration": [it["layers"] for it in traced],
        "metrics": metrics,
    }
    results = os.path.join(BENCH, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)

    print(f"{args.workload}: {len(plain)} untraced + {len(traced)} traced iterations, "
          f"{len(children)} set-ups, {failed}/{attempted} failed; raw samples in "
          f"{os.path.relpath(path, ROOT)}")
    for failure in record["failures"]:
        print(f"  FAIL {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
