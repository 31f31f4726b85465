"""One timed iteration of a workload, in a fresh interpreter.

Usage: python3 bench/child.py <workload> <seed> <trace 0|1> [setup-only]

Times ``import multisym, multisym.cli`` (the set-up), runs the workload's
timed section, then checks every answer and prints one JSON line.  With
``setup-only`` it stops after the import.  Both times are also reported
rescaled to a fixed host speed (see ``speed.py``): the import by probes run
just before and after it, the timed section by probes run from a timer
signal during it.  Traced times are multiplied by the section's factor too;
they keep the probes' own 1-2%.
"""

import os
import sys
import time

from speed import PROBE_REF_S, SpeedProbe, probe, scale

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

before = [probe() for _ in range(30)]
start = time.perf_counter()
try:
    import multisym
    import multisym.cli
except ImportError as exc:
    sys.exit(f"cannot import multisym from {SRC}: {exc}")
setup_s = time.perf_counter() - start
setup_ref_s = setup_s * scale(before + [probe() for _ in range(30)])

if not os.path.abspath(multisym.__file__).startswith(SRC + os.sep):
    sys.exit(f"imported multisym from {multisym.__file__}, not from {SRC}")

import json  # noqa: E402  (imported after the timed import, which starts bare)
import resource  # noqa: E402
from functools import partial  # noqa: E402


def main(workload: str, seed: int, trace: bool) -> dict:
    import workloads

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    # bind the entry points after the tracer has replaced them
    if workload in workloads.SUITES:
        suites = workloads.SUITES[workload]
        run = partial(workloads.run_suites, multisym.cli.main, suites)
    elif workload == "point-queries":
        queries = workloads.make_queries(seed)
        run = partial(workloads.run_queries, multisym, queries)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    try:
        with SpeedProbe() as speed:
            start = time.perf_counter()
            outputs = run()
            wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()

    factor = scale(speed.samples)
    report = {"wall_s": wall, "probe_s": PROBE_REF_S / factor,
              "wall_ref_s": (wall - sum(speed.samples)) * factor}
    if workload in workloads.SUITES:
        failures = workloads.check_suites(suites, outputs)
        report["attempted"] = len(suites)
        report["suite_lines"] = [text.strip() for _, text, _ in outputs]
    else:
        answers, latencies = outputs
        failures = [repr(query) for query, got in zip(queries, answers)
                    if not workloads.check_query(multisym, query, got)]
        report["attempted"] = len(queries)
        report["latencies_s"] = latencies
    report["failed"] = len(failures)
    report["failures"] = failures[:10]
    if tracer is not None:
        report["layers"] = tracer.metrics(wall, factor)
    return report


if __name__ == "__main__":
    workload, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    report = {"setup_s": setup_s, "setup_ref_s": setup_ref_s}
    if sys.argv[4:] != ["setup-only"]:
        report.update(main(workload, seed, trace))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
