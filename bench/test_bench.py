"""Tests of the benchmark itself: attribution, failure counting, seeded inputs.

Run from the repository root: python3 -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import multisym  # noqa: E402
import multisym.cli  # noqa: E402
from multisym import posets, trees  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TIME_METRICS, Tracer, unit  # noqa: E402


def traced(call):
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        result = call()
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return tracer, result, wall


def test_call_through_posets_binding_is_attributed_to_trees_enumerate():
    original = trees.all_bileveled
    assert posets.all_bileveled is original
    tracer, result, _ = traced(lambda: posets.all_bileveled(3))
    assert tracer.calls["trees.enumerate"] >= 1
    assert tracer.bileveled_kept == {3: len(result)}
    assert posets.all_bileveled is original and trees.all_bileveled is original


def test_recursive_calls_fold_into_the_outer_span():
    tracer, _, _ = traced(lambda: trees.tree_of_perm((3, 1, 4, 2)))
    assert tracer.calls["trees.project"] == 1


def test_self_times_and_unattributed_add_up_to_the_traced_wall():
    suites = [(["tamari-oracle", "--n-max", "4"], "suite=tamari-oracle n_max=4 status=pass")]
    tracer, outputs, wall = traced(lambda: workloads.run_suites(multisym.cli.main, suites))
    assert workloads.check_suites(suites, outputs) == []
    layers = tracer.metrics(wall)
    total = sum(layers[m] for m in TIME_METRICS.values()) + layers["trace.unattributed_s"]
    assert abs(total - wall) < 1e-9
    assert 0 <= layers["trace.unattributed_s"] < 0.5 * wall
    assert layers["verify.self_s"] > 0 and layers["cli.self_s"] > 0


def test_wrong_expected_verdict_is_counted_as_a_failure():
    right = [(["dimensions", "--n-max", "3"], "suite=dimensions n_max=3 status=pass")]
    wrong = [(["dimensions", "--n-max", "3"], "suite=dimensions n_max=3 status=fail")]
    outputs = workloads.run_suites(multisym.cli.main, right)
    assert workloads.check_suites(right, outputs) == []
    assert len(workloads.check_suites(wrong, outputs)) == 1


def test_wrong_point_answer_is_counted_as_a_failure():
    probe = ("coaction", "{{{..}(..)}{.((..)(..))}}")
    assert workloads.check_query(multisym, probe, [multisym.coaction(probe[1])])
    assert not workloads.check_query(multisym, probe, [multisym.coaction("{{..}.}")])
    assert not workloads.check_query(multisym, probe, ValueError("raised"))


def test_point_query_generator_is_seeded():
    assert workloads.make_queries(7) == workloads.make_queries(7)
    assert workloads.make_queries(7) != workloads.make_queries(8)


def test_point_query_checks_accept_correct_answers():
    probes = workloads.make_queries(0)[:300]
    answers, latencies = workloads.run_queries(multisym, probes)
    assert {p[0] for p in probes} == set(workloads.QUERY_MIX)
    assert all(workloads.check_query(multisym, p, a) for p, a in zip(probes, answers))
    assert len(latencies) >= len(probes)


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reported_metrics_match_the_benchmark_definition():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert spec["paths"] == ["bench"]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    child = {"wall_ref_s": 1.0, "setup_ref_s": 0.1, "peak_rss_mb": 20.0}
    got = run.end_to_end([child], [child])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: v["unit"] for name, v in got.items()}
    layers = [*Tracer().metrics(1.0), "trace.overhead_s"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit(name) for name in layers}
