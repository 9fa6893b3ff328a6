"""Tests of the benchmark itself: gates, digests, tracing and the run contract.

    python3 -m pytest perfbench/tests -q
"""
import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import harness  # noqa: E402

harness.bootstrap()

from perfbench import tracer as tracing  # noqa: E402
from perfbench import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _shift_values(out):
    """Add 1e-3 to every value of every data row of a CLI output."""
    lines = out.stdout.decode().splitlines()
    first = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 1
    for i in range(first, len(lines)):
        lines[i] = ",".join(repr(float(v) + 1e-3) if v else v for v in lines[i].split(","))
    return dataclasses.replace(out, stdout=("\n".join(lines) + "\n").encode())


def _with_run(item, transform):
    run = item.run
    return dataclasses.replace(item, run=lambda: transform(run()))


@pytest.mark.parametrize("workload", ["path_oracle", "path_curves", "search_trace"])
def test_corrupted_cli_output_trips_the_gate(workload):
    items = workloads.WORKLOADS[workload](1, smoke=True)
    clean = harness.Session(items)
    clean.run_pass()
    assert clean.failed == 0, clean.failures
    bad = [_with_run(item, _shift_values) for item in items]
    session = harness.Session(bad)
    session.run_pass()
    assert session.failed == len(items), session.failures


def test_changed_bytes_after_a_verified_pass_trip_the_gate():
    items = workloads.search_trace(1, smoke=True)
    session = harness.Session(items)
    session.run_pass()
    assert session.failed == 0
    # same numbers, different bytes: only the fingerprint can notice
    session.items = [_with_run(item, lambda out: dataclasses.replace(out, stdout=out.stdout + b"\n")) for item in items]
    session.run_pass()
    assert session.failed == len(items)
    assert all("bytes differ" in f for f in session.failures)


def test_corrupted_library_result_trips_the_gate():
    items = workloads.general_states(1, smoke=True)

    def flip(result):
        ent, report = result
        return ent, dataclasses.replace(report, fully_separable=not report.fully_separable)

    session = harness.Session([_with_run(item, flip) for item in items])
    session.run_pass()
    assert session.failed == len(items), session.failures


def test_failing_command_counts_as_failed():
    item = workloads.cli_item(["grover-trace", "--n", "99"], workloads.check_grover_trace(99, 1))
    session = harness.Session([item])
    session.run_pass()
    assert (session.attempted, session.failed) == (1, 1)
    assert "exit code 2" in session.failures[0]


def test_traced_and_untraced_runs_give_equal_digests():
    items = workloads.path_curves(1, smoke=True) + workloads.search_trace(1, smoke=True)
    plain = harness.Session(items)
    plain.run_pass()
    first = plain.pass_digests()
    with tracing.Tracer() as tracer:
        traced = harness.Session(items, digests=plain.digests, tracer=tracer)
        traced.run_pass()
    assert traced.failed == 0, traced.failures
    assert traced.pass_digests() == first
    metrics = tracer.layer_metrics()
    assert metrics["segre.max_quadric_residual.calls"] > 0
    assert metrics["entanglement.extremum_roots.calls"] > 0
    assert metrics["cli.entangle-sweep.rows"] > 0


def test_tracer_restores_the_package():
    import grovergeo
    import grovergeo.cli
    import grovergeo.kernels

    before = (grovergeo.kernels.poly_grid_max, grovergeo.fs_distance, grovergeo.cli.fs_distance)
    callback = grovergeo.cli.main.commands["grover-trace"].callback
    with tracing.Tracer():
        assert grovergeo.cli.fs_distance is not before[2]
        assert grovergeo.fs_distance is grovergeo.cli.fs_distance
    assert (grovergeo.kernels.poly_grid_max, grovergeo.fs_distance, grovergeo.cli.fs_distance) == before
    assert grovergeo.cli.main.commands["grover-trace"].callback is callback


def test_self_time_subtracts_children():
    t = tracing.Tracer(patch_points=())
    t.spans[:] = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 2.0, 3.0, 1, 0], ["b", 5.0, 6.0, 0, 0]]
    assert t.self_times() == {"a": (1, 6.0), "b": (2, 3.0), "c": (1, 1.0)}


def test_missing_patch_point_is_tolerated(monkeypatch):
    import grovergeo.kernels

    monkeypatch.delattr(grovergeo.kernels, "product_ascent")
    points = tracing.PATCH_POINTS + (("no_such_module", "f", None),)
    with tracing.Tracer(patch_points=points) as t:
        session = harness.Session(workloads.path_oracle(1, smoke=True), tracer=t)
        session.run_pass()
    assert session.failed == 0, session.failures
    assert t.missing == ["kernels.product_ascent", "no_such_module.f"]
    metrics = t.layer_metrics()
    assert set(metrics) == set(tracing.layer_metric_units())
    assert metrics["kernels.product_ascent.calls"] == 0
    assert metrics["kernels.poly_grid_max.cells"] > 0


def test_metric_names_match_benchmark_json():
    assert set(tracing.layer_metric_units()) == {m["name"] for m in SPEC["per_layer"]}
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    assert all(tracing.layer_metric_units()[m["name"]] == m["unit"] for m in SPEC["per_layer"])


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_mode_prints_every_metric_in_seconds(workload):
    start = time.perf_counter()
    proc = _run(ROOT, "--workload", workload, "--seed", "2", "--seconds", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - start < 60
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_trace_prints_every_layer_metric():
    proc = _run(ROOT, "--workload", "search_trace", "--seed", "2", "--seconds", "1", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["segre.max_quadric_residual.calls"]["value"] > 0


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "path_oracle", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
