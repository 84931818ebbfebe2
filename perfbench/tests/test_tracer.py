import sys
import time

import pytest

import timcorr.cli
import tracer
from child import run_job

JOBS = (
    ["critical", "--lambda-grid", "0.6", "--channel", "amplitude-damping"],
    ["critical", "--lambda-grid", "0.7", "--channel", "bit-phase-flip", "--format", "json"],
    ["sweep-p", "--lambda", "0.4", "--r", "2", "--p-count", "50"],
    ["ground-state", "--lambda", "0.95", "--r", "6"],
)


def traced_run():
    trace = tracer.Tracer()
    trace.install()
    try:
        traced_main = trace.wrap(timcorr.cli.main, "cli")
        start = time.perf_counter()
        outputs = [run_job(traced_main, argv)[2] for argv in JOBS]
        wall = time.perf_counter() - start
    finally:
        trace.uninstall()
    return trace, outputs, wall


@pytest.fixture(scope="module")
def two_runs():
    return traced_run(), traced_run()


def test_discovers_moved_functions_as_edges():
    edges = set(tracer.Tracer().edges())
    assert ("timcorr.criticality", "evolve_pair", "timcorr.channels") in edges
    assert ("timcorr.tim_ground_state", "integrate", "timcorr.numerics") in edges
    assert ("timcorr.cli", "sweep_p", "timcorr.criticality") in edges
    assert all(caller != callee for caller, _, callee in edges)


def test_uninstall_restores_globals():
    before = {(m, n): vars(sys.modules[m])[n] for m, n, _ in tracer.Tracer().edges()}
    trace = tracer.Tracer()
    trace.install()
    assert all(vars(sys.modules[m])[n] is not f for (m, n), f in before.items())
    trace.uninstall()
    assert all(vars(sys.modules[m])[n] is f for (m, n), f in before.items())


def test_self_times_sum_to_traced_wall_time(two_runs):
    (trace, _, wall), _ = two_runs
    layers = trace.fold()
    self_total = sum(entry["self_s"] for entry in layers.values())
    root_total = sum(end - start for layer, start, end, parent, _ in trace.spans if parent < 0)
    assert self_total == pytest.approx(root_total, rel=1e-9)
    assert 0.95 * wall <= self_total <= wall
    assert all(entry["self_s"] >= 0.0 for entry in layers.values())


def test_calls_repeat_exactly(two_runs):
    (first, out1, _), (second, out2, _) = two_runs
    counts = [{k: (v["calls"], v["errors"]) for k, v in t.fold().items()} for t in (first, second)]
    assert counts[0] == counts[1]
    assert set(counts[0]) == set(tracer.LAYERS)
    assert all(calls > 0 for calls, _ in counts[0].values())
    assert out1 == out2


def test_tracing_leaves_output_unchanged(two_runs):
    (_, traced, _), _ = two_runs
    assert traced == [run_job(timcorr.cli.main, argv)[2] for argv in JOBS]


def test_exceptions_crossing_a_boundary_count_as_errors(two_runs):
    (trace, _, _), _ = two_runs
    # amplitude damping has no features, so each derivative's evaluation
    # raises out of numerics.central_difference
    assert trace.fold()["numerics"]["errors"] >= 4
