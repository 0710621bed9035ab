"""The benchmark's tracer against the program it traces.

``perfbench/tracer.py`` wraps program functions by their names.  A name
that no longer resolves, or a layer that a workload no longer reaches, reads
zero in the benchmark's per-layer metrics; these tests catch either before
a benchmark run does.  The tracer and the workload builder are loaded from
their files and not edited.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import rotaxa
from rotaxa import engine, exactgeom, serialize

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Traced names the program no longer has, each recorded in ROADMAP (D11) for
# the next change to the benchmark, which should drop it from the tracer.
GONE = {"conley.verify_structure"}


def _load(name: str):
    """The benchmark module ``name``, loaded from its file under a name of
    its own (registered, as dataclasses need)."""
    qualified = f"perfbench_{name}"
    if qualified not in sys.modules:
        spec = importlib.util.spec_from_file_location(qualified, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[qualified] = module
        spec.loader.exec_module(module)
    return sys.modules[qualified]


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


@pytest.fixture(scope="module")
def piece_hull_jobs():
    workloads = _load("workloads")
    return workloads.build_jobs("piece_hulls", workloads.DEFAULT_SEED, rotaxa)


def test_every_traced_name_resolves(tracer):
    names = [*tracer.TRACED, *tracer.COUNTED]
    assert names
    for qualified in names:
        module, attr = qualified.rsplit(".", 1)
        found = getattr(importlib.import_module(f"rotaxa.{module}"), attr, None)
        if qualified in GONE:
            assert found is None, f"{qualified} is back: take it out of GONE"
        else:
            assert callable(found), f"{qualified} is traced but not in the program"


@pytest.fixture(scope="module")
def battery_jobs():
    workloads = _load("workloads")
    jobs = workloads.build_jobs("battery", workloads.DEFAULT_SEED, rotaxa)
    return {job.name: job for job in jobs}


def _traced_job(tracer, job) -> dict:
    """The layer metrics of one traced job, run as the benchmark runs it:
    load, ``compute`` and write the result, then, for a job that checks,
    its checks and the result with their report."""
    traced = tracer.Tracer()
    traced.install()
    try:
        with traced.job():
            computation = engine.compute(serialize.load_model(job.document))
            serialize.result_to_dict(computation)
            if job.checks is not None:
                outcomes = engine.run_checks(computation, **job.checks)
                serialize.result_to_dict(computation, outcomes)
    finally:
        traced.uninstall()
    return tracer.layer_metrics(traced.spans, traced.counts)


@pytest.mark.parametrize(
    ("index", "cycles", "hulls"),
    [
        # K_8 with self-loops holds the origin: its piece hull only, from
        # one cycle per non-empty node set, 2**8 - 1.
        (0, 255, 1),
        # A random piece misses the origin: its piece hull, then its cone.
        (1, None, 2),
    ],
)
def test_a_traced_compute_records_every_piece_hull_layer(
    tracer, piece_hull_jobs, index, cycles, hulls
):
    metrics = _traced_job(tracer, piece_hull_jobs[index])
    assert metrics["markov.simple_cycles.cycles"] == cycles or (
        cycles is None and metrics["markov.simple_cycles.cycles"] > 0
    )
    assert metrics["exactgeom.extreme_points.calls"] == hulls
    assert metrics["simplex.solve_lp.calls"] > 0
    assert metrics["simplex.pivots"] > 0
    # Uninstalling puts every binding back.
    assert rotaxa.conley.extreme_points is exactgeom.extreme_points


@pytest.mark.parametrize(
    ("index", "lps", "pivots"),
    # K_8, then the first random piece (random_14_2 at seed 1).  Bland's rule
    # fixes both counts.  A solver that reached its LPs or pivots other than
    # through ``solve_lp`` and ``_pivot`` would read 0 here, as it would in
    # the benchmark.
    [(0, 13, 40), (1, 48, 238)],
)
def test_a_traced_compute_records_every_lp_and_pivot(
    tracer, piece_hull_jobs, index, lps, pivots
):
    metrics = _traced_job(tracer, piece_hull_jobs[index])
    assert metrics["simplex.solve_lp.calls"] == lps
    assert metrics["simplex.pivots"] == pivots


@pytest.mark.parametrize(
    ("fixture", "points", "contains", "lps", "pivots", "segments"),
    # Summed over the five jobs: 1,220 probe points, 239 membership tests,
    # 26 LPs, 61 pivots and 106 star segments.  A probe grid that reached
    # its points other than through ``probe_points``, or a check that
    # bypassed a traced function, would read 0 here, as in the benchmark.
    [
        ("genus2_nonconvex", 100, 47, 2, 6, 11),
        ("genus2_full", 100, 101, 2, 6, 15),
        ("genus2_blocks", 82, 37, 8, 21, 14),
        ("exp_family(3)", 287, 23, 6, 12, 25),
        ("exp_family(4)", 651, 31, 8, 16, 41),
    ],
)
def test_a_traced_default_check_records_every_battery_layer(
    tracer, battery_jobs, fixture, points, contains, lps, pivots, segments
):
    job = battery_jobs[f"battery/{fixture}"]
    assert job.checks == {}
    metrics = _traced_job(tracer, job)
    assert metrics["analysis.convexity_probe.calls"] == 1
    assert metrics["analysis.convexity_probe.points"] == points
    assert metrics["exactgeom.contains_point.calls"] == contains
    assert metrics["simplex.solve_lp.calls"] == lps
    assert metrics["simplex.pivots"] == pivots
    assert metrics["analysis.star_shape_check.segments"] == segments
