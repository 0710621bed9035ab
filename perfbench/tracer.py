"""Spans and counts around the public functions of each rotaxa module.

The program imports its core functions by name (``solve_lp`` into
``exactgeom``, ``extreme_points`` into five modules, ``contains_point`` into
four), so wrapping a function only in its home module would miss most calls.
:meth:`Tracer.install` therefore replaces every module-level binding of each
traced function, in every loaded ``rotaxa`` module.

Spans are kept in memory as ``[name, parent, start, end]`` and turned into
per-layer metrics by :func:`layer_metrics`.  Calls made outside a job span
(input building, output verification) pass through unrecorded.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

JOB = "bench.job"


def _count_points(args, kwargs):
    points = list(args[0])
    return (points,) + args[1:], kwargs, {"points_in": len(set(points))}


def _size(key):
    def record(result):
        return {key: len(result)}

    return record


# Traced function -> (hook run on the arguments, hook run on the result).
# A function whose metrics need nothing but calls and time has no hooks.
TRACED = {
    "simplex.solve_lp": (None, None),
    "exactgeom.extreme_points": (
        _count_points,
        lambda result: {"vertices_out": len(result.vertices)},
    ),
    "exactgeom.hull_membership": (None, None),
    "exactgeom.contains_point": (None, None),
    "exactgeom.segment_interval": (None, None),
    "exactgeom.segment_uncovered_gap": (None, None),
    "markov.simple_cycles": (None, _size("cycles")),
    "markov.piece_rotation_set": (None, None),
    "markov.rotation_sets": (None, None),
    "heteroclinic.maximal_nontrivial_chains": (None, None),
    "heteroclinic.chain_rotation_set": (None, None),
    "conley.enumerate_blocks": (None, _size("blocks")),
    "conley.verify_structure": (None, None),
    "analysis.star_shape_check": (None, None),
    "analysis.convexity_probe": (None, None),
    "analysis.probe_points": (None, _size("points")),
    "analysis.interior_check": (None, None),
    "oracle.sample_chain_averages": (None, _size("samples")),
    "model.validate_model": (None, None),
    "engine.compute": (None, None),
    "engine.run_checks": (None, None),
    "serialize.load_model": (None, None),
    "serialize.result_to_dict": (None, None),
}
# Counted but given no span: one pivot is too small to time.
COUNTED = {"simplex._pivot": "simplex.pivots"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job_chains: set = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every binding of every traced function in loaded modules.

        A traced function the program no longer has is skipped; its metrics
        then read zero, which the benchmark's coverage self-test reports.
        """
        modules = _rotaxa_modules()
        replacements = {}
        for qualified, hooks in TRACED.items():
            original = _lookup(modules, qualified)
            if original is not None:
                replacements[id(original)] = (
                    original, self._span_wrapper(qualified, original, *hooks)
                )
        for qualified, counter in COUNTED.items():
            original = _lookup(modules, qualified)
            if original is not None:
                replacements[id(original)] = (
                    original, self._count_wrapper(counter, original)
                )
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                original, wrapper = replacements.get(id(value), (None, None))
                if original is not None and value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _span_wrapper(self, qualified, fn, before, after):
        tracer = self
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter
        chains = qualified == "heteroclinic.maximal_nontrivial_chains"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs, extra = before(args, kwargs)
                counts.update({f"{qualified}.{k}": v for k, v in extra.items()})
            index = len(spans)
            span = [qualified, stack[-1], clock(), None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if after is not None:
                counts.update({f"{qualified}.{k}": v for k, v in after(result).items()})
            if chains:
                tracer.job_chains.update(result)
            return result

        return wrapper

    def _count_wrapper(self, counter, fn):
        stack = self._stack
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def job(self):
        """The root span of one job."""
        self.job_chains = set()
        index = len(self.spans)
        self.spans.append([JOB, None, time.perf_counter(), None])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][3] = time.perf_counter()
            self.counts["bench.jobs"] += 1
            self.counts["heteroclinic.maximal_nontrivial_chains.chains"] += len(
                self.job_chains
            )

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


def _lookup(modules, qualified: str):
    module_name, attr = qualified.rsplit(".", 1)
    return getattr(modules.get(f"rotaxa.{module_name}"), attr, None)


def _rotaxa_modules() -> dict:
    return {
        name: module
        for name, module in sys.modules.items()
        if module is not None and (name == "rotaxa" or name.startswith("rotaxa."))
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], counts: Counter) -> dict[str, float]:
    """Per-layer counts, self times and ratios of one pass of jobs.

    A span's self time is its duration minus the durations of its direct
    children; spans never overlap within the single benchmark thread.
    """
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    children: Counter = Counter()
    child_time: list[float] = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
            children[(spans[parent][0], name)] += 1
    for index, (name, _, start, end) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child_time[index]

    lps = calls["simplex.solve_lp"]
    hulls = calls["exactgeom.extreme_points"]
    chains = counts["heteroclinic.maximal_nontrivial_chains.chains"]
    points = counts["analysis.probe_points.points"]
    return {
        "simplex.solve_lp.calls": lps,
        "simplex.solve_lp.self_s": self_s["simplex.solve_lp"],
        "simplex.pivots": counts["simplex.pivots"],
        "simplex.pivots_per_lp": _ratio(counts["simplex.pivots"], lps),
        "exactgeom.extreme_points.calls": hulls,
        "exactgeom.extreme_points.self_s": self_s["exactgeom.extreme_points"],
        "exactgeom.extreme_points.points_in": counts["exactgeom.extreme_points.points_in"],
        "exactgeom.extreme_points.vertices_out": counts[
            "exactgeom.extreme_points.vertices_out"
        ],
        "exactgeom.lps_per_hull": _ratio(
            children[("exactgeom.extreme_points", "exactgeom.hull_membership")], hulls
        ),
        "exactgeom.hull_membership.calls": calls["exactgeom.hull_membership"],
        "exactgeom.contains_point.calls": calls["exactgeom.contains_point"],
        "exactgeom.contains_point.self_s": self_s["exactgeom.contains_point"],
        "exactgeom.segment_interval.calls": calls["exactgeom.segment_interval"],
        "exactgeom.segment_interval.self_s": self_s["exactgeom.segment_interval"],
        "markov.simple_cycles.cycles": counts["markov.simple_cycles.cycles"],
        "markov.simple_cycles.self_s": self_s["markov.simple_cycles"],
        "markov.piece_rotation_set.calls": calls["markov.piece_rotation_set"],
        "markov.piece_rotation_set.self_s": self_s["markov.piece_rotation_set"],
        "markov.rotation_sets.calls": calls["markov.rotation_sets"],
        "markov.rotation_sets_per_job": _ratio(
            calls["markov.rotation_sets"], counts["bench.jobs"]
        ),
        "heteroclinic.maximal_nontrivial_chains.chains": chains,
        "heteroclinic.chain_rotation_set.calls": calls["heteroclinic.chain_rotation_set"],
        "heteroclinic.chain_rotation_set.self_s": self_s["heteroclinic.chain_rotation_set"],
        "heteroclinic.chain_polytopes_per_chain": _ratio(
            calls["heteroclinic.chain_rotation_set"], chains
        ),
        "conley.blocks": counts["conley.enumerate_blocks.blocks"],
        "conley.enumerate_blocks.self_s": self_s["conley.enumerate_blocks"],
        "conley.verify_structure.self_s": self_s["conley.verify_structure"],
        "analysis.star_shape_check.self_s": self_s["analysis.star_shape_check"],
        "analysis.star_shape_check.segments": children[
            ("analysis.star_shape_check", "exactgeom.segment_uncovered_gap")
        ],
        "analysis.convexity_probe.calls": calls["analysis.convexity_probe"],
        "analysis.convexity_probe.self_s": self_s["analysis.convexity_probe"],
        "analysis.convexity_probe.points": points,
        "analysis.probe_lps_per_point": _ratio(
            children[("analysis.convexity_probe", "exactgeom.contains_point")], points
        ),
        "analysis.interior_check.self_s": self_s["analysis.interior_check"],
        "oracle.sample_chain_averages.samples": counts[
            "oracle.sample_chain_averages.samples"
        ],
        "oracle.sample_chain_averages.self_s": self_s["oracle.sample_chain_averages"],
        "model.validate_model.self_s": self_s["model.validate_model"],
        "engine.compute.self_s": self_s["engine.compute"],
        "engine.run_checks.self_s": self_s["engine.run_checks"],
        "serialize.load_model.self_s": self_s["serialize.load_model"],
        "serialize.result_to_dict.self_s": self_s["serialize.result_to_dict"],
    }
