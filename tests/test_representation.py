"""A polytope is its integer vertices: the contract of the one stored form.

``Fraction`` vectors meet the integer form at two edges only.  Model input
is converted once per vector (a graph's displacements, a subspace's basis),
and a polytope's ``vertices`` are built only when output reads them.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from types import SimpleNamespace
from itertools import chain
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotaxa import simplex
from rotaxa.engine import compute, run_checks
from rotaxa.exactgeom import (
    HomogeneousPoint,
    RationalPolytope,
    extreme_points,
    homogeneous,
)
from rotaxa.fixtures import get_fixture
from rotaxa.serialize import blocks_to_csv, polytope_to_json, result_to_dict

BATTERY = (
    "genus2_nonconvex",
    "genus2_full",
    "genus2_blocks",
    "exp_family(3)",
    "exp_family(4)",
)


def _stack(frame):
    names = []
    while frame is not None:
        names.append(frame.f_code.co_name)
        frame = frame.f_back
    return names


@pytest.mark.parametrize("name", BATTERY)
def test_only_model_vectors_are_converted(monkeypatch, name):
    # compute, the default battery and oracle sampling convert a graph's
    # displacements and a subspace's basis, each at most once, and nothing
    # else: no vertex, origin, probe point or sample.
    calls = []
    integer_rows = simplex.integer_rows

    def recorded(vectors):
        frame = sys._getframe(1)
        calls.append((frame.f_code.co_name, frame.f_locals.get("self")))
        return integer_rows(vectors)

    bound = [
        module
        for module_name, module in sys.modules.items()
        if module_name.startswith("rotaxa")
        and getattr(module, "integer_rows", None) is integer_rows
    ]
    assert {module.__name__ for module in bound} == {
        "rotaxa.simplex",
        "rotaxa.exactgeom",
        "rotaxa.markov",
    }
    for module in bound:
        monkeypatch.setattr(module, "integer_rows", recorded)
    computation = compute(get_fixture(name))
    run_checks(computation)
    run_checks(computation, oracle_samples=1000)
    assert calls
    assert {caller for caller, _ in calls} <= {"integer_displacements", "integer_basis"}
    # The owners are kept alive in ``calls``, so their ids are distinct.
    assert len({id(owner) for _, owner in calls}) == len(calls)


@pytest.mark.parametrize("name", BATTERY)
def test_vertices_are_built_only_for_output(monkeypatch, name):
    # Only a failed check's report reads the Fraction view; compute, the
    # passing battery and the JSON and CSV output format the integer rows.
    built = []
    view = RationalPolytope.__dict__["vertices"]

    def recorded(polytope):
        built.append(_stack(sys._getframe(1)))
        return view.func(polytope)

    monkeypatch.setattr(RationalPolytope, "vertices", property(recorded))
    computation = compute(get_fixture(name))
    outcomes = run_checks(computation)
    assert all(outcome.passed for outcome in outcomes)
    assert built == []
    result_to_dict(computation, outcomes)
    blocks_to_csv(computation)
    assert built == []


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@st.composite
def shuffled_scaled_sets(draw):
    """Rational points, and the same points as homogeneous columns in
    another order, each over a multiple of its least denominator."""
    dim = draw(st.integers(1, 3))
    points = draw(st.lists(st.tuples(*[rationals] * dim), min_size=1, max_size=7))
    order = draw(st.permutations(range(len(points))))
    scales = draw(st.lists(st.integers(1, 9), min_size=len(points), max_size=len(points)))
    columns = [
        HomogeneousPoint(a * k for a in homogeneous(points[i]))
        for i, k in zip(order, scales)
    ]
    return points, [points[i] for i in order], columns


class TestOneStoredForm:
    @settings(max_examples=150)
    @given(shuffled_scaled_sets())
    def test_hull_is_its_least_integer_rows(self, case):
        points, shuffled, columns = case
        hull = extreme_points(points)
        for other in (extreme_points(shuffled), extreme_points(columns)):
            assert other == hull and hash(other) == hash(hull)
            assert other.integer_vertices == hull.integer_vertices
        den, rows = hull.integer_vertices
        assert den > 0 and gcd(den, *chain.from_iterable(rows)) == 1
        assert rows == tuple(sorted(set(rows)))
        assert len(hull.vertices) == len(rows)
        for vertex, row in zip(hull.vertices, rows):
            assert vertex == tuple(Fraction(a, den) for a in row)

    def test_fields_are_the_dimension_and_the_integer_rows(self):
        hull = extreme_points([(Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 3))])
        assert hull == RationalPolytope(2, (6, ((0, 2), (3, 0))))
        assert "vertices" not in vars(hull)
        assert hull.vertices == ((0, Fraction(1, 3)), (Fraction(1, 2), 0))
        assert "vertices" in vars(hull)


@st.composite
def output_polytopes(draw):
    """Hulls whose rows hold zeros and negative numerators, over ``den = 1``
    (integer vertices) or ``den > 1``."""
    dim = draw(st.integers(1, 3))
    coordinate = draw(st.sampled_from([rationals, st.integers(-9, 9)]))
    points = draw(st.lists(st.tuples(*[coordinate] * dim), min_size=1, max_size=6))
    if draw(st.booleans()):
        points.append((0,) * dim)
    return extreme_points([tuple(map(Fraction, p)) for p in points])


class TestOutputFromIntegerRows:
    @settings(max_examples=150)
    @given(output_polytopes())
    def test_rows_format_as_the_fraction_view(self, hull):
        expected = [[str(c) for c in v] for v in hull.vertices]
        assert polytope_to_json(hull) == expected
        block = SimpleNamespace(key=SimpleNamespace(label=lambda: "S|a>b"), polytope=hull)
        csv = blocks_to_csv(SimpleNamespace(blocks=[block, block]))
        assert csv == "".join(f"S|a>b,{','.join(row)}\n" for row in expected * 2)

    def test_zeros_negatives_and_reduced_numerators(self):
        hull = RationalPolytope(2, (6, ((-6, 0), (0, 3), (4, -9))))
        assert polytope_to_json(hull) == [["-1", "0"], ["0", "1/2"], ["2/3", "-3/2"]]
        assert polytope_to_json(RationalPolytope(1, (1, ((-2,), (0,))))) == [["-2"], ["0"]]

    @pytest.mark.parametrize("name", (*BATTERY, "exp_family(5)"))
    def test_fixture_blocks_csv_reads_the_fraction_view(self, name):
        computation = compute(get_fixture(name))
        expected = "".join(
            ",".join([block.key.label(), *map(str, v)]) + "\n"
            for block in computation.blocks
            for v in block.polytope.vertices
        )
        assert blocks_to_csv(computation) == expected
