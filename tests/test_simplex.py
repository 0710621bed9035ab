"""Direct checks of the exact LP solver (statuses, values, certificates).

Besides hand-made cases, a property test compares every answer with a
brute-force oracle that enumerates all bases of small LPs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rotaxa.simplex as simplex
from rotaxa.exactgeom import extreme_points, segment_interval
from rotaxa.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp

F = Fraction


def test_simple_optimum():
    # min x + y  s.t.  x + y + s = 2, x - y = 0  =>  x = y = 0.
    res = solve_lp(
        costs=[F(1), F(1), F(0)],
        rows=[[F(1), F(1), F(1)], [F(1), F(-1), F(0)]],
        rhs=[F(2), F(0)],
    )
    assert res.status == OPTIMAL
    assert res.value == 0


def test_binding_optimum():
    # min -x  s.t.  x + s = 3  =>  x = 3, value -3.
    res = solve_lp(
        costs=[F(-1), F(0)],
        rows=[[F(1), F(1)]],
        rhs=[F(3)],
    )
    assert res.status == OPTIMAL
    assert res.value == -3
    assert res.solution[0] == 3


def test_unbounded():
    # min -x  s.t.  x - y = 1: x can grow without limit.
    res = solve_lp(
        costs=[F(-1), F(0)],
        rows=[[F(1), F(-1)]],
        rhs=[F(1)],
    )
    assert res.status == UNBOUNDED


def test_infeasible_with_farkas_certificate():
    # x + y = -1 with x, y >= 0 is infeasible.
    rows = [[F(1), F(1)]]
    rhs = [F(-1)]
    res = solve_lp(costs=[F(0), F(0)], rows=rows, rhs=rhs)
    assert res.status == INFEASIBLE
    y = res.certificate
    # y . A_j <= 0 for every column, y . b > 0.
    assert all(sum(yi * row[j] for yi, row in zip(y, rows)) <= 0 for j in range(2))
    assert sum(yi * bi for yi, bi in zip(y, rhs)) > 0


def test_redundant_rows_are_dropped():
    # Duplicate constraint rows: still solvable.
    res = solve_lp(
        costs=[F(1), F(0)],
        rows=[[F(1), F(1)], [F(2), F(2)]],
        rhs=[F(1), F(2)],
    )
    assert res.status == OPTIMAL
    assert res.value == 0


def test_degenerate_problem_terminates():
    # x+y = 1, y+z = 1, x+z = 1 forces x = y = z = 1/2 (sum the rows).
    res = solve_lp(
        costs=[F(1), F(0), F(0)],
        rows=[
            [F(1), F(1), F(0)],
            [F(0), F(1), F(1)],
            [F(1), F(0), F(1)],
        ],
        rhs=[F(1), F(1), F(1)],
    )
    assert res.status == OPTIMAL
    assert res.value == F(1, 2)
    assert res.solution == (F(1, 2), F(1, 2), F(1, 2))


def _solve_on_columns(columns, rhs):
    """The unique ``x`` with ``sum x_k columns[k] == rhs``, else ``None``.

    ``None`` when the columns are dependent or the system is inconsistent.
    Plain Gauss-Jordan over Fractions, independent of the tableau code.
    """
    m = len(rhs)
    aug = [[col[i] for col in columns] + [rhs[i]] for i in range(m)]
    k = len(columns)
    rank = 0
    for c in range(k):
        pivot = next((r for r in range(rank, m) if aug[r][c] != 0), None)
        if pivot is None:
            return None
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        lead = aug[rank][c]
        aug[rank] = [a / lead for a in aug[rank]]
        for r in range(m):
            if r != rank and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[rank])]
        rank += 1
    if any(aug[r][k] != 0 for r in range(rank, m)):
        return None
    return [aug[r][k] for r in range(k)]


def _basic_feasible_solutions(rows, rhs):
    """Every x >= 0 with rows @ x == rhs supported on independent columns."""
    n = len(rows[0])
    for size in range(min(len(rows), n) + 1):
        for support in combinations(range(n), size):
            columns = [[row[j] for row in rows] for j in support]
            values = _solve_on_columns(columns, rhs)
            if values is None or any(v < 0 for v in values):
                continue
            x = [F(0)] * n
            for j, v in zip(support, values):
                x[j] = v
            yield x


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), F(0))


def brute_force_lp(costs, rows, rhs):
    """Status and optimal value by enumerating every basis.

    Feasible LPs have a basic feasible solution.  A feasible LP is unbounded
    iff some direction d >= 0 with rows @ d == 0 and sum(d) == 1 has
    costs . d < 0, and that polytope's minimum is also at a basic solution.
    """
    points = list(_basic_feasible_solutions(rows, rhs))
    if not points:
        return INFEASIBLE, None
    n = len(costs)
    rays = _basic_feasible_solutions(
        rows + [[F(1)] * n], [F(0)] * len(rows) + [F(1)]
    )
    if any(_dot(costs, d) < 0 for d in rays):
        return UNBOUNDED, None
    return OPTIMAL, min(_dot(costs, x) for x in points)


rationals = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2, 3, 5, 6])),
)


@st.composite
def small_lps(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    costs = draw(st.lists(rationals, min_size=n, max_size=n))
    rows = draw(
        st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=m, max_size=m)
    )
    rhs = draw(st.lists(rationals, min_size=m, max_size=m))
    return costs, rows, rhs


@settings(max_examples=300)
@given(small_lps())
def test_agrees_with_basis_enumeration(lp):
    costs, rows, rhs = lp
    status, value = brute_force_lp(costs, rows, rhs)
    res = solve_lp(costs, rows, rhs)
    assert res.status == status
    if status == OPTIMAL:
        assert res.value == value
        x = res.solution
        assert all(xj >= 0 for xj in x)
        assert all(_dot(row, x) == beta for row, beta in zip(rows, rhs))
        assert _dot(costs, x) == value
    elif status == INFEASIBLE:
        y = res.certificate
        for j in range(len(costs)):
            assert sum(yi * row[j] for yi, row in zip(y, rows)) <= 0
        assert _dot(y, rhs) > 0


# Bland's rule fixes the pivot sequence, so the number of pivots on a fixed
# input is a property of the input.  These counts were recorded with the
# rational tableau this integer kernel replaced; a change to the kernel that
# alters the pivot order shows here.  The 27-point grid on a box with mixed
# denominators makes many ratio ties, so the leaving-row tie-break matters.
PINNED_POINTS = [
    (F(x, 2), F(y), F(z, 3))
    for x in range(-1, 2)
    for y in range(-1, 2)
    for z in range(-1, 2)
]


@pytest.fixture
def pivot_count(monkeypatch):
    count = [0]
    original = simplex._pivot

    def counting(*args):
        count[0] += 1
        return original(*args)

    monkeypatch.setattr(simplex, "_pivot", counting)
    return count


def test_extreme_points_pivot_count_is_pinned(pivot_count):
    hull = extreme_points(PINNED_POINTS)
    assert len(hull.vertices) == 8
    assert pivot_count[0] == 122


def test_segment_interval_pivot_count_is_pinned(pivot_count):
    hull = extreme_points(PINNED_POINTS)
    pivot_count[0] = 0
    a = (F(0), F(-2), F(0))
    b = (F(0), F(2), F(0))
    assert segment_interval(hull, a, b) == (F(1, 4), F(3, 4))
    assert pivot_count[0] == 24
