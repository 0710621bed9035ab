"""Direct checks of the exact LP solver (statuses, values, certificates).

Besides hand-made cases, a property test compares every answer with a
brute-force oracle that enumerates all bases of small LPs, and another
compares every pivot and answer with a dense tableau (:class:`DenseTableau`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rotaxa.simplex as simplex
from rotaxa import exactgeom, markov
from rotaxa.exactgeom import extreme_points, segment_interval
from rotaxa.markov import BasicPieceModel, graph_from_edges, piece_rotation_set
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


@st.composite
def lps_with_more_columns(draw):
    """A small LP and one to three columns to append to it, each at cost 0."""
    costs, rows, rhs = draw(small_lps())
    more = draw(
        st.lists(
            st.lists(rationals, min_size=len(rows), max_size=len(rows)),
            min_size=1,
            max_size=3,
        )
    )
    return costs, rows, rhs, more


@settings(max_examples=300)
@given(lps_with_more_columns())
def test_resume_agrees_with_a_solve_from_scratch(lp):
    costs, rows, rhs, more = lp
    res = solve_lp(costs, rows, rhs)
    assume(res.status == INFEASIBLE)
    for column in more:
        if res.status != INFEASIBLE:
            break
        res = simplex.resume(res, column)
        costs = [*costs, F(0)]
        rows = [[*row, a] for row, a in zip(rows, column)]
        scratch = solve_lp(costs, rows, rhs)
        assert res.status == scratch.status
        if res.status == OPTIMAL:
            assert res.value == scratch.value
            x = res.solution
            assert all(xj >= 0 for xj in x)
            assert all(_dot(row, x) == beta for row, beta in zip(rows, rhs))
        elif res.status == INFEASIBLE:
            y = res.certificate
            assert all(type(a) is int for a in y)
            for j in range(len(costs)):
                assert sum(yi * row[j] for yi, row in zip(y, rows)) <= 0
            assert _dot(y, rhs) > 0


def test_only_the_latest_infeasible_result_resumes():
    # x = -1 stays infeasible with the column 1 and becomes feasible with -1.
    first = solve_lp([F(0)], [[F(1)]], [F(-1)])
    second = simplex.resume(first, [F(1)])
    assert second.status == INFEASIBLE
    with pytest.raises(ValueError):
        simplex.resume(first, [F(-1)])
    third = simplex.resume(second, [F(-1)])
    assert third.status == OPTIMAL and third.solution == (0, 0, 1)
    with pytest.raises(ValueError):
        simplex.resume(second, [F(-1)])
    with pytest.raises(ValueError):
        simplex.resume(third, [F(-1)])


# Bland's rule fixes the pivot sequence, so the number of pivots on a fixed
# input is a property of the input.  A change to the kernel that alters the
# pivot order shows here: reversing the leaving-row tie-break moves the
# segment count from 18 to 14.  The hull count also depends on which LPs
# extreme_points asks for, and on how many it resumes, skips or starts
# from a witness basis: 31 pivots when every LP started from the artificial
# basis but was resumed, 100 when none was resumed either.  The segment
# count is 18 because its maximizing LP starts phase 2 from the minimizing
# LP's basis; solved from the artificial basis too, it repeated that LP's
# 10 opening pivots (24).  The 27-point grid on a box with mixed
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
    assert pivot_count[0] == 15


def test_hull_lps_build_no_solution_fractions(monkeypatch):
    # A membership LP reads only its status, so its solution is built only
    # when read.
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(simplex, "Fraction", counted)
    hull = extreme_points(PINNED_POINTS)
    assert len(hull.vertices) == 8
    centre = exactgeom.homogeneous((F(0), F(0), F(0)))
    member = exactgeom.hull_membership(exactgeom._columns(hull), centre)
    assert member.member and built == []
    weights = member.lp.solution
    assert len(weights) == 8 and built
    assert sum(weights) == F(1, hull.integer_vertices[0])


def test_segment_interval_pivot_count_is_pinned(pivot_count):
    hull = extreme_points(PINNED_POINTS)
    pivot_count[0] = 0
    a = (F(0), F(-2), F(0))
    b = (F(0), F(2), F(0))
    assert segment_interval(hull, a, b) == (F(1, 4), F(3, 4))
    assert pivot_count[0] == 18


def _prime_factors(n):
    p = 2
    while n > 1:
        if n % p == 0:
            yield p
            while n % p == 0:
                n //= p
        p += 1


coordinates = st.one_of(
    st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=12)
)


@given(st.lists(st.lists(coordinates, min_size=3, max_size=3), max_size=4))
def test_integer_rows_scales_by_the_least_common_denominator(vectors):
    den, rows = simplex.integer_rows(iter(vectors))
    assert den >= 1 and len(rows) == len(vectors)
    for vector, row in zip(vectors, rows):
        assert all(type(value) is int for value in row)
        assert list(row) == [a * den for a in vector]
    # Any smaller scale that clears every denominator would be a proper
    # divisor of den, so it suffices that no den // p does.
    for p in _prime_factors(den):
        assert any(F(a * (den // p)).denominator != 1 for v in vectors for a in v)


@given(
    st.lists(st.lists(coordinates, min_size=3, max_size=3), min_size=1, max_size=4),
    st.data(),
)
def test_homogeneous_rows_in_lowest_terms_match_integer_rows(vectors, data):
    # Each point as its own column [x·d; d], d any positive multiple of the
    # least denominator that clears x.
    columns = []
    for vector in vectors:
        d, (row,) = simplex.integer_rows([vector])
        k = data.draw(st.integers(1, 6))
        columns.append((*(a * k for a in row), d * k))
    den, rows = simplex.homogeneous_rows(columns)
    assert all(den % column[-1] == 0 for column in columns)
    assert [list(row) for row in rows] == [[a * den for a in v] for v in vectors]
    den, rows = simplex.lowest_terms(den, rows)
    assert (den, tuple(rows)) == simplex.integer_rows(vectors)


scales = st.builds(F, st.integers(1, 12), st.integers(1, 12))


def _recorded(call, *args):
    """``call(*args)`` (a solve or a resume) and the ``(row, col)`` of every
    pivot it took."""
    pivots = []
    original = simplex._pivot

    def recording(lp, row, col, column):
        pivots.append((row, col))
        return original(lp, row, col, column)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "_pivot", recording)
        return call(*args), pivots


def _with_ints(values):
    """The same rationals, the integral ones as ``int``."""
    return [int(a) if a.denominator == 1 else a for a in values]


@settings(max_examples=300)
@given(small_lps(), st.data())
def test_column_scaling_keeps_pivots_and_certificates(lp, data):
    # A column scaled by s_j > 0 (its cost too) and a rhs scaled by s_b > 0
    # state the same LP in the variables x_j * s_b / s_j.
    costs, rows, rhs = lp
    n = len(costs)
    column_scales = data.draw(st.lists(scales, min_size=n, max_size=n))
    rhs_scale = data.draw(scales)
    res, pivots = _recorded(solve_lp, costs, rows, rhs)
    scaled = _recorded(
        solve_lp,
        [c * s for c, s in zip(costs, column_scales)],
        [[a * s for a, s in zip(row, column_scales)] for row in rows],
        [b * rhs_scale for b in rhs],
    )
    as_ints = _recorded(
        solve_lp,
        _with_ints(costs), [_with_ints(row) for row in rows], _with_ints(rhs)
    )
    for other, other_pivots in (scaled, as_ints):
        assert other.status == res.status
        assert other_pivots == pivots
        assert other.certificate == res.certificate
    if res.status == OPTIMAL:
        other = scaled[0]
        assert other.value / rhs_scale == res.value
        assert [
            x * s / rhs_scale for x, s in zip(other.solution, column_scales)
        ] == list(res.solution)
        assert (as_ints[0].value, as_ints[0].solution) == (res.value, res.solution)
    elif res.status == INFEASIBLE:
        assert all(type(a) is int for a in res.certificate)
        assert gcd(*res.certificate) == 1


def _dense_primitive(values):
    """``(ints, d, g)``: ``values`` times ``d / g`` is a primitive integer
    vector, ``d`` the lcm of the denominators (``g`` is 1 for a zero
    vector)."""
    d = lcm(*[F(a).denominator for a in values])
    ints = [int(a * d) for a in values]
    g = gcd(*ints) or 1
    return [a // g for a in ints], d, g


class DenseTableau:
    """A dense two-phase tableau simplex: the reference for the solver's
    pivots and answers.

    All ``n + m + 1`` entries of each constraint row, over the structural
    columns, the artificial ones and the rhs, and of the objective row, are
    kept as integers over one denominator and rewritten on every pivot.
    :meth:`resume` inserts the new column's entries, computed from the
    artificial block and the phase 1 duals.
    """

    def __init__(self, costs, rows, rhs):
        n, m = len(costs), len(rows)
        self.costs = list(costs)
        self.columns = [_dense_primitive([row[j] for row in rows]) for j in range(n)]
        int_rhs, self.rhs_d, self.rhs_g = _dense_primitive(rhs)
        self.flips = [-1 if beta < 0 else 1 for beta in int_rhs]
        self.tableau = []
        for i, (beta, flip) in enumerate(zip(int_rhs, self.flips)):
            entries = [flip * ints[i] for ints, _, _ in self.columns]
            entries += [0] * m + [flip * beta]
            entries[n + i] = 1
            self.tableau.append(entries)
        self.obj = [-sum(column) for column in zip(*self.tableau)]
        self.obj[n : n + m] = [0] * m
        self.basis = [n + i for i in range(m)]
        self.den, self.redundant = 1, []
        self._solve()

    def resume(self, column):
        n, m = len(self.columns), len(self.flips)
        ints, d, g = _dense_primitive(column)
        signed = [flip * a for flip, a in zip(self.flips, ints)]
        for entries in self.tableau:
            entries.insert(n, sum(a * s for a, s in zip(entries[n : n + m], signed)))
        self.obj.insert(
            n, -sum((self.den - o) * s for o, s in zip(self.obj[n : n + m], signed))
        )
        self.basis = [var + 1 if var >= n else var for var in self.basis]
        self.columns.append((ints, d, g))
        self.costs.append(0)
        self._solve()

    def _solve(self):
        n = len(self.columns)
        self.pivots, self.certificate = [], None
        self._iterate(self.obj, n)
        if self.obj[-1] < 0:
            y = [f * (self.den - self.obj[n + i]) for i, f in enumerate(self.flips)]
            self.status = INFEASIBLE
            self.certificate = tuple(a // gcd(*y) for a in y)
            return
        self._expel_artificials(n)
        self.status = OPTIMAL
        if any(self.costs):
            for entries in self.tableau:
                del entries[n:-1]
            cost, _, _ = _dense_primitive(
                [c * F(d, g) for c, (_, d, g) in zip(self.costs, self.columns)]
            )
            obj = [c * self.den for c in cost] + [0]
            for var, entries in zip(self.basis, self.tableau):
                obj = [o - cost[var] * a for o, a in zip(obj, entries)]
            self.status = self._iterate(obj, n)

    def _iterate(self, obj, allowed):
        while True:
            enter = next((j for j in range(allowed) if obj[j] < 0), -1)
            if enter < 0:
                return OPTIMAL
            leave = -1
            for i, entries in enumerate(self.tableau):
                if entries[enter] > 0:
                    if leave < 0:
                        leave = i
                        continue
                    best = self.tableau[leave]
                    lhs = entries[-1] * best[enter]
                    rhs = best[-1] * entries[enter]
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[leave]):
                        leave = i
            if leave < 0:
                return UNBOUNDED
            self.pivots.append((leave, enter))
            self._eliminate([*self.tableau, obj], self.tableau[leave], enter)
            self.basis[leave] = enter

    def _eliminate(self, rows, pivot_row, col):
        p, den = pivot_row[col], self.den
        for other in rows:
            if other is not pivot_row:
                factor = other[col]
                other[:] = [(p * a - factor * b) // den for a, b in zip(other, pivot_row)]
        self.den = p

    def _expel_artificials(self, n):
        i = 0
        while i < len(self.tableau):
            entries = self.tableau[i]
            if self.basis[i] < n:
                i += 1
                continue
            col = next((j for j in range(n) if entries[j]), None)
            if col is None:
                self.redundant.append(entries[n:-1])
                del self.tableau[i], self.basis[i]
                continue
            if entries[col] < 0:
                self.den = -self.den
                for other in self.tableau:
                    other[:] = [-a for a in other]
            self._eliminate(self.tableau, entries, col)
            self.basis[i] = col
            i += 1

    def answers(self):
        """What an :class:`LpResult` reports, read off the tableau."""
        if self.status != OPTIMAL:
            return self.status, self.certificate, None, None, None, None
        n = len(self.columns)
        solution = [F(0)] * n
        for var, entries in zip(self.basis, self.tableau):
            _, d, g = self.columns[var]
            solution[var] = F(entries[-1] * d * self.rhs_g, self.den * g * self.rhs_d)
        value = sum(c * x for c, x in zip(self.costs, solution))
        inverse = None
        if not any(self.costs):

            def unflipped(block):
                return tuple(a * flip for a, flip in zip(block, self.flips))

            inverse = (
                tuple(unflipped(entries[n:-1]) for entries in self.tableau),
                tuple(map(unflipped, self.redundant)),
            )
        return self.status, None, tuple(self.basis), inverse, tuple(solution), value


def _answers(res):
    """The fields of ``res`` that :meth:`DenseTableau.answers` gives."""
    return (
        res.status, res.certificate, res.basis, res.basis_inverse, res.solution,
        res.value,
    )


@settings(max_examples=300)
@given(small_lps(), st.booleans(), st.sampled_from([None, 2, -1]), st.data())
def test_pivots_and_answers_match_the_dense_tableau(lp, zero_costs, copy, data):
    # Zero costs stop after phase 1 with the basis inverse to read; a copy
    # of the first row (scaled, perhaps negated) is dropped as redundant.
    # Up to three columns are appended by resume while the LP stays
    # infeasible.
    costs, rows, rhs = lp
    if zero_costs:
        costs = [F(0)] * len(costs)
    if copy is not None:
        rows, rhs = [*rows, [copy * a for a in rows[0]]], [*rhs, copy * rhs[0]]
    dense = DenseTableau(costs, rows, rhs)
    res, pivots = _recorded(solve_lp, costs, rows, rhs)
    assert (_answers(res), pivots) == (dense.answers(), dense.pivots)
    more = data.draw(
        st.lists(st.lists(rationals, min_size=len(rows), max_size=len(rows)), max_size=3)
    )
    for column in more:
        if res.status != INFEASIBLE:
            break
        res, pivots = _recorded(simplex.resume, res, column)
        dense.resume(column)
        assert (_answers(res), pivots) == (dense.answers(), dense.pivots)


# A cycle-mean piece with cycles of many lengths: a 14-node ring with 16
# chords, as in the benchmark's random pieces.  Its 35 hull vertices cost
# 49 LPs, 23 resumes of them and 242 pivots, and Bland's rule fixes all
# three counts (primal and dual: the dual's leaving row taken in row order
# instead of by basic index gives 48, 23 and 259, and its entering column
# taken as the last negative one cycles).  Starting each LP from the
# artificial basis took 49 LPs and 401 pivots; solving each from there,
# with no resume, took 123 LPs and 935 pivots.
MIXED_LENGTH_NODES = {
    "r00": (-2, -2, 2, -3), "r01": (-3, -3, -3, -3), "r02": (-3, 2, -3, -1),
    "r03": (-1, -2, 3, -2), "r04": (2, -2, 1, 2), "r05": (-3, 0, 1, -3),
    "r06": (3, -2, -2, -3), "r07": (-3, -1, 1, 2), "r08": (2, 2, -3, -1),
    "r09": (-1, 0, -3, -1), "r10": (0, 1, 3, 1), "r11": (2, -3, -1, 3),
    "r12": (0, 3, 1, 2), "r13": (-2, 0, -2, -3),
}
MIXED_LENGTH_EDGES = [
    ("r00", "r06"), ("r00", "r09"), ("r00", "r13"), ("r01", "r00"),
    ("r01", "r12"), ("r02", "r05"), ("r03", "r06"), ("r03", "r10"),
    ("r03", "r13"), ("r04", "r02"), ("r04", "r09"), ("r05", "r10"),
    ("r05", "r11"), ("r05", "r13"), ("r06", "r12"), ("r07", "r08"),
    ("r08", "r02"), ("r08", "r04"), ("r09", "r01"), ("r09", "r03"),
    ("r10", "r00"), ("r10", "r07"), ("r11", "r00"), ("r11", "r01"),
    ("r11", "r12"), ("r12", "r05"), ("r12", "r10"), ("r13", "r03"),
    ("r13", "r04"), ("r13", "r09"),
]


@pytest.fixture
def mixed_length_hull(monkeypatch):
    """Build the piece's hull; report its LPs, pivots, conversions through
    ``integer_rows`` and the bit length of every pivot-row entry."""
    piece = BasicPieceModel(
        id="P",
        classification="curved",
        graph=graph_from_edges(MIXED_LENGTH_NODES.items(), MIXED_LENGTH_EDGES),
    )
    counts = {"lps": 0, "resumes": 0, "pivots": 0, "conversions": 0, "row_bits": []}
    solve, pivot, integer_rows = solve_lp, simplex._pivot, simplex.integer_rows

    def counted_solve(*args):
        counts["lps"] += 1
        return solve(*args)

    def counted_resume(*args):
        counts["resumes"] += 1
        return simplex.resume(*args)

    def recording_pivot(lp, row, col, column):
        # The full pivot row: its entry in every structural column, then
        # its block (the artificial columns and the rhs).
        entries = lp.rows[row]
        full = [sum(map(mul, entries, a)) for a, _, _ in lp.columns] + entries
        counts["pivots"] += 1
        counts["row_bits"].extend(abs(a).bit_length() for a in full)
        return pivot(lp, row, col, column)

    def counted_rows(vectors):
        counts["conversions"] += 1
        return integer_rows(vectors)

    monkeypatch.setattr(exactgeom, "solve_lp", counted_solve)
    monkeypatch.setattr(exactgeom, "resume", counted_resume)
    monkeypatch.setattr(simplex, "_pivot", recording_pivot)
    for module in (simplex, exactgeom, markov):
        monkeypatch.setattr(module, "integer_rows", counted_rows)
    hull = piece_rotation_set(piece)
    assert len(hull.vertices) == 35
    return counts


def test_cycle_mean_hull_lp_and_pivot_counts_are_pinned(mixed_length_hull):
    counts = mixed_length_hull
    assert (counts["lps"], counts["resumes"], counts["pivots"]) == (49, 23, 242)


def test_cycle_mean_hull_lps_read_small_integer_columns(mixed_length_hull):
    # One conversion, of the displacements, and none per LP: the cycle
    # means enter the hull as integer sums, and each LP reads the hull's
    # homogeneous integer columns.
    assert mixed_length_hull["conversions"] == 1
    # Each column is its own primitive vector [total; length].  Scaled by
    # the lcm of all cycle lengths instead, the pivot rows reached 78 bits
    # (median 32) on this piece, and 87 bits on the benchmark's pieces.
    assert max(mixed_length_hull["row_bits"]) <= 16


def test_witness_simplex_tests_are_pinned():
    # Witness simplices are tested newest first, and a hit moves to the
    # front; scanned oldest first, the mixed-length piece took 1,456 kernel
    # tests instead of 1,151.  The LPs, and so the pins above, are the same.
    piece = BasicPieceModel(
        id="P",
        classification="curved",
        graph=graph_from_edges(MIXED_LENGTH_NODES.items(), MIXED_LENGTH_EDGES),
    )
    tests = [0]
    contains = exactgeom.SimplexKernel.contains

    def counted(kernel, y):
        tests[0] += 1
        return contains(kernel, y)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactgeom.SimplexKernel, "contains", counted)
        hull = piece_rotation_set(piece)
    assert len(hull.vertices) == 35
    assert tests[0] == 1151


def _rank(rows):
    """Rank over Q by Fraction Gauss-Jordan, independent of the kernels."""
    rows = [[F(a) for a in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@settings(max_examples=300)
@given(small_lps(), st.booleans())
def test_basis_inverse_of_a_feasibility_lp(lp, duplicate):
    # Zero costs, so the LP stops after phase 1; a duplicated row makes
    # phase 1 drop one as redundant.
    _, rows, rhs = lp
    if duplicate:
        rows, rhs = [*rows, [2 * a for a in rows[0]]], [*rhs, 2 * rhs[0]]
    n = len(rows[0])
    res = solve_lp([F(0)] * n, rows, rhs)
    assume(res.status == OPTIMAL)
    inverse, redundant = res.basis_inverse
    columns = [[row[j] for row in rows] for j in range(n)]
    assert len(inverse) == len(res.basis)
    assert len(inverse) + len(redundant) == len(rows)
    assert _rank([*inverse, *redundant]) == len(rows)
    for i, functional in enumerate(inverse):
        assert all(type(a) is int for a in functional)
        for k, var in enumerate(res.basis):
            value = _dot(functional, columns[var])
            assert value > 0 if k == i else value == 0
    for functional in redundant:
        assert all(_dot(functional, column) == 0 for column in columns)
        assert _dot(functional, rhs) == 0


def test_basis_inverse_needs_zero_costs_and_feasibility():
    assert solve_lp([F(1), F(0)], [[F(1), F(1)]], [F(3)]).basis_inverse is None
    assert solve_lp([F(0)], [[F(1)]], [F(-1)]).basis_inverse is None


# Warm starts: an LP that starts from the final basis of an earlier optimal
# LP over a prefix of its columns must answer as a cold one does.
nonnegative = st.builds(F, st.integers(0, 4), st.sampled_from([1, 2, 3]))


@st.composite
def warm_starts(draw):
    """An optimal LP to start from (feasible by construction, its costs
    non-negative), and a second LP over its columns and up to two more,
    with zero costs or costs of its own, and the start's rhs or a new one;
    then up to two columns to resume it with."""
    _, rows, _ = draw(small_lps())
    m, n = len(rows), len(rows[0])
    x = draw(st.lists(nonnegative, min_size=n, max_size=n))
    rhs = [_dot(row, x) for row in rows]
    if draw(st.booleans()):
        rows, rhs = [*rows, [2 * a for a in rows[0]]], [*rhs, 2 * rhs[0]]
        m += 1
    start_costs = draw(
        st.just([F(0)] * n) | st.lists(nonnegative, min_size=n, max_size=n)
    )
    column = st.lists(rationals, min_size=m, max_size=m)
    extra = draw(st.lists(column, max_size=2))
    more = draw(st.lists(column, max_size=2))
    width = n + len(extra)
    costs = draw(
        st.just([F(0)] * width) | st.lists(rationals, min_size=width, max_size=width)
    )
    new_rhs = draw(st.just(rhs) | column)
    full = [[*row, *(c[i] for c in extra)] for i, row in enumerate(rows)]
    return (start_costs, rows, rhs), (costs, full, new_rhs), more


def _assert_answers(res, costs, rows, rhs):
    """``res`` is a valid answer to the LP: a feasible solution of the cold
    solve's value, with a witness basis when the costs are 0, or a Farkas
    certificate."""
    cold = solve_lp(costs, rows, rhs)
    assert res.status == cold.status
    columns = [[row[j] for row in rows] for j in range(len(costs))]
    if res.status == OPTIMAL:
        x = res.solution
        assert all(xj >= 0 for xj in x)
        assert all(_dot(row, x) == beta for row, beta in zip(rows, rhs))
        assert res.value == cold.value == _dot(costs, x)
        if not any(costs):
            inverse, redundant = res.basis_inverse
            for i, functional in enumerate(inverse):
                assert _dot(functional, rhs) >= 0
                for k, var in enumerate(res.basis):
                    value = _dot(functional, columns[var])
                    assert value > 0 if k == i else value == 0
            assert all(_dot(functional, rhs) == 0 for functional in redundant)
    elif res.status == INFEASIBLE:
        y = res.certificate
        assert all(type(a) is int for a in y) and gcd(*y) == 1
        assert all(_dot(y, column) <= 0 for column in columns)
        assert _dot(y, rhs) > 0


@settings(max_examples=300)
@given(warm_starts())
def test_a_warm_lp_agrees_with_a_cold_one(case):
    (start_costs, start_rows, start_rhs), (costs, rows, rhs), more = case
    start = solve_lp(start_costs, start_rows, start_rhs)
    assert start.status == OPTIMAL
    res = solve_lp(costs, rows, rhs, start)
    _assert_answers(res, costs, rows, rhs)
    for column in more:
        if res.status != INFEASIBLE:
            break
        res = simplex.resume(res, column)
        costs = [*costs, F(0)]
        rows = [[*row, a] for row, a in zip(rows, column)]
        _assert_answers(res, costs, rows, rhs)


def test_a_start_that_dropped_a_row_is_not_used(monkeypatch):
    # x + y = 1 twice over: the copy is dropped, so the basis has one row
    # and no room for the column (1, 3), which the LP then needs.
    rows = [[F(1), F(1)], [F(2), F(2)]]
    start = solve_lp([F(0)] * 2, rows, [F(1), F(2)])
    assert start.basis_inverse[1]
    wider = [[*rows[0], F(1)], [*rows[1], F(3)]]
    res, pivots = _recorded(solve_lp, [F(0)] * 3, wider, [F(1), F(3)], start)
    assert res.status == OPTIMAL and res.solution == (0, 0, 1)
    assert pivots == _recorded(solve_lp, [F(0)] * 3, wider, [F(1), F(3)])[1]


def test_a_start_must_be_optimal_over_a_prefix():
    rows = [[F(1), F(1)]]
    start = solve_lp([F(0)] * 2, rows, [F(1)])
    with pytest.raises(ValueError):
        solve_lp([F(0)] * 2, [[F(1), F(2)]], [F(1)], start)
    with pytest.raises(ValueError):
        solve_lp([F(0)], [[F(1)]], [F(1)], start)
    infeasible = solve_lp([F(0)] * 2, rows, [F(-1)])
    with pytest.raises(ValueError):
        solve_lp([F(0)] * 2, rows, [F(1)], infeasible)


def _point_columns(dim):
    """Homogeneous integer columns ``[x·d; d]`` of points of Q^dim, each
    over a denominator of its own."""
    return st.builds(
        lambda xs, d: (*xs, d),
        st.lists(st.integers(-6, 6), min_size=dim, max_size=dim),
        st.integers(1, 4),
    )


@settings(max_examples=200)
@given(st.integers(1, 5), st.data())
def test_a_warm_membership_lp_agrees_with_a_cold_one(dim, data):
    # The start decides a positive combination of some of the points, so it
    # is a witness; the warm LP adds points and decides another one, then
    # resumes with more points while it stays infeasible.
    points = data.draw(st.lists(_point_columns(dim), min_size=1, max_size=dim + 4))
    weights = data.draw(
        st.lists(st.integers(0, 3), min_size=len(points), max_size=len(points))
    )
    weights[0] += 1
    inside = [sum(w * p[i] for w, p in zip(weights, points)) for i in range(dim + 1)]
    start = exactgeom.hull_membership(points, inside).lp
    assert start.status == OPTIMAL
    extra = data.draw(st.lists(_point_columns(dim), max_size=3))
    more = data.draw(st.lists(_point_columns(dim), max_size=3))
    y = data.draw(_point_columns(dim))
    columns = simplex.Columns(map(simplex.primitive, [*points, *extra]))
    lp = exactgeom.hull_membership(columns, y, start).lp
    while True:
        cold = exactgeom.hull_membership([*points, *extra], y)
        assert (lp.status == OPTIMAL) == cold.member
        if lp.status == OPTIMAL:
            kernel = exactgeom._witness_kernel(lp)
            assert kernel.contains(y)
            basic = [[*points, *extra][var] for var in lp.basis]
            assert all(map(kernel.contains, basic))
            break
        assert all(_dot(lp.certificate, p) <= 0 for p in [*points, *extra])
        assert _dot(lp.certificate, y) > 0
        if not more:
            break
        extra.append(more.pop())
        lp = simplex.resume(lp, extra[-1])


def test_warm_lps_go_through_solve_lp_and_pivot(monkeypatch):
    # The hull's warm LPs, and the segment's maximizing LP, are solve_lp
    # calls with a start, and their dual pivots are _pivot calls: the
    # benchmark's tracer counts LPs and pivots by these two names.
    calls, pivots = [], [0]
    solve, pivot = solve_lp, simplex._pivot

    def counted_solve(*args):
        before = pivots[0]
        res = solve(*args)
        calls.append((len(args) > 3 and args[3] is not None, pivots[0] - before))
        return res

    def counted_pivot(*args):
        pivots[0] += 1
        return pivot(*args)

    monkeypatch.setattr(exactgeom, "solve_lp", counted_solve)
    monkeypatch.setattr(simplex, "_pivot", counted_pivot)
    hull = extreme_points(PINNED_POINTS)
    warm = [taken for is_warm, taken in calls if is_warm]
    assert len(warm) > 0 and sum(warm) > 0
    assert pivots[0] == 15
    calls.clear()
    segment_interval(hull, (F(0), F(-2), F(0)), (F(0), F(2), F(0)))
    assert [is_warm for is_warm, _ in calls] == [False, True]
