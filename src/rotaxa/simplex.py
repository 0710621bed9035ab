"""Exact linear programming by a revised, integer-preserving simplex method.

A two-phase simplex method with no floating point anywhere: every pivot is
exact, so feasibility and optimality answers are decisions, not
approximations.  Phase 1 is primal from the artificial basis, or dual from
the basis of an earlier LP (a warm start, below).

Problems are stated in equality standard form::

    minimize    c . x
    subject to  A x = b,   x >= 0

Bland's smallest-index rule selects both the entering column and (on ratio
ties) the leaving row, which precludes cycling, so the method terminates
unconditionally.

Each column of ``A``, and the right-hand side, enters as its own primitive
integer vector: scaled by that column's own denominators, then divided by
its gcd (:func:`primitive`).  The scaling does not change the pivot
sequence.  Multiplying column ``j`` by ``s_j > 0`` multiplies its reduced
cost by ``s_j`` (phase 1 and phase 2 alike, the costs being read in the
scaled variables ``x_j / s_j``), and scales each basic row by a positive
factor; in the ratio test it multiplies every ratio by the same factor
``s_b / s_j``, where ``s_b > 0`` scales the right-hand side.  So every
reduced-cost sign, every comparison of the ratio test and every tie is the
one the rational method would see, and Bland's rule picks the same pivots.
The phase 1 duals ``y`` do not change either: they solve ``y . A_j = 0`` on
the basic structural columns, which a positive scaling leaves as it is, and
``y_i = 1`` on the basic artificial columns, which are never scaled.
Solutions are unscaled exactly, ``x_j = s_j x'_j / s_b``.  For cycle means
this keeps the entries small: a mean is written as its own column
``[total; length]``, where one common denominator would be the lcm of every
cycle length.

The rows are sign-flipped so that ``b' = F b >= 0`` (``F`` the diagonal of
flips), and phase 1 starts from the artificial basis.  Let ``B`` be the
current basis over the flipped, scaled columns.  The LP keeps only the
block ``[D B^-1 F | D B^-1 b']``, one row per basic variable, its objective
row ``-D y F``, with ``-D y . b'`` in the rhs slot, for the current duals
``y``, and the integer ``D > 0`` (Edmonds 1967; Bareiss 1968).  The
tableau ``D B^-1 [A' | I | b']`` is never formed: column ``a`` (primitive,
unflipped) has the entry ``R . a`` in the row ``R`` of the block, and the
reduced cost ``D c + obj . a``.  Bland's rule prices the columns in order
and stops at the first negative one; only that column's entries are
computed.  A pivot on the entry ``p = R_r . a > 0`` keeps row ``r`` and
replaces every other row ``R``, and the objective row, by ``(p R - (R . a)
R_r) // D``, with ``p`` as the new ``D``.  These are the entries a
tableau would hold in the same columns, pivoted the same way: each is a
minor of the scaled input, and Sylvester's identity makes the division
exact.  Every phase 1 pivot is positive, so ``D = det B`` (it starts at
``det I = 1``).  In phase 1 the costs ``c`` are 0 and the artificial ones
1, so ``-D y`` is the artificial reduced costs ``D (1 - y)`` less ``D``;
phase 2 starts from ``-sum_i c_(B_i) R_i`` on its own primitive costs.

When a problem is infeasible we also report a Farkas certificate: a vector
``y`` with ``y . A_j <= 0`` for every column ``j`` and ``y . b > 0``: the
phase 1 duals ``y F``, given as the primitive integer vector that the
negated objective row is a positive multiple of.  The geometry layer turns
that certificate into a separating functional, which is what makes the
convex-hull routines output-sensitive.

An infeasible LP can take one more column and go on from where its phase 1
ended (:func:`resume`), rather than be solved again from the artificial
basis.  The stored state depends on the basis ``B`` alone, not on the
pivots that reached it, and no column is stored in it: the new column is
appended, priced and entered like any other, and Bland's rule goes on from
``B`` as it would on the enlarged LP.  If phase 1 ends at a positive
optimum again, every reduced cost ``-y . A'_j`` is ``>= 0``, the new
column's included, and the objective value ``y . b'`` is positive: ``y F``
is again a Farkas certificate for the enlarged LP.  Otherwise the LP is
feasible and goes on to phase 2 as usual.

An LP can also start warm, from the final basis ``B`` of an earlier
optimal LP over a prefix of its columns that kept every row (``start`` of
:func:`solve_lp`), with any rhs and costs.  The block rows act on
unflipped columns, and so on an unflipped rhs too: each row ``R`` is kept,
with ``R . b`` in its rhs slot for the new primitive rhs ``b``, and the
columns past the prefix are nonbasic.  ``B`` need not be feasible for
``b``, but with the costs read as 0 every basis is dual feasible, so phase
1 is the dual simplex method under Bland's rule: the row with a negative
rhs and the smallest basic index leaves, and the smallest-index column
negative in that row enters.  The row is negated first, so the pivot, and
the new ``D``, are positive, and the objective row is not kept.  Every
reduced cost is 0, so every such column ties in the dual ratio test and
the smallest index breaks the tie: this is Bland's rule on the dual LP,
which cannot cycle (Bland 1977), so phase 1 ends.  Either every rhs entry
is non-negative, a feasible basis, or the leaving row ``R`` is
non-negative on every column: then ``R . b < 0``, so ``y = -R`` has
``y . A_j <= 0`` for every column and ``y . b > 0``, a Farkas certificate
of the usual form.  :func:`resume` appends a column to such an LP and goes
on from ``B`` the same way: the rhs is as it was, so the same row leaves,
and the new column is the only one that can be negative in it.  An LP
that dropped a row as redundant is no start: its basis is too small for a
column outside the span of its own, so phase 1 then starts from the
artificial basis.  Phase 2 goes on from the feasible basis as usual, so an
LP with the rows and rhs of an optimal one, and other costs, starts its
phase 2 where that one ended.

A feasible LP whose costs are all 0 stops after phase 1, cold or warm, so
its basis inverse is there to read (:attr:`LpResult.basis_inverse`): row
``i`` of ``D B^-1 F`` is positive on the ``i``-th basic column and 0 on
the others.  A row that phase 1 drops as redundant is 0 on every structural column; its
block is kept as it stood, a functional that vanishes on every column.  The
geometry layer reads a witness simplex's barycentric and affine rows from
these, with no elimination of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence
from weakref import ref

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class Column(NamedTuple):
    """An LP column as its primitive integer vector: ``ints`` is the column
    times ``d / g``, where ``d`` clears every denominator and ``g`` is the
    gcd left after that (1 for a zero column)."""

    ints: tuple[int, ...]
    d: int
    g: int


class Columns(list):
    """An LP's columns, each a :class:`Column`, given to :func:`solve_lp` in
    place of its rows, so that LPs over the same points share them."""


class _Lp:
    """The working state of one LP: the block and objective row of its
    basis (see the module docstring), and what it takes to read them back
    in the caller's variables."""

    __slots__ = (
        "costs", "columns", "rhs_d", "rhs_g", "rows", "obj", "basis", "den",
        "latest", "redundant",
    )

    def __init__(self, costs, columns, rhs_d, rhs_g, rows, obj, basis):
        self.costs = costs  # the caller's costs
        self.columns = columns  # a Column for each structural column
        self.rhs_d, self.rhs_g = rhs_d, rhs_g
        self.rows = rows
        self.obj = obj  # None on a warm LP, whose phase 1 has no costs
        self.basis = basis
        self.den = 1
        # A weak reference (no cycle) to the infeasible result resume takes.
        self.latest = None
        # The block of each row that phase 1 drops as redundant.
        self.redundant = []


@dataclass(frozen=True)
class LpResult:
    """Outcome of :func:`solve_lp` or :func:`resume`.

    ``certificate`` (the Farkas vector described in the module docstring)
    is set only for status ``"infeasible"``.  For status ``"optimal"``,
    ``basis`` lists the basic columns in row order (structural ones only:
    the artificials are expelled and redundant rows dropped after phase 1),
    and ``solution`` and ``value`` are built from the final block when
    first read.
    """

    status: str
    certificate: tuple[int, ...] | None = None
    _lp: _Lp | None = None

    @property
    def basis(self) -> tuple[int, ...] | None:
        if self.status != OPTIMAL:
            return None
        return tuple(self._lp.basis)

    @property
    def basis_inverse(
        self,
    ) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]] | None:
        """``(rows, redundant)`` of an optimal LP whose costs are all 0,
        read from its final block; ``None`` for any other LP.

        Both are integer functionals on the constraint rows (acting on a
        column ``a`` of the caller's LP, or on its rhs).  ``rows[i]`` is
        positive on the basic column ``basis[i]`` and 0 on every other basic
        column; each row of ``redundant`` is 0 on every column.  They are
        the rows of ``D B^-1 F`` (see the module docstring), a redundant row
        as it stood when phase 1 dropped it: a non-zero multiple of its row
        at the end, since each later pivot column is 0 in it.  So they are
        linearly independent, ``len(rows) + len(redundant)`` of them, one
        per constraint row.
        """
        if self.status != OPTIMAL or any(self._lp.costs):
            return None
        lp = self._lp
        return (
            tuple(tuple(entries[:-1]) for entries in lp.rows),
            tuple(map(tuple, lp.redundant)),
        )

    @cached_property
    def solution(self) -> tuple[Fraction, ...] | None:
        if self.status != OPTIMAL:
            return None
        lp = self._lp
        # Unscale: column j was multiplied by d / g, the rhs by rhs_d / rhs_g.
        solution = [Fraction(0)] * len(lp.columns)
        for var, entries in zip(lp.basis, lp.rows):
            _, d, g = lp.columns[var]
            solution[var] = Fraction(
                entries[-1] * d * lp.rhs_g, lp.den * g * lp.rhs_d
            )
        return tuple(solution)

    @cached_property
    def value(self) -> Fraction | None:
        if self.status != OPTIMAL:
            return None
        costs, solution = self._lp.costs, self.solution
        return sum(
            (costs[j] * solution[j] for j in self._lp.basis if costs[j]), Fraction(0)
        )


def integer_rows(vectors: Iterable) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``(den, rows)`` for rational (or int) vectors: ``rows[i]`` is
    ``vectors[i]`` times ``den``, the least positive integer that clears
    every denominator."""
    vectors = tuple(vectors)
    den = lcm(*{a.denominator for v in vectors for a in v})
    return den, tuple(
        tuple(a.numerator * (den // a.denominator) for a in v) for v in vectors
    )


def homogeneous_rows(columns: Sequence[Sequence[int]]) -> tuple[int, list]:
    """``(den, rows)`` for homogeneous integer columns ``[x·d; d]``, each
    over a positive ``d`` of its own: ``den`` is the lcm of the ``d``, and
    ``rows[i]`` is the point of ``columns[i]`` times ``den``, read with no
    ``Fraction``."""
    den = lcm(*{y[-1] for y in columns})
    return den, [
        y[:-1] if y[-1] == den else tuple(a * (den // y[-1]) for a in y[:-1])
        for y in columns
    ]


def lowest_terms(den: int, rows: Sequence[Sequence[int]]) -> tuple[int, Sequence]:
    """``(den, rows)`` with ``den`` and every entry divided by their gcd:
    the same points over the least denominator that clears them."""
    g = gcd(den, *chain.from_iterable(rows))
    if g == 1:
        return den, rows
    return den // g, [tuple(a // g for a in row) for row in rows]


def solve_lp(
    costs: Sequence[Fraction],
    rows: Sequence[Sequence[Fraction]] | Columns,
    rhs: Sequence[Fraction],
    start: LpResult | None = None,
) -> LpResult:
    """Minimize ``costs . x`` subject to ``rows @ x == rhs`` and ``x >= 0``.

    Entries may be ints or Fractions.  The rows may also be given by their
    columns, already primitive (:class:`Columns`).  ``start``, an optimal
    result over a prefix of the same columns, is the basis phase 1 starts
    from if it kept all its rows (see the module docstring); otherwise
    phase 1 starts from the artificial basis.
    """
    m = len(rhs)
    if isinstance(rows, Columns):
        columns = list(rows)
    else:
        if len(rows) != m or any(len(row) != len(costs) for row in rows):
            raise ValueError("inconsistent LP dimensions")
        columns = [primitive([row[j] for row in rows]) for j in range(len(costs))]
    if len(columns) != len(costs) or any(len(a.ints) != m for a in columns):
        raise ValueError("inconsistent LP dimensions")
    int_rhs, rhs_d, rhs_g = primitive(rhs)
    if start is not None and _warm_start(start, columns, m):
        # The rows of the start's block, with R . b in their rhs slots.
        block = [[*R[:-1], sum(map(mul, R, int_rhs))] for R in start._lp.rows]
        basis = list(start.basis)
        lp = _Lp(list(costs), columns, rhs_d, rhs_g, block, None, basis)
        lp.den = start._lp.den
        return _solve(lp)
    # Phase 1 starts from the artificial basis: the block is F, beside b'.
    # Its objective row is -F (y = 1), with -sum(b') in the rhs slot.
    block = []
    for i, beta in enumerate(int_rhs):
        entries = [0] * m + [abs(beta)]
        entries[i] = -1 if beta < 0 else 1
        block.append(entries)
    obj = [-entries[i] for i, entries in enumerate(block)]
    obj.append(-sum(map(abs, int_rhs)))
    n = len(columns)
    basis = [n + i for i in range(m)]
    return _solve(_Lp(list(costs), columns, rhs_d, rhs_g, block, obj, basis))


def resume(result: LpResult, column: Sequence[Fraction] | Column) -> LpResult:
    """:func:`solve_lp` on the infeasible LP of ``result`` with ``column``
    appended at cost 0, resumed from the basis its phase 1 ended in.

    The column is appended as the module docstring describes, and Bland's
    rule goes on from there.  ``result`` must be the latest result of its
    LP; its state is taken over.
    """
    lp = result._lp
    if lp is None or lp.latest is None or lp.latest() is not result:
        raise ValueError("only the latest infeasible result of an LP resumes")
    lp.latest = None
    if not isinstance(column, Column):
        column = primitive(column)
    if len(column.ints) != len(lp.rows[0]) - 1:
        raise ValueError("inconsistent LP dimensions")
    # The artificial variables stay numbered after the structural ones.
    n = len(lp.columns)
    lp.basis[:] = [var + 1 if var >= n else var for var in lp.basis]
    lp.columns.append(column)
    lp.costs.append(0)
    return _solve(lp)


def _warm_start(start: LpResult, columns: list[Column], m: int) -> bool:
    """Whether ``start`` is a basis to start from: an optimal LP over a
    prefix of ``columns`` that kept all ``m`` rows."""
    old = start._lp
    if start.status != OPTIMAL or columns[: len(old.columns)] != old.columns:
        raise ValueError("a start must be optimal over a prefix of the columns")
    return len(old.basis) == m


def _solve(lp: _Lp) -> LpResult:
    """Phase 1 from the LP's current basis (by the dual method on a warm
    LP), then phase 2."""
    if lp.obj is None:
        blocking = _dual(lp)
        if blocking is not None:
            return _infeasible(lp, [-a for a in blocking[:-1]])
    else:
        if _iterate(lp) == UNBOUNDED:  # pragma: no cover - phase 1 is bounded
            raise AssertionError("phase 1 cannot be unbounded")
        if lp.obj[-1] < 0:
            return _infeasible(lp, [-a for a in lp.obj[:-1]])
        _expel_artificials(lp)
    if any(lp.costs):
        # Phase 2 costs of the scaled variables, times a positive integer.
        scaled = zip(lp.costs, lp.columns)
        cost = primitive(
            [c * Fraction(d, g) if c else 0 for c, (_, d, g) in scaled]
        ).ints
        obj = [0] * (len(lp.columns[0].ints) + 1)
        for var, entries in zip(lp.basis, lp.rows):
            c = cost[var]
            if c:
                obj = [o - c * a for o, a in zip(obj, entries)]
        lp.obj = obj
        if _iterate(lp, cost) == UNBOUNDED:
            return LpResult(UNBOUNDED)
    return LpResult(OPTIMAL, _lp=lp)


def _infeasible(lp: _Lp, y: list[int]) -> LpResult:
    """The resumable result of an infeasible LP whose certificate is a
    positive multiple of ``y``."""
    g = gcd(*y)
    result = LpResult(INFEASIBLE, tuple(a // g for a in y), lp)
    lp.latest = ref(result)
    return result


def primitive(values: Sequence) -> Column:
    """The :class:`Column` of ``values`` (ints or Fractions)."""
    if {type(a) for a in values} <= {int}:
        d, ints = 1, tuple(values)
    else:
        d = lcm(*[a.denominator for a in values])
        ints = tuple(a.numerator * (d // a.denominator) for a in values)
    g = gcd(*ints) or 1
    if g > 1:
        ints = tuple(a // g for a in ints)
    return Column(ints, d, g)


def _iterate(lp: _Lp, cost: Sequence[int] = ()) -> str:
    """Bland pivots until optimal or unbounded.

    ``cost`` holds phase 2's primitive costs; phase 1's are 0.  Only the
    structural columns are priced, so an artificial never enters.
    """
    columns, rows, obj, basis = lp.columns, lp.rows, lp.obj, lp.basis
    while True:
        den, basic = lp.den, set(basis)
        for enter, (a, _, _) in enumerate(columns):
            if enter in basic:
                continue  # its reduced cost is 0
            reduced = sum(map(mul, obj, a))
            if cost:
                reduced += den * cost[enter]
            if reduced < 0:
                break
        else:
            return OPTIMAL
        column = [sum(map(mul, entries, a)) for entries in rows]
        # Ratio test by cross-multiplication: rhs_i / coeff_i with
        # coeff_i > 0, all over the same denominator.
        leave = -1
        best_rhs = best_coeff = 0
        for i, coeff in enumerate(column):
            if coeff > 0:
                rhs = rows[i][-1]
                lhs, right = rhs * best_coeff, best_rhs * coeff
                if leave < 0 or lhs < right or (
                    lhs == right and basis[i] < basis[leave]
                ):
                    best_rhs, best_coeff = rhs, coeff
                    leave = i
        if leave < 0:
            return UNBOUNDED
        column.append(reduced)
        _pivot(lp, leave, enter, column)


def _dual(lp: _Lp) -> list[int] | None:
    """Bland's dual simplex on a warm LP, whose costs read as 0 here: pivots
    until every rhs entry is non-negative (``None``), or until the leaving
    row is non-negative on every column (that row is returned)."""
    columns, rows, basis = lp.columns, lp.rows, lp.basis
    while True:
        negative = [i for i, entries in enumerate(rows) if entries[-1] < 0]
        if not negative:
            return None
        leave = min(negative, key=basis.__getitem__)
        top = rows[leave]
        for enter, (a, _, _) in enumerate(columns):
            if sum(map(mul, top, a)) < 0:
                break
        else:
            return top
        # Negated, the row is positive in the entering column, and so is
        # the new denominator.  The objective row is not eliminated.
        top[:] = [-a for a in top]
        _pivot(lp, leave, enter, [sum(map(mul, entries, a)) for entries in rows])


def _pivot(lp: _Lp, row: int, col: int, column: list[int]) -> None:
    """One Bland pivot: column ``col`` enters the basis at ``row``.

    ``column`` holds its entry in each row of the block, positive at
    ``row``, and then its reduced cost, which a warm LP's dual pivot leaves
    out: its objective row is not kept.
    """
    lp.den = _eliminate([*lp.rows, lp.obj], column, row, lp.den)
    lp.basis[row] = col


def _eliminate(rows, column, row, den) -> int:
    """Fraction-free elimination of the entering column from every row but
    ``row``, where ``column[i]`` is its entry in ``rows[i]``.

    Each other row ``R`` becomes ``(p * R - column[i] * rows[row]) // den``
    for the pivot ``p = column[row]``, which is the new common denominator.
    The division is exact by Sylvester's identity; ``den`` may be negative.
    """
    p, top = column[row], rows[row]
    for other, factor in zip(rows, column):
        if other is top:
            continue
        if factor:
            other[:] = [(p * a - factor * b) // den for a, b in zip(other, top)]
        elif p != den:
            other[:] = [p * a // den for a in other]
    return p


def _expel_artificials(lp: _Lp) -> None:
    """Pivot zero-level artificials out of the basis; drop redundant rows,
    keeping the block of each in ``lp.redundant``."""
    rows, basis, columns = lp.rows, lp.basis, lp.columns
    i = 0
    while i < len(rows):
        if basis[i] < len(columns):
            i += 1
            continue
        entries = rows[i]
        for col, (a, _, _) in enumerate(columns):
            if sum(map(mul, entries, a)):
                break
        else:
            # The row is zero on all structural columns: a redundant
            # constraint revealed by phase 1.
            lp.redundant.append(entries[:-1])
            del rows[i]
            del basis[i]
            continue
        column = [sum(map(mul, other, a)) for other in rows]
        # Degenerate pivot (rhs is zero), so the pivot may be negative.
        # Negating the block and its denominator keeps the new one positive.
        if column[i] < 0:
            lp.den = -lp.den
            for other in rows:
                other[:] = [-a for a in other]
            column = [-a for a in column]
        lp.den = _eliminate(rows, column, i, lp.den)
        basis[i] = col
        i += 1
