"""Exact linear programming on an integer-preserving tableau.

A small dense two-phase primal simplex with no floating point anywhere: every
pivot is exact, so feasibility and optimality answers are decisions, not
approximations.

Problems are stated in equality standard form::

    minimize    c . x
    subject to  A x = b,   x >= 0

Bland's smallest-index rule selects both the entering column and (on ratio
ties) the leaving row, which precludes cycling, so the method terminates
unconditionally.  Problem sizes here are tiny (rows = ambient dimension plus
one or two, columns = a few hundred at most), so a dense tableau is the right
tool.

The tableau holds Python integers only (Edmonds 1967; Bareiss 1968).  Each
column of the rows, and the right-hand side, enters it as its own primitive
integer vector: scaled by that column's own denominators, then divided by its
gcd (:func:`_primitive`).  The tableau is then kept as an integer matrix
``M`` over one positive common denominator ``D``, starting from ``D = 1``.
A pivot on the entry ``p = M[r][c] > 0`` keeps row ``r`` and replaces every
other row by ``(p * M[i] - M[i][c] * M[r]) // D``, with ``p`` as the new
``D``.  Every entry of ``M`` is then a minor of the scaled input, and
Sylvester's identity makes the division exact.

The scaling does not change the pivot sequence.  Multiplying column ``j``
by ``s_j > 0`` multiplies its reduced cost by ``s_j`` (phase 1 and phase 2
alike, the costs being read in the scaled variables ``x_j / s_j``), and
scales each basic row by a positive factor; in the ratio test it multiplies
every ratio by the same factor ``s_b / s_j``, where ``s_b > 0`` scales the
right-hand side.  So every reduced-cost sign, every comparison of the ratio
test and every tie is the one the rational tableau would see, and Bland's
rule picks the same pivots.  The phase 1 duals ``y`` do not change either:
they solve ``y . A_j = 0`` on the basic structural columns, which a positive
scaling leaves as it is, and ``y_i = 1`` on the basic artificial columns,
which are never scaled.  Solutions are unscaled exactly, ``x_j = s_j x'_j /
s_b``.  For cycle means this keeps the entries small: a mean is written as
its own column ``[total; length]``, where one common denominator would be
the lcm of every cycle length.

When a problem is infeasible we also report a Farkas certificate: a vector
``y`` with ``y . A_j <= 0`` for every column ``j`` and ``y . b > 0``: the
phase 1 duals, given as the primitive integer vector they are a positive
multiple of.  The geometry layer turns that certificate into a separating
functional, which is what makes the convex-hull routines output-sensitive.

An infeasible LP can take one more column and go on from where its phase 1
ended (:func:`resume`), rather than be solved again from the artificial
basis.  Write the rows sign-flipped so that ``b' >= 0`` (``a'_i = flip_i
a_i``) and let ``B`` be the basis, over those rows, that phase 1 ended in.
Every phase 1 pivot is positive, so ``D = det B > 0`` (it starts at
``det I = 1``, and a pivot on ``p`` makes it ``p``, the determinant of the
new basis), and the tableau is ``D B^-1`` times the flipped, scaled input,
the objective row ``D`` times the reduced costs.  Two facts follow:

* The artificial columns started as the identity, so they now hold
  ``D B^-1``, an integer matrix (the adjugate of ``B``).  The new column's
  entries are that block times ``a'``, for the new primitive column ``a``:
  exact, with no division.
* The phase 1 duals are ``y_i = (D - obj[n+i]) / D``, read off the
  artificial reduced costs ``1 - y_i``.  The new column has cost 0 in
  phase 1, so its objective entry is ``-D y . a' = -sum_i (D - obj[n+i])
  flip_i a_i``.

Both are the entries that the enlarged LP's tableau holds at the basis
``B``, which depends on ``B`` alone and not on the pivots that reached it;
so every later division is exact by the same minor argument, and Bland's
rule goes on from ``B`` as it would on that LP.  If phase 1 ends at a
positive optimum again, every reduced cost ``-y . A'_j`` is ``>= 0``, the
new column's included, and the objective value ``y . b'`` is positive:
``y``, flipped back, is again a Farkas certificate for the enlarged LP.
Otherwise the LP is feasible and goes on to phase 2 as usual.

A feasible LP whose costs are all 0 stops after phase 1 with its
artificial block intact, so its basis inverse is there to read
(:attr:`LpResult.basis_inverse`): row ``i`` of ``D B^-1``, its flips
undone, is positive on the ``i``-th basic column and 0 on the others.  A
row that phase 1 drops as redundant is 0 on every structural column; its
artificial block is kept as it stood, a functional that vanishes on every
column.  The geometry layer reads a witness simplex's barycentric and
affine rows from these, with no elimination of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Sequence
from weakref import ref

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class _Tableau:
    """The working state of one LP: its fraction-free tableau and basis, and
    what it takes to read them back in the caller's variables."""

    __slots__ = (
        "costs", "columns", "rhs_d", "rhs_g", "flips",
        "rows", "obj", "basis", "den", "latest", "redundant",
    )

    def __init__(self, costs, columns, rhs_d, rhs_g, flips, rows, obj, basis):
        self.costs = costs  # the caller's costs
        self.columns = columns  # (ints, d, g) of each structural column
        self.rhs_d, self.rhs_g = rhs_d, rhs_g
        self.flips = flips  # the sign each row was multiplied by
        self.rows = rows
        self.obj = obj
        self.basis = basis
        self.den = 1
        # A weak reference (no cycle) to the infeasible result resume takes.
        self.latest = None
        # The artificial block of each row that phase 1 drops as redundant.
        self.redundant = []


@dataclass(frozen=True)
class LpResult:
    """Outcome of :func:`solve_lp` or :func:`resume`.

    ``certificate`` (the Farkas vector described in the module docstring)
    is set only for status ``"infeasible"``.  For status ``"optimal"``,
    ``basis`` lists the basic columns in row order (structural ones only:
    the artificials are expelled and redundant rows dropped after phase 1),
    and ``solution`` and ``value`` are built from the final tableau when
    first read.
    """

    status: str
    certificate: tuple[int, ...] | None = None
    _lp: _Tableau | None = None

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
        read from its final tableau; ``None`` for any other LP.

        Both are integer functionals on the constraint rows (acting on a
        column ``a`` of the caller's LP, or on its rhs).  ``rows[i]`` is
        positive on the basic column ``basis[i]`` and 0 on every other basic
        column; each row of ``redundant`` is 0 on every column.  They are
        the rows of the artificial block ``D B^-1`` (see the module
        docstring) with the row flips undone, a redundant row as it stood
        when phase 1 dropped it: a non-zero multiple of its row at the end,
        since each later pivot column is 0 in it.  So they are linearly
        independent, ``len(rows) + len(redundant)`` of them, one per
        constraint row.
        """
        if self.status != OPTIMAL or any(self._lp.costs):
            return None
        lp = self._lp
        n, flips = len(lp.columns), lp.flips

        def unflipped(block):
            return tuple(a * flip for a, flip in zip(block, flips))

        return (
            tuple(unflipped(entries[n:-1]) for entries in lp.rows),
            tuple(unflipped(block) for block in lp.redundant),
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
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
) -> LpResult:
    """Minimize ``costs . x`` subject to ``rows @ x == rhs`` and ``x >= 0``.

    Entries may be ints or Fractions.
    """
    n = len(costs)
    m = len(rows)
    if any(len(row) != n for row in rows) or len(rhs) != m:
        raise ValueError("inconsistent LP dimensions")

    # Tableau: m constraint rows over n structural + m artificial columns,
    # with the right-hand side appended as the final entry of each row.
    # Each column, and the rhs, is entered as its own primitive integer
    # vector (see the module docstring).  Rows are sign-normalized so every
    # rhs is nonnegative; the flips are remembered to unscramble the
    # certificate.
    columns = [_primitive([row[j] for row in rows]) for j in range(n)]
    int_rhs, rhs_d, rhs_g = _primitive(rhs)
    flips = []
    tableau = []
    for i, beta in enumerate(int_rhs):
        entries = [ints[i] for ints, _, _ in columns] + [0] * m + [beta]
        if beta < 0:
            flips.append(-1)
            entries = [-a for a in entries]
        else:
            flips.append(1)
        entries[n + i] = 1
        tableau.append(entries)

    # Phase 1: minimize the sum of artificials.  The objective row holds
    # reduced costs, with the negated objective value in the rhs slot.
    obj = [0] * (n + m + 1)
    for entries in tableau:
        obj = [o - a for o, a in zip(obj, entries)]
    obj[n : n + m] = [0] * m

    basis = [n + i for i in range(m)]
    lp = _Tableau(list(costs), columns, rhs_d, rhs_g, flips, tableau, obj, basis)
    return _solve(lp)


def resume(result: LpResult, column: Sequence[Fraction]) -> LpResult:
    """:func:`solve_lp` on the infeasible LP of ``result`` with ``column``
    appended at cost 0, resumed from the basis its phase 1 ended in.

    The new column enters the tableau as the module docstring describes,
    and Bland's rule goes on from there.  ``result`` must be the latest
    result of its LP; its tableau is taken over.
    """
    lp = result._lp
    if lp is None or lp.latest is None or lp.latest() is not result:
        raise ValueError("only the latest infeasible result of an LP resumes")
    lp.latest = None
    n, m = len(lp.columns), len(lp.flips)
    if len(column) != m:
        raise ValueError("inconsistent LP dimensions")
    ints, d, g = _primitive(column)
    signed = [flip * a for flip, a in zip(lp.flips, ints)]
    # The artificial block of each row is a row of den * B^-1.
    for entries in lp.rows:
        entries.insert(n, sum(a * s for a, s in zip(entries[n : n + m], signed)))
    den = lp.den
    lp.obj.insert(
        n, -sum((den - o) * s for o, s in zip(lp.obj[n : n + m], signed))
    )
    lp.basis[:] = [var + 1 if var >= n else var for var in lp.basis]
    lp.columns.append((ints, d, g))
    lp.costs.append(0)
    return _solve(lp)


def _solve(lp: _Tableau) -> LpResult:
    """Phase 1 from the tableau's current basis, then phase 2."""
    n, m = len(lp.columns), len(lp.flips)
    tableau, obj, basis = lp.rows, lp.obj, lp.basis
    status, lp.den = _iterate(tableau, obj, basis, n, lp.den)
    if status == UNBOUNDED:  # pragma: no cover - phase 1 is always bounded
        raise AssertionError("phase 1 cannot be unbounded")
    if obj[-1] < 0:
        # Duals from the artificial reduced costs: cbar_{a_i} = 1 - y_i, so
        # y_i = (den - obj[n + i]) / den, and den > 0 after phase 1.
        y = [lp.flips[i] * (lp.den - obj[n + i]) for i in range(m)]
        g = gcd(*y)
        result = LpResult(INFEASIBLE, tuple(a // g for a in y), lp)
        lp.latest = ref(result)
        return result

    den = _expel_artificials(tableau, basis, n, lp.den, lp.redundant)
    if any(lp.costs):
        # No artificial column can enter again, so phase 2 drops them.
        for entries in tableau:
            del entries[n:-1]
        # Phase 2 objective row: the costs of the scaled variables, times a
        # positive integer.
        cost_ints, _, _ = _primitive(
            [
                c * Fraction(d, g) if c else 0
                for c, (_, d, g) in zip(lp.costs, lp.columns)
            ]
        )
        obj = [c * den for c in cost_ints]
        obj.append(0)
        for var, entries in zip(basis, tableau):
            c = cost_ints[var]
            if c:
                obj = [o - c * a for o, a in zip(obj, entries)]
        status, den = _iterate(tableau, obj, basis, n, den)
        if status == UNBOUNDED:
            return LpResult(UNBOUNDED)
    lp.den = den
    return LpResult(OPTIMAL, _lp=lp)


def _primitive(values: Sequence) -> tuple[list[int], int, int]:
    """``(ints, d, g)``: ``values`` times ``d / g > 0`` is the primitive
    integer vector ``ints``; ``d`` clears every denominator and ``g`` is the
    gcd left after that (1 for a zero vector)."""
    if {type(a) for a in values} <= {int}:
        d, ints = 1, list(values)
    else:
        d = lcm(*[a.denominator for a in values])
        ints = [a.numerator * (d // a.denominator) for a in values]
    g = gcd(*ints) or 1
    if g > 1:
        ints = [a // g for a in ints]
    return ints, d, g


def _iterate(tableau, obj, basis, allowed, den) -> tuple[str, int]:
    """Run simplex pivots until optimal or unbounded.

    Only the first ``allowed`` columns may enter the basis; artificial
    columns are thereby frozen out.  Returns the status and the common
    denominator after the last pivot.
    """
    while True:
        enter = -1
        for j in range(allowed):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return OPTIMAL, den
        # Ratio test by cross-multiplication: rhs_i / coeff_i with
        # coeff_i > 0, all over the same denominator.
        leave = -1
        best_rhs = best_coeff = 0
        for i, entries in enumerate(tableau):
            coeff = entries[enter]
            if coeff > 0:
                lhs = entries[-1] * best_coeff
                rhs = best_rhs * coeff
                if leave < 0 or lhs < rhs or (
                    lhs == rhs and basis[i] < basis[leave]
                ):
                    best_rhs, best_coeff = entries[-1], coeff
                    leave = i
        if leave < 0:
            return UNBOUNDED, den
        den = _pivot(tableau, obj, basis, leave, enter, den)


def _pivot(tableau, obj, basis, row, col, den) -> int:
    """One Bland pivot on a positive entry; returns the new denominator."""
    new_den = _eliminate((*tableau, obj), tableau[row], col, den)
    basis[row] = col
    return new_den


def _eliminate(rows, pivot_row, col, den) -> int:
    """Fraction-free elimination of column ``col`` from every other row.

    Each row ``R`` becomes ``(p * R - R[col] * pivot_row) // den`` for the
    pivot ``p``, which is the new common denominator.  The division is exact
    by Sylvester's identity; ``den`` may be negative.
    """
    p = pivot_row[col]
    for other in rows:
        if other is pivot_row:
            continue
        factor = other[col]
        if factor:
            other[:] = [(p * a - factor * b) // den for a, b in zip(other, pivot_row)]
        elif p != den:
            other[:] = [p * a // den for a in other]
    return p


def _expel_artificials(tableau, basis, n, den, redundant) -> int:
    """Pivot zero-level artificials out of the basis; drop redundant rows.

    The artificial block of each dropped row is appended to ``redundant``.
    Returns the common denominator after the last pivot.
    """
    i = 0
    while i < len(tableau):
        if basis[i] < n:
            i += 1
            continue
        entries = tableau[i]
        col = next((j for j in range(n) if entries[j]), None)
        if col is None:
            # The row is zero on all structural columns: a redundant
            # constraint revealed by phase 1.
            redundant.append(entries[n:-1])
            del tableau[i]
            del basis[i]
            continue
        # Degenerate pivot (rhs is zero), so the pivot may be negative.
        # Negating the matrix and its denominator keeps the new one positive.
        if entries[col] < 0:
            den = -den
            for other in tableau:
                other[:] = [-a for a in other]
        den = _eliminate(tableau, entries, col, den)
        basis[i] = col
        i += 1
    return den
