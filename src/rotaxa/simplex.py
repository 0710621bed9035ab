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

The tableau holds Python integers only (Edmonds 1967; Bareiss 1968).  The
rows and the right-hand side are first multiplied by one common ``L``, the
lcm of all their denominators.  The rational tableau is then kept as an
integer matrix ``M`` over one positive common denominator ``D``, starting
from ``D = 1``.  A pivot on the entry ``p = M[r][c] > 0`` keeps row ``r``
and replaces every other row by ``(p * M[i] - M[i][c] * M[r]) // D``, with
``p`` as the new ``D``.  Every entry of ``M`` is then a minor of the scaled
input, and Sylvester's identity makes the division exact.

The scaling does not change the pivot sequence.  Multiplying all rows by the
same ``L > 0`` scales each basic row by a positive factor, and the phase 1
reduced costs by ``L``.  So every reduced-cost sign, every ratio of the
ratio test and every tie is the one the rational tableau would see, and
Bland's rule picks the same pivots.  Once phase 1 has moved every basic
variable onto a structural column, the structural part of the tableau
equals the unscaled one, so solutions and optimal values are the same
rationals as well.

When a problem is infeasible we also report a Farkas certificate: a vector
``y`` with ``y . A_j <= 0`` for every column ``j`` and ``y . b > 0``.  The
geometry layer turns that certificate into a separating functional, which is
what makes the convex-hull routines output-sensitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpResult:
    """Outcome of :func:`solve_lp`.

    ``solution`` and ``value`` are set only for status ``"optimal"``;
    ``certificate`` (the Farkas vector described in the module docstring)
    only for status ``"infeasible"``.
    """

    status: str
    value: Fraction | None = None
    solution: tuple[Fraction, ...] | None = None
    certificate: tuple[Fraction, ...] | None = None


def _integers(values, scale: int) -> list[int]:
    """``values`` times ``scale``; every denominator must divide ``scale``."""
    return [a.numerator * (scale // a.denominator) for a in values]


def solve_lp(
    costs: Sequence[Fraction],
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
) -> LpResult:
    """Minimize ``costs . x`` subject to ``rows @ x == rhs`` and ``x >= 0``."""
    n = len(costs)
    m = len(rows)
    if any(len(row) != n for row in rows) or len(rhs) != m:
        raise ValueError("inconsistent LP dimensions")

    # Tableau: m constraint rows over n structural + m artificial columns,
    # with the right-hand side appended as the final entry of each row.
    # Rows are sign-normalized so every rhs is nonnegative; the flips are
    # remembered to unscramble the dual certificate later.
    scale = lcm(
        *{a.denominator for row in rows for a in row},
        *{beta.denominator for beta in rhs},
    )
    flips = []
    tableau = []
    for i, (row, beta) in enumerate(zip(rows, _integers(rhs, scale))):
        entries = _integers(row, scale) + [0] * m + [beta]
        if beta < 0:
            flips.append(-1)
            entries = [-a for a in entries]
        else:
            flips.append(1)
        entries[n + i] = 1
        tableau.append(entries)
    basis = [n + i for i in range(m)]
    den = 1

    # Phase 1: minimize the sum of artificials.  The objective row holds
    # reduced costs, with the negated objective value in the rhs slot.
    obj = [0] * (n + m + 1)
    for entries in tableau:
        obj = [o - a for o, a in zip(obj, entries)]
    obj[n : n + m] = [0] * m

    status, den = _iterate(tableau, obj, basis, n, den)
    if status == UNBOUNDED:  # pragma: no cover - phase 1 is always bounded
        raise AssertionError("phase 1 cannot be unbounded")
    if obj[-1] < 0:
        # Duals from the artificial reduced costs: cbar_{a_i} = 1 - y_i.
        # The artificial columns start as the identity, unscaled, so the
        # scaling leaves these reduced costs as the rational tableau has them.
        y = tuple(flips[i] * Fraction(den - obj[n + i], den) for i in range(m))
        return LpResult(status=INFEASIBLE, certificate=y)

    den = _expel_artificials(tableau, basis, n, den)
    # No artificial column can enter again, so phase 2 drops them.
    for entries in tableau:
        del entries[n:-1]

    # Phase 2 objective row, rebuilt from the true costs scaled to integers.
    cost_scale = lcm(*{c.denominator for c in costs})
    cost_ints = _integers(costs, cost_scale)
    obj = [c * den for c in cost_ints]
    obj.append(0)
    for var, entries in zip(basis, tableau):
        c = cost_ints[var]
        if c:
            obj = [o - c * a for o, a in zip(obj, entries)]
    status, den = _iterate(tableau, obj, basis, n, den)
    if status == UNBOUNDED:
        return LpResult(status=UNBOUNDED)

    solution = [Fraction(0)] * n
    for var, entries in zip(basis, tableau):
        solution[var] = Fraction(entries[-1], den)
    value = Fraction(
        sum(cost_ints[var] * entries[-1] for var, entries in zip(basis, tableau)),
        den * cost_scale,
    )
    return LpResult(status=OPTIMAL, value=value, solution=tuple(solution))


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


def _expel_artificials(tableau, basis, n, den) -> int:
    """Pivot zero-level artificials out of the basis; drop redundant rows.

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
