"""Simplex kernels: integer rows that answer queries against one simplex.

A point ``x`` is read as its homogeneous integer column ``y = [x·den; den]``
over a positive ``den``.  A :class:`SimplexKernel` decides membership by
sign tests on ``y`` and the part of a segment inside the simplex by one
ratio test, with integer dot products only.

Every rank and span question, and every kernel, goes through one
fraction-free integer Gauss-Jordan elimination (:func:`_eliminate`, after
Bareiss 1968).  :func:`_simplex_kernel` eliminates a simplex on its
**support**: the coordinates that some vertex uses, plus the homogeneous
one.  Each coordinate outside the support is 0 at every vertex, so it is an
implicit hull equation ``y_j = 0``, tested directly and never eliminated.
A chain polytope or block of ``exp_family(k)`` has ``k + 1`` vertices that
use ``k`` of ``4k`` coordinates, so its elimination has ``k + 1`` rows, not
``4k + 1``.  The rows then act on ``y`` projected onto the support, and are
widened to all coordinates only where a caller needs a functional in the
ambient space.  A kernel whose support is every coordinate reads ``y`` as
it is, with no projection: so does every witness kernel read from an LP
basis, whose rows already span the ambient space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class SimplexKernel:
    """Integer rows that answer queries against one simplex.

    Both row sets act on a homogeneous column ``y = [x * den; den]``, read
    on ``support`` (the positions of ``y`` the vertices use, the last of
    them the homogeneous one; ``None`` for every position).  Every
    position in ``outside`` must be 0, and the ``affine`` rows must all
    vanish, exactly when ``x`` lies in the simplex's affine hull; there,
    barycentric row ``i`` gives a positive multiple of ``x``'s ``i``-th
    barycentric coordinate.  So ``x`` is in the simplex iff it is 0 outside
    the support, every ``affine`` row gives 0 and every ``barycentric`` row
    gives a value ``>= 0``.
    """

    barycentric: tuple[tuple[int, ...], ...]
    affine: tuple[tuple[int, ...], ...]
    support: tuple[int, ...] | None = None
    outside: tuple[int, ...] = ()

    def _project(self, y: Sequence[int]) -> Sequence[int]:
        """``y`` read on the support."""
        if self.support is None:
            return y
        return [y[i] for i in self.support]

    def contains(self, y: Sequence[int]) -> bool:
        """Membership of the point whose homogeneous column is ``y``: one
        sign test per position and row, stopping at the first that fails."""
        for j in self.outside:
            if y[j]:
                return False
        if self.support is not None:
            y = [y[i] for i in self.support]
        for row in self.affine:
            if sum(map(mul, row, y)):
                return False
        for row in self.barycentric:
            if sum(map(mul, row, y)) < 0:
                return False
        return True

    def segment_interval(
        self, a: Sequence[int], b: Sequence[int]
    ) -> tuple[Fraction, Fraction] | None:
        """``{t in [0,1] : x + t(z - x) in simplex}`` by one ratio test, for
        the points ``x`` and ``z`` whose homogeneous columns are ``a`` and
        ``b``."""
        if a[-1] != b[-1]:
            a, b = [p * b[-1] for p in a], [q * a[-1] for q in b]
        # Each coordinate outside the support is one more affine row.
        equations = [(a[j], b[j] - a[j]) for j in self.outside]
        a, b = self._project(a), self._project(b)
        step = [q - p for p, q in zip(a, b)]
        equations += [(_dot(row, a), _dot(row, step)) for row in self.affine]
        low, high = _ZERO, _ONE
        for at, slope in equations:
            if slope:
                # The line crosses the hull equation at one parameter only.
                t = Fraction(-at, slope)
                low, high = max(low, t), min(high, t)
            elif at:
                return None
        for row in self.barycentric:
            at, slope = _dot(row, a), _dot(row, step)
            if slope > 0:
                low = max(low, Fraction(-at, slope))
            elif slope < 0:
                high = min(high, Fraction(-at, slope))
            elif at < 0:
                return None
        return (low, high) if low <= high else None

    def separation(self, y: Sequence[int]) -> tuple[tuple[int, ...], int] | None:
        """``None`` when the point whose column is ``y`` lies in the simplex;
        otherwise ``(c, c0)``, integers, with ``c . v <= c0`` at every vertex
        ``v`` and ``c . x > c0``, as :func:`~rotaxa.exactgeom.hull_membership`
        gives it: from the first row ``r = (c, -c0)``, up to sign, with
        ``r . y > 0`` and ``r <= 0`` at every vertex ``[v; 1]``."""
        for j in self.outside:
            if y[j]:
                c = [0] * (len(self.support) + len(self.outside) - 1)
                c[j] = 1 if y[j] > 0 else -1
                return tuple(c), 0
        z = self._project(y)
        for row in self.affine:
            at = _dot(row, z)
            if at:
                row = row if at > 0 else [-a for a in row]
                return self.ambient(row), -row[-1]
        for row in self.barycentric:
            if _dot(row, z) < 0:
                return self.ambient([-a for a in row]), row[-1]
        return None

    def ambient(self, row: Sequence[int]) -> tuple[int, ...]:
        """The functional that ``row`` reads on ``x``, in all coordinates:
        0 outside the support."""
        if self.support is None:
            return tuple(row[:-1])
        c = [0] * (len(self.support) + len(self.outside) - 1)
        for i, a in zip(self.support, row[:-1]):
            c[i] = a
        return tuple(c)


def _dot(row: Sequence[int], y: Sequence[int]) -> int:
    return sum(map(mul, row, y))


def _eliminate(rows: list[list[int]], cols: int) -> list[int]:
    """Integer Gauss-Jordan on the first ``cols`` columns of ``rows``, in place.

    Fraction-free: clearing column ``col`` replaces row ``r`` by
    ``lead * r - factor * top`` and divides out its gcd (an all-zero row
    stays zero), so every entry stays an integer and no row changes its row
    space.  A column with no pivot is skipped.  Returns the pivot columns;
    the ``i``-th of them has its only non-zero entry in row ``i``.
    """
    pivots: list[int] = []
    for col in range(cols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        lead = top[col]
        for r in range(len(rows)):
            factor = rows[r][col]
            if r != rank and factor:
                row = [lead * value - factor * t for value, t in zip(rows[r], top)]
                g = gcd(*row) or 1
                rows[r] = [value // g for value in row]
        pivots.append(col)
    return pivots


def _simplex_kernel(den: int, verts: Sequence[Sequence[int]]) -> SimplexKernel | None:
    """Eliminate ``A = [v_0 ... v_k; 1 ... 1]`` on its support once, or
    ``None`` when the vertices are affinely dependent.

    The rows of ``A`` outside the support are 0; the others, with ``den``
    times the homogeneous row, are ``m + 1`` rows.  Integer Gauss-Jordan on
    ``[den A_S | I]`` gives an invertible ``E`` with ``E A_S = [D; 0]`` for
    a diagonal ``D`` without zeros, provided every column of ``A`` pivots.
    Row ``i < k + 1`` of ``E``, times the sign of ``D[i][i]``, maps
    ``[x; 1]`` on the support to a positive multiple of the ``i``-th
    barycentric coordinate; the other rows, with ``y_j = 0`` outside the
    support, vanish exactly on the column space of ``A``, whose points
    ``[x; 1]`` are those of the affine hull.
    """
    cols = len(verts)
    columns = list(zip(*verts))
    dim = len(columns)
    support = [j for j, column in enumerate(columns) if any(column)]
    size = len(support) + 1
    rows = [[*columns[j], *[0] * size] for j in support]
    rows.append([den] * cols + [0] * size)
    for i, row in enumerate(rows):
        row[cols + i] = 1
    if len(_eliminate(rows, cols)) < cols:
        return None
    functionals = []
    for i, row in enumerate(rows):
        sign = -1 if i < cols and row[i] < 0 else 1
        g = gcd(*row[cols:]) * sign
        functionals.append(tuple([value // g for value in row[cols:]]))
    barycentric, affine = tuple(functionals[:cols]), tuple(functionals[cols:])
    if size == dim + 1:
        return SimplexKernel(barycentric, affine)
    outside = tuple(j for j, column in enumerate(columns) if not any(column))
    return SimplexKernel(barycentric, affine, (*support, dim), outside)
