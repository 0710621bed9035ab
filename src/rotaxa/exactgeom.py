"""Exact rational convex geometry in homology coordinates.

Vectors are plain tuples of ``fractions.Fraction`` (a class in the first
homology of a genus-``g`` surface is a point of Q^{2g}).  Polytopes are kept
in V-representation only: a canonical, lexicographically sorted tuple of
irredundant vertices, so structural equality of two polytopes is the same
thing as geometric equality.  All decision procedures (membership, extreme
points, segment coverage, span containment) reduce to exact rational linear
programs or exact rank computations; no tolerances exist anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatchError
from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_vector(values: Iterable[int | str | Fraction]) -> Vector:
    """Build an exact vector from ints, ``"p/q"`` strings or Fractions."""
    return tuple(Fraction(v) for v in values)


def zero_vector(dim: int) -> Vector:
    return (_ZERO,) * dim


def vector_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vector_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vector_scale(u: Vector, s: Fraction | int) -> Vector:
    return tuple(a * s for a in u)


def midpoint(u: Vector, v: Vector) -> Vector:
    half = Fraction(1, 2)
    return tuple((a + b) * half for a, b in zip(u, v))


def format_rational(q: Fraction) -> str:
    """Render as ``"p/q"`` with positive denominator, or ``"n"`` for integers."""
    return str(q)


def parse_rational(text: str | int) -> Fraction:
    if isinstance(text, bool) or isinstance(text, float):
        raise ValueError(f"rational expected, got {text!r}")
    return Fraction(text)


def format_vector(v: Vector) -> list[str]:
    return [format_rational(c) for c in v]


@dataclass(frozen=True)
class RationalPolytope:
    """Convex hull of finitely many rational points, in canonical form.

    ``vertices`` is lexicographically sorted and irredundant: no vertex lies
    in the hull of the others.  Instances should be produced through
    :func:`extreme_points`, which establishes both properties.  A single
    point (including the origin alone) is a valid polytope of dimension 0.
    """

    dim: int
    vertices: tuple[Vector, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ValueError("a polytope needs at least one vertex")
        for v in self.vertices:
            if len(v) != self.dim:
                raise DimensionMismatchError(
                    f"vertex of length {len(v)} in ambient dimension {self.dim}"
                )


@dataclass(frozen=True)
class SubspaceBasis:
    """A (possibly empty) list of spanning vectors for a rational subspace."""

    basis: tuple[Vector, ...]

    @property
    def rank(self) -> int:
        return rank_of(self.basis)


def _check_uniform(points: Sequence[Vector]) -> int:
    dim = len(points[0])
    for p in points:
        if len(p) != dim:
            raise DimensionMismatchError(
                f"mixed vector lengths {len(p)} and {dim} in one point set"
            )
    return dim


def _scaled(p: Vector) -> tuple[tuple[int, ...], int]:
    """Integer numerators and a common positive denominator for ``p``."""
    den = lcm(*(c.denominator for c in p))
    return tuple(c.numerator * (den // c.denominator) for c in p), den


def _functional_values(c_nums, points_scaled):
    """Exact ``c . p`` comparisons via cross-multiplication, no Fractions."""
    for nums, den in points_scaled:
        yield sum(ci * ni for ci, ni in zip(c_nums, nums)), den


def _scaled_value(c_nums, point_scaled):
    nums, den = point_scaled
    return sum(ci * ni for ci, ni in zip(c_nums, nums)), den


def hull_membership(
    points: Sequence[Vector], x: Vector
) -> tuple[bool, tuple[Vector, Fraction] | None]:
    """Decide ``x in conv(points)`` exactly.

    Returns ``(True, None)`` on membership.  On failure returns
    ``(False, (c, c0))`` where the functional satisfies ``c . p <= c0`` for
    every hull point and ``c . x > c0`` — an LP-certified separation.
    """
    dim = _check_uniform(list(points) + [x])
    rows = [[p[k] for p in points] for k in range(dim)]
    rows.append([_ONE] * len(points))
    rhs = list(x) + [_ONE]
    costs = [_ZERO] * len(points)
    res = solve_lp(costs, rows, rhs)
    if res.status == OPTIMAL:
        return True, None
    y = res.certificate
    assert y is not None
    return False, (tuple(y[:dim]), -y[dim])


def contains_point(polytope: RationalPolytope, x: Vector) -> bool:
    """Exact membership of ``x`` in the polytope (feasibility LP)."""
    if len(x) != polytope.dim:
        raise DimensionMismatchError(
            f"point of length {len(x)} against polytope of dimension {polytope.dim}"
        )
    return hull_membership(polytope.vertices, x)[0]


def extreme_points(points: Iterable[Vector]) -> RationalPolytope:
    """Irredundant vertex set of the convex hull of ``points``.

    Certificate-driven: each candidate is first tested against a small inner
    approximation of the hull; when that test fails, the LP's separating
    functional either certifies the candidate as extreme outright or
    discovers a new hull point to grow the approximation.  Every verdict is
    therefore backed by an exact LP, and the routine is idempotent.
    """
    pts = sorted(set(points))
    if not pts:
        raise ValueError("extreme_points of an empty point set")
    dim = _check_uniform(pts)
    if len(pts) == 1:
        return RationalPolytope(dim, (pts[0],))
    scaled = [_scaled(p) for p in pts]

    inner: list[int] = [0, len(pts) - 1]  # lexicographic extremes are vertices
    inner_set = set(inner)
    is_vertex = [False] * len(pts)
    decided = [False] * len(pts)
    is_vertex[0] = is_vertex[-1] = True
    decided[0] = decided[-1] = True

    for idx, p in enumerate(pts):
        if decided[idx]:
            continue
        while True:
            support = [pts[i] for i in inner if i != idx]
            member, certificate = hull_membership(support, p)
            if member:
                break
            c, _ = certificate  # type: ignore[misc]
            c_nums, _ = _scaled(c)
            # Scan for the functional's maximizer among all other points.
            best_i = -1
            best_num = 0
            best_den = 1
            for i, (num, den) in enumerate(_functional_values(c_nums, scaled)):
                if i == idx:
                    continue
                if best_i < 0 or num * best_den > best_num * den or (
                    num * best_den == best_num * den and pts[i] > pts[best_i]
                ):
                    best_i, best_num, best_den = i, num, den
            p_num, p_den = _scaled_value(c_nums, scaled[idx])
            if best_num * p_den < p_num * best_den:
                # The whole point set sits strictly below p on c: extreme.
                is_vertex[idx] = True
                break
            if best_i in inner_set and best_i != idx:  # pragma: no cover
                raise AssertionError("separation certificate violated")
            inner.append(best_i)
            inner_set.add(best_i)
        decided[idx] = True

    vertices = tuple(pts[i] for i in range(len(pts)) if is_vertex[i])
    return RationalPolytope(dim, vertices)


def affine_dim(polytope: RationalPolytope) -> int:
    """Dimension of the affine hull; 0 for a single point."""
    origin = polytope.vertices[0]
    return rank_of([vector_sub(v, origin) for v in polytope.vertices[1:]])


def rank_of(vectors: Iterable[Vector]) -> int:
    """Rank over Q by exact Gaussian elimination."""
    rows = [list(v) for v in vectors]
    if not rows:
        return 0
    width = len(rows[0])
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col]
            if factor:
                ratio = factor / lead
                row = rows[r]
                top = rows[rank]
                for j in range(col, width):
                    if top[j]:
                        row[j] -= ratio * top[j]
        rank += 1
        if rank == len(rows):
            break
    return rank


def in_span(subspace: SubspaceBasis, polytope: RationalPolytope) -> bool:
    """True iff every vertex lies in the rational span of the basis."""
    if subspace.basis and len(subspace.basis[0]) != polytope.dim:
        raise DimensionMismatchError(
            f"basis of length {len(subspace.basis[0])} against dimension {polytope.dim}"
        )
    base_rank = rank_of(subspace.basis)
    for v in polytope.vertices:
        if rank_of(list(subspace.basis) + [v]) != base_rank:
            return False
    return True


def segment_interval(
    polytope: RationalPolytope, a: Vector, b: Vector
) -> tuple[Fraction, Fraction] | None:
    """The exact parameter set ``{t in [0,1] : a + t(b-a) in P}``.

    The set is a closed rational interval or empty; the endpoints come from
    one minimizing and one maximizing LP over the joint (weights, t) system.
    """
    if len(a) != polytope.dim or len(b) != polytope.dim:
        raise DimensionMismatchError("segment endpoints do not match the polytope")
    verts = polytope.vertices
    n = len(verts)
    direction = vector_sub(b, a)
    # Columns: n hull weights, then t, then the slack for t <= 1.
    rows = []
    for k in range(polytope.dim):
        rows.append([v[k] for v in verts] + [-direction[k], _ZERO])
    rows.append([_ONE] * n + [_ZERO, _ZERO])
    rows.append([_ZERO] * n + [_ONE, _ONE])
    rhs = list(a) + [_ONE, _ONE]

    cost_low = [_ZERO] * n + [_ONE, _ZERO]
    low = solve_lp(cost_low, rows, rhs)
    if low.status == INFEASIBLE:
        return None
    cost_high = [_ZERO] * n + [-_ONE, _ZERO]
    high = solve_lp(cost_high, rows, rhs)
    assert low.status == OPTIMAL and high.status == OPTIMAL
    assert low.value is not None and high.value is not None
    return low.value, -high.value


def segment_uncovered_gap(
    a: Vector, b: Vector, family: Sequence[RationalPolytope]
) -> tuple[Fraction, Fraction] | None:
    """First gap of ``[a, b]`` against the union of the family, if any.

    Returns ``None`` when the segment is covered.  Otherwise returns
    parameters ``(lo, hi)`` with ``lo < hi`` such that no point strictly
    between them is covered (and ``lo`` itself is uncovered when it is 0).
    """
    dim = len(a)
    if len(b) != dim or any(p.dim != dim for p in family):
        raise DimensionMismatchError("segment and family dimensions differ")
    if a == b:
        for member in family:
            if contains_point(member, a):
                return None
        return _ZERO, _ONE
    intervals = []
    for member in family:
        hit = segment_interval(member, a, b)
        if hit is not None:
            intervals.append(hit)
    intervals.sort()
    reach = _ZERO
    for lo, hi in intervals:
        if lo > reach:
            return reach, lo
        if hi > reach:
            reach = hi
        if reach >= 1:
            return None
    if reach >= 1:
        return None
    return reach, _ONE


def segment_covered(
    a: Vector, b: Vector, family: Sequence[RationalPolytope]
) -> bool:
    """True iff the closed segment ``[a, b]`` lies in the union of the family."""
    return segment_uncovered_gap(a, b, family) is None
