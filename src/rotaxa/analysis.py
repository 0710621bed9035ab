"""Structural probes on rotation sets.

Four decision procedures: classifying a chain set (contains the origin /
radial segment / inconsistent), checking star-shape of a union about the
origin, probing a union of polytopes for convexity on a rational grid, and
the interior criterion (a full-dimensional block must absorb every other
block for the whole set to be convex).

Convexity of a union of polytopes is co-NP-hard in general, so the probe is
a semi-decision: a ``True`` answer means "no counterexample at this grid
density", while any returned witness is certified by exact LP membership
failures against every member and is therefore never spurious.  Witnesses
are deterministic: the lexicographically least failing probe point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import TYPE_CHECKING, Sequence

from .errors import DimensionMismatchError
from .exactgeom import (
    RationalPolytope,
    Vector,
    _scaled,
    affine_dim,
    contains_point,
    extreme_points,
    midpoint,
    segment_uncovered_gap,
    vector_add,
    vector_scale,
    zero_vector,
)

if TYPE_CHECKING:  # pragma: no cover
    from .conley import Block

CONTAINS_ZERO = "contains_zero"
RADIAL = "radial"
INCONSISTENT = "inconsistent"

CONVEX = "convex"
NOT_APPLICABLE = "not-applicable"
VIOLATION = "violation"

DEFAULT_PROBE_DENSITY = 4


@dataclass(frozen=True)
class ChainClassification:
    kind: str
    direction: Vector | None = None


@dataclass(frozen=True)
class CoverageWitness:
    """A point whose segment from the origin has an uncovered parameter gap."""

    point: Vector
    gap: tuple[Fraction, Fraction]


@dataclass(frozen=True)
class InteriorReport:
    status: str
    container: str | None = None
    detail: str | None = None


def _primitive_direction(v: Vector) -> Vector:
    ints, _ = _scaled(v)
    g = gcd(*ints)
    ints = [value // g for value in ints]
    lead = next(value for value in ints if value)
    if lead < 0:
        ints = [-value for value in ints]
    return tuple(Fraction(value) for value in ints)


def classify_chain(chain_set: RationalPolytope) -> ChainClassification:
    """Sort a chain rotation set into the two admissible shapes.

    Either the set contains the origin, or it must be a radial segment: a
    subset of a line through the origin, missing the origin itself.  Anything
    else is reported as inconsistent (bad model data), never repaired.
    """
    origin = zero_vector(chain_set.dim)
    if contains_point(chain_set, origin):
        return ChainClassification(kind=CONTAINS_ZERO)
    if affine_dim(chain_set) <= 1:
        base = next((v for v in chain_set.vertices if any(v)), None)
        if base is not None:
            direction = _primitive_direction(base)
            if all(_parallel(v, direction) for v in chain_set.vertices):
                return ChainClassification(kind=RADIAL, direction=direction)
    return ChainClassification(kind=INCONSISTENT)


def _parallel(v: Vector, direction: Vector) -> bool:
    # v = t * direction for some rational t; the sets here never contain 0
    # alongside the radial vertices, but t = 0 would be fine regardless.
    lead = next((i for i, c in enumerate(direction) if c), None)
    if lead is None:
        return not any(v)
    t = v[lead] / direction[lead]
    return all(c == t * d for c, d in zip(v, direction))


def star_shape_check(
    union: Sequence[RationalPolytope],
) -> tuple[bool, CoverageWitness | None]:
    """Is the union star-shaped about the origin?

    Sufficiency: members are convex, so covering the segments from the origin
    to every member vertex almost settles it; midpoints of vertex pairs are
    probed as well to guard against unions whose vertex rays are covered
    while interior rays are not.
    """
    if not union:
        raise ValueError("empty union")
    dim = union[0].dim
    if any(p.dim != dim for p in union):
        raise DimensionMismatchError("mixed dimensions in the union")
    candidates: set[Vector] = set()
    for member in union:
        candidates.update(member.vertices)
        for u, v in combinations(member.vertices, 2):
            candidates.add(midpoint(u, v))
    origin = zero_vector(dim)
    for point in sorted(candidates):
        gap = segment_uncovered_gap(origin, point, union)
        if gap is not None:
            return False, CoverageWitness(point=point, gap=gap)
    return True, None


def probe_points(
    hull: RationalPolytope, density: int
) -> list[Vector]:
    """Rational barycentric grid of the hull plus all pairwise vertex midpoints."""
    verts = hull.vertices
    points: set[Vector] = set(verts)
    for u, v in combinations(verts, 2):
        points.add(midpoint(u, v))
    for den in range(1, density + 1):
        for weights in _compositions(den, len(verts)):
            point = zero_vector(hull.dim)
            for w, vertex in zip(weights, verts):
                if w:
                    point = vector_add(point, vector_scale(vertex, Fraction(w, den)))
            points.add(point)
    return sorted(points)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def convexity_probe(
    union: Sequence[RationalPolytope], density: int = DEFAULT_PROBE_DENSITY
) -> tuple[bool, Vector | None]:
    """Semi-decide convexity of a union of polytopes.

    Probes every barycentric grid point (denominator up to ``density``) of
    the hull of the union, plus pairwise vertex midpoints, for membership in
    some member.  ``(False, point)`` certifies non-convexity; ``(True, None)``
    means no counterexample at this density.
    """
    if density < 1:
        raise ValueError("density must be at least 1")
    if not union:
        raise ValueError("empty union")
    hull = extreme_points(
        [v for member in union for v in member.vertices]
    )
    for point in probe_points(hull, density):
        if not any(contains_point(member, point) for member in union):
            return False, point
    return True, None


def interior_check(blocks: Sequence["Block"], genus: int) -> InteriorReport:
    """Interior criterion: a full-dimensional block must contain all others.

    If no block has affine dimension 2g the criterion does not apply.  If one
    does, every other block's vertices must lie inside it; the first stray
    vertex found is reported otherwise.
    """
    full = 2 * genus
    candidates = [b for b in blocks if affine_dim(b.polytope) == full]
    if not candidates:
        return InteriorReport(status=NOT_APPLICABLE)
    first_stray: str | None = None
    for candidate in candidates:
        stray = None
        for other in blocks:
            if other is candidate:
                continue
            for v in other.polytope.vertices:
                if not contains_point(candidate.polytope, v):
                    stray = (
                        f"vertex {tuple(str(c) for c in v)} of block "
                        f"{other.key.label()} outside {candidate.key.label()}"
                    )
                    break
            if stray:
                break
        if stray is None:
            return InteriorReport(status=CONVEX, container=candidate.key.label())
        if first_stray is None:
            first_stray = stray
    return InteriorReport(status=VIOLATION, detail=first_stray)
