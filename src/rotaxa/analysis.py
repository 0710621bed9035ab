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
from math import comb, gcd, lcm
from typing import TYPE_CHECKING, Sequence

from .errors import DimensionMismatchError, ResourceCapError
from .exactgeom import (
    HomogeneousPoint,
    RationalPolytope,
    Vector,
    affine_dim,
    contains_point,
    hull_of_union,
    origin_column,
    segment_uncovered_gap,
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

# Barycentric compositions past which probe_points raises ResourceCapError.
# The 11-vertex union hull of exp_family(5) has 1,364 at the default
# density and 75,581, seconds of work and over 100 MiB, at density 8.
PROBE_CAP = 20_000


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


def _primitive_direction(ints: tuple[int, ...]) -> Vector:
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
    if chain_set.holds_origin:
        return ChainClassification(kind=CONTAINS_ZERO)
    # Vertices with one primitive direction lie on one line through the
    # origin; the hull misses the origin, so they are all on one side of it.
    directions = {_primitive_direction(row) for row in chain_set.integer_vertices[1]}
    if len(directions) == 1:
        return ChainClassification(kind=RADIAL, direction=directions.pop())
    return ChainClassification(kind=INCONSISTENT)


def star_shape_check(
    union: Sequence[RationalPolytope],
) -> tuple[bool, CoverageWitness | None]:
    """Is the union star-shaped about the origin?

    Sufficiency: members are convex, so covering the segments from the origin
    to every member vertex almost settles it; midpoints of vertex pairs are
    probed as well to guard against unions whose vertex rays are covered
    while interior rays are not.

    The candidates are built as integer vectors over one denominator, twice
    the lcm of the members' ``integer_vertices`` denominators, so each
    midpoint is exact; they are tested in that integer order, which is the
    order of the points, and handed to the segment test as
    :class:`~rotaxa.exactgeom.HomogeneousPoint` columns, so only a witness
    is built as a ``Fraction`` vector.  Each candidate's segment is tested
    against the member that produced it first: that member holds the
    candidate, so when it also holds the origin, its interval alone covers
    the segment.
    """
    if not union:
        raise ValueError("empty union")
    dim = union[0].dim
    if any(p.dim != dim for p in union):
        raise DimensionMismatchError("mixed dimensions in the union")
    members = list(union)
    den = 2 * lcm(*(member.integer_vertices[0] for member in members))
    # Candidate -> index of the first member that produced it.
    source: dict[tuple[int, ...], int] = {}
    for index, member in enumerate(members):
        member_den, rows = member.integer_vertices
        scale = den // member_den
        verts = [tuple(c * scale for c in row) for row in rows]
        for v in verts:
            source.setdefault(v, index)
        for u, v in combinations(verts, 2):
            source.setdefault(tuple((a + b) // 2 for a, b in zip(u, v)), index)
    origin = origin_column(dim)
    for ints in sorted(source):
        index = source[ints]
        family = [members[index], *members[:index], *members[index + 1 :]]
        gap = segment_uncovered_gap(origin, HomogeneousPoint((*ints, den)), family)
        if gap is not None:
            point = tuple(Fraction(c, den) for c in ints)
            return False, CoverageWitness(point=point, gap=gap)
    return True, None


def probe_points(hull: RationalPolytope, density: int) -> list[HomogeneousPoint]:
    """Rational barycentric grid of the hull plus all pairwise vertex midpoints.

    The grid of denominator 2 is exactly the vertices and the pairwise
    midpoints, so the grids of denominators up to ``max(density, 2)`` are
    taken.  More than :data:`PROBE_CAP` compositions raise
    :class:`ResourceCapError` before any point is built.  Every grid point
    times ``common``, the hull's ``integer_vertices`` denominator times
    each grid denominator, is an integer vector; the points are summed as
    those, one running total carried down the weights, then deduplicated
    and sorted, and each is returned as its column ``(*point, common)``.
    """
    top = max(density, 2)
    vertex_den, rows = hull.integer_vertices
    parts = len(rows)
    # Compositions of 1..top into ``parts`` parts: sum over den of
    # C(den + parts - 1, parts - 1), which telescopes to C(top + parts, parts) - 1.
    count = comb(top + parts, parts) - 1
    if count > PROBE_CAP:
        raise ResourceCapError(
            f"probe_points: more than {PROBE_CAP} grid compositions "
            f"({count} at density {top} on {parts} vertices)"
        )
    grid = lcm(*range(1, top + 1))
    common = vertex_den * grid
    verts = [tuple(c * grid for c in row) for row in rows]
    points: set[tuple[int, ...]] = set()
    for den in range(1, top + 1):
        _add_grid(points, verts, 0, (0,) * hull.dim, den, den)
    return [HomogeneousPoint((*point, common)) for point in sorted(points)]


def _add_grid(
    points: set[tuple[int, ...]],
    verts: list[tuple[int, ...]],
    index: int,
    total: Sequence[int],
    remaining: int,
    den: int,
) -> None:
    """Add ``(total + sum w_i verts[i]) // den`` to ``points`` for every
    choice of weights ``w_i >= 0`` on ``verts[index:]`` summing to
    ``remaining``; ``total`` grows by one vertex per step of the loop."""
    vertex = verts[index]
    if index == len(verts) - 1:
        points.add(tuple((t + remaining * c) // den for t, c in zip(total, vertex)))
        return
    for _ in range(remaining):
        _add_grid(points, verts, index + 1, total, remaining, den)
        total = [t + c for t, c in zip(total, vertex)]
        remaining -= 1
    points.add(tuple(t // den for t in total))


def convexity_probe(
    union: Sequence[RationalPolytope], density: int = DEFAULT_PROBE_DENSITY
) -> tuple[bool, Vector | None]:
    """Semi-decide convexity of a union of polytopes.

    Probes every barycentric grid point (denominator up to ``density``) of
    the hull of the union, plus pairwise vertex midpoints, for membership in
    some member.  ``(False, point)`` certifies non-convexity; ``(True, None)``
    means no counterexample at this density.  Only a witness is built as a
    ``Fraction`` vector.
    """
    if density < 1:
        raise ValueError("density must be at least 1")
    if not union:
        raise ValueError("empty union")
    hull = hull_of_union(union)
    for y in probe_points(hull, density):
        if not any(contains_point(member, y) for member in union):
            return False, tuple(Fraction(a, y[-1]) for a in y[:-1])
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
            den, rows = other.polytope.integer_vertices
            for row in rows:
                y = HomogeneousPoint((*row, den))
                if not contains_point(candidate.polytope, y):
                    vertex = tuple(str(Fraction(c, den)) for c in row)
                    stray = (
                        f"vertex {vertex} of block "
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
