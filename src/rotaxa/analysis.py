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

The probe grid is built in integers.  Each vertex row of the hull, scaled
to the grid, is packed into one integer as signed digits in a base wide
enough for every grid point, first coordinate most significant, so a grid
point is one integer sum, and integer order is the points' lexicographic
order.  The grid is deduplicated and sorted as those integers, and a point
is decoded to its homogeneous column only when the probe reads it: a probe
that stops at its witness decodes nothing after it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, gcd, lcm
from typing import TYPE_CHECKING, Iterator, Sequence

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
        y = HomogeneousPoint((*ints, den))
        gap = segment_uncovered_gap(origin, y, family)
        if gap is not None:
            return False, CoverageWitness(point=y.vector, gap=gap)
    return True, None


class ProbeGrid(Sequence[HomogeneousPoint]):
    """The points of :func:`probe_points`, held as their sorted packed
    integers; an index or an iteration decodes a point to its column
    ``(*point, common)`` only when it reads it."""

    __slots__ = ("_packed", "_shifts", "_half", "_mask", "_offset", "_common")

    def __init__(self, packed: list[int], shifts: range, half: int, common: int):
        self._packed = packed
        self._shifts = shifts
        # Adding ``half`` to every digit makes each one a plain base-2**width
        # digit in [1, 2 * half), read off by a shift and a mask.
        self._half, self._mask = half, 2 * half - 1
        self._offset = sum(half << shift for shift in shifts)
        self._common = common

    def __len__(self) -> int:
        return len(self._packed)

    def __getitem__(self, index: int) -> HomogeneousPoint:
        return self._decode(self._packed[index])

    def __iter__(self) -> Iterator[HomogeneousPoint]:
        return map(self._decode, self._packed)

    def _decode(self, packed: int) -> HomogeneousPoint:
        half, mask, packed = self._half, self._mask, packed + self._offset
        digits = [((packed >> shift) & mask) - half for shift in self._shifts]
        return HomogeneousPoint((*digits, self._common))


def probe_points(hull: RationalPolytope, density: int) -> ProbeGrid:
    """Rational barycentric grid of the hull plus all pairwise vertex midpoints.

    The grid of denominator 2 is exactly the vertices and the pairwise
    midpoints, so the grids of denominators up to ``top = max(density, 2)``
    are taken; a denominator that divides a larger one up to ``top`` (every
    one up to ``top // 2``) adds no point, so only the others are summed.
    More than :data:`PROBE_CAP` compositions raise :class:`ResourceCapError`
    before any point is built.  Every grid point times ``common``, the
    hull's ``integer_vertices`` denominator times ``grid = lcm(1..top)``, is
    an integer vector ``x``, and ``|x_k| < 2**(width - 1)`` as the point
    lies in the hull.

    A vector ``x`` packs into the one integer
    ``sum x_k 2**(width * (dim - 1 - k))``, its coordinates as signed
    base-``2**width`` digits, the first coordinate most significant.  Packing is linear, so a grid point of
    denominator ``den`` is one integer sum of ``den`` vertex rows, each
    packed times ``grid // den``.  With every digit below ``2**(width - 1)``
    in absolute value, the packing is injective and ordered as the points
    are, lexicographically, so a ``set`` and ``sorted`` on the integers
    deduplicate and sort the points.  The result decodes a point only when
    it is read, so a probe that stops at its witness decodes no later point.
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
    largest = max((abs(c) for row in rows for c in row), default=0)
    width = (largest * grid).bit_length() + 1
    shifts = range(width * (hull.dim - 1), -1, -width)
    packed = [sum(c << shift for c, shift in zip(row, shifts)) for row in rows]
    points: set[int] = set()
    for den in range(top // 2 + 1, top + 1):
        scaled = [p * (grid // den) for p in packed]
        points.update(map(sum, combinations_with_replacement(scaled, den)))
    return ProbeGrid(sorted(points), shifts, 1 << (width - 1), vertex_den * grid)


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
            return False, y.vector
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
            for y in other.polytope.columns:
                if not contains_point(candidate.polytope, y):
                    stray = (
                        f"vertex {tuple(map(str, y.vector))} of block "
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
