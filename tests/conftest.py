"""Shared helpers: independent brute-force oracles and hypothesis settings.

The 2-D membership oracle works by triangle decomposition with exact
sign-of-area tests, so hull and membership answers used as expected values
never depend on the LP path they certify.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import settings

from rotaxa.exactgeom import Vector, as_vector

settings.register_profile("suite", deadline=None, max_examples=40, derandomize=True)
settings.load_profile("suite")


def V(*coords) -> Vector:
    return as_vector(coords)


def zero_vector(dim: int) -> Vector:
    return (Fraction(0),) * dim


def vector_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vector_scale(u: Vector, s) -> Vector:
    return tuple(a * s for a in u)


def vector_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def cross(o: Vector, a: Vector, b: Vector) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def on_segment(x: Vector, a: Vector, b: Vector) -> bool:
    if cross(a, b, x) != 0:
        return False
    return all(
        min(pa, pb) <= px <= max(pa, pb) for px, pa, pb in zip(x, a, b)
    )


def in_triangle(x: Vector, a: Vector, b: Vector, c: Vector) -> bool:
    d1, d2, d3 = cross(x, a, b), cross(x, b, c), cross(x, c, a)
    if d1 == 0 and d2 == 0 and d3 == 0:
        # All four points collinear: fall back to segment tests.
        return on_segment(x, a, b) or on_segment(x, b, c) or on_segment(x, a, c)
    negative = d1 < 0 or d2 < 0 or d3 < 0
    positive = d1 > 0 or d2 > 0 or d3 > 0
    return not (negative and positive)


def brute_membership_2d(points: list[Vector], x: Vector) -> bool:
    """x in conv(points) for planar points, by exhaustive simplex testing."""
    if x in points:
        return True
    for a, b in combinations(points, 2):
        if on_segment(x, a, b):
            return True
    for a, b, c in combinations(points, 3):
        if in_triangle(x, a, b, c):
            return True
    return False


def brute_extreme_2d(points: list[Vector]) -> list[Vector]:
    """Extreme points of a planar set: drop whatever the others absorb."""
    unique = sorted(set(points))
    return sorted(
        p
        for p in unique
        if not brute_membership_2d([q for q in unique if q != p], p)
    )


def full_scan_gap(a: Vector, b: Vector, family) -> tuple[Fraction, Fraction] | None:
    """First uncovered gap of ``[a, b]``, read from every member's interval:
    no member is skipped, however early the segment is covered."""
    from rotaxa.exactgeom import contains_point, segment_interval

    if a == b:
        if any(contains_point(member, a) for member in family):
            return None
        return Fraction(0), Fraction(1)
    hits = [segment_interval(member, a, b) for member in family]
    reach = Fraction(0)
    for lo, hi in sorted(hit for hit in hits if hit is not None):
        if lo > reach:
            return reach, lo
        reach = max(reach, hi)
    return None if reach >= 1 else (reach, Fraction(1))


@pytest.fixture
def triangle():
    from rotaxa.exactgeom import extreme_points

    return extreme_points([V(0, 0), V(1, 0), V(1, 1)])
