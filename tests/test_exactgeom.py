"""Geometry kernel: examples with independent oracles, then property tests."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    V,
    brute_extreme_2d,
    brute_membership_2d,
    full_scan_gap,
    vector_add,
    vector_scale,
    vector_sub,
)
from rotaxa import exactgeom, heteroclinic, kernel, markov, simplex
from rotaxa.conley import coned, support_span
from rotaxa.engine import compute, run_checks
from rotaxa.errors import DimensionMismatchError
from rotaxa.exactgeom import (
    HomogeneousPoint,
    RationalPolytope,
    SubspaceBasis,
    _segment_interval_lp,
    affine_dim,
    as_vector,
    contains_point,
    extreme_points,
    homogeneous,
    hull_membership,
    hull_of_union,
    in_span,
    rank_of,
    segment_covered,
    segment_interval,
    segment_uncovered_gap,
    vertex_outside_span,
)
from rotaxa.fixtures import exp_family, genus2_full
from rotaxa.kernel import SimplexKernel, _eliminate, _simplex_kernel

rationals = st.fractions(
    min_value=-9, max_value=9, max_denominator=9
)


def vectors(dim: int):
    return st.tuples(*([rationals] * dim))


class TestExtremePoints:
    def test_midpoint_dropped(self):
        poly = extreme_points([V(0, 0), V(1, 0), V(1, 1), V("1/2", "1/2")])
        assert poly.vertices == (V(0, 0), V(1, 0), V(1, 1))

    def test_singleton(self):
        poly = extreme_points([V(3, -1)])
        assert poly.vertices == (V(3, -1),)
        assert affine_dim(poly) == 0

    def test_unit_square_against_brute_force(self):
        points = [V(0, 0), V(1, 0), V(0, 1), V(1, 1), V("1/2", "1/2")]
        expected = brute_extreme_2d(points)
        assert expected == [V(0, 0), V(0, 1), V(1, 0), V(1, 1)]
        assert list(extreme_points(points).vertices) == expected

    def test_matches_brute_force_on_random_planar_sets(self):
        rng = random.Random(424241)
        for _ in range(60):
            points = [
                V(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                  Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                for _ in range(rng.randint(1, 9))
            ]
            assert list(extreme_points(points).vertices) == brute_extreme_2d(points)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            extreme_points([])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            extreme_points([V(0, 0), V(0, 0, 0)])

    @given(st.lists(vectors(3), min_size=1, max_size=7))
    def test_idempotent(self, points):
        first = extreme_points([as_vector(p) for p in points])
        again = extreme_points(first.vertices)
        assert again == first

    @given(st.lists(vectors(2), min_size=1, max_size=6), st.integers(1, 5))
    def test_hull_scales_with_input(self, points, factor):
        base = extreme_points([as_vector(p) for p in points])
        scaled = extreme_points(
            [vector_scale(as_vector(p), factor) for p in points]
        )
        assert scaled.vertices == tuple(
            vector_scale(v, factor) for v in base.vertices
        )


@st.composite
def sheared_grid_sets(draw):
    """Points of a sheared integer grid in dimension 2 to 4, with mixed
    per-axis denominators.  An axis of extent 1 makes the set lower
    dimensional (collinear when only one axis is left); points are drawn with
    replacement, so duplicates occur."""
    dim = draw(st.integers(2, 4))
    sizes = [draw(st.integers(1, 3)) for _ in range(dim)]
    grid = list(product(*(range(size) for size in sizes)))
    shear = [
        [1 if i == j else draw(st.integers(-2, 2)) if j < i else 0 for j in range(dim)]
        for i in range(dim)
    ]
    dens = [draw(st.integers(1, 3)) for _ in range(dim)]
    whole = st.just(grid) if len(grid) <= 18 else st.nothing()
    chosen = draw(whole | st.lists(st.sampled_from(grid), min_size=1, max_size=12))
    return [
        tuple(Fraction(sum(a * g for a, g in zip(row, point)), den)
              for row, den in zip(shear, dens))
        for point in chosen
    ]


def brute_vertices(points):
    """A point is a vertex exactly when it lies outside the hull of the
    other points."""
    unique = sorted(set(points))
    return tuple(
        p
        for p in unique
        if len(unique) == 1
        or not hull_membership(
            [homogeneous(q) for q in unique if q != p], homogeneous(p)
        )[0]
    )


@st.composite
def crowded_sets(draw):
    """Points in dimension 2 to 4: a few integer corners and many convex
    combinations of them (interior points, and points on the segments and
    faces between corners, so collinear and coplanar subsets), then repeats,
    in any order.  Sometimes the whole set is mapped into a hyperplane, so
    that it is lower dimensional."""
    dim = draw(st.integers(2, 4))
    small = st.integers(-3, 3)
    corners = draw(st.lists(st.tuples(*[small] * dim), min_size=2, max_size=dim + 3))
    points = [tuple(map(Fraction, corner)) for corner in corners]
    for _ in range(draw(st.integers(4, 18))):
        chosen = draw(st.lists(st.sampled_from(corners), min_size=1, max_size=4))
        weights = [draw(st.integers(1, 3)) for _ in chosen]
        total = sum(weights)
        points.append(tuple(
            Fraction(sum(w * corner[k] for w, corner in zip(weights, chosen)), total)
            for k in range(dim)
        ))
    points += draw(st.lists(st.sampled_from(points), max_size=4))
    if draw(st.booleans()):
        coefficients = [draw(small) for _ in range(dim - 1)]
        points = [
            (*p[:-1], sum(a * b for a, b in zip(coefficients, p[:-1])))
            for p in points
        ]
    return draw(st.permutations(points))


class TestExtremePointsOracle:
    @settings(max_examples=150)
    @given(sheared_grid_sets())
    def test_vertices_match_one_lp_per_point(self, points):
        assert extreme_points(points).vertices == brute_vertices(points)

    def test_resumed_lps_and_witness_simplices_match_one_lp_per_point(self):
        # Counts over all examples, so that neither path can go untested.
        used = {"resumes": 0, "witness_hits": 0}
        resume, contains = exactgeom.resume, exactgeom.SimplexKernel.contains

        def counted_resume(*args):
            used["resumes"] += 1
            return resume(*args)

        def counted_contains(kernel, y):
            hit = contains(kernel, y)
            used["witness_hits"] += hit
            return hit

        @settings(max_examples=150)
        @given(crowded_sets())
        def check(points):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(exactgeom, "resume", counted_resume)
                patch.setattr(exactgeom.SimplexKernel, "contains", counted_contains)
                hull = extreme_points(points)
            assert hull.vertices == brute_vertices(points)

        check()
        assert used["resumes"] > 0 and used["witness_hits"] > 0


@st.composite
def mixed_sets(draw):
    """Points in dimension 1 to 5: integer corners and convex combinations
    of them, some divided by a small integer of their own, so over mixed
    denominators; then repeats, in any order.  Sometimes the set is mapped
    into a subspace of lower dimension by a random integer matrix."""
    dim = draw(st.integers(1, 5))
    small = st.integers(-3, 3)
    corners = draw(st.lists(st.tuples(*[small] * dim), min_size=2, max_size=dim + 4))
    points = []
    for _ in range(draw(st.integers(2, 16))):
        chosen = draw(st.lists(st.sampled_from(corners), min_size=1, max_size=3))
        weights = [draw(st.integers(1, 3)) for _ in chosen]
        total = sum(weights) * draw(st.sampled_from([1, 1, 2, 3]))
        points.append(tuple(
            Fraction(sum(w * corner[k] for w, corner in zip(weights, chosen)), total)
            for k in range(dim)
        ))
    points += draw(st.lists(st.sampled_from(points), max_size=4))
    rank = draw(st.integers(0, dim))
    if rank < dim:
        matrix = [[draw(small) for _ in range(rank)] for _ in range(dim)]
        points = [
            tuple(sum((a * b for a, b in zip(row, p[:rank])), Fraction(0)) for row in matrix)
            for p in points
        ]
    return draw(st.permutations(points))


class TestWarmHullLps:
    def test_vertices_match_one_lp_per_point(self):
        # Counted over all examples, so that the warm path cannot go untested.
        warm = [0]
        solve = exactgeom.solve_lp

        def counted(*args):
            warm[0] += len(args) > 3 and args[3] is not None
            return solve(*args)

        @settings(max_examples=200)
        @given(mixed_sets())
        def check(points):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(exactgeom, "solve_lp", counted)
                hull = extreme_points(points)
            assert hull.vertices == brute_vertices(points)

        check()
        assert warm[0] > 0


def exposes(functional, vertex, points):
    """Whether ``vertex`` alone maximizes the integer functional over the
    points, decided in Fractions."""
    top = sum(c * x for c, x in zip(functional, vertex))
    return all(
        sum(c * x for c, x in zip(functional, p)) < top
        for p in set(points)
        if p != vertex
    )


def assert_functionals_expose(hull, points):
    functionals = hull.vertex_functionals
    assert len(functionals) == len(hull.vertices)
    for vertex, functional in zip(hull.vertices, functionals):
        if functional is not None:
            assert all(type(c) is int for c in functional)
            assert exposes(functional, vertex, points)


def _average(points):
    return tuple(sum(coords, Fraction(0)) / len(points) for coords in zip(*points))


@st.composite
def cone_cases(draw):
    """Points in dimension 1 to 4, sometimes in a hyperplane, with
    duplicates, translated so that the origin lies inside their hull, on a
    face of it (the average of the points a functional maximizes), outside
    it, or where it falls."""
    dim = draw(st.integers(1, 4))
    small = st.integers(-3, 3)
    points = [
        tuple(map(Fraction, p))
        for p in draw(st.lists(st.tuples(*[small] * dim), min_size=1, max_size=10))
    ]
    if dim > 1 and draw(st.booleans()):
        coefficients = [draw(small) for _ in range(dim - 1)]
        points = [
            (*p[:-1], sum(a * b for a, b in zip(coefficients, p[:-1]))) for p in points
        ]
    points += draw(st.lists(st.sampled_from(points), max_size=3))
    where = draw(st.sampled_from(["inside", "face", "outside", "as drawn"]))
    if where == "inside":
        shift = _average(draw(st.lists(st.sampled_from(points), min_size=1, max_size=4)))
    elif where == "face":
        c = draw(st.tuples(*[small] * dim))
        values = [sum(a * x for a, x in zip(c, p)) for p in points]
        shift = _average([p for p, v in zip(points, values) if v == max(values)])
    elif where == "outside":
        beyond = max(p[0] for p in points) + Fraction(draw(st.integers(1, 6)), 2)
        shift = (beyond, *(Fraction(draw(small), 2) for _ in range(dim - 1)))
    else:
        shift = (Fraction(0),) * dim
    return [vector_sub(p, shift) for p in points]


class TestVertexFunctionals:
    @settings(max_examples=150)
    @given(cone_cases())
    def test_coned_agrees_with_a_hull_from_scratch(self, points):
        polytope = extreme_points(points)
        assert_functionals_expose(polytope, points)
        origin = (Fraction(0),) * len(points[0])
        cone = coned(polytope)
        assert cone.vertices == brute_vertices([*points, origin])
        assert cone == extreme_points([*polytope.vertices, origin])
        assert_functionals_expose(cone, [*points, origin])
        if polytope.holds_origin:
            assert cone is polytope
        else:
            # The origin alone maximizes its separating functional.
            assert exposes(polytope.origin_separation, origin, [*points, origin])

    @settings(max_examples=150)
    @given(cone_cases(), st.data())
    def test_hull_of_union_agrees_with_a_hull_from_scratch(self, points, data):
        groups = data.draw(
            st.lists(st.integers(0, 2), min_size=len(points), max_size=len(points))
        )
        members = [
            extreme_points([p for p, g in zip(points, groups) if g == k])
            for k in sorted(set(groups))
        ]
        extra = data.draw(st.lists(st.sampled_from([*points, _average(points)]), max_size=3))
        union = hull_of_union(members, extra)
        assert union.vertices == brute_vertices([*points, *extra])
        assert union == extreme_points([*points, *extra])
        assert_functionals_expose(union, [*points, *extra])

    def test_simplex_functionals_are_barycentric_rows(self):
        triangle = extreme_points([V(0, 0), V(3, 0), V(0, 2)])
        assert triangle.simplex_kernel is not None
        assert_functionals_expose(triangle, triangle.vertices)
        assert None not in triangle.vertex_functionals

    def test_certified_vertices_take_no_lp(self, monkeypatch):
        # The twelve lattice points on the circle of radius 5, and the points
        # inside it.  Six vertices keep a functional from the LPs that
        # decided them; the lexicographic extremes took no LP, and four were
        # found as maximizers that tie.  Hulled again with the origin
        # inside, no certified vertex needs an LP.
        disc = [V(x, y) for x in range(-5, 6) for y in range(-5, 6) if x * x + y * y <= 25]
        polygon = extreme_points(disc)
        assert len(polygon.vertices) == 12
        certified = [
            homogeneous(v)
            for v, c in zip(polygon.vertices, polygon.vertex_functionals)
            if c is not None
        ]
        assert len(certified) == 6
        lps = []
        membership = exactgeom.hull_membership

        def counted(columns, y, *start):
            lps.append(tuple(y))
            return membership(columns, y, *start)

        monkeypatch.setattr(exactgeom, "hull_membership", counted)
        hull = hull_of_union([polygon], [V(0, 0)])
        assert hull == polygon and hull is not polygon
        assert (0, 0, 1) in lps
        assert not set(lps) & set(certified)

    def test_a_stale_functional_falls_back_to_the_lp(self, monkeypatch):
        # (1, 1) is maximized by (2, 2) alone, not by the centre, and (1, 0)
        # ties (2, 0) with (2, 2): neither claim holds, so both points go
        # to LPs, and the centre is decided inside.
        square = [V(0, 0), V(0, 2), V(2, 0), V(2, 2)]
        lps = []
        membership = exactgeom.hull_membership

        def counted(columns, y, *start):
            lps.append(tuple(y))
            return membership(columns, y, *start)

        monkeypatch.setattr(exactgeom, "hull_membership", counted)
        hull = extreme_points(
            [V(1, 1), *square], [(1, 1), None, None, (1, 0), None]
        )
        assert hull.vertices == tuple(square)
        assert (1, 1, 1) in lps and (2, 0, 1) in lps
        assert_functionals_expose(hull, square)
        # A claim that holds spares the LP.
        lps.clear()
        hull = extreme_points([V(1, 1), *square], [None, None, None, (1, -1), None])
        assert hull.vertices == tuple(square)
        assert (2, 0, 1) not in lps
        assert hull.vertex_functionals[2] == (1, -1)


class TestIntegerHullInput:
    @settings(max_examples=150)
    @given(cone_cases(), st.data())
    def test_homogeneous_columns_give_the_same_hull(self, points, data):
        # Each point over a denominator of its own, a positive multiple of
        # the least one.
        columns = []
        for p in points:
            den, (row,) = exactgeom.integer_rows((p,))
            k = data.draw(st.integers(1, 6))
            columns.append(HomogeneousPoint((*(a * k for a in row), den * k)))
        hull = extreme_points(columns)
        reference = extreme_points(points)
        assert hull == reference
        assert vars(hull)["integer_vertices"] == vars(reference)["integer_vertices"]
        assert hull.vertex_functionals == reference.vertex_functionals

    def test_piece_and_chain_hulls_convert_no_point(self, monkeypatch):
        # Piece hulls read their cycles' integer sums and chain hulls their
        # members' integer vertices: the only conversion under either is
        # each piece's displacements.
        stacks = []
        integer_rows = simplex.integer_rows

        def recorded(vectors):
            frame, names = sys._getframe(1), []
            while frame is not None:
                names.append(frame.f_code.co_name)
                frame = frame.f_back
            stacks.append(names)
            return integer_rows(vectors)

        for module in (simplex, exactgeom, markov):
            monkeypatch.setattr(module, "integer_rows", recorded)
        pooled = []
        union = exactgeom.hull_of_union

        def counted(polytopes, points=()):
            pooled.append(len(polytopes))
            return union(polytopes, points)

        monkeypatch.setattr(heteroclinic, "hull_of_union", counted)
        computation = compute(exp_family(4))
        assert len(computation.chains) == 16 and pooled == [8] * 16
        under = [
            names
            for names in stacks
            if {"hull_of_union", "piece_rotation_set", "extreme_points"} & set(names)
        ]
        assert len(under) == 12
        assert all(names[0] == "integer_displacements" for names in under)
        assert not any("extreme_points" in names for names in under)


def dense_simplex_kernel(den, verts):
    """The kernel eliminated densely, on every coordinate of ``[den A | I]``:
    the oracle that kernels eliminated on their support are checked against.

    Eliminate ``A = [v_0 ... v_k; 1 ... 1]`` once, or ``None`` when the
    vertices are affinely dependent.

    The vertices are integers over ``den > 0``, so integer Gauss-Jordan on
    ``[den A | I]`` gives an invertible ``E`` with ``E A = [D; 0]`` for a
    diagonal ``D`` without zeros, provided every column of ``A`` pivots.
    Row ``i < k + 1`` of ``E``, times the sign of ``D[i][i]``, maps
    ``[x; 1]`` to a positive multiple of the ``i``-th barycentric
    coordinate; the other rows vanish exactly on the column space of ``A``,
    whose points ``[x; 1]`` are those of the affine hull.
    """
    cols = len(verts)
    size = len(verts[0]) + 1
    rows = [list(column) for column in zip(*verts)] + [[den] * cols]
    for i, row in enumerate(rows):
        row.extend(1 if j == i else 0 for j in range(size))
    if len(_eliminate(rows, cols)) < cols:
        return None
    functionals = []
    for i, row in enumerate(rows):
        sign = -1 if i < cols and row[i] < 0 else 1
        g = gcd(*row[cols:]) * sign
        functionals.append(tuple(value // g for value in row[cols:]))
    return SimplexKernel(tuple(functionals[:cols]), tuple(functionals[cols:]))


class TestWitnessKernels:
    def test_lp_kernels_agree_with_eliminated_kernels(self):
        # Each witness kernel read from an LP's basis inverse gives the
        # sign tests of the kernel eliminated densely, on every coordinate,
        # from the same basis points, on
        # every point of the set: whether it lies on the affine hull, and
        # there the sign of each barycentric coordinate.  Counted over all
        # examples.
        seen = {"tests": 0, "dropped_rows": 0}
        witness_kernel = exactgeom._witness_kernel

        def compared(points):
            kernels = []

            def recorded(lp):
                kernel = witness_kernel(lp)
                kernels.append((lp, kernel))
                return kernel

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(exactgeom, "_witness_kernel", recorded)
                extreme_points(points)
            queries = [homogeneous(p) for p in set(points)]
            for lp, kernel in kernels:
                basis = []
                for var in lp.basis:
                    column = lp._lp.columns[var][0]
                    basis.append(tuple(Fraction(a, column[-1]) for a in column[:-1]))
                den, rows = exactgeom.integer_rows(basis)
                reference = dense_simplex_kernel(den, rows)
                seen["dropped_rows"] += bool(lp.basis_inverse[1])
                for y in queries:
                    on_hull = [
                        all(exactgeom._dot(r, y) == 0 for r in k.affine)
                        for k in (kernel, reference)
                    ]
                    assert on_hull[0] == on_hull[1]
                    if on_hull[0]:
                        # Barycentric signs mean something on the affine hull.
                        assert [
                            _sign(exactgeom._dot(r, y)) for r in kernel.barycentric
                        ] == [
                            _sign(exactgeom._dot(r, y)) for r in reference.barycentric
                        ]
                    assert kernel.contains(y) == reference.contains(y)
                    seen["tests"] += 1

        @settings(max_examples=150)
        @given(crowded_sets())
        def crowded(points):
            compared(points)

        @settings(max_examples=150)
        @given(sheared_grid_sets())
        def sheared(points):
            compared(points)

        crowded()
        sheared()
        assert seen["tests"] > 1000 and seen["dropped_rows"] > 0


def _sign(value):
    return (value > 0) - (value < 0)


class TestMembership:
    def test_triangle_inside(self, triangle):
        assert contains_point(triangle, V("1/2", "1/4"))

    def test_triangle_outside(self, triangle):
        assert not contains_point(triangle, V(0, 1))

    def test_segment_midpoint(self):
        seg = extreme_points([V(1, 0), V(2, 0)])
        assert contains_point(seg, V("3/2", 0))

    def test_dimension_mismatch(self, triangle):
        with pytest.raises(DimensionMismatchError):
            contains_point(triangle, V(0, 0, 0))

    @given(st.lists(vectors(3), min_size=1, max_size=6))
    def test_vertices_are_members(self, points):
        poly = extreme_points([as_vector(p) for p in points])
        for v in poly.vertices:
            assert contains_point(poly, v)

    @given(
        st.lists(vectors(2), min_size=1, max_size=5),
        st.lists(st.integers(0, 9), min_size=1, max_size=5),
    )
    def test_convex_combinations_are_members(self, points, raw_weights):
        poly = extreme_points([as_vector(p) for p in points])
        verts = poly.vertices
        weights = [Fraction(w) for w in raw_weights[: len(verts)]]
        if sum(weights) == 0:
            weights[0] = Fraction(1)
        total = sum(weights)
        combo = tuple(
            sum((w * v[k] for w, v in zip(weights, verts)), Fraction(0)) / total
            for k in range(2)
        )
        assert contains_point(poly, combo)

    @given(st.lists(vectors(2), min_size=1, max_size=6))
    def test_beyond_bounding_box_is_outside(self, points):
        poly = extreme_points([as_vector(p) for p in points])
        beyond = max(v[0] for v in poly.vertices) + 1
        assert not contains_point(poly, (beyond, poly.vertices[0][1]))

    def test_agrees_with_brute_force_on_random_queries(self):
        rng = random.Random(77)
        for _ in range(40):
            points = [
                V(rng.randint(-3, 3), rng.randint(-3, 3))
                for _ in range(rng.randint(1, 7))
            ]
            poly = extreme_points(points)
            probe = V(
                Fraction(rng.randint(-6, 6), 2), Fraction(rng.randint(-6, 6), 2)
            )
            assert contains_point(poly, probe) == brute_membership_2d(points, probe)


def independent_points(candidates):
    """Greedily keep the candidates that raise the affine rank."""
    kept = []
    for p in candidates:
        diffs = [vector_sub(q, kept[0]) for q in kept[1:] + [p]] if kept else []
        if rank_of(diffs) == len(diffs):
            kept.append(p)
    return kept


@st.composite
def simplex_queries(draw, dim, k):
    """A random rational simplex of affine dimension k in Q^dim, and query
    points: vertices, convex and affine combinations, points off the affine
    hull, random points, and reflections through a vertex."""
    raw = draw(st.lists(vectors(dim), min_size=1, max_size=k + 1))
    raw = [as_vector(p) for p in raw]
    # Unit steps from the first point fill the simplex up to dimension k.
    units = [
        vector_add(raw[0], tuple(Fraction(int(i == j)) for i in range(dim)))
        for j in range(dim)
    ]
    verts = independent_points(raw + units)[: k + 1]
    weights = st.lists(st.integers(-2, 4), min_size=k + 1, max_size=k + 1)
    queries = list(verts)
    for ws in draw(st.lists(weights, min_size=2, max_size=4)):
        if sum(ws) == 0:
            ws[0] += 1
        total = sum(ws)
        queries.append(
            tuple(
                sum(Fraction(w, total) * v[c] for w, v in zip(ws, verts))
                for c in range(dim)
            )
        )
    queries.append(vector_add(queries[-1], draw(vectors(dim))))
    queries.append(as_vector(draw(vectors(dim))))
    vertex = verts[draw(st.integers(0, k))]
    queries.append(vector_sub(vector_scale(vertex, 2), queries[-1]))
    return verts, queries


class TestSimplexKernel:
    """Barycentric sign tests and ratio tests against the LP path."""

    @pytest.mark.parametrize(
        "dim, k", [(dim, k) for dim in range(1, 5) for k in range(dim + 1)]
    )
    @settings(max_examples=12)
    @given(data=st.data())
    def test_agrees_with_lp(self, dim, k, data):
        verts, queries = data.draw(simplex_queries(dim, k))
        poly = extreme_points(verts)
        assert len(poly.vertices) == len(verts)
        assert poly.simplex_kernel is not None
        for x in queries:
            assert contains_point(poly, x) == hull_membership(
                [homogeneous(v) for v in poly.vertices], homogeneous(x)
            )[0]
        for a in queries:
            for b in queries:
                assert segment_interval(poly, a, b) == _segment_interval_lp(
                    poly, a, b
                )

    def test_kernel_is_built_once(self, triangle):
        assert triangle.simplex_kernel is triangle.simplex_kernel

    def test_affinely_dependent_vertices_get_no_kernel(self):
        flat_square = extreme_points(
            [V(0, 0, 0), V(1, 0, 0), V(0, 1, 0), V(1, 1, 0)]
        )
        assert len(flat_square.vertices) == 4
        assert flat_square.simplex_kernel is None
        assert contains_point(flat_square, V("1/2", "1/2", 0))
        assert segment_interval(flat_square, V(-1, "1/2", 0), V(3, "1/2", 0)) == (
            Fraction(1, 4), Fraction(1, 2)
        )
        square = extreme_points([V(0, 0), V(1, 0), V(0, 1), V(1, 1)])
        assert square.simplex_kernel is None

    @pytest.mark.parametrize("dim", range(1, 5))
    @settings(max_examples=12)
    @given(data=st.data())
    def test_simplex_hull_solves_no_lp(self, dim, data):
        verts, _ = data.draw(simplex_queries(dim, data.draw(st.integers(0, dim))))
        calls = []
        solve_lp = exactgeom.solve_lp

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_lp(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exactgeom, "solve_lp", counted)
            poly = extreme_points(verts + verts[:1])
        assert poly.vertices == tuple(sorted(verts))
        assert len(calls) == 0

    def test_checks_on_simplices_solve_no_lp(self, monkeypatch):
        # Every chain polytope and block of these fixtures is a simplex, so
        # after compute no check may fall back to the LP.
        family = compute(exp_family(3))
        full = compute(genus2_full())
        calls = []
        solve_lp = exactgeom.solve_lp

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_lp(*args, **kwargs)

        monkeypatch.setattr(exactgeom, "solve_lp", counted)
        outcomes = run_checks(family, oracle_samples=1000) + run_checks(
            full, star=True, subspace=True, interior=True
        )
        assert all(outcome.passed for outcome in outcomes)
        assert len(calls) == 0


@st.composite
def sparse_simplices(draw):
    """A random simplex in Q^dim, dim 1 to 6, whose vertices use only some
    coordinates (none, up to all of them), and query points: vertices,
    convex and affine combinations, points moved off the support, random
    points and the origin, all as homogeneous columns."""
    dim = draw(st.integers(1, 6))
    support = draw(st.lists(st.integers(0, dim - 1), unique=True, max_size=dim))
    k = draw(st.integers(0, len(support)))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)

    def point(used):
        values = {j: draw(small) for j in used}
        return tuple(values.get(j, Fraction(0)) for j in range(dim))

    verts = independent_points([point(support) for _ in range(k + 1)])
    queries = list(verts)
    weights = st.lists(st.integers(-2, 4), min_size=len(verts), max_size=len(verts))
    for ws in draw(st.lists(weights, min_size=1, max_size=3)):
        if sum(ws) == 0:
            ws[0] += 1
        total = sum(ws)
        queries.append(
            tuple(
                sum(Fraction(w, total) * v[c] for w, v in zip(ws, verts))
                for c in range(dim)
            )
        )
    queries.append(vector_add(queries[-1], point(range(dim))))
    queries.append(vector_add(queries[0], point([draw(st.integers(0, dim - 1))])))
    queries.append(point(range(dim)))
    queries.append(point(()))
    return verts, [homogeneous(q) for q in queries]


class TestSupportKernels:
    """Kernels eliminated on their support against the dense elimination."""

    @settings(max_examples=300)
    @given(sparse_simplices())
    def test_agree_with_dense_kernels(self, case):
        verts, queries = case
        den, rows = exactgeom.integer_rows(verts)
        sparse, dense = _simplex_kernel(den, rows), dense_simplex_kernel(den, rows)
        assert sparse is not None and dense is not None
        used = {j for row in rows for j, a in enumerate(row) if a}
        if len(used) == len(rows[0]):
            assert sparse.support is None and sparse == dense
        else:
            assert sparse.support == (*sorted(used), len(rows[0]))
        for y in queries:
            assert sparse.contains(y) == dense.contains(y)
            verdicts = [k.separation(y) for k in (sparse, dense)]
            assert (verdicts[0] is None) == (verdicts[1] is None)
            if verdicts[0] is not None:
                # A separation in ambient coordinates: c . v <= c0 at every
                # vertex, c . x > c0 at the point.
                c, c0 = verdicts[0]
                assert all(_dot_q(c, v) <= c0 for v in verts)
                assert sum(a * b for a, b in zip(c, y)) > c0 * y[-1]
        for a in queries:
            for b in queries:
                assert sparse.segment_interval(a, b) == dense.segment_interval(a, b)
        # Each barycentric row, widened to every coordinate, exposes its own
        # vertex among the vertices.
        functionals = [sparse.ambient(row) for row in sparse.barycentric]
        for c, v in zip(functionals, rows):
            assert exposes(c, v, rows)

    @settings(max_examples=300)
    @given(sparse_simplices())
    def test_contains_agrees_with_the_membership_lp(self, case):
        # The sign tests against the LP, which shares no code with them.
        # Each vertex moved along each unit vector adds points that are
        # non-zero outside the support, and points off the affine hull
        # whenever the simplex spans less than its support.
        verts, queries = case
        den, rows = exactgeom.integer_rows(verts)
        sparse = _simplex_kernel(den, rows)
        columns = [homogeneous(v) for v in verts]
        dim = len(rows[0])
        for y in columns:
            for j in range(dim):
                queries.append(
                    HomogeneousPoint(a + y[-1] * (i == j) for i, a in enumerate(y))
                )
        kinds = set()
        for y in queries:
            member = hull_membership(columns, y).member
            assert sparse.contains(y) == member
            assert (sparse.separation(y) is None) == member
            if any(y[j] for j in sparse.outside):
                kinds.add("outside the support")
            elif any(_dot_q(row, sparse._project(y)) for row in sparse.affine):
                kinds.add("off the affine hull")
        if sparse.outside:
            assert "outside the support" in kinds
        if sparse.affine:
            assert "off the affine hull" in kinds

    @settings(max_examples=150)
    @given(sparse_simplices())
    def test_polytope_queries_read_the_support(self, case):
        verts, queries = case
        poly = extreme_points(verts)
        assert poly.simplex_kernel is not None
        assert affine_dim(poly) == len(verts) - 1
        for c, v in zip(poly.vertex_functionals, poly.vertices):
            assert exposes(c, v, poly.vertices)
        origin = homogeneous(tuple(Fraction(0) for _ in verts[0]))
        assert poly.holds_origin == hull_membership(
            [homogeneous(v) for v in poly.vertices], origin
        )[0]
        if not poly.holds_origin:
            assert all(_dot_q(poly.origin_separation, v) < 0 for v in poly.vertices)
        for a, b in combinations(queries, 2):
            points = [tuple(Fraction(c, y[-1]) for c in y[:-1]) for y in (a, b)]
            assert segment_interval(poly, a, b) == _segment_interval_lp(poly, *points)

    def test_exp_family_eliminations_stay_on_the_support(self, monkeypatch):
        # A chain polytope or block of exp_family(6) has at most 7 vertices
        # on 6 of its 24 coordinates; the dense elimination had 25 rows.
        sizes = []
        eliminate = kernel._eliminate

        def counted(rows, cols):
            sizes.append(len(rows))
            return eliminate(rows, cols)

        monkeypatch.setattr(kernel, "_eliminate", counted)
        compute(exp_family(6))
        assert sizes and max(sizes) <= 7


def _dot_q(functional, point):
    return sum(c * x for c, x in zip(functional, point))


class TestAffineDim:
    def test_point(self):
        assert affine_dim(extreme_points([V(5, 5)])) == 0

    def test_triangle(self, triangle):
        assert affine_dim(triangle) == 2

    def test_two_independent_differences(self):
        poly = extreme_points([V(0, 0, 0, 0), V(1, 0, 0, 0), V(0, 1, 0, 0)])
        assert affine_dim(poly) == 2

    @given(st.lists(vectors(3), min_size=1, max_size=6), st.integers(1, 4))
    def test_invariant_under_scaling(self, points, factor):
        base = extreme_points([as_vector(p) for p in points])
        scaled = extreme_points(
            [vector_scale(as_vector(p), factor) for p in points]
        )
        assert affine_dim(base) == affine_dim(scaled)

    @settings(max_examples=100)
    @given(st.lists(vectors(4), min_size=1, max_size=7), st.sets(st.integers(0, 3)))
    def test_matches_rank_with_zero_coordinates(self, points, zeroed):
        # Points with some coordinates 0 throughout: simplices, and hulls
        # with more vertices than a simplex, against the rank of the
        # differences.
        points = [
            tuple(Fraction(0) if j in zeroed else c for j, c in enumerate(p))
            for p in points
        ]
        poly = extreme_points(points)
        first = poly.vertices[0]
        expected = rank_of([vector_sub(v, first) for v in poly.vertices[1:]])
        assert affine_dim(poly) == expected

    def test_simplex_reads_its_kernel(self, monkeypatch):
        # A simplex's dimension comes from its kernel with no elimination;
        # a flat square, with no kernel, is eliminated.
        triangle = extreme_points([V(0, 0, 0), V(1, 0, 0), V(0, 1, 0)])
        square = extreme_points([V(0, 0, 0), V(1, 0, 0), V(0, 1, 0), V(1, 1, 0)])
        assert triangle.simplex_kernel is not None and square.simplex_kernel is None
        calls = []
        eliminate = exactgeom._eliminate

        def counted(rows, cols):
            calls.append((len(rows), cols))
            return eliminate(rows, cols)

        monkeypatch.setattr(exactgeom, "_eliminate", counted)
        assert affine_dim(triangle) == 2 and calls == []
        assert affine_dim(square) == 2
        # Four vertex rows on the two coordinates they use, plus 1.
        assert calls == [(4, 3)]


unit_interval = st.fractions(min_value=0, max_value=1, max_denominator=6)


@st.composite
def segment_families(draw):
    """A segment in dimension 1 to 3 (sometimes a single point) and 1 to 4
    polytopes: random hulls, hulls holding the whole segment, and pieces of
    the segment."""
    dim = draw(st.integers(1, 3))
    point = vectors(dim).map(as_vector)
    a = draw(point)
    b = a if draw(st.integers(0, 4)) == 0 else draw(point)
    family = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["random", "holds_segment", "piece"]))
        if kind == "random":
            points = draw(st.lists(point, min_size=1, max_size=4))
        elif kind == "holds_segment":
            points = [a, b, *draw(st.lists(point, max_size=2))]
        else:
            s, t = draw(st.tuples(unit_interval, unit_interval))
            points = [vector_add(a, vector_scale(vector_sub(b, a), u)) for u in (s, t)]
        family.append(extreme_points(points))
    return a, b, family


class TestSegmentCoverage:
    def test_two_touching_segments(self):
        family = [
            extreme_points([V(0, 0), V(1, 0)]),
            extreme_points([V(1, 0), V(2, 0)]),
        ]
        assert segment_covered(V(0, 0), V(2, 0), family)

    def test_gap_detected(self):
        family = [
            extreme_points([V(0, 0), V("9/10", 0)]),
            extreme_points([V("11/10", 0), V(2, 0)]),
        ]
        gap = segment_uncovered_gap(V(0, 0), V(2, 0), family)
        assert gap == (Fraction(9, 20), Fraction(11, 20))

    def test_edge_of_triangle(self, triangle):
        assert segment_covered(V(0, 0), V(1, 1), [triangle])

    def test_gap_family_parametrized(self):
        # Cover [0,a] and [b,1] of the segment to (1,0): covered iff a >= b.
        target = V(1, 0)
        for a_num in range(0, 5):
            for b_num in range(0, 5):
                a, b = Fraction(a_num, 4), Fraction(b_num, 4)
                family = [
                    extreme_points([V(0, 0), vector_scale(target, a)]),
                    extreme_points([vector_scale(target, b), target]),
                ]
                expected = a >= b
                assert segment_covered(V(0, 0), target, family) == expected

    @given(st.lists(vectors(2), min_size=1, max_size=5), vectors(2), vectors(2))
    def test_single_member_matches_endpoint_membership(self, points, a, b):
        poly = extreme_points([as_vector(p) for p in points])
        a, b = as_vector(a), as_vector(b)
        both_in = contains_point(poly, a) and contains_point(poly, b)
        assert segment_covered(a, b, [poly]) == both_in

    def test_degenerate_point_segment(self, triangle):
        assert segment_covered(V(0, 0), V(0, 0), [triangle])
        assert not segment_covered(V(5, 5), V(5, 5), [triangle])

    @settings(max_examples=150)
    @given(segment_families(), st.randoms(use_true_random=False))
    def test_early_stop_matches_full_scan_in_any_order(self, case, rng):
        a, b, family = case
        expected = full_scan_gap(a, b, family)
        assert segment_uncovered_gap(a, b, family) == expected
        shuffled = list(family)
        rng.shuffle(shuffled)
        assert segment_uncovered_gap(a, b, shuffled) == expected

    def test_scan_stops_at_the_first_member_holding_the_segment(self, monkeypatch):
        calls = []
        interval = exactgeom.segment_interval

        def counted(polytope, a, b):
            calls.append(polytope)
            return interval(polytope, a, b)

        monkeypatch.setattr(exactgeom, "segment_interval", counted)
        half = extreme_points([V(0, 0), V(1, 0)])
        whole = extreme_points([V(0, 0), V(2, 0), V(0, 2)])
        assert segment_uncovered_gap(V(0, 0), V(2, 0), [half, whole, half]) is None
        assert calls == [half, whole]


def leibniz_det(matrix):
    """Determinant as the signed sum over permutations, in Fractions."""
    total = Fraction(0)
    for perm in permutations(range(len(matrix))):
        inversions = sum(
            perm[i] > perm[j] for i, j in combinations(range(len(perm)), 2)
        )
        term = Fraction((-1) ** inversions)
        for row, col in zip(matrix, perm):
            term *= row[col]
        total += term
    return total


def minor_rank(rows):
    """The size of the largest square minor with a non-zero determinant."""
    width = len(rows[0]) if rows else 0
    for size in range(min(len(rows), width), 0, -1):
        for chosen in combinations(rows, size):
            for cols in combinations(range(width), size):
                if leibniz_det([[row[c] for c in cols] for row in chosen]):
                    return size
    return 0


@st.composite
def matrix_and_point(draw):
    """Up to 4 x 4 rational rows with mixed denominators, where each row is
    drawn fresh, zero, a repeat or a combination of earlier rows; a basis
    size; and a point that is fresh or a combination of the rows."""
    width = draw(st.integers(1, 4))
    rows = []

    def combination():
        coeffs = draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
        return tuple(
            sum((c * row[k] for c, row in zip(coeffs, rows)), Fraction(0))
            for k in range(width)
        )

    for _ in range(draw(st.integers(1, 4))):
        # Half the rows are fresh, so full-rank matrices are drawn too.
        kinds = ["fresh"] * 3 + ["zero", "repeat", "combination"]
        kind = draw(st.sampled_from(kinds))
        if kind == "fresh" or not rows:
            rows.append(as_vector(draw(vectors(width))))
        elif kind == "zero":
            rows.append(as_vector([0] * width))
        elif kind == "repeat":
            rows.append(draw(st.sampled_from(rows)))
        else:
            rows.append(combination())
    basis_size = draw(st.integers(0, len(rows)))
    if draw(st.booleans()):
        x = as_vector(draw(vectors(width)))
    else:
        x = combination()
    return rows, basis_size, x


@st.composite
def span_cases(draw):
    """A basis of 0 to 3 vectors in dimension 1 to 4 and a polytope whose
    points are each a combination of the basis or a fresh vector."""
    dim = draw(st.integers(1, 4))
    basis = [as_vector(v) for v in draw(st.lists(vectors(dim), max_size=3))]
    points = []
    for _ in range(draw(st.integers(1, 5))):
        if basis and draw(st.booleans()):
            coeffs = draw(st.lists(rationals, min_size=len(basis), max_size=len(basis)))
            points.append(tuple(
                sum((c * v[k] for c, v in zip(coeffs, basis)), Fraction(0))
                for k in range(dim)
            ))
        else:
            points.append(as_vector(draw(vectors(dim))))
    return SubspaceBasis(tuple(basis)), extreme_points(points)


class TestSpan:
    def test_plane_contains_triangle(self):
        basis = SubspaceBasis((V(1, 0, 0, 0), V(0, 1, 0, 0)))
        poly = extreme_points([V(0, 0, 0, 0), V(1, 0, 0, 0), V(1, 1, 0, 0)])
        assert in_span(basis, poly)

    def test_plane_misses_external_point(self):
        basis = SubspaceBasis((V(1, 0, 0, 0), V(0, 1, 0, 0)))
        poly = extreme_points([V(0, 0, 1, 0)])
        assert not in_span(basis, poly)

    def test_zero_polytope_in_empty_span(self):
        basis = SubspaceBasis(())
        poly = extreme_points([V(0, 0, 0, 0)])
        assert in_span(basis, poly)

    def test_rank(self):
        assert rank_of([]) == 0
        assert rank_of([V(1, 2), V(2, 4)]) == 1
        assert rank_of([V(1, 0), V(1, 1)]) == 2

    @settings(max_examples=200)
    @given(matrix_and_point())
    def test_rank_and_span_match_largest_nonzero_minor(self, case):
        rows, basis_size, x = case
        assert rank_of(rows) == minor_rank(rows)
        basis = SubspaceBasis(tuple(rows[:basis_size]))
        inside = minor_rank(rows[:basis_size] + [x]) == minor_rank(rows[:basis_size])
        point = RationalPolytope(len(x), simplex.integer_rows([x]))
        assert in_span(basis, point) == inside

    def test_first_outside_vertex_is_reported(self):
        basis = SubspaceBasis((V(1, 0),))
        poly = extreme_points([V(0, 0), V(1, 0), V(1, 1)])
        assert vertex_outside_span(basis, poly) == V(1, 1)
        # With an empty basis, the first non-zero vertex is outside.
        corner = extreme_points([V(0, 0), V(0, 2), V(1, 0)])
        assert vertex_outside_span(SubspaceBasis(()), corner) == V(0, 2)

    @settings(max_examples=150)
    @given(span_cases())
    def test_vertex_outside_span_matches_per_vertex_scan(self, case):
        basis, poly = case
        base = rank_of(basis.basis)
        expected = next(
            (v for v in poly.vertices if rank_of([*basis.basis, v]) != base), None
        )
        assert vertex_outside_span(basis, poly) == expected

    def test_passing_block_takes_two_eliminations(self, monkeypatch):
        computation = compute(genus2_full())
        [block] = computation.blocks
        span = support_span(block.key, computation.model)
        calls = []
        eliminate = exactgeom._eliminate

        def counted(rows, cols):
            calls.append(len(rows))
            return eliminate(rows, cols)

        monkeypatch.setattr(exactgeom, "_eliminate", counted)
        assert vertex_outside_span(span, block.polytope) is None
        assert len(calls) == 2

    @given(st.lists(vectors(3), min_size=1, max_size=5), st.integers(1, 4))
    def test_rank_scale_invariant(self, rows, factor):
        rows = [as_vector(r) for r in rows]
        scaled = [vector_scale(r, factor) for r in rows]
        assert rank_of(rows) == rank_of(scaled)


class TestCanonicalForm:
    def test_vertices_sorted(self):
        poly = extreme_points([V(1, 1), V(0, 0), V(1, 0)])
        assert list(poly.vertices) == sorted(poly.vertices)

    def test_structural_equality_is_geometric(self):
        a = extreme_points([V(0, 0), V(1, 0), V(1, 1), V("1/3", "1/4")])
        b = extreme_points([V(1, 1), V(1, 0), V(0, 0)])
        assert a == b

    def test_post_init_rejects_empty(self):
        with pytest.raises(ValueError):
            RationalPolytope(dim=2, integer_vertices=(1, ()))
