"""Chain classification, star-shape, convexity probing, interior criterion."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

import rotaxa.analysis as analysis
import rotaxa.exactgeom as exactgeom
import rotaxa.markov as markov
import rotaxa.simplex as simplex
from conftest import V, full_scan_gap, vector_add, vector_scale, zero_vector
from rotaxa.analysis import (
    CONTAINS_ZERO,
    CONVEX,
    INCONSISTENT,
    NOT_APPLICABLE,
    RADIAL,
    VIOLATION,
    classify_chain,
    convexity_probe,
    interior_check,
    probe_points,
    star_shape_check,
)
from rotaxa.engine import compute, run_checks
from rotaxa.exactgeom import (
    HomogeneousPoint,
    affine_dim,
    as_vector,
    contains_point,
    extreme_points,
    homogeneous,
    hull_membership,
)
from rotaxa.fixtures import exp_family, genus2_blocks, genus2_full, genus2_nonconvex


def midpoint(u, v):
    return tuple((a + b) / 2 for a, b in zip(u, v))


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)
positive_rationals = st.fractions(
    min_value=Fraction(1, 9), max_value=9, max_denominator=9
)


class TestClassifyChain:
    def test_triangle_contains_zero(self, triangle):
        assert classify_chain(triangle).kind == CONTAINS_ZERO

    def test_radial_segment(self):
        seg = extreme_points([V(1, 0), V(2, 0)])
        result = classify_chain(seg)
        assert result.kind == RADIAL
        assert result.direction == V(1, 0)

    def test_offset_segment_inconsistent(self):
        seg = extreme_points([V(1, 0), V(1, 1)])
        assert classify_chain(seg).kind == INCONSISTENT

    def test_planar_set_without_zero_inconsistent(self):
        poly = extreme_points([V(1, 0), V(2, 0), V(1, 1)])
        assert classify_chain(poly).kind == INCONSISTENT

    def test_radial_point(self):
        point = extreme_points([V(0, 3)])
        result = classify_chain(point)
        assert result.kind == RADIAL
        assert result.direction == V(0, 1)

    def test_direction_stable_under_scaling(self):
        for num, den in ((2, 1), (5, 3), (7, 2)):
            factor = Fraction(num, den)
            seg = extreme_points(
                [vector_scale(V(2, -4), factor), vector_scale(V(3, -6), factor)]
            )
            result = classify_chain(seg)
            assert result.kind == RADIAL
            # Parallel to the unscaled direction (canonical primitive form).
            assert result.direction == V(1, -2)


def positive_multiple(v, u):
    """Is ``v = t * u`` for some rational ``t > 0``?"""
    lead = next(i for i, c in enumerate(u) if c)
    t = v[lead] / u[lead]
    return t > 0 and all(c == t * d for c, d in zip(v, u))


@st.composite
def chain_sets(draw):
    """Segments on a ray, segments through the origin, segments off it and
    flat polygons, in dimensions 1 to 4."""
    dim = draw(st.integers(1, 4))
    vector = st.tuples(*[rationals] * dim).filter(any).map(as_vector)
    d = draw(vector)
    shape = draw(st.sampled_from(["ray", "through_zero", "offset", "polygon"]))
    if shape == "ray":
        scalars = draw(st.lists(positive_rationals, min_size=1, max_size=3))
        points = [vector_scale(d, s) for s in scalars]
    elif shape == "through_zero":
        scalars = draw(st.lists(rationals, min_size=1, max_size=3))
        points = [vector_scale(d, s) for s in scalars]
    else:
        offset = draw(vector) if draw(st.booleans()) else zero_vector(dim)
        e = draw(vector) if shape == "polygon" else zero_vector(dim)
        pairs = draw(st.lists(st.tuples(rationals, rationals), min_size=1, max_size=5))
        points = [
            vector_add(offset, vector_add(vector_scale(d, a), vector_scale(e, b)))
            for a, b in pairs
        ]
    return extreme_points(points)


class TestVerticesConvertedOnce:
    @pytest.mark.parametrize(
        "points, dim, kind",
        [
            # A radial segment and a triangle away from the origin.
            ([V("1/2", 1, "3/2"), V(1, 2, 3)], 1, RADIAL),
            ([V("1/3", 1), V(2, "1/2"), V(1, 3)], 2, INCONSISTENT),
        ],
    )
    def test_consumers_read_the_stored_integer_vertices(
        self, monkeypatch, points, dim, kind
    ):
        hull = extreme_points(points)
        assert "integer_vertices" in vars(hull)
        converted = []
        integer_rows = simplex.integer_rows

        def counted(vectors):
            vectors = tuple(vectors)
            converted.extend(vectors)
            return integer_rows(vectors)

        for module in (simplex, exactgeom, markov):
            monkeypatch.setattr(module, "integer_rows", counted)
        assert hull.simplex_kernel is not None
        assert affine_dim(hull) == dim
        assert classify_chain(hull).kind == kind
        assert len(probe_points(hull, 2)) == len(points) + comb(len(points), 2)
        # The counter sees conversions: a Fraction point handed to a
        # membership test.
        outside = tuple(c + 9 for c in points[0])
        assert not contains_point(hull, outside)
        assert outside in converted
        assert not set(hull.vertices) & set(converted)

    def test_stored_rows_are_the_vertices_over_one_denominator(self):
        # A square with an inner point: the LP path, not a simplex.
        square = [V("1/2", 1), V(2, 1), V("1/2", "5/3"), V(2, "5/3"), V(1, "4/3")]
        hull = extreme_points(square)
        den, rows = vars(hull)["integer_vertices"]
        assert len(rows) == len(hull.vertices) == 4
        for vertex, row in zip(hull.vertices, rows):
            assert list(row) == [a * den for a in vertex]


class TestClassifyChainOracle:
    @settings(max_examples=250)
    @given(chain_sets())
    def test_radial_iff_positive_multiples_of_first_vertex(self, chain_set):
        result = classify_chain(chain_set)
        first = chain_set.vertices[0]
        if hull_membership(
            [homogeneous(v) for v in chain_set.vertices],
            homogeneous(zero_vector(chain_set.dim)),
        )[0]:
            assert result.kind == CONTAINS_ZERO
        elif all(positive_multiple(v, first) for v in chain_set.vertices):
            assert result.kind == RADIAL
            assert all(c.denominator == 1 for c in result.direction)
            assert gcd(*(c.numerator for c in result.direction)) == 1
            # The direction spans the line, its first non-zero entry positive.
            assert next(c for c in result.direction if c) > 0
            assert positive_multiple(result.direction, first) or positive_multiple(
                result.direction, vector_scale(first, -1)
            )
        else:
            assert result.kind == INCONSISTENT


def star_candidates(union):
    """Every member vertex and every midpoint of two vertices of one member,
    as Fractions."""
    candidates = set()
    for member in union:
        candidates.update(member.vertices)
        candidates.update(midpoint(u, v) for u, v in combinations(member.vertices, 2))
    return candidates


def star_shape_by_full_scan(union):
    """The star-shape check with Fraction midpoints, every candidate's
    segment tested against the whole union: the oracle for the integer one."""
    origin = zero_vector(union[0].dim)
    for point in sorted(star_candidates(union)):
        gap = full_scan_gap(origin, point, union)
        if gap is not None:
            return False, point, gap
    return True, None, None


@st.composite
def star_unions(draw):
    """1 to 4 polytopes in dimension 1 to 3: hulls holding the origin, hulls
    that miss it, radial segments and members in a coordinate subspace."""
    dim = draw(st.integers(1, 3))
    point = st.tuples(*[rationals] * dim).map(as_vector)
    union = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["origin", "offset", "radial", "flat"]))
        points = draw(st.lists(point, min_size=1, max_size=3))
        if kind == "origin":
            points.append(zero_vector(dim))
        elif kind == "offset":
            shift = draw(point)
            points = [vector_add(p, shift) for p in points]
        elif kind == "radial":
            scalars = draw(st.lists(positive_rationals, min_size=1, max_size=2))
            points = [vector_scale(points[0], t) for t in scalars]
        else:
            points = [(*p[:-1], Fraction(0)) for p in points]
        union.append(extreme_points(points))
    return union


class TestStarShapeOracle:
    @settings(max_examples=150)
    @given(star_unions())
    def test_matches_full_scan(self, union):
        ok, witness = star_shape_check(union)
        expected = star_shape_by_full_scan(union)
        if witness is None:
            assert (ok, None, None) == expected
        else:
            assert (ok, witness.point, witness.gap) == expected

    def test_drawn_unions_pass_and_fail(self):
        once = settings(phases=[Phase.generate], database=None)
        for outcome in (True, False):
            find(
                star_unions(),
                lambda u: star_shape_by_full_scan(u)[0] == outcome,
                settings=once,
            )

    def test_one_interval_per_candidate_on_exp_family_4(self, monkeypatch):
        union = [data.polytope for data in compute(exp_family(4)).chains]
        candidates = star_candidates(union)
        calls = []
        interval = exactgeom.segment_interval

        def counted(polytope, a, b):
            # The candidates arrive as homogeneous integer columns.
            calls.append(tuple(Fraction(c, b[-1]) for c in b[:-1]))
            return interval(polytope, a, b)

        monkeypatch.setattr(exactgeom, "segment_interval", counted)
        assert star_shape_check(union) == (True, None)
        # Every chain holds the origin, which is itself a candidate and is
        # decided by membership; each other candidate takes one interval.
        origin = zero_vector(union[0].dim)
        assert origin in candidates and len(candidates) == 41
        assert sorted(calls) == sorted(candidates - {origin})


class TestStarShape:
    def test_triangle_plus_segment(self, triangle):
        seg = extreme_points([V(-1, 0), V(0, 0)])
        ok, witness = star_shape_check([triangle, seg])
        assert ok and witness is None

    def test_detached_segment_fails_with_gap(self):
        seg = extreme_points([V(1, 0), V(2, 0)])
        ok, witness = star_shape_check([seg])
        assert not ok
        assert witness.point == V(1, 0)
        assert witness.gap == (Fraction(0), Fraction(1))

    def test_fixture_triangles(self):
        computation = compute(genus2_nonconvex())
        ok, _ = star_shape_check([c.polytope for c in computation.chains])
        assert ok

    def test_monotone_in_the_union(self):
        seg = extreme_points([V(1, 0), V(2, 0)])
        filler = extreme_points([V(0, 0), V(1, 0)])
        ok_small, _ = star_shape_check([seg])
        ok_large, _ = star_shape_check([seg, filler])
        assert not ok_small and ok_large
        # Once true, adding members never flips the answer back.
        extra = extreme_points([V(0, 0), V(0, 1)])
        ok_larger, _ = star_shape_check([seg, filler, extra])
        assert ok_larger

    def test_witness_is_certified(self):
        members = [
            extreme_points([V(0, 0), V(1, 0)]),
            extreme_points([V("3/2", 0), V(2, 0)]),
        ]
        ok, witness = star_shape_check(members)
        assert not ok
        lo, hi = witness.gap
        probe = vector_scale(witness.point, (lo + hi) / 2)
        assert all(not contains_point(m, probe) for m in members)


def rational_grid(hull, density):
    """Reference probe grid: every vertex, every pairwise midpoint and every
    barycentric combination with weights over 1..density, summed as
    Fractions, then sorted."""
    verts = hull.vertices
    expected = set(verts)
    expected.update(midpoint(u, v) for u, v in combinations(verts, 2))
    for den in range(1, density + 1):
        for weights in product(range(den + 1), repeat=len(verts)):
            if sum(weights) == den:
                expected.add(tuple(
                    sum(Fraction(w, den) * v[k] for w, v in zip(weights, verts))
                    for k in range(hull.dim)
                ))
    return sorted(expected)


def assert_probe_points_read_the_rational_grid(hull, density):
    """``probe_points`` holds the reference grid's points, in its order,
    read by iteration and by index alike."""
    columns = probe_points(hull, density)
    expected = rational_grid(hull, density)
    assert len(columns) == len(expected)
    items = list(columns)
    assert items == [columns[i] for i in range(len(columns))]
    assert all(isinstance(y, HomogeneousPoint) for y in items)
    assert [tuple(Fraction(a, y[-1]) for a in y[:-1]) for y in items] == expected


wide_rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=12)


@st.composite
def probe_hulls(draw):
    """Up to five rational points in dimension 1 to 4, with magnitudes up to
    10**6: a single point, points in general position, or points on a line
    or plane through a drawn point."""
    dim = draw(st.integers(1, 4))
    point = st.tuples(*[wide_rationals] * dim)
    shape = draw(st.sampled_from(["single", "general", "flat"]))
    if shape == "single":
        return [draw(point)]
    if shape == "general":
        return draw(st.lists(point, min_size=2, max_size=5))
    base = draw(point)
    directions = draw(st.lists(point, min_size=1, max_size=max(1, dim - 1)))
    scalars = st.tuples(*[rationals] * len(directions))
    return [
        tuple(b + sum(s * d[k] for s, d in zip(weights, directions))
              for k, b in enumerate(base))
        for weights in draw(st.lists(scalars, min_size=1, max_size=5))
    ]


class TestConvexityProbe:
    def test_two_triangles_sharing_origin(self):
        t1 = extreme_points([V(0, 0, 0, 0), V(1, 0, 0, 0), V(1, 1, 0, 0)])
        t2 = extreme_points([V(0, 0, 0, 0), V(0, 0, 1, 0), V(0, 0, 1, 1)])
        ok, witness = convexity_probe([t1, t2], density=4)
        assert not ok
        # The witness is LP-certified against every member.
        assert not contains_point(t1, witness)
        assert not contains_point(t2, witness)
        # The stated counterexample, the midpoint of outer vertices, fails too.
        outer_mid = midpoint(V(1, 1, 0, 0), V(0, 0, 1, 1))
        assert not contains_point(t1, outer_mid)
        assert not contains_point(t2, outer_mid)

    def test_collinear_segments_union_is_convex(self):
        s1 = extreme_points([V(0, 0), V(1, 0)])
        s2 = extreme_points([V(1, 0), V(2, 0)])
        for density in (1, 2, 5):
            ok, witness = convexity_probe([s1, s2], density=density)
            assert ok and witness is None

    def test_single_polytope(self, triangle):
        ok, witness = convexity_probe([triangle], density=3)
        assert ok and witness is None

    def test_fixture_blocks_pass_at_density_4(self):
        for model in (genus2_nonconvex(), genus2_full(), genus2_blocks(), exp_family(2)):
            [outcome] = run_checks(compute(model), convex_density=4)
            assert outcome.name == "block_union_convexity"
            assert outcome.passed

    @pytest.mark.parametrize("density", [1, 2, 3, 4])
    def test_probe_points_equal_rational_grid(self, density):
        hulls = [
            extreme_points([V(0, 0), V("1/2", 0), V(0, "1/3")]),
            extreme_points(
                [V(-1, "2/3", 0), V("5/4", 1, -2), V(0, 0, "1/6"), V(2, 2, 2)]
            ),
            extreme_points(
                [V(0, 0, 0, 0), V(1, 0, 0, 0), V(0, 1, 0, 0), V(0, 0, 1, 1)]
            ),
        ]
        for hull in hulls:
            assert_probe_points_read_the_rational_grid(hull, density)

    @settings(max_examples=60)
    @given(probe_hulls(), st.integers(1, 5))
    def test_probe_points_equal_rational_grid_on_wide_hulls(self, points, density):
        assert_probe_points_read_the_rational_grid(extreme_points(points), density)

    def test_the_probe_decodes_no_point_past_its_witness(self, monkeypatch):
        union = [block.polytope for block in compute(exp_family(4)).blocks]
        grids, decoded = [], []
        probe_points = analysis.probe_points
        decode = analysis.ProbeGrid._decode

        def spied_grid(hull, density):
            grids.append(probe_points(hull, density))
            return grids[-1]

        def spied_decode(grid, packed):
            decoded.append(packed)
            return decode(grid, packed)

        monkeypatch.setattr(analysis, "probe_points", spied_grid)
        monkeypatch.setattr(analysis.ProbeGrid, "_decode", spied_decode)
        ok, witness = convexity_probe(union, density=4)
        assert not ok
        assert witness == V(0, 0, 0, 0, 0, 0, "1/4", "1/4", 0, 0, 0, 0, 0, 0, 0, 0)
        [grid] = grids
        assert len(grid) == 651
        # The witness is the ninth point; the 642 after it stay packed.
        assert len(decoded) <= 9
        assert decoded == grid._packed[: len(decoded)]

    def test_density_validation(self, triangle):
        with pytest.raises(ValueError):
            convexity_probe([triangle], density=0)


class TestInteriorCheck:
    def test_full_dimensional_block_convex(self):
        computation = compute(genus2_full())
        report = interior_check(computation.blocks, genus=2)
        assert report.status == CONVEX

    def test_not_applicable_without_full_dimension(self):
        computation = compute(genus2_nonconvex())
        report = interior_check(computation.blocks, genus=2)
        assert report.status == NOT_APPLICABLE

    def test_violation_names_the_stray_vertex(self):
        computation = compute(genus2_full())
        [big] = computation.blocks
        from rotaxa.conley import Block, MarkedSupport

        stray = Block(
            key=MarkedSupport(frozenset({"X"}), "0", "0"),
            polytope=extreme_points([V(0, 0, 0, 0), V(9, 0, 0, 0)]),
            chains=(("X",),),
        )
        report = interior_check([big, stray], genus=2)
        assert report.status == VIOLATION
        assert "9" in report.detail
