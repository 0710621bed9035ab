"""Acceptance criteria: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is exact (zero); runtime budgets are asserted with a
wall clock.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from conftest import V, brute_extreme_2d, vector_scale
from rotaxa.analysis import CONVEX, convexity_probe, star_shape_check
from rotaxa.conley import support_span
from rotaxa.engine import compute, run_checks
from rotaxa.exactgeom import (
    affine_dim,
    as_vector,
    contains_point,
    extreme_points,
    rank_of,
    segment_covered,
)
from rotaxa.fixtures import exp_family, genus2_blocks, genus2_full, genus2_nonconvex
from rotaxa.heteroclinic import relation_edge, HeteroclinicPoset
from rotaxa.markov import (
    CURVED,
    TRIVIAL,
    BasicPieceModel,
    graph_from_edges,
    piece_rotation_set,
)
from rotaxa.model import ModelDocument
from rotaxa.oracle import oracle_piece_set

ALL_FIXTURES = {
    "genus2_nonconvex": genus2_nonconvex(),
    "genus2_full": genus2_full(),
    "genus2_blocks": genus2_blocks(),
    "exp_family(1)": exp_family(1),
    "exp_family(2)": exp_family(2),
    "exp_family(3)": exp_family(3),
}


def report(number: int, description: str, ok: bool, elapsed: float, budget: float):
    within = elapsed < budget
    status = "PASS" if (ok and within) else "FAIL"
    print(
        f"[ACCEPTANCE {number}] {description}: {status} "
        f"({elapsed:.2f}s, budget {budget:.0f}s)"
    )
    assert ok, f"criterion {number} failed"
    assert within, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_nonconvex_fixture():
    start = time.perf_counter()
    computation = compute(genus2_nonconvex())
    ok = len(computation.blocks) == 2
    union = [b.polytope for b in computation.blocks]
    convex, witness = convexity_probe(union, density=4)
    ok = ok and not convex
    ok = ok and all(not contains_point(member, witness) for member in union)
    star, _ = star_shape_check([c.polytope for c in computation.chains])
    ok = ok and star
    report(1, "genus2_nonconvex: 2 blocks, certified non-convex, star-shaped",
           ok, time.perf_counter() - start, 1.0)


def test_criterion_2_full_dimensional_fixture():
    from rotaxa.analysis import interior_check

    start = time.perf_counter()
    computation = compute(genus2_full())
    ok = len(computation.blocks) == 1
    ok = ok and affine_dim(computation.blocks[0].polytope) == 4
    ok = ok and interior_check(computation.blocks, genus=2).status == CONVEX
    report(2, "genus2_full: one block, affine dim 4, interior => convex",
           ok, time.perf_counter() - start, 1.0)


def test_criterion_3_exponential_family():
    start = time.perf_counter()
    ok = True
    for k in (1, 2, 3):
        model = exp_family(k)
        computation = compute(model)
        blocks = computation.blocks
        ok = ok and len(blocks) == 2 ** k
        ok = ok and all(affine_dim(b.polytope) == k for b in blocks)
        spans = [support_span(b.key, model) for b in blocks]
        for i in range(len(spans)):
            for j in range(i + 1, len(spans)):
                stacked = list(spans[i].basis) + list(spans[j].basis)
                meet = (
                    rank_of(spans[i].basis)
                    + rank_of(spans[j].basis)
                    - rank_of(stacked)
                )
                ok = ok and meet <= k - 1
        genus = 2 * k
        ok = ok and model.genus == genus
        ok = ok and len(blocks) <= 4 * 2 ** (5 * genus - 5)
    report(3, "exp_family(1..3): 2^k simplicial blocks within the budget",
           ok, time.perf_counter() - start, 5.0)


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20260809)
    ok = True
    for trial in range(100):
        n = rng.randint(1, 6)
        names = [f"n{i}" for i in range(n)]
        ring = names[:]
        rng.shuffle(ring)
        edges = {(ring[i], ring[(i + 1) % n]) for i in range(n)}
        for _ in range(rng.randint(0, n)):
            edges.add((rng.choice(names), rng.choice(names)))
        nodes = [
            (name, tuple(rng.randint(-3, 3) for _ in range(4)))
            for name in names
        ]
        piece = BasicPieceModel(
            id=f"g{trial}",
            classification=CURVED,
            graph=graph_from_edges(nodes, edges),
        )
        if piece_rotation_set(piece) != oracle_piece_set(piece, 2 * n):
            ok = False
            break
    report(4, "oracle equivalence on 100 random strongly connected graphs",
           ok, time.perf_counter() - start, 30.0)


def test_criterion_5_chain_sampling_containment():
    start = time.perf_counter()
    ok = True
    for name, model in ALL_FIXTURES.items():
        computation = compute(model)
        outcomes = run_checks(computation, oracle_samples=1000, seed=2026)
        [outcome] = outcomes
        ok = ok and outcome.passed and outcome.info["samples"] == 1000
        ok = ok and outcome.info["violations"] == 0
    report(5, "1000 seeded chain samples per fixture inside chain and block",
           ok, time.perf_counter() - start, 10.0)


def test_criterion_6_structural_invariants():
    start = time.perf_counter()
    ok = True
    for name, model in ALL_FIXTURES.items():
        outcomes = {
            outcome.name: outcome
            for outcome in run_checks(compute(model), bound=True, subspace=True)
        }
        for check_name in ("support_variants", "subspace_containment", "chain_in_block"):
            ok = ok and outcomes[check_name].passed

    # Pass-through trivial piece must not change any computed polytope.
    base = genus2_full()
    trivial = BasicPieceModel(
        id="T0",
        classification=TRIVIAL,
        graph=graph_from_edges([("o", (0, 0, 0, 0))], [("o", "o")]),
    )
    extended = ModelDocument(
        genus=base.genus,
        pieces=base.pieces + (trivial,),
        heteroclinic=HeteroclinicPoset(
            pieces=base.heteroclinic.pieces + ("T0",),
            edges=base.heteroclinic.edges
            + (relation_edge("H1", "T0"), relation_edge("T0", "H2")),
        ),
        decomposition=base.decomposition,
    )
    before = compute(base)
    after = compute(extended)
    ok = ok and [c.chain for c in before.chains] == [c.chain for c in after.chains]
    ok = ok and [c.polytope for c in before.chains] == [c.polytope for c in after.chains]
    ok = ok and [(b.key, b.polytope) for b in before.blocks] == [
        (b.key, b.polytope) for b in after.blocks
    ]
    report(6, "structure checks on every fixture + trivial-piece regression",
           ok, time.perf_counter() - start, 5.0)


def test_criterion_7_geometry_kernel_properties():
    start = time.perf_counter()
    rng = random.Random(271828)
    ok = True

    for _ in range(1000):
        dim = rng.randint(2, 8)
        count = rng.randint(1, 6)
        points = [
            as_vector(
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim)]
            )
            for _ in range(count)
        ]
        hull = extreme_points(points)
        # Idempotence.
        ok = ok and extreme_points(hull.vertices) == hull
        # Completeness: every input point is a member.
        probe = points[rng.randrange(count)]
        ok = ok and contains_point(hull, probe)
        # Soundness: no vertex is absorbed by the others.
        if len(hull.vertices) > 1:
            v = hull.vertices[rng.randrange(len(hull.vertices))]
            others = [w for w in hull.vertices if w != v]
            ok = ok and not contains_point(extreme_points(others), v)
        # Membership of a random convex combination.
        weights = [rng.randint(0, 4) for _ in hull.vertices]
        if sum(weights) == 0:
            weights[0] = 1
        total = sum(weights)
        combo = tuple(
            sum((Fraction(w) * v[k] for w, v in zip(weights, hull.vertices)),
                Fraction(0)) / total
            for k in range(dim)
        )
        ok = ok and contains_point(hull, combo)
        # Non-membership beyond the bounding box.
        outside = list(hull.vertices[0])
        outside[0] = max(v[0] for v in hull.vertices) + 1
        ok = ok and not contains_point(hull, tuple(outside))
        if not ok:
            break

    # Planar agreement with the exhaustive simplex-decomposition oracle.
    for _ in range(60):
        points = [
            V(rng.randint(-4, 4), rng.randint(-4, 4))
            for _ in range(rng.randint(1, 8))
        ]
        ok = ok and list(extreme_points(points).vertices) == brute_extreme_2d(points)

    # Constructed gap families: cover [0, a] and [b, 1]; covered iff a >= b.
    target = V(1, 1)
    for a_idx in range(5):
        for b_idx in range(5):
            a, b = Fraction(a_idx, 4), Fraction(b_idx, 4)
            family = [
                extreme_points([V(0, 0), vector_scale(target, a)]),
                extreme_points([vector_scale(target, b), target]),
            ]
            ok = ok and segment_covered(V(0, 0), target, family) == (a >= b)

    report(7, "geometry kernel properties on 1000 random instances",
           ok, time.perf_counter() - start, 30.0)
