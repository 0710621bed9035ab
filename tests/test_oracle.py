"""Brute-force cross-checks: bounded-cycle hulls and seeded chain sampling."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from conftest import V
from rotaxa import exactgeom, oracle, simplex
from rotaxa.engine import compute, run_checks
from rotaxa.errors import ResourceCapError
from rotaxa.exactgeom import contains_point, extreme_points, zero_vector
from rotaxa.fixtures import genus2_full, get_fixture
from rotaxa.markov import (
    CURVED,
    BasicPieceModel,
    graph_from_edges,
    piece_rotation_set,
    word_rotation_vector,
)
from rotaxa.oracle import (
    Lcg64,
    convex_weights,
    oracle_piece_set,
    random_periodic_word,
    sample_chain_averages,
)
from test_markov import KWAPISZ_EDGES, KWAPISZ_NODES, random_scc_piece


def curved(nodes, edges, piece_id="p"):
    return BasicPieceModel(
        id=piece_id, classification=CURVED, graph=graph_from_edges(nodes, edges)
    )


class TestOraclePieceSet:
    def test_single_self_loop(self):
        piece = curved([("a", (2, 0))], [("a", "a")])
        assert oracle_piece_set(piece, 5).vertices == (V(2, 0),)

    def test_two_node_complete(self):
        piece = curved(
            [("a", (1, 0)), ("b", (0, 1))],
            [("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")],
        )
        assert oracle_piece_set(piece, 6).vertices == (V(0, 1), V(1, 0))

    def test_kwapisz_triangle(self):
        piece = curved(KWAPISZ_NODES, KWAPISZ_EDGES)
        assert oracle_piece_set(piece, 6).vertices == (V(0, 0), V(1, 0), V(1, 1))

    def test_equivalence_with_simple_cycle_route(self):
        rng = random.Random(314159)
        for _ in range(30):
            piece = random_scc_piece(rng)
            bound = 2 * len(piece.graph.nodes)
            assert oracle_piece_set(piece, bound) == piece_rotation_set(piece)

    def test_longer_bound_never_shrinks(self):
        rng = random.Random(8)
        for _ in range(10):
            piece = random_scc_piece(rng, max_nodes=4)
            n = len(piece.graph.nodes)
            small = oracle_piece_set(piece, n)
            large = oracle_piece_set(piece, 2 * n + 2)
            for v in small.vertices:
                assert contains_point(large, v)

    def test_bound_must_reach_node_count(self):
        piece = curved(KWAPISZ_NODES, KWAPISZ_EDGES)
        with pytest.raises(ValueError):
            oracle_piece_set(piece, 2)

    def test_state_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "DEFAULT_STATE_CAP", 3)
        piece = curved(KWAPISZ_NODES, KWAPISZ_EDGES)
        with pytest.raises(ResourceCapError):
            oracle_piece_set(piece, 6)


class TestLcg:
    def test_documented_sequence(self):
        rng = Lcg64(1)
        first = (6364136223846793005 * 1 + 1442695040888963407) % 2**64
        assert rng.next_raw() == first

    def test_reproducible(self):
        a = Lcg64(42)
        b = Lcg64(42)
        assert [a.below(100) for _ in range(20)] == [b.below(100) for _ in range(20)]


class TestSampling:
    def test_weights_are_convex_with_bounded_denominator(self):
        rng = Lcg64(5)
        for count in (1, 2, 5):
            weights = convex_weights(count, rng)
            assert sum(weights) == 1
            assert all(w >= 0 for w in weights)
            assert all(w.denominator <= 64 for w in weights)

    def test_random_words_are_admissible(self):
        rng = Lcg64(9)
        piece = curved(KWAPISZ_NODES, KWAPISZ_EDGES)
        for _ in range(50):
            word = random_periodic_word(piece, rng)
            word_rotation_vector(piece, word)  # raises if inadmissible

    def test_single_piece_chain_samples_inside(self):
        piece = curved(KWAPISZ_NODES, KWAPISZ_EDGES)
        polytope = piece_rotation_set(piece)
        samples = sample_chain_averages(("p",), {"p": piece}, 200, seed=3)
        assert all(contains_point(polytope, s) for s in samples)

    def test_two_point_pieces_average(self):
        a = curved([("o", (1, 0))], [("o", "o")], piece_id="a")
        b = curved([("o", (0, 1))], [("o", "o")], piece_id="b")
        # Equal weights on the two point rotations give the midpoint exactly.
        half = Fraction(1, 2)
        expected = (half, half)
        combo = tuple(
            half * x + half * y
            for x, y in zip(
                word_rotation_vector(a, ("o",)), word_rotation_vector(b, ("o",))
            )
        )
        assert combo == expected
        # Every sampled average stays on the segment between the two points.
        segment = piece_rotation_set(a).vertices + piece_rotation_set(b).vertices
        from rotaxa.exactgeom import extreme_points

        hull = extreme_points(segment)
        samples = sample_chain_averages(("a", "b"), {"a": a, "b": b}, 100, seed=1)
        assert all(contains_point(hull, s) for s in samples)

    def test_full_fixture_chain_mixes_pieces(self):
        computation = compute(genus2_full())
        [data] = computation.chains
        table = computation.model.pieces_by_id()
        samples = sample_chain_averages(data.chain, table, 1000, seed=7)
        assert all(contains_point(data.polytope, s) for s in samples)
        h1 = computation.piece_sets["H1"]
        h2 = computation.piece_sets["H2"]
        assert any(
            not contains_point(h1, s) and not contains_point(h2, s)
            for s in samples
        )

    @pytest.mark.parametrize(
        "fixture",
        ["genus2_nonconvex", "genus2_full", "genus2_blocks", "exp_family(2)",
         "exp_family(3)"],
    )
    def test_values_equal_word_by_word_reference(self, fixture):
        # The reference draws the same LCG values through the public helpers
        # and sums the word means as Fractions.
        computation = compute(get_fixture(fixture))
        table = computation.model.pieces_by_id()
        for data in computation.chains:
            for seed in (1, 7, 2026):
                rng = Lcg64(seed)
                expected = []
                for _ in range(40):
                    value = [Fraction(0)] * data.polytope.dim
                    weights = convex_weights(len(data.chain), rng)
                    for weight, name in zip(weights, data.chain):
                        word = random_periodic_word(table[name], rng)
                        mean = word_rotation_vector(table[name], word)
                        value = [v + weight * m for v, m in zip(value, mean)]
                    expected.append(tuple(value))
                assert sample_chain_averages(data.chain, table, 40, seed) == expected

    def test_determinism(self):
        piece = curved(KWAPISZ_NODES, KWAPISZ_EDGES)
        one = sample_chain_averages(("p",), {"p": piece}, 50, seed=11)
        two = sample_chain_averages(("p",), {"p": piece}, 50, seed=11)
        assert one == two


class TestChainSamplingCheck:
    @pytest.mark.parametrize("block_kind", ["simplex", "cube"])
    def test_each_sample_is_converted_once(self, monkeypatch, block_kind):
        computation = compute(genus2_full())
        (block,) = computation.blocks
        if block_kind == "cube":
            # A 16-vertex block around the chain set: the LP path.
            cube = extreme_points(product((-1, 2), repeat=4))
            computation = replace(computation, blocks=(replace(block, polytope=cube),))
        converted = []
        integer_rows = simplex.integer_rows

        def counted(vectors):
            vectors = tuple(vectors)
            converted.extend(vectors)
            return integer_rows(vectors)

        for module in (simplex, exactgeom):
            monkeypatch.setattr(module, "integer_rows", counted)
        (outcome,) = run_checks(computation, oracle_samples=40)
        # Each sample is tested against its chain and its block.
        assert outcome.passed and outcome.info["samples"] == 40
        assert len(converted) == 40

    @pytest.mark.parametrize("shrunk", ["chain", "block"])
    def test_failure_messages(self, shrunk):
        computation = compute(genus2_full())
        origin = extreme_points([zero_vector(4)])
        (chain,), (block,) = computation.chains, computation.blocks
        if shrunk == "chain":
            computation = replace(
                computation, chains=(replace(chain, polytope=origin),)
            )
            where = "chain H1<H2"
        else:
            computation = replace(
                computation, blocks=(replace(block, polytope=origin),)
            )
            where = "block T1+T2|0|0"
        (outcome,) = run_checks(computation, oracle_samples=3, seed=7)
        assert not outcome.passed
        assert outcome.details == (
            f"sample ('7/12', '7/24', '1/8', '1/8') outside {where}",
            f"sample ('0', '0', '61/64', '61/64') outside {where}",
            f"sample ('9/64', '0', '55/64', '0') outside {where}",
        )
