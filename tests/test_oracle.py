"""Brute-force cross-checks: bounded-cycle hulls and seeded chain sampling."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import V, zero_vector
from rotaxa import engine, exactgeom, oracle, simplex
from rotaxa.engine import compute, run_checks
from rotaxa.errors import InadmissibleWordError, ResourceCapError
from rotaxa.exactgeom import (
    HomogeneousPoint,
    contains_point,
    extreme_points,
    homogeneous,
)
from rotaxa.fixtures import exp_family, genus2_full, get_fixture
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


def reference_samples(chain, table, count, seed):
    """The samples word by word, as Fraction vectors: the same LCG draws
    through the public helpers, the word means summed as Fractions."""
    rng = Lcg64(seed)
    dim = len(table[chain[0]].graph.nodes[0][1])
    out = []
    for _ in range(count):
        value = [Fraction(0)] * dim
        weights = convex_weights(len(chain), rng)
        for weight, name in zip(weights, chain):
            word = random_periodic_word(table[name], rng)
            mean = word_rotation_vector(table[name], word)
            value = [v + weight * m for v, m in zip(value, mean)]
        out.append(tuple(value))
    return out


@st.composite
def sampled_chains(draw):
    """A chain of 1-4 random strongly connected pieces of 1-8 nodes each,
    with rational displacements in one dimension of 1-4."""
    dim = draw(st.integers(1, 4))
    coordinate = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    table = {}
    for i in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 8))
        names = [f"n{j}" for j in range(n)]
        ring = draw(st.permutations(names))
        edges = {(ring[j], ring[(j + 1) % n]) for j in range(n)}
        edges |= set(draw(st.lists(st.tuples(*[st.sampled_from(names)] * 2))))
        nodes = [
            (name, tuple(draw(st.lists(coordinate, min_size=dim, max_size=dim))))
            for name in names
        ]
        table[f"p{i}"] = curved(nodes, edges, piece_id=f"p{i}")
    return tuple(table), table


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
        computation = compute(get_fixture(fixture))
        table = computation.model.pieces_by_id()
        for data in computation.chains:
            for seed in (1, 7, 2026):
                expected = reference_samples(data.chain, table, 40, seed)
                assert sample_chain_averages(data.chain, table, 40, seed) == [
                    homogeneous(v) for v in expected
                ]

    @settings(max_examples=120, deadline=None)
    @given(sampled_chains(), st.integers(0, 2**64 - 1), st.integers(1, 60))
    def test_random_chains_equal_word_by_word_reference(self, case, seed, count):
        chain, table = case
        samples = sample_chain_averages(chain, table, count, seed)
        expected = reference_samples(chain, table, count, seed)
        assert samples == [homogeneous(v) for v in expected]
        assert all(isinstance(s, HomogeneousPoint) for s in samples)

    def test_memo_keeps_the_admissibility_check(self, monkeypatch):
        # ("a", "c", "b") has the length and displacement total of the cycle
        # ("a", "b", "c") but uses the non-edges a -> c and c -> b: a memo
        # keyed by anything coarser than the word itself would let it pass.
        piece = curved(
            [("a", (1, 0)), ("b", (0, 1)), ("c", (1, 1))],
            [("a", "b"), ("b", "c"), ("c", "a")],
        )
        words = iter([("a", "b", "c"), ("b", "c", "a"), ("a", "c", "b")])
        monkeypatch.setattr(
            oracle, "_closed_walk", lambda nodes, succ, state: (next(words), state)
        )
        with pytest.raises(InadmissibleWordError, match="'a' -> 'c'"):
            sample_chain_averages(("p",), {"p": piece}, 3, seed=1)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, 2**64 + 3, -1])
    def test_seed_is_read_modulo_2_64(self, seed):
        computation = compute(genus2_full())
        table = computation.model.pieces_by_id()
        [data] = computation.chains
        samples = sample_chain_averages(data.chain, table, 60, seed)
        expected = reference_samples(data.chain, table, 60, seed)
        assert samples == [homogeneous(v) for v in expected]
        assert samples == sample_chain_averages(
            data.chain, table, 60, seed % 2**64
        )

    def test_draw_count(self):
        # On a ring every walk takes one draw for its start and one per
        # step, and closes after len(ring) steps; weights for k members
        # take k - 1 draws.
        ring = curved(
            [("a", (1, 0)), ("b", (0, 1)), ("c", (1, 1))],
            [("a", "b"), ("b", "c"), ("c", "a")],
        )
        rng = Lcg64(2**64 + 5)
        draws = 0
        for count in (3, 1, 5, 2):
            weights = convex_weights(count, rng)
            assert sum(weights) == 1
            word = random_periodic_word(ring, rng)
            assert sorted(word) == ["a", "b", "c"]
            draws += count - 1 + 4
        state = 5
        for _ in range(draws):
            state = (6364136223846793005 * state + 1442695040888963407) % 2**64
        assert rng.state == state

    def test_sink_node_raises_value_error(self):
        # "b" has no successor, so every walk reaches an empty choice.
        piece = curved([("a", (1, 0)), ("b", (0, 1))], [("a", "b")])
        for seed in range(4):
            with pytest.raises(ValueError, match="node 'b' has no successor"):
                random_periodic_word(piece, Lcg64(seed))
            with pytest.raises(ValueError, match="node 'b' has no successor"):
                sample_chain_averages(("p",), {"p": piece}, 5, seed)

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
        # Each sample is drawn as an integer column and tested as it is.
        assert outcome.passed and outcome.info["samples"] == 40
        assert len(converted) == 0

    def test_each_sample_is_tested_once_per_distinct_polytope(self, monkeypatch):
        # Every block of exp_family(3) is its one chain's own polytope, so
        # each sample takes one membership test.
        computation = compute(exp_family(3))
        assert all(
            block.polytope is data.polytope
            for block in computation.blocks
            for data in computation.chains
            if data.chain in block.chains
        )
        tested = []

        def counted(polytope, point):
            tested.append(point)
            return contains_point(polytope, point)

        monkeypatch.setattr(engine, "contains_point", counted)
        (outcome,) = run_checks(computation, oracle_samples=1000)
        assert outcome.passed and outcome.info["samples"] == 1000
        assert len(tested) == 1000

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
