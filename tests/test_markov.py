"""Basic-piece graphs: validation, word means, rotation polytopes."""

from __future__ import annotations

import gc
import random
from fractions import Fraction

import pytest

from conftest import V
from rotaxa.errors import InadmissibleWordError, ResourceCapError
from rotaxa.exactgeom import extreme_points, vector_scale
from rotaxa.markov import (
    ANNULAR,
    CURVED,
    TRIVIAL,
    BasicPieceModel,
    graph_from_edges,
    piece_rotation_set,
    simple_cycles,
    validate_piece,
    word_rotation_vector,
)


def curved(graph_nodes, graph_edges, piece_id="p"):
    return BasicPieceModel(
        id=piece_id,
        classification=CURVED,
        graph=graph_from_edges(graph_nodes, graph_edges),
    )


KWAPISZ_NODES = [("a", (0, 0)), ("b", (1, 0)), ("c", (1, 1))]
KWAPISZ_EDGES = [(u, v) for u in "abc" for v in "abc"]


class TestValidatePiece:
    def test_valid_self_loop(self):
        piece = curved([("a", (1, 0, 0, 0))], [("a", "a")])
        assert validate_piece(piece) == []

    def test_not_strongly_connected(self):
        piece = curved([("u", (0, 0)), ("v", (0, 0))], [("u", "v"), ("v", "v"), ("u", "u")])
        assert "not strongly connected" in validate_piece(piece)

    def test_trivial_piece_with_spread_rotation(self):
        graph = graph_from_edges(
            [("a", (0, 0)), ("b", (1, 0))],
            [("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")],
        )
        piece = BasicPieceModel(id="t", classification=TRIVIAL, graph=graph)
        # Independent check first: the two self-loops already give two
        # distinct cycle means, so the rotation set cannot be a point.
        means = {V(0, 0), V(1, 0)}
        assert len(extreme_points(means).vertices) == 2
        assert "trivial piece with non-singleton rotation set" in validate_piece(piece)

    def test_annular_needs_package_and_fill(self):
        graph = graph_from_edges([("a", (0, 0))], [("a", "a")])
        piece = BasicPieceModel(id="x", classification=ANNULAR, graph=graph)
        issues = validate_piece(piece)
        assert any("package" in issue for issue in issues)
        assert any("fill_behavior" in issue for issue in issues)

    def test_missing_degrees(self):
        sink = curved([("a", (0, 0)), ("b", (0, 0))], [("a", "a"), ("a", "b")])
        assert any("no outgoing edge" in issue for issue in validate_piece(sink))
        source = curved([("a", (0, 0)), ("b", (0, 0))], [("a", "a"), ("b", "a")])
        assert any("no incoming edge" in issue for issue in validate_piece(source))

    def test_non_integer_displacement(self):
        piece = curved([("a", (Fraction(1, 2), 0))], [("a", "a")])
        assert any("non-integer" in issue for issue in validate_piece(piece))


class TestWordRotation:
    def test_self_loop(self):
        piece = curved([("a", (3, -1))], [("a", "a")])
        assert word_rotation_vector(piece, ("a",)) == V(3, -1)

    def test_two_cycle_mean(self):
        piece = curved(
            [("a", (1, 0)), ("b", (0, 1))], [("a", "b"), ("b", "a")]
        )
        assert word_rotation_vector(piece, ("a", "b")) == V("1/2", "1/2")

    def test_three_cycle_mean(self):
        piece = curved(
            [("a", (0, 0)), ("b", (1, 0)), ("c", (1, 1))],
            [("a", "b"), ("b", "c"), ("c", "a")],
        )
        assert word_rotation_vector(piece, ("a", "b", "c")) == V("2/3", "1/3")

    def test_inadmissible_transition_named(self):
        piece = curved(
            [("a", (0, 0)), ("b", (1, 0))],
            [("a", "b"), ("b", "a"), ("a", "a")],
        )
        with pytest.raises(InadmissibleWordError, match="'b' -> 'b'"):
            word_rotation_vector(piece, ("b", "b"))

    def test_cyclic_shift_invariance(self):
        piece = curved(KWAPISZ_NODES, KWAPISZ_EDGES)
        word = ("a", "b", "c", "b")
        base = word_rotation_vector(piece, word)
        for shift in range(1, len(word)):
            rotated = word[shift:] + word[:shift]
            assert word_rotation_vector(piece, rotated) == base


class TestPieceRotationSet:
    def test_kwapisz_triangle(self):
        piece = curved(KWAPISZ_NODES, KWAPISZ_EDGES)
        assert piece_rotation_set(piece).vertices == (V(0, 0), V(1, 0), V(1, 1))

    def test_zero_point(self):
        piece = curved([("a", (0, 0, 0, 0))], [("a", "a")])
        assert piece_rotation_set(piece).vertices == (V(0, 0, 0, 0),)

    def test_two_loops_give_segment(self):
        piece = curved(
            [("a", (1, 0)), ("b", (0, 1))],
            [("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")],
        )
        cycles = {tuple(c) for c in simple_cycles(piece.graph)}
        assert cycles == {("a",), ("b",), ("a", "b")}
        assert piece_rotation_set(piece).vertices == (V(0, 1), V(1, 0))

    def test_vertex_denominators_divide_a_cycle_length(self):
        rng = random.Random(11)
        for _ in range(20):
            piece = random_scc_piece(rng)
            n = len(piece.graph.nodes)
            lengths = {len(c) for c in simple_cycles(piece.graph)}
            for vertex in piece_rotation_set(piece).vertices:
                lcm = 1
                for c in vertex:
                    lcm = lcm * c.denominator // _gcd(lcm, c.denominator)
                assert any(length % lcm == 0 for length in lengths if length <= n)

    def test_scaling_displacements_scales_vertices(self):
        rng = random.Random(23)
        for _ in range(10):
            piece = random_scc_piece(rng)
            factor = rng.randint(2, 5)
            scaled = BasicPieceModel(
                id=piece.id,
                classification=piece.classification,
                graph=graph_from_edges(
                    [
                        (name, vector_scale(disp, factor))
                        for name, disp in piece.graph.nodes
                    ],
                    piece.graph.edges,
                ),
            )
            base = piece_rotation_set(piece)
            assert piece_rotation_set(scaled).vertices == tuple(
                vector_scale(v, factor) for v in base.vertices
            )

    def test_cycle_cap_is_an_error(self):
        piece = curved(KWAPISZ_NODES, KWAPISZ_EDGES)
        with pytest.raises(ResourceCapError):
            piece_rotation_set(piece, cycle_cap=2)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def random_scc_piece(rng: random.Random, max_nodes: int = 6) -> BasicPieceModel:
    """Random strongly connected displacement graph (a cycle plus chords)."""
    n = rng.randint(1, max_nodes)
    names = [f"n{i}" for i in range(n)]
    ring = names[:]
    rng.shuffle(ring)
    edges = {(ring[i], ring[(i + 1) % n]) for i in range(n)}
    for _ in range(rng.randint(0, n)):
        edges.add((rng.choice(names), rng.choice(names)))
    nodes = [
        (name, tuple(rng.randint(-3, 3) for _ in range(4))) for name in names
    ]
    return BasicPieceModel(
        id="random",
        classification=CURVED,
        graph=graph_from_edges(nodes, edges),
    )


class TestSimpleCycles:
    def test_counts_on_complete_digraph(self):
        piece = curved(KWAPISZ_NODES, KWAPISZ_EDGES)
        cycles = simple_cycles(piece.graph)
        # 3 loops + 3 two-cycles + 2 rotations of the full triangle.
        assert len(cycles) == 8
        assert all(len(set(c)) == len(c) for c in cycles)

    def test_each_cycle_admissible(self):
        rng = random.Random(3)
        for _ in range(15):
            piece = random_scc_piece(rng)
            edges = set(piece.graph.edges)
            for cycle in simple_cycles(piece.graph):
                for i, node in enumerate(cycle):
                    assert (node, cycle[(i + 1) % len(cycle)]) in edges

    def test_long_cycle_needs_no_deep_recursion(self):
        # One 1200-node ring, deeper than the default recursion limit.
        names = [f"n{i:04d}" for i in range(1200)]
        nodes = [(name, (i % 3 - 1, int(i == 0))) for i, name in enumerate(names)]
        edges = [(names[i], names[(i + 1) % 1200]) for i in range(1200)]
        piece = curved(nodes, edges)
        assert simple_cycles(piece.graph) == [tuple(names)]
        assert piece_rotation_set(piece).vertices == (V(0, Fraction(1, 1200)),)

    def test_leaves_no_reference_cycles(self):
        nodes = [(name, (0, 0)) for name in "abcde"]
        piece = curved(nodes, [(u, v) for u in "abcde" for v in "abcde"])
        gc.collect()
        gc.disable()
        try:
            assert len(simple_cycles(piece.graph)) == 89
            assert gc.collect() == 0
        finally:
            gc.enable()
