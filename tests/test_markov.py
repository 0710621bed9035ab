"""Basic-piece graphs: validation, word means, rotation polytopes."""

from __future__ import annotations

import gc
import json
import random
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import V, vector_scale
from rotaxa import markov
from rotaxa.cli import main
from rotaxa.engine import validate
from rotaxa.errors import InadmissibleWordError, ResourceCapError
from rotaxa.exactgeom import extreme_points, format_vector
from rotaxa.fixtures import genus2_full
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
            [("a", (0, 0, 0, 0)), ("b", (1, 0, 0, 0))],
            [("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")],
        )
        piece = BasicPieceModel(id="t", classification=TRIVIAL, graph=graph)
        # Independent check first: the two self-loops already give two
        # distinct cycle means, so the rotation set cannot be a point.
        means = {V(0, 0, 0, 0), V(1, 0, 0, 0)}
        assert len(extreme_points(means).vertices) == 2
        # The singleton check runs on the polytopes that compute builds.
        base = genus2_full()
        model = replace(
            base,
            pieces=base.pieces + (piece,),
            heteroclinic=replace(
                base.heteroclinic, pieces=base.heteroclinic.pieces + ("t",)
            ),
        )
        violations, _ = validate(model)
        assert violations == [
            f"/pieces/{len(base.pieces)} (t): trivial piece with non-singleton "
            "rotation set"
        ]

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

    def test_rational_displacements(self):
        # Summed over their common denominator 6, then over 2 * 6.
        piece = curved(
            [("a", ("1/2", "-1/3")), ("b", ("1/6", 2))], [("a", "b"), ("b", "a")]
        )
        assert word_rotation_vector(piece, ("a", "b")) == V("1/3", "5/6")

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

    def test_cycle_cap_is_an_error(self, monkeypatch):
        monkeypatch.setattr(markov, "DEFAULT_CYCLE_CAP", 2)
        piece = curved(KWAPISZ_NODES, KWAPISZ_EDGES)
        # The states (a), (ab, b) and then (abc, c): the third passes the cap.
        message = r"simple_cycles: more than 2 search states \(3 reached\)"
        with pytest.raises(ResourceCapError, match=message):
            piece_rotation_set(piece)


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


def plain_simple_cycles(graph):
    """Every elementary cycle by plain depth-first search, with no blocking:
    from each start node in sorted order, every path over larger nodes, in
    sorted successor order, that returns to the start."""
    succ = {name: [] for name in graph.node_ids}
    for u, v in sorted(set(graph.edges)):
        succ[u].append(v)
    cycles = []

    def walk(start, path):
        for w in succ[path[-1]]:
            if w == start:
                cycles.append(tuple(path))
            elif w > start and w not in path:
                walk(start, path + [w])

    for start in sorted(succ):
        walk(start, [start])
    return cycles


@st.composite
def digraphs(draw):
    names = draw(
        st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=7, unique=True)
    )
    node = st.sampled_from(names)
    edges = draw(st.sets(st.tuples(node, node), max_size=3 * len(names)))
    return graph_from_edges([(name, (0,)) for name in names], edges)


def first_node_sets(cycles):
    """The first cycle on each node set, in order."""
    seen = set()
    firsts = []
    for cycle in cycles:
        if frozenset(cycle) not in seen:
            seen.add(frozenset(cycle))
            firsts.append(cycle)
    return firsts


def tuple_summed_rotation_set(piece: BasicPieceModel):
    """The piece polytope with every simple cycle of a plain depth-first
    search summed as a coordinate tuple and each mean keyed by its
    gcd-reduced ``(total, length)``: the summation that packed integer sums
    replaced, over the enumeration that node sets replaced, kept as their
    oracle."""
    den, ints = piece.graph.integer_displacements
    sums = {
        (tuple(map(sum, zip(*map(ints.__getitem__, cycle)))), len(cycle))
        for cycle in plain_simple_cycles(piece.graph)
    }
    keys = set()
    for total, length in sums:
        g = gcd(length, *total)
        keys.add((tuple(t // g for t in total), length // g))
    return extreme_points(
        tuple(Fraction(t, length * den) for t in total) for total, length in keys
    )


@st.composite
def strongly_connected_pieces(draw):
    """A ring through every node plus chords and self-loops, with
    displacements that are small, or large enough to widen the packing."""
    n = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 4))
    names = [f"n{i}" for i in range(n)]
    ring = draw(st.permutations(names))
    node = st.sampled_from(names)
    edges = {(ring[i], ring[(i + 1) % n]) for i in range(n)}
    edges |= draw(st.sets(st.tuples(node, node), max_size=2 * n))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(10**40), 10**40))
    nodes = [
        (name, draw(st.lists(entry, min_size=dim, max_size=dim))) for name in names
    ]
    return curved(nodes, edges)


class TestPackedCycleSums:
    @settings(max_examples=200)
    @given(strongly_connected_pieces())
    def test_matches_tuple_summation(self, piece):
        assert piece_rotation_set(piece) == tuple_summed_rotation_set(piece)

    def test_loops_that_a_narrower_packing_would_merge(self):
        # The loop means differ by (2^k, -1), which packs to 0 at width k:
        # a packing that narrow would merge them and lose an endpoint.
        edges = [("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")]
        for k in range(1, 160):
            for h in {1, 2 ** (k - 1)}:
                a, b = V(-h, 0), V(2**k - h, -1)
                piece = curved([("a", a), ("b", b)], edges)
                assert piece_rotation_set(piece).vertices == (a, b)


class TestSimpleCycles:
    @settings(max_examples=300)
    @given(digraphs())
    def test_matches_plain_depth_first_search(self, graph):
        # One cycle per node set: the first that a plain search meets,
        # which is the lexicographically least on the set.
        assert simple_cycles(graph) == first_node_sets(plain_simple_cycles(graph))

    @settings(max_examples=200)
    @given(digraphs(), st.data())
    def test_weighted_cycles_are_summed_node_tuples(self, graph, data):
        # One (sum, length) per cycle, in the order and number of the node
        # tuples; weights as wide as packed displacement rows.
        entry = st.one_of(st.integers(-3, 3), st.integers(-(10**40), 10**40))
        weights = {name: data.draw(entry) for name in graph.node_ids}
        assert simple_cycles(graph, weights) == [
            (sum(weights[v] for v in cycle), len(cycle))
            for cycle in simple_cycles(graph)
        ]

    def test_all_zero_displacements_pack_at_width_zero(self):
        # Every packed row is 0 and every digit decodes to 0, as on the
        # trivial pieces of exp_family.
        names = "abcd"
        for dim in (1, 4):
            piece = curved(
                [(name, (0,) * dim) for name in names],
                [(u, v) for u in names for v in names],
            )
            # One cycle per non-empty node set of K_4 with loops: 2**4 - 1.
            assert len(simple_cycles(piece.graph)) == 15
            assert piece_rotation_set(piece).vertices == (V(*(0,) * dim),)

    def test_counts_on_complete_digraph(self):
        piece = curved(KWAPISZ_NODES, KWAPISZ_EDGES)
        cycles = simple_cycles(piece.graph)
        # 3 loops + 3 two-cycles + the full triangle, whose two
        # orientations share one node set.
        assert len(cycles) == 7
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
            # One cycle per non-empty node set of K_5 with loops: 2**5 - 1.
            assert len(simple_cycles(piece.graph)) == 31
            assert gc.collect() == 0
        finally:
            gc.enable()


def complete_digraph(n: int) -> BasicPieceModel:
    """K_n with a self-loop on every node and displacements in [-3, 3]^4,
    seeded by ``n``.  Every node is a 1-cycle, so the piece polytope is the
    hull of the node displacements."""
    rng = random.Random(n)
    names = [f"k{i:02d}" for i in range(n)]
    nodes = [(name, tuple(rng.randint(-3, 3) for _ in range(4))) for name in names]
    return curved(nodes, [(u, v) for u in names for v in names], piece_id="K")


def search_states(n: int) -> int:
    """The states that :func:`simple_cycles` expands on K_n with loops: from
    the root with ``m`` larger nodes, the root's own state and ``(S, end)``
    for each non-empty set ``S`` of larger nodes and each ``end`` in ``S``,
    ``m * 2**(m - 1)`` of them."""
    return sum(1 + m * 2**m // 2 for m in range(n))


def single_piece_document(piece: BasicPieceModel) -> dict:
    """A genus-2 model whose only piece is the curved ``piece``."""
    unit = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    graph = piece.graph
    return {
        "genus": 2,
        "pieces": [
            {
                "id": piece.id,
                "classification": CURVED,
                "graph": {
                    "nodes": [
                        {"id": name, "displacement": [str(c) for c in disp]}
                        for name, disp in graph.nodes
                    ],
                    "edges": [list(edge) for edge in graph.edges],
                },
            }
        ],
        "heteroclinic": {"edges": []},
        "decomposition": {
            "subsurfaces": [{"id": "T1", "kind": "curved_surface", "basis": unit}],
            "assignment": {piece.id: "T1"},
        },
    }


class TestCompleteDigraphs:
    """The stress family K_n: 2**n - 1 node sets carry cycles, while the
    number of simple cycles grows like n!."""

    def test_state_count(self):
        assert [search_states(n) for n in (3, 8, 10, 12)] == [8, 777, 4107, 20493]

    @pytest.mark.parametrize("n", [10, 12])
    def test_hull_of_node_displacements_within_the_state_count(
        self, monkeypatch, n
    ):
        piece = complete_digraph(n)
        states = search_states(n)
        monkeypatch.setattr(markov, "DEFAULT_CYCLE_CAP", states)
        assert len(simple_cycles(piece.graph)) == 2**n - 1
        hull = piece_rotation_set(piece)
        assert hull == extreme_points([disp for _, disp in piece.graph.nodes])
        monkeypatch.setattr(markov, "DEFAULT_CYCLE_CAP", states - 1)
        with pytest.raises(ResourceCapError, match=rf"\({states} reached\)"):
            piece_rotation_set(piece)

    def test_compute_on_k10_exits_0(self, tmp_path, capsys):
        piece = complete_digraph(10)
        path = tmp_path / "k10.json"
        path.write_text(json.dumps(single_piece_document(piece)))
        assert main(["compute", str(path)]) == 0
        (chain,) = json.loads(capsys.readouterr().out)["chains"]
        hull = extreme_points([disp for _, disp in piece.graph.nodes])
        assert chain["vertices"] == [format_vector(v) for v in hull.vertices]

    def test_compute_on_k12_meets_the_state_cap(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "k12.json"
        path.write_text(json.dumps(single_piece_document(complete_digraph(12))))
        monkeypatch.setattr(markov, "DEFAULT_CYCLE_CAP", search_states(12) - 1)
        assert main(["compute", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert (
            "simple_cycles: more than 20492 search states (20493 reached)"
            in captured.err
        )
        monkeypatch.setattr(markov, "DEFAULT_CYCLE_CAP", 25_000)
        assert main(["compute", str(path)]) == 0
