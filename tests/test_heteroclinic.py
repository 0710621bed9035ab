"""Chain enumeration over the heteroclinic order and chain rotation sets."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from conftest import V, zero_vector
from rotaxa.engine import compute
from rotaxa.errors import ModelValidationError
from rotaxa.exactgeom import contains_point, extreme_points
from rotaxa.fixtures import exp_family, genus2_blocks, genus2_full, genus2_nonconvex
from rotaxa.heteroclinic import (
    HeteroclinicPoset,
    chain_rotation_set,
    maximal_nontrivial_chains,
    relation_edge,
    transitive_closure,
    validate_poset,
)
from rotaxa.markov import (
    CURVED,
    TRIVIAL,
    BasicPieceModel,
    graph_from_edges,
    rotation_sets,
)


def rotation_union(model):
    """The rotation set as a union: one polytope per maximal chain."""
    return [(data.chain, data.polytope) for data in compute(model).chains]


def point_piece(piece_id, vector, classification=CURVED):
    dim = len(vector)
    return BasicPieceModel(
        id=piece_id,
        classification=classification,
        graph=graph_from_edges([("o", vector)], [("o", "o")]),
    )


def seg_piece(piece_id, a, b):
    nodes = [("s", a), ("t", b)]
    edges = [("s", "s"), ("t", "t"), ("s", "t"), ("t", "s")]
    return BasicPieceModel(
        id=piece_id, classification=CURVED, graph=graph_from_edges(nodes, edges)
    )


class TestMaximalChains:
    def test_fork(self):
        pieces = {
            name: point_piece(name, V(0, 0)) for name in ("1", "2", "3")
        }
        poset = HeteroclinicPoset(
            pieces=("1", "2", "3"),
            edges=(relation_edge("1", "2"), relation_edge("1", "3")),
        )
        assert maximal_nontrivial_chains(poset, pieces) == [("1", "2"), ("1", "3")]

    def test_transitivity_through_trivial_piece(self):
        pieces = {
            "1": point_piece("1", V(0, 0)),
            "2": point_piece("2", V(0, 0)),
            "t": point_piece("t", V(0, 0), classification=TRIVIAL),
        }
        poset = HeteroclinicPoset(
            pieces=("1", "2", "t"),
            edges=(relation_edge("1", "t"), relation_edge("t", "2")),
        )
        assert maximal_nontrivial_chains(poset, pieces) == [("1", "2")]

    def test_exp_family_chain_pattern(self):
        model = exp_family(2)
        chains = maximal_nontrivial_chains(
            model.heteroclinic, model.pieces_by_id()
        )
        assert len(chains) == 4
        assert chains == [
            ("L1_0", "L1_s", "L2_0", "L2_s"),
            ("L1_0", "L1_s", "L2_1", "L2_s"),
            ("L1_1", "L1_s", "L2_0", "L2_s"),
            ("L1_1", "L1_s", "L2_1", "L2_s"),
        ]

    def test_cycle_is_an_error(self):
        pieces = {name: point_piece(name, V(0, 0)) for name in ("1", "2")}
        poset = HeteroclinicPoset(
            pieces=("1", "2"),
            edges=(relation_edge("1", "2"), relation_edge("2", "1")),
        )
        with pytest.raises(ModelValidationError, match="cycle"):
            maximal_nontrivial_chains(poset, pieces)

    def test_maximality_brute_force(self):
        rng = random.Random(99)
        for _ in range(20):
            n = rng.randint(2, 6)
            names = [str(i) for i in range(n)]
            edges = tuple(
                relation_edge(names[i], names[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.4
            )
            pieces = {name: point_piece(name, V(0, 0)) for name in names}
            poset = HeteroclinicPoset(pieces=tuple(names), edges=edges)
            closure = transitive_closure(poset)
            chains = maximal_nontrivial_chains(poset, pieces)
            assert chains, "every element extends to some maximal chain"
            covered = {name for chain in chains for name in chain}
            assert covered == set(names)
            for chain in chains:
                members = set(chain)
                for outsider in names:
                    if outsider in members:
                        continue
                    extended_somewhere = all(
                        outsider in closure[c] or c in closure[outsider]
                        for c in chain
                    )
                    assert not extended_somewhere, (
                        f"{outsider} could extend chain {chain}"
                    )


class TestChainRotationSets:
    def test_single_piece_chain(self):
        model = genus2_nonconvex()
        table = model.pieces_by_id()
        poly = chain_rotation_set(("H1",), rotation_sets(table))
        assert poly.vertices == (
            V(0, 0, 0, 0),
            V(1, 0, 0, 0),
            V(1, 1, 0, 0),
        )

    def test_two_point_pieces_make_segment(self):
        pieces = {
            "a": point_piece("a", V(1, 0)),
            "b": point_piece("b", V(0, 1)),
        }
        poly = chain_rotation_set(("a", "b"), rotation_sets(pieces))
        assert poly.vertices == (V(0, 1), V(1, 0))

    def test_two_segments_make_triangle(self):
        pieces = {
            "a": seg_piece("a", V(0, 0), V(1, 0)),
            "b": seg_piece("b", V(0, 0), V(0, 1)),
        }
        poly = chain_rotation_set(("a", "b"), rotation_sets(pieces))
        # Independent expectation: three hull candidates, none redundant.
        assert poly == extreme_points([V(0, 0), V(1, 0), V(0, 1)])

    def test_subchain_monotone(self):
        model = exp_family(2)
        table = model.pieces_by_id()
        piece_sets = rotation_sets(table)
        chains = maximal_nontrivial_chains(model.heteroclinic, table)
        for chain in chains:
            full = chain_rotation_set(chain, piece_sets)
            for size in range(1, len(chain)):
                for sub in combinations(chain, size):
                    sub_poly = chain_rotation_set(sub, piece_sets)
                    for v in sub_poly.vertices:
                        assert contains_point(full, v)

    def test_chain_contains_member_pieces(self):
        model = genus2_full()
        piece_sets = rotation_sets(model.pieces_by_id())
        for chain, poly in rotation_union(model):
            for name in chain:
                member = chain_rotation_set((name,), piece_sets)
                for v in member.vertices:
                    assert contains_point(poly, v)


class TestGlobalUnion:
    def test_two_unrelated_pieces(self):
        union = rotation_union(genus2_nonconvex())
        assert [chain for chain, _ in union] == [("H1",), ("H2",)]
        dims = [len(poly.vertices) for _, poly in union]
        assert dims == [3, 3]

    def test_related_pieces_merge(self):
        union = rotation_union(genus2_full())
        assert len(union) == 1
        chain, poly = union[0]
        assert chain == ("H1", "H2")
        assert len(poly.vertices) == 5

    def test_single_piece_model(self):
        model = genus2_blocks()
        union = dict(rotation_union(model))
        assert union[("C1",)] == chain_rotation_set(
            ("C1",), rotation_sets(model.pieces_by_id())
        )

    def test_zero_in_union_when_some_piece_has_zero(self):
        model = genus2_blocks()
        union = rotation_union(model)
        zero = zero_vector(4)
        assert any(contains_point(poly, zero) for _, poly in union)


class TestPosetValidation:
    def test_disconnected_is_warning_not_violation(self):
        model = genus2_nonconvex()
        violations, warnings = validate_poset(
            model.heteroclinic, model.pieces_by_id()
        )
        assert violations == []
        assert any("not connected" in w for w in warnings)

    def test_marks_on_non_annular_endpoint(self):
        pieces = {
            "a": point_piece("a", V(0, 0)),
            "b": point_piece("b", V(0, 0)),
        }
        poset = HeteroclinicPoset(
            pieces=("a", "b"),
            edges=(relation_edge("a", "b", source_marks=("L",)),),
        )
        violations, _ = validate_poset(poset, pieces)
        assert any("not annular" in v for v in violations)
