"""Marked supports, block assembly, and the structural verification report."""

from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import V, zero_vector
from rotaxa import engine, exactgeom
from rotaxa import model as model_module
from rotaxa.conley import (
    ANNULUS,
    CURVED_SURFACE,
    DecompositionModel,
    Subsurface,
    block_budget,
    chain_marked_support,
    coned,
    support_span,
)
from rotaxa.engine import compute, run_checks, validate
from rotaxa.errors import ModelValidationError
from rotaxa.exactgeom import (
    SubspaceBasis,
    affine_dim,
    contains_point,
    extreme_points,
    rank_of,
)
from rotaxa.fixtures import exp_family, genus2_blocks, genus2_full, genus2_nonconvex
from rotaxa.heteroclinic import HeteroclinicPoset, chain_rotation_set, relation_edge
from rotaxa.markov import (
    ANNULAR,
    ATTRACTING,
    CURVED,
    REPELLING,
    BasicPieceModel,
    graph_from_edges,
    rotation_sets,
)
from rotaxa.model import ModelDocument, validate_model


def annular_piece(piece_id, top, package, fill):
    dim = len(top)
    zero = (0,) * dim
    nodes = [("s", zero), ("t", top)]
    edges = [("s", "s"), ("t", "t"), ("s", "t"), ("t", "s")]
    return BasicPieceModel(
        id=piece_id,
        classification=ANNULAR,
        graph=graph_from_edges(nodes, edges),
        package=package,
        fill_behavior=fill,
    )


def curved_piece(piece_id, top):
    dim = len(top)
    zero = (0,) * dim
    nodes = [("s", zero), ("t", top)]
    edges = [("s", "s"), ("t", "t"), ("s", "t"), ("t", "s")]
    return BasicPieceModel(
        id=piece_id, classification=CURVED, graph=graph_from_edges(nodes, edges)
    )


def marked_model(source_marks):
    """Chain (annular repelling A) -> (curved S) with the given first-edge marks."""
    pieces = (
        annular_piece("A", (1, 0, 0, 0), package="PA", fill=REPELLING),
        curved_piece("S", (0, 1, 0, 0)),
    )
    poset = HeteroclinicPoset(
        pieces=("A", "S"),
        edges=(relation_edge("A", "S", source_marks=source_marks),),
    )
    decomposition = DecompositionModel(
        subsurfaces=(
            Subsurface("SA", ANNULUS, SubspaceBasis((V(1, 0, 0, 0),))),
            Subsurface("SS", CURVED_SURFACE, SubspaceBasis((V(0, 1, 0, 0),))),
        ),
        assignment={"A": "SA", "S": "SS"},
    )
    return ModelDocument(
        genus=2, pieces=pieces, heteroclinic=poset, decomposition=decomposition
    )


class TestMarkedSupport:
    def test_single_curved_chain_unmarked(self):
        model = genus2_nonconvex()
        [ms] = chain_marked_support(("H1",), model)
        assert ms.support == frozenset({"T1"})
        assert (ms.initial_mark, ms.final_mark) == ("0", "0")

    def test_repelling_start_takes_edge_mark(self):
        model = marked_model(source_marks=("L",))
        [ms] = chain_marked_support(("A", "S"), model)
        assert ms.support == frozenset({"SA", "SS"})
        assert (ms.initial_mark, ms.final_mark) == ("L", "0")

    def test_both_orientations_fork_the_support(self):
        model = marked_model(source_marks=("L", "R"))
        supports = chain_marked_support(("A", "S"), model)
        assert [(ms.initial_mark, ms.final_mark) for ms in supports] == [
            ("L", "0"),
            ("R", "0"),
        ]

    def test_missing_required_mark_is_a_model_error(self):
        model = marked_model(source_marks=())
        with pytest.raises(ModelValidationError, match="required mark missing"):
            chain_marked_support(("A", "S"), model)

    def test_attracting_end_takes_target_mark(self):
        pieces = (
            curved_piece("S", (0, 1, 0, 0)),
            annular_piece("A", (1, 0, 0, 0), package="PA", fill=ATTRACTING),
        )
        poset = HeteroclinicPoset(
            pieces=("S", "A"),
            edges=(relation_edge("S", "A", target_marks=("R",)),),
        )
        decomposition = DecompositionModel(
            subsurfaces=(
                Subsurface("SA", ANNULUS, SubspaceBasis((V(1, 0, 0, 0),))),
                Subsurface("SS", CURVED_SURFACE, SubspaceBasis((V(0, 1, 0, 0),))),
            ),
            assignment={"A": "SA", "S": "SS"},
        )
        model = ModelDocument(
            genus=2, pieces=pieces, heteroclinic=poset, decomposition=decomposition
        )
        [ms] = chain_marked_support(("S", "A"), model)
        assert (ms.initial_mark, ms.final_mark) == ("0", "R")

    def test_single_annulus_chain_forces_zero_marks(self):
        # The whole chain stays inside one essential annulus: marks collapse.
        pieces = (
            annular_piece("A", (1, 0, 0, 0), package="PA", fill=REPELLING),
        )
        poset = HeteroclinicPoset(pieces=("A",), edges=())
        decomposition = DecompositionModel(
            subsurfaces=(
                Subsurface("SA", ANNULUS, SubspaceBasis((V(1, 0, 0, 0),))),
            ),
            assignment={"A": "SA"},
        )
        model = ModelDocument(
            genus=2, pieces=pieces, heteroclinic=poset, decomposition=decomposition
        )
        [ms] = chain_marked_support(("A",), model)
        assert (ms.initial_mark, ms.final_mark) == ("0", "0")


class TestBlocks:
    def test_exp_family_two_levels(self):
        model = exp_family(2)
        blocks = compute(model).blocks
        assert len(blocks) == 4
        for block in blocks:
            assert affine_dim(block.polytope) == 2
            assert len(block.polytope.vertices) == 3  # a 2-simplex

    def test_nonconvex_fixture_blocks_are_the_triangles(self):
        model = genus2_nonconvex()
        blocks = compute(model).blocks
        assert len(blocks) == 2
        for block in blocks:
            assert contains_point(block.polytope, zero_vector(4))

    def test_zero_rotation_piece_gives_origin_block(self):
        pieces = (curved_piece("Z", (0, 0, 0, 0)),)
        poset = HeteroclinicPoset(pieces=("Z",), edges=())
        decomposition = DecompositionModel(
            subsurfaces=(
                Subsurface("S", CURVED_SURFACE, SubspaceBasis((V(1, 0, 0, 0),))),
            ),
            assignment={"Z": "S"},
        )
        model = ModelDocument(
            genus=2, pieces=pieces, heteroclinic=poset, decomposition=decomposition
        )
        blocks = compute(model).blocks
        assert len(blocks) == 1
        assert blocks[0].polytope.vertices == (zero_vector(4),)

    def test_hulls_already_built_are_reused(self):
        for model in (genus2_nonconvex(), genus2_full(), genus2_blocks(), exp_family(2)):
            computation = compute(model)
            polytopes = {data.chain: data.polytope for data in computation.chains}
            for chain, polytope in polytopes.items():
                if len(chain) == 1:
                    assert polytope is computation.piece_sets[chain[0]]
            origin = zero_vector(2 * model.genus)
            for block in computation.blocks:
                (chain,) = block.chains
                assert contains_point(polytopes[chain], origin)
                assert block.polytope is polytopes[chain]

    def test_chain_missing_origin_is_coned(self):
        far = BasicPieceModel(
            id="F",
            classification=CURVED,
            graph=graph_from_edges(
                [("s", (1, 0, 0, 0)), ("t", (2, 0, 0, 0))],
                [("s", "s"), ("t", "t"), ("s", "t"), ("t", "s")],
            ),
        )
        model = ModelDocument(
            genus=2,
            pieces=(far,),
            heteroclinic=HeteroclinicPoset(pieces=("F",), edges=()),
            decomposition=DecompositionModel(
                subsurfaces=(
                    Subsurface("S", CURVED_SURFACE, SubspaceBasis((V(1, 0, 0, 0),))),
                ),
                assignment={"F": "S"},
            ),
        )
        computation = compute(model)
        (data,) = computation.chains
        assert data.polytope is computation.piece_sets["F"]
        assert data.polytope.vertices == (V(1, 0, 0, 0), V(2, 0, 0, 0))
        (block,) = computation.blocks
        assert block.polytope.vertices == (zero_vector(4), V(2, 0, 0, 0))
        assert coned(data.polytope) == block.polytope

    def test_origin_decided_once_per_polytope(self, monkeypatch):
        # A ring with self-loops whose hull lies off the origin and is not a
        # simplex, so each origin decision is one membership LP.  The chain
        # set, the piece set and the polytope the block cones are one
        # instance: one decision, where there were three.
        points = [
            (1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
            (2, 1, 1, 1), (2, -1, 0, 0), (1, -1, -1, -1),
        ]
        names = "abcdefg"
        far = BasicPieceModel(
            id="F",
            classification=CURVED,
            graph=graph_from_edges(
                list(zip(names, points)),
                [(u, u) for u in names] + list(zip(names, names[1:] + "a")),
            ),
        )
        units = tuple(V(*(int(i == j) for j in range(4))) for i in range(4))
        model = ModelDocument(
            genus=2,
            pieces=(far,),
            heteroclinic=HeteroclinicPoset(pieces=("F",), edges=()),
            decomposition=DecompositionModel(
                subsurfaces=(Subsurface("S", CURVED_SURFACE, SubspaceBasis(units)),),
                assignment={"F": "S"},
            ),
        )
        origin = (0, 0, 0, 0, 1)
        decisions = []
        membership = exactgeom.hull_membership

        def counted(columns, y, *start):
            if tuple(y) == origin:
                decisions.append(len(columns))
            return membership(columns, y, *start)

        monkeypatch.setattr(exactgeom, "hull_membership", counted)
        computation = compute(model)
        polytope = computation.piece_sets["F"]
        assert polytope.simplex_kernel is None
        assert decisions == [len(polytope.vertices)]
        assert "origin missing from the global rotation union" in (
            computation.warnings[0]
        )
        (block,) = computation.blocks
        assert block.polytope.vertices == tuple(
            sorted((zero_vector(4), *polytope.vertices))
        )

    def test_blocks_contain_origin_and_their_chains(self):
        for model in (genus2_nonconvex(), genus2_full(), genus2_blocks(), exp_family(2)):
            piece_sets = rotation_sets(model.pieces_by_id())
            blocks = compute(model).blocks
            for block in blocks:
                assert contains_point(block.polytope, zero_vector(2 * model.genus))
                for chain in block.chains:
                    chain_poly = chain_rotation_set(chain, piece_sets)
                    coned_poly = coned(chain_poly)
                    # Two-sided union bookkeeping: the block absorbs every
                    # coned chain set, and every block vertex is a vertex of
                    # some coned chain set or the origin.
                    for v in coned_poly.vertices:
                        assert contains_point(block.polytope, v)
                union_vertices = {
                    v
                    for chain in block.chains
                    for v in coned(chain_rotation_set(chain, piece_sets)).vertices
                }
                for v in block.polytope.vertices:
                    assert v in union_vertices or not any(v)


class TestVerifyStructure:
    def test_fixtures_pass_all_checks(self):
        for model in (genus2_nonconvex(), genus2_full(), genus2_blocks(), exp_family(2)):
            outcomes = run_checks(
                compute(model), bound=True, subspace=True, convex_density=4
            )
            assert all(o.passed for o in outcomes), [o for o in outcomes if not o.passed]

    def test_variant_counts_are_admissible(self):
        model = exp_family(3)
        blocks = compute(model).blocks
        per_support: dict = {}
        for block in blocks:
            per_support.setdefault(block.key.support, []).append(block)
        for members in per_support.values():
            assert len(members) in (1, 2, 4)

    def test_vertex_outside_span_is_reported(self):
        # Negative control: claim H1's plane is spanned by the first axis only.
        base = genus2_nonconvex()
        decomposition = DecompositionModel(
            subsurfaces=(
                Subsurface("T1", CURVED_SURFACE, SubspaceBasis((V(1, 0, 0, 0),))),
                Subsurface(
                    "T2",
                    CURVED_SURFACE,
                    SubspaceBasis((V(0, 0, 1, 0), V(0, 0, 0, 1))),
                ),
            ),
            assignment=dict(base.decomposition.assignment),
        )
        model = ModelDocument(
            genus=2,
            pieces=base.pieces,
            heteroclinic=base.heteroclinic,
            decomposition=decomposition,
        )
        check, _ = run_checks(compute(model), subspace=True)
        assert check.name == "subspace_containment"
        assert not check.passed
        assert any("outside the support span" in d for d in check.details)

    def test_blocks_of_one_support_share_one_basis(self, monkeypatch):
        # Both marked variants are blocks over the support SA+SS: its basis
        # is built and ranked once, then stacked once with each block.
        computation = compute(marked_model(source_marks=("L", "R")))
        assert [b.key.support for b in computation.blocks] == [
            frozenset({"SA", "SS"})
        ] * 2
        built, eliminated = [], []
        build, eliminate = engine.support_span, exactgeom._eliminate

        def counted_build(key, model):
            built.append(key)
            return build(key, model)

        def counted_eliminate(rows, cols):
            eliminated.append(rows)
            return eliminate(rows, cols)

        monkeypatch.setattr(engine, "support_span", counted_build)
        monkeypatch.setattr(exactgeom, "_eliminate", counted_eliminate)
        check, _ = run_checks(computation, subspace=True)
        assert check.name == "subspace_containment" and check.passed
        assert len(built) == 1
        assert len(eliminated) == 3

    def test_span_check_stacks_each_subsurfaces_rows(self, monkeypatch):
        # exp_family(4) has 16 blocks, each over its own support.  Validation
        # converts each subsurface's basis once and keeps its rows; the span
        # check stacks those rows per support and converts nothing.
        model = exp_family(4)
        computation = compute(model)
        assert len({block.key.support for block in computation.blocks}) == 16
        assert all(
            "integer_basis" in vars(sub.subspace)
            for sub in model.decomposition.subsurfaces
        )
        converted = []
        integer_rows = exactgeom.integer_rows

        def counted(vectors):
            converted.append(vectors)
            return integer_rows(vectors)

        monkeypatch.setattr(exactgeom, "integer_rows", counted)
        check, _ = run_checks(computation, subspace=True)
        assert check.name == "subspace_containment" and check.passed
        assert converted == []

    def test_chain_in_block_skips_the_chains_own_polytope(self, monkeypatch):
        # Every block of exp_family(3) is its chain's polytope; a copy that
        # is equal but not the same instance is skipped too.
        computation = compute(exp_family(3))
        first, *rest = computation.blocks
        copy = replace(first, polytope=extreme_points(first.polytope.vertices))
        assert copy.polytope == first.polytope
        assert copy.polytope is not first.polytope
        computation = replace(computation, blocks=(copy, *rest))
        tested = []

        def counted(polytope, point):
            tested.append(point)
            return contains_point(polytope, point)

        monkeypatch.setattr(engine, "contains_point", counted)
        _, outcome = run_checks(computation, subspace=True)
        assert outcome.name == "chain_in_block" and outcome.passed
        assert tested == []

    def test_chain_vertices_outside_a_smaller_block_are_reported(self):
        computation = compute(genus2_full())
        (block,) = computation.blocks
        origin = extreme_points([zero_vector(4)])
        computation = replace(
            computation, blocks=(replace(block, polytope=origin),)
        )
        _, outcome = run_checks(computation, subspace=True)
        assert outcome.name == "chain_in_block" and not outcome.passed
        assert outcome.details == tuple(
            f"chain H1<H2: vertex {v} outside block T1+T2|0|0"
            for v in [
                ("0", "0", "1", "0"),
                ("0", "0", "1", "1"),
                ("1", "0", "0", "0"),
                ("1", "1", "0", "0"),
            ]
        )

    def test_budget_formula(self):
        assert block_budget(2) == 128
        assert block_budget(6) == 4 * 2 ** 25

    def test_exp_family_support_span_intersections(self):
        k = 3
        model = exp_family(k)
        blocks = compute(model).blocks
        spans = [support_span(b.key, model) for b in blocks]
        for i in range(len(spans)):
            for j in range(i + 1, len(spans)):
                ri = rank_of(spans[i].basis)
                rj = rank_of(spans[j].basis)
                stacked = list(spans[i].basis) + list(spans[j].basis)
                meet = ri + rj - rank_of(stacked)
                assert meet <= k - 1


class TestDecompositionValidation:
    def test_fixture_models_validate(self):
        for model in (genus2_nonconvex(), genus2_full(), genus2_blocks(), exp_family(2)):
            violations, _ = validate_model(model)
            assert violations == []

    def test_annulus_rank_bound(self):
        base = genus2_blocks()
        bad = DecompositionModel(
            subsurfaces=tuple(
                Subsurface(
                    s.id,
                    s.kind,
                    SubspaceBasis((V(1, 0, 0, 0), V(0, 1, 0, 0)))
                    if s.id == "A"
                    else s.subspace,
                )
                for s in base.decomposition.subsurfaces
            ),
            assignment=dict(base.decomposition.assignment),
        )
        model = ModelDocument(
            genus=2,
            pieces=base.pieces,
            heteroclinic=base.heteroclinic,
            decomposition=bad,
        )
        violations, _ = validate_model(model)
        assert any("rank 2 > 1" in v for v in violations)

    def test_too_many_subsurfaces(self):
        base = genus2_blocks()
        extra = Subsurface("X", CURVED_SURFACE, SubspaceBasis(()))
        model = ModelDocument(
            genus=2,
            pieces=base.pieces,
            heteroclinic=base.heteroclinic,
            decomposition=DecompositionModel(
                subsurfaces=base.decomposition.subsurfaces + (extra,),
                assignment=dict(base.decomposition.assignment),
            ),
        )
        violations, _ = validate_model(model)
        assert any("exceed the budget" in v for v in violations)

    def test_kind_mismatch(self):
        base = genus2_blocks()
        model = ModelDocument(
            genus=2,
            pieces=base.pieces,
            heteroclinic=base.heteroclinic,
            decomposition=DecompositionModel(
                subsurfaces=base.decomposition.subsurfaces,
                assignment={**dict(base.decomposition.assignment), "IA": "S1"},
            ),
        )
        violations, _ = validate_model(model)
        assert any("assigned to curved_surface" in v for v in violations)

    def test_annuli_not_in_direct_sum(self):
        base = exp_family(2)
        first = base.decomposition.subsurfaces[0]
        assert first.id == "A1_0"
        subsurfaces = tuple(
            replace(s, subspace=first.subspace) if s.id == "A2_0" else s
            for s in base.decomposition.subsurfaces
        )
        model = replace(
            base, decomposition=replace(base.decomposition, subsurfaces=subsurfaces)
        )
        assert validate(model) == (
            [
                "/decomposition: annulus subspaces of A1_0+A1_s+A2_0+A2_s "
                "(chain L1_0<L1_s<L2_0<L2_s) are not in direct sum"
            ],
            [],
        )

    def test_subsurface_lookup_reads_one_table(self):
        # A lookup returns the tuple's own object, the first on a duplicate
        # id (a duplicate is a violation, reported by validation); an
        # unknown id raises KeyError.
        first = Subsurface("A", ANNULUS, SubspaceBasis((V(1, 0),)))
        twin = Subsurface("A", CURVED_SURFACE, SubspaceBasis(()))
        other = Subsurface("B", CURVED_SURFACE, SubspaceBasis(()))
        decomposition = DecompositionModel((first, other, twin), {})
        assert decomposition.subsurface("A") is first
        assert decomposition.subsurface("B") is other
        with pytest.raises(KeyError):
            decomposition.subsurface("C")
        model = exp_family(3)
        for sub in model.decomposition.subsurfaces:
            assert model.decomposition.subsurface(sub.id) is sub

    def test_each_annulus_basis_converted_once(self, monkeypatch):
        # exp_family(4) has 16 chains, each over its own set of 8 of the 12
        # annuli: one rank per set, on the rows that each subsurface basis
        # converted once (SubspaceBasis.integer_basis) for its own rank.
        converted, ranked = [], []
        integer_rows, integer_rank = exactgeom.integer_rows, model_module.integer_rank

        def counted_rows(vectors):
            converted.append(vectors)
            return integer_rows(vectors)

        def counted_rank(rows):
            ranked.append(rows)
            return integer_rank(rows)

        monkeypatch.setattr(exactgeom, "integer_rows", counted_rows)
        monkeypatch.setattr(model_module, "integer_rank", counted_rank)
        result = compute(exp_family(4))
        assert len(result.chains) == 16
        subsurfaces = result.model.decomposition.subsurfaces
        bases = [s.subspace.basis for s in subsurfaces]
        assert sum(s.kind == ANNULUS for s in subsurfaces) == 12
        assert len(converted) == len(bases)
        assert {id(basis) for basis in converted} == {id(basis) for basis in bases}
        assert len(ranked) == 16
