"""The aggregate model document and whole-model validation.

A model document bundles the genus, the basic pieces with their symbolic
graphs, the heteroclinic relation, and the essential decomposition.
Validation comes in two parts, both returning violations and warnings as
data, which :func:`rotaxa.engine.compute` runs in order.
:func:`validate_model` runs first: every static per-component invariant
plus the cross-cutting ones (vector lengths against the genus, assignment
coverage).  :func:`validate_rotation_data` takes the piece and chain
polytopes that ``compute`` builds and checks on them the trivial pieces'
singleton rotation sets, the direct sums of annulus subspaces that share a
chain, and the soft trivial-piece and origin warnings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .conley import (
    ANNULUS,
    DecompositionModel,
    chain_support,
    validate_decomposition,
)
from .exactgeom import HomogeneousPoint, RationalPolytope, contains_point, integer_rank
from .heteroclinic import Chain, HeteroclinicPoset, validate_poset
from .markov import TRIVIAL, BasicPieceModel, validate_piece


@dataclass(frozen=True)
class ModelDocument:
    genus: int
    pieces: tuple[BasicPieceModel, ...]
    heteroclinic: HeteroclinicPoset
    decomposition: DecompositionModel

    def pieces_by_id(self) -> dict[str, BasicPieceModel]:
        return {piece.id: piece for piece in self.pieces}

    @property
    def dim(self) -> int:
        return 2 * self.genus


def validate_model(model: ModelDocument) -> tuple[list[str], list[str]]:
    """Invariant violations and soft warnings that need no rotation data."""
    violations: list[str] = []
    warnings: list[str] = []

    if not isinstance(model.genus, int) or model.genus < 2:
        violations.append(f"/genus: must be an integer >= 2, got {model.genus!r}")
        return violations, warnings
    dim = model.dim

    seen_ids: set[str] = set()
    for index, piece in enumerate(model.pieces):
        location = f"/pieces/{index} ({piece.id})"
        if piece.id in seen_ids:
            violations.append(f"{location}: duplicate piece id")
        seen_ids.add(piece.id)
        for name, disp in piece.graph.nodes:
            if len(disp) != dim:
                violations.append(
                    f"{location}/graph/nodes/{name}/displacement: length "
                    f"{len(disp)}, expected {dim}"
                )
        for issue in validate_piece(piece):
            violations.append(f"{location}: {issue}")

    table = model.pieces_by_id()
    missing = [p for p in table if p not in model.heteroclinic.pieces]
    for name in missing:
        violations.append(f"/heteroclinic: piece {name!r} absent from the relation")
    extra = [p for p in model.heteroclinic.pieces if p not in table]
    for name in extra:
        violations.append(f"/heteroclinic: unknown piece {name!r} in the relation")
    poset_violations, poset_warnings = validate_poset(model.heteroclinic, table)
    violations.extend(f"/heteroclinic: {v}" for v in poset_violations)
    warnings.extend(f"/heteroclinic: {w}" for w in poset_warnings)

    violations.extend(
        f"/decomposition: {v}" for v in validate_decomposition(model)
    )

    return violations, warnings


def validate_rotation_data(
    model: ModelDocument,
    piece_sets: Mapping[str, RationalPolytope],
    chain_sets: Mapping[Chain, RationalPolytope],
) -> tuple[list[str], list[str]]:
    """Violations and warnings that need the rotation data of a valid model.

    ``piece_sets`` holds each piece's polytope and ``chain_sets`` each
    maximal non-trivial chain's: annulus subspaces along a chain must be in
    direct sum, a trivial piece must rotate as a single point, and a
    trivial piece or the origin outside every chain set is suspicious.
    """
    violations: list[str] = []
    warnings: list[str] = []
    # Each distinct set of annuli is decided once per call, on the integer
    # rows that validate_decomposition converted for each basis's rank.
    direct_sums: dict[tuple[str, ...], bool] = {}
    subsurface = model.decomposition.subsurface
    for chain in chain_sets:
        annuli = tuple(
            sub_id
            for sub_id in sorted(chain_support(chain, model))
            if subsurface(sub_id).kind == ANNULUS
        )
        if annuli not in direct_sums:
            bases = [subsurface(sub_id).subspace.integer_basis for sub_id in annuli]
            stacked = [row for basis in bases for row in basis]
            direct_sums[annuli] = integer_rank(stacked) == len(stacked)
        if not direct_sums[annuli]:
            violations.append(
                "/decomposition: annulus subspaces of "
                + "+".join(annuli)
                + f" (chain {'<'.join(chain)}) are not in direct sum"
            )

    for index, piece in enumerate(model.pieces):
        if piece.classification != TRIVIAL:
            continue
        den, rows = piece_sets[piece.id].integer_vertices
        point = HomogeneousPoint((*rows[0], den))
        if len(rows) != 1:
            violations.append(
                f"/pieces/{index} ({piece.id}): trivial piece with "
                "non-singleton rotation set"
            )
        elif chain_sets and not any(
            contains_point(cs, point) for cs in chain_sets.values()
        ):
            warnings.append(
                f"trivial piece {piece.id!r} rotates outside every chain set"
            )

    if chain_sets and not any(cs.holds_origin for cs in chain_sets.values()):
        if any(ps.holds_origin for ps in piece_sets.values()):
            warnings.append("origin lies in a piece but in no chain set")
        else:
            warnings.append(
                "origin missing from the global rotation union; a model of a "
                "genus>1 system should carry an irrotational piece"
            )

    return violations, warnings
