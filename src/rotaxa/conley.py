"""Essential decomposition bookkeeping and the convex-block assembly.

The ambient surface is decomposed into essential subsurfaces (annuli and
curved surfaces); each non-trivial basic piece is assigned to one of them,
and only the homological shadow of a subsurface (a subspace basis) is kept.
A chain is summarized by its *marked support*: the set of subsurfaces it
visits plus left/right orientation marks at a repelling initial annulus and
an attracting final annulus.  Chains sharing a marked support pool into one
*block*: the convex hull of their rotation sets coned to the origin.  The
number of blocks is bounded by four per support and the per-genus budget of
supports; the checks in :mod:`rotaxa.engine` verify that and the other
structural claims about the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import ModelValidationError
from .exactgeom import (
    HomogeneousPoint,
    RationalPolytope,
    SubspaceBasis,
    extreme_points,
    hull_of_union,
    origin_column,
)
from .heteroclinic import Chain, HeteroclinicPoset
from .markov import ANNULAR, ATTRACTING, CURVED, REPELLING, TRIVIAL

if TYPE_CHECKING:  # pragma: no cover
    from .model import ModelDocument

ANNULUS = "annulus"
CURVED_SURFACE = "curved_surface"
SUBSURFACE_KINDS = (ANNULUS, CURVED_SURFACE)

NO_MARK = "0"


@dataclass(frozen=True)
class Subsurface:
    id: str
    kind: str
    subspace: SubspaceBasis


@dataclass(frozen=True)
class DecompositionModel:
    subsurfaces: tuple[Subsurface, ...]
    assignment: Mapping[str, str]

    @cached_property
    def _by_id(self) -> dict[str, Subsurface]:
        """Each subsurface by id, the first one on a duplicate id."""
        return {sub.id: sub for sub in reversed(self.subsurfaces)}

    def subsurface(self, name: str) -> Subsurface:
        return self._by_id[name]


@dataclass(frozen=True)
class MarkedSupport:
    support: frozenset[str]
    initial_mark: str
    final_mark: str

    def sort_key(self) -> tuple:
        return (tuple(sorted(self.support)), self.initial_mark, self.final_mark)

    def label(self) -> str:
        return "+".join(sorted(self.support)) + f"|{self.initial_mark}|{self.final_mark}"


@dataclass(frozen=True)
class Block:
    """One convex block: coned chain rotation sets sharing a marked support."""

    key: MarkedSupport
    polytope: RationalPolytope
    chains: tuple[Chain, ...]


@dataclass(frozen=True)
class ChainData:
    """A maximal non-trivial chain with its rotation polytope and markings."""

    chain: Chain
    polytope: RationalPolytope
    marked_supports: tuple[MarkedSupport, ...]


def block_budget(genus: int) -> int:
    """Upper bound on the number of blocks: four per admissible support."""
    return 4 * 2 ** (5 * genus - 5)


def validate_decomposition(model: "ModelDocument") -> list[str]:
    """Static invariants of the decomposition (no chain data needed)."""
    out: list[str] = []
    decomposition = model.decomposition
    genus = model.genus
    ids = [sub.id for sub in decomposition.subsurfaces]
    if len(set(ids)) != len(ids):
        out.append("duplicate subsurface ids")
        return out
    if len(ids) > 5 * genus - 5:
        out.append(
            f"{len(ids)} subsurfaces exceed the budget {5 * genus - 5} for genus {genus}"
        )
    annuli = [sub for sub in decomposition.subsurfaces if sub.kind == ANNULUS]
    if len(annuli) > 3 * genus - 3:
        out.append(
            f"{len(annuli)} annuli exceed the budget {3 * genus - 3} for genus {genus}"
        )
    for sub in decomposition.subsurfaces:
        if sub.kind not in SUBSURFACE_KINDS:
            out.append(f"subsurface {sub.id!r} has unknown kind {sub.kind!r}")
            continue
        ragged = False
        for v in sub.subspace.basis:
            if len(v) != 2 * genus:
                ragged = True
                out.append(
                    f"subsurface {sub.id!r} basis vector of length {len(v)}, expected {2 * genus}"
                )
        if ragged:
            continue
        rank = sub.subspace.rank
        if rank != len(sub.subspace.basis):
            out.append(f"subsurface {sub.id!r} basis is linearly dependent")
        if sub.kind == ANNULUS and rank > 1:
            out.append(f"annulus {sub.id!r} has subspace rank {rank} > 1")

    table = model.pieces_by_id()
    known_subs = set(ids)
    assigned = dict(decomposition.assignment)
    for piece_id, sub_id in assigned.items():
        if piece_id not in table:
            out.append(f"assignment references unknown piece {piece_id!r}")
            continue
        if sub_id not in known_subs:
            out.append(f"assignment references unknown subsurface {sub_id!r}")
            continue
        piece = table[piece_id]
        kind = decomposition.subsurface(sub_id).kind
        if piece.classification == TRIVIAL:
            out.append(f"trivial piece {piece_id!r} appears in the assignment")
        elif piece.classification == ANNULAR and kind != ANNULUS:
            out.append(f"annular piece {piece_id!r} assigned to {kind} {sub_id!r}")
        elif piece.classification == CURVED and kind != CURVED_SURFACE:
            out.append(f"curved piece {piece_id!r} assigned to {kind} {sub_id!r}")
    for piece in model.pieces:
        if piece.classification != TRIVIAL and piece.id not in assigned:
            out.append(f"non-trivial piece {piece.id!r} has no subsurface assignment")

    # Pieces of one annular package live in one essential annulus, and the
    # annulus determines the package; their fill behaviors must agree.
    package_to_sub: dict[str, str] = {}
    package_fill: dict[str, str] = {}
    sub_to_package: dict[str, str] = {}
    for piece in model.pieces:
        if piece.classification != ANNULAR or piece.id not in assigned:
            continue
        sub_id = assigned[piece.id]
        package = piece.package or ""
        if package in package_to_sub and package_to_sub[package] != sub_id:
            out.append(
                f"package {package!r} split across subsurfaces "
                f"{package_to_sub[package]!r} and {sub_id!r}"
            )
        package_to_sub.setdefault(package, sub_id)
        if sub_id in sub_to_package and sub_to_package[sub_id] != package:
            out.append(
                f"subsurface {sub_id!r} shared by packages "
                f"{sub_to_package[sub_id]!r} and {package!r}"
            )
        sub_to_package.setdefault(sub_id, package)
        fill = piece.fill_behavior or ""
        if package in package_fill and package_fill[package] != fill:
            out.append(f"package {package!r} has conflicting fill behaviors")
        package_fill.setdefault(package, fill)
    return out


def chain_support(chain: Chain, model: "ModelDocument") -> frozenset[str]:
    assignment = model.decomposition.assignment
    return frozenset(assignment[piece_id] for piece_id in chain)


def _edge_or_fail(
    poset: HeteroclinicPoset, source: str, target: str, side: str
):
    edge = poset.edge_between(source, target)
    marks = None
    if edge is not None:
        marks = edge.source_marks if side == "source" else edge.target_marks
    if not marks:
        raise ModelValidationError(
            [
                f"annular piece with required mark missing: no {side} marks on "
                f"relation ({source!r}, {target!r})"
            ]
        )
    return sorted(marks)


def chain_marked_support(
    chain: Chain, model: "ModelDocument"
) -> list[MarkedSupport]:
    """All admissible (support, initial, final) markings of the chain.

    The initial mark is forced to "0" unless the chain starts at a piece of a
    repelling annulus and leaves that annulus, in which case it ranges over
    the orientation marks of the first relation edge; symmetrically the final
    mark needs an attracting annulus at the end.  Both sides can carry the
    two orientations at once, hence the product set.
    """
    table = model.pieces_by_id()
    support = chain_support(chain, model)

    initial_candidates = [NO_MARK]
    first = table[chain[0]]
    if (
        first.classification == ANNULAR
        and first.fill_behavior == REPELLING
        and len(support) >= 2
    ):
        initial_candidates = _edge_or_fail(
            model.heteroclinic, chain[0], chain[1], "source"
        )

    final_candidates = [NO_MARK]
    last = table[chain[-1]]
    if (
        last.classification == ANNULAR
        and last.fill_behavior == ATTRACTING
        and len(support) >= 2
    ):
        final_candidates = _edge_or_fail(
            model.heteroclinic, chain[-2], chain[-1], "target"
        )

    return [
        MarkedSupport(support=support, initial_mark=x, final_mark=y)
        for x in initial_candidates
        for y in final_candidates
    ]


def coned(polytope: RationalPolytope) -> RationalPolytope:
    """Hull of the polytope together with the origin; the polytope itself
    when it holds the origin, which it decides once.  The polytope's
    ``integer_vertices`` go to the hull as they are, and its
    ``vertex_functionals`` go along, so each vertex that its functional
    still exposes with the origin added is decided with no LP."""
    if polytope.holds_origin:
        return polytope
    den, rows = polytope.integer_vertices
    origin = origin_column(polytope.dim)
    return extreme_points(
        [*(HomogeneousPoint((*row, den)) for row in rows), origin],
        [*polytope.vertex_functionals, polytope.origin_separation],
    )


def enumerate_blocks(chains: Sequence[ChainData]) -> list[Block]:
    """Group chains by marked support and cone each group to the origin.

    A group of one chain is its chain's polytope coned, which is that same
    polytope instance when it holds the origin."""
    groups: dict[MarkedSupport, list[ChainData]] = {}
    for data in chains:
        for key in data.marked_supports:
            groups.setdefault(key, []).append(data)
    blocks = []
    for key in sorted(groups, key=MarkedSupport.sort_key):
        members = groups[key]
        polytopes = [data.polytope for data in members]
        if len(polytopes) == 1:
            polytope = coned(polytopes[0])
        else:
            polytope = hull_of_union(polytopes, [origin_column(polytopes[0].dim)])
        blocks.append(
            Block(
                key=key,
                polytope=polytope,
                chains=tuple(data.chain for data in members),
            )
        )
    return blocks


def support_span(key: MarkedSupport, model: "ModelDocument") -> SubspaceBasis:
    """Concatenated basis of the subsurface subspaces in the support.

    Its integer rows are the subsurfaces' own, stacked: each subsurface's
    basis is converted once, however many supports hold it.
    """
    subspaces = [
        model.decomposition.subsurface(sub_id).subspace
        for sub_id in sorted(key.support)
    ]
    span = SubspaceBasis(basis=tuple(v for sub in subspaces for v in sub.basis))
    # Keep the rows where the cached property would store them.
    vars(span)["integer_basis"] = tuple(
        row for sub in subspaces for row in sub.integer_basis
    )
    return span
