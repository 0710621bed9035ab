"""Embedded model catalog.

Four families, all at desk scale:

* ``genus2_nonconvex`` — two unrelated full-dimensional horseshoe pieces on
  complementary coordinate planes of Q^4; the rotation set is a non-convex
  union of two triangles, yet star-shaped about the origin.
* ``genus2_full`` — the same pieces with a heteroclinic connection, whose
  single chain hull is a full-dimensional polytope in Q^4.
* ``genus2_blocks`` — two curved pieces whose planar rotation sets overlap in
  a common two-dimensional subspace, plus three attracting annular pieces
  with interval rotation sets: five blocks with pairwise distinct supports.
  The concrete coordinates are constructed here (only the qualitative picture
  is forced); the overlap witness (1,1) is certified by exact membership in
  the test suite.
* ``exp_family(k)`` — the exponential family: for each level ``i`` two
  parallel annular pieces with interval sets along ``e_{2i-1}`` and ``e_{2i}``
  and a zero-rotation separating annulus between levels, wired so the maximal
  chains select one of the two parallel pieces per level.  It realizes ``2^k``
  blocks (each a ``k``-simplex) on a genus ``2k`` surface.  A ``k`` whose
  ``2^k`` chains exceed :data:`~rotaxa.heteroclinic.CHAIN_CAP` (``k >= 14``)
  raises :class:`~rotaxa.errors.ResourceCapError` before anything is built.
"""

from __future__ import annotations

import re

from . import heteroclinic
from .conley import ANNULUS, CURVED_SURFACE, DecompositionModel, Subsurface
from .errors import ResourceCapError
from .exactgeom import SubspaceBasis, as_vector
from .heteroclinic import HeteroclinicPoset, relation_edge
from .markov import (
    ANNULAR,
    ATTRACTING,
    CURVED,
    NEITHER,
    BasicPieceModel,
    graph_from_edges,
)
from .model import ModelDocument

FIXTURE_NAMES = (
    "genus2_nonconvex",
    "genus2_full",
    "genus2_blocks",
    "exp_family(k)",
)

_EXP_PATTERN = re.compile(r"^exp_family\((\d+)\)$")


def _unit(dim: int, index: int, value: int = 1) -> tuple:
    coords = [0] * dim
    coords[index] = value
    return as_vector(coords)


def _triangle_piece(piece_id: str, dim: int, plane: tuple[int, int]) -> BasicPieceModel:
    """Horseshoe-style piece whose rotation set is the triangle
    conv{0, e_a, e_a + e_b} inside the given coordinate plane."""
    a, b = plane
    zero = as_vector([0] * dim)
    ea = _unit(dim, a)
    eab = as_vector([1 if i in (a, b) else 0 for i in range(dim)])
    names = ("p", "q", "r")
    displacements = (zero, ea, eab)
    nodes = list(zip(names, displacements))
    edges = [(u, v) for u in names for v in names]
    return BasicPieceModel(
        id=piece_id,
        classification=CURVED,
        graph=graph_from_edges(nodes, edges),
    )


def _interval_piece(
    piece_id: str,
    top: tuple,
    package: str,
    fill_behavior: str,
) -> BasicPieceModel:
    """Annular piece whose rotation set is the segment from 0 to ``top``."""
    dim = len(top)
    zero = as_vector([0] * dim)
    nodes = [("s", zero), ("t", top)]
    edges = [("s", "s"), ("s", "t"), ("t", "s"), ("t", "t")]
    return BasicPieceModel(
        id=piece_id,
        classification=ANNULAR,
        graph=graph_from_edges(nodes, edges),
        package=package,
        fill_behavior=fill_behavior,
    )


def _point_piece(piece_id: str, dim: int, **kwargs) -> BasicPieceModel:
    zero = as_vector([0] * dim)
    return BasicPieceModel(
        id=piece_id,
        graph=graph_from_edges([("o", zero)], [("o", "o")]),
        **kwargs,
    )


def genus2_nonconvex() -> ModelDocument:
    dim = 4
    pieces = (
        _triangle_piece("H1", dim, (0, 1)),
        _triangle_piece("H2", dim, (2, 3)),
    )
    poset = HeteroclinicPoset(pieces=("H1", "H2"), edges=())
    decomposition = DecompositionModel(
        subsurfaces=(
            Subsurface(
                "T1",
                CURVED_SURFACE,
                SubspaceBasis((_unit(dim, 0), _unit(dim, 1))),
            ),
            Subsurface(
                "T2",
                CURVED_SURFACE,
                SubspaceBasis((_unit(dim, 2), _unit(dim, 3))),
            ),
        ),
        assignment={"H1": "T1", "H2": "T2"},
    )
    return ModelDocument(
        genus=2, pieces=pieces, heteroclinic=poset, decomposition=decomposition
    )


def genus2_full() -> ModelDocument:
    base = genus2_nonconvex()
    poset = HeteroclinicPoset(
        pieces=base.heteroclinic.pieces,
        edges=(relation_edge("H1", "H2"),),
    )
    return ModelDocument(
        genus=base.genus,
        pieces=base.pieces,
        heteroclinic=poset,
        decomposition=base.decomposition,
    )


def genus2_blocks() -> ModelDocument:
    dim = 4

    def planar(piece_id: str, spans: tuple) -> BasicPieceModel:
        zero = as_vector([0] * dim)
        nodes = [("p", zero), ("q", spans[0]), ("r", spans[1])]
        names = [n for n, _ in nodes]
        edges = [(u, v) for u in names for v in names]
        return BasicPieceModel(
            id=piece_id, classification=CURVED, graph=graph_from_edges(nodes, edges)
        )

    plane = SubspaceBasis((_unit(dim, 0), _unit(dim, 1)))
    pieces = (
        planar("C1", (as_vector([2, 0, 0, 0]), as_vector([0, 2, 0, 0]))),
        planar("C2", (as_vector([2, 1, 0, 0]), as_vector([1, 2, 0, 0]))),
        _interval_piece("IA", _unit(dim, 0), package="A", fill_behavior=ATTRACTING),
        _interval_piece("IB", _unit(dim, 1), package="B", fill_behavior=ATTRACTING),
        _interval_piece(
            "IC", as_vector([1, 1, 0, 0]), package="C", fill_behavior=ATTRACTING
        ),
    )
    poset = HeteroclinicPoset(
        pieces=tuple(p.id for p in pieces), edges=()
    )
    decomposition = DecompositionModel(
        subsurfaces=(
            Subsurface("S1", CURVED_SURFACE, plane),
            Subsurface("S2", CURVED_SURFACE, plane),
            Subsurface("A", ANNULUS, SubspaceBasis((_unit(dim, 0),))),
            Subsurface("B", ANNULUS, SubspaceBasis((_unit(dim, 1),))),
            Subsurface("C", ANNULUS, SubspaceBasis((as_vector([1, 1, 0, 0]),))),
        ),
        assignment={"C1": "S1", "C2": "S2", "IA": "A", "IB": "B", "IC": "C"},
    )
    return ModelDocument(
        genus=2, pieces=pieces, heteroclinic=poset, decomposition=decomposition
    )


def exp_family(k: int) -> ModelDocument:
    if k < 1:
        raise ValueError("exp_family needs k >= 1")
    # 2^k > cap exactly when k reaches the cap's bit length; 2^k is never built.
    if k >= heteroclinic.CHAIN_CAP.bit_length():
        raise ResourceCapError(
            f"exp_family({k}): 2^{k} maximal chains exceed the chain cap "
            f"of {heteroclinic.CHAIN_CAP}"
        )
    genus = 2 * k
    dim = 2 * genus
    pieces: list[BasicPieceModel] = []
    subsurfaces: list[Subsurface] = []
    assignment: dict[str, str] = {}
    edges = []
    for i in range(1, k + 1):
        for j in (0, 1):
            pid = f"L{i}_{j}"
            direction = _unit(dim, 2 * (i - 1) + j)
            pieces.append(
                _interval_piece(
                    pid, direction, package=f"P{i}_{j}", fill_behavior=NEITHER
                )
            )
            subsurfaces.append(
                Subsurface(f"A{i}_{j}", ANNULUS, SubspaceBasis((direction,)))
            )
            assignment[pid] = f"A{i}_{j}"
        star = f"L{i}_s"
        pieces.append(
            _point_piece(
                star,
                dim,
                classification=ANNULAR,
                package=f"P{i}_s",
                fill_behavior=NEITHER,
            )
        )
        subsurfaces.append(Subsurface(f"A{i}_s", ANNULUS, SubspaceBasis(())))
        assignment[star] = f"A{i}_s"
        for j in (0, 1):
            # Boundaries of these annuli travel rightward, which forces the
            # orientations of every connection through them.
            edges.append(
                relation_edge(
                    f"L{i}_{j}", star, source_marks=("R",), target_marks=("L",)
                )
            )
        if i < k:
            for j in (0, 1):
                edges.append(
                    relation_edge(
                        star,
                        f"L{i + 1}_{j}",
                        source_marks=("R",),
                        target_marks=("L",),
                    )
                )
    poset = HeteroclinicPoset(
        pieces=tuple(p.id for p in pieces), edges=tuple(edges)
    )
    decomposition = DecompositionModel(
        subsurfaces=tuple(subsurfaces), assignment=assignment
    )
    return ModelDocument(
        genus=genus,
        pieces=tuple(pieces),
        heteroclinic=poset,
        decomposition=decomposition,
    )


def fixture_catalog() -> dict[str, object]:
    """The four fixture families; the parametric entry is a callable."""
    return {
        "genus2_nonconvex": genus2_nonconvex,
        "genus2_full": genus2_full,
        "genus2_blocks": genus2_blocks,
        "exp_family(k)": exp_family,
    }


def get_fixture(name: str) -> ModelDocument:
    """Resolve a fixture by catalog name, e.g. ``exp_family(3)``."""
    match = _EXP_PATTERN.match(name)
    if match:
        return exp_family(int(match.group(1)))
    catalog = fixture_catalog()
    if name in catalog and name != "exp_family(k)":
        return catalog[name]()  # type: ignore[operator]
    raise KeyError(f"unknown fixture {name!r}")
