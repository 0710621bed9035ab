"""Symbolic basic pieces: displacement-labeled digraphs and their rotation sets.

A basic piece is modeled by a strongly connected digraph whose nodes carry
integer homology displacements (the deck translation picked up when the
dynamics pushes a partition element out of the fundamental domain).  The
rotation set of the piece is the convex hull of cycle-mean displacement
vectors.  Because any circulation decomposes into simple cycles supported on
the same node set, the hull over *simple* cycles already equals the hull over
all cycles, so the computation enumerates simple cycles only; the brute-force
cross-check over all bounded cycles lives in :mod:`rotaxa.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import InadmissibleWordError, ResourceCapError
from .exactgeom import (
    RationalPolytope,
    Vector,
    extreme_points,
    vector_add,
    zero_vector,
)

TRIVIAL = "trivial"
ANNULAR = "annular"
CURVED = "curved"
CLASSIFICATIONS = (TRIVIAL, ANNULAR, CURVED)

ATTRACTING = "attracting"
REPELLING = "repelling"
NEITHER = "neither"
FILL_BEHAVIORS = (ATTRACTING, REPELLING, NEITHER)

DEFAULT_CYCLE_CAP = 1_000_000

PeriodicWord = Sequence[str]


@dataclass(frozen=True)
class MarkovGraph:
    """Displacement-labeled digraph; displacements sit on the nodes."""

    nodes: tuple[tuple[str, Vector], ...]
    edges: tuple[tuple[str, str], ...]

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.nodes)

    def displacement(self, node: str) -> Vector:
        for name, disp in self.nodes:
            if name == node:
                return disp
        raise KeyError(node)

    def displacements(self) -> dict[str, Vector]:
        return {name: disp for name, disp in self.nodes}

    def successors(self) -> dict[str, list[str]]:
        succ: dict[str, list[str]] = {name: [] for name, _ in self.nodes}
        for u, v in self.edges:
            if u in succ:
                succ[u].append(v)
        for outs in succ.values():
            outs.sort()
        return succ

    def predecessors(self) -> dict[str, list[str]]:
        pred: dict[str, list[str]] = {name: [] for name, _ in self.nodes}
        for u, v in self.edges:
            if v in pred:
                pred[v].append(u)
        return pred


@dataclass(frozen=True)
class BasicPieceModel:
    """A basic piece: its symbolic graph plus classification metadata.

    ``package`` and ``fill_behavior`` are meaningful (and mandatory) exactly
    for annular pieces; the package token groups annular pieces whose filled
    essential annuli are isotopic.
    """

    id: str
    classification: str
    graph: MarkovGraph
    package: str | None = None
    fill_behavior: str | None = None


def graph_from_edges(
    nodes: Iterable[tuple[str, Iterable[int | str | Fraction]]],
    edges: Iterable[tuple[str, str]],
) -> MarkovGraph:
    """Convenience constructor normalizing node and edge ordering."""
    node_list = tuple(
        (name, tuple(Fraction(c) for c in disp)) for name, disp in nodes
    )
    return MarkovGraph(nodes=node_list, edges=tuple(sorted(set(edges))))


def is_strongly_connected(graph: MarkovGraph) -> bool:
    ids = graph.node_ids
    if not ids:
        return False
    succ = graph.successors()
    pred = graph.predecessors()
    for neighbors in (succ, pred):
        seen = {ids[0]}
        frontier = [ids[0]]
        while frontier:
            u = frontier.pop()
            for v in neighbors[u]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        if len(seen) != len(ids):
            return False
    return True


def validate_piece(piece: BasicPieceModel) -> list[str]:
    """All invariant violations of the piece; an empty list means valid.

    Violations are data, not exceptions: each entry names the broken
    invariant and the offending element.
    """
    out: list[str] = []
    if piece.classification not in CLASSIFICATIONS:
        out.append(f"unknown classification {piece.classification!r}")
        return out
    if piece.classification == ANNULAR:
        if piece.package is None:
            out.append("annular piece without a package token")
        if piece.fill_behavior not in FILL_BEHAVIORS:
            out.append(
                f"annular piece with fill_behavior {piece.fill_behavior!r}"
            )
    else:
        if piece.package is not None:
            out.append(f"{piece.classification} piece carries a package token")
        if piece.fill_behavior is not None:
            out.append(f"{piece.classification} piece carries a fill_behavior")

    graph = piece.graph
    ids = graph.node_ids
    if not ids:
        out.append("graph has no nodes")
        return out
    if len(set(ids)) != len(ids):
        out.append("duplicate node ids in graph")
        return out
    dims = {len(disp) for _, disp in graph.nodes}
    if len(dims) != 1:
        out.append("mixed displacement lengths in graph")
        return out
    for name, disp in graph.nodes:
        if any(c.denominator != 1 for c in disp):
            out.append(f"non-integer displacement on node {name!r}")
    known = set(ids)
    for u, v in graph.edges:
        if u not in known or v not in known:
            out.append(f"edge ({u!r}, {v!r}) references a missing node")
            return out
    succ = graph.successors()
    pred = graph.predecessors()
    for name in ids:
        if not succ[name]:
            out.append(f"node {name!r} has no outgoing edge")
        if not pred[name]:
            out.append(f"node {name!r} has no incoming edge")
    if out:
        return out
    if not is_strongly_connected(graph):
        out.append("not strongly connected")
        return out
    if piece.classification == TRIVIAL:
        try:
            rotation = piece_rotation_set(piece)
        except ResourceCapError:
            out.append("trivial piece too large to verify singleton rotation set")
        else:
            if len(rotation.vertices) != 1:
                out.append("trivial piece with non-singleton rotation set")
    return out


def word_rotation_vector(piece: BasicPieceModel, word: PeriodicWord) -> Vector:
    """Average displacement along one period of a cyclic word."""
    if not word:
        raise InadmissibleWordError("empty periodic word")
    displacements = piece.graph.displacements()
    edges = set(piece.graph.edges)
    for node in word:
        if node not in displacements:
            raise InadmissibleWordError(f"word visits unknown node {node!r}")
    for i, node in enumerate(word):
        succ = word[(i + 1) % len(word)]
        if (node, succ) not in edges:
            raise InadmissibleWordError(
                f"transition {node!r} -> {succ!r} is not an edge"
            )
    total = zero_vector(len(next(iter(displacements.values()))))
    for node in word:
        total = vector_add(total, displacements[node])
    period = Fraction(1, len(word))
    return tuple(c * period for c in total)


def simple_cycles(
    graph: MarkovGraph, cap: int = DEFAULT_CYCLE_CAP
) -> list[tuple[str, ...]]:
    """All elementary cycles, Johnson-style search with blocking.

    Each cycle appears once, rooted at its smallest node.  Raises
    :class:`ResourceCapError` when more than ``cap`` cycles exist; the
    enumeration is never silently truncated.  The search keeps an explicit
    stack, so a long cycle needs no deep recursion.
    """
    order = {name: i for i, name in enumerate(sorted(graph.node_ids))}
    succ = graph.successors()
    cycles: list[tuple[str, ...]] = []

    for start in sorted(graph.node_ids):
        floor = order[start]
        blocked = {start}
        blocked_map: dict[str, set[str]] = {}
        path = [start]
        # One frame per node on the path: [node, successor iterator,
        # whether a cycle through the node's subtree was found].
        stack = [[start, iter(succ[start]), False]]
        while stack:
            frame = stack[-1]
            v, successors, _ = frame
            for w in successors:
                if order[w] < floor:
                    continue
                if w == start:
                    cycles.append(tuple(path))
                    if len(cycles) > cap:
                        raise ResourceCapError(
                            f"more than {cap} simple cycles; raise the cap"
                        )
                    frame[2] = True
                elif w not in blocked:
                    path.append(w)
                    blocked.add(w)
                    stack.append([w, iter(succ[w]), False])
                    break
            else:
                stack.pop()
                path.pop()
                if frame[2]:
                    _unblock(v, blocked, blocked_map)
                    if stack:
                        stack[-1][2] = True
                else:
                    for w in succ[v]:
                        if order[w] >= floor:
                            blocked_map.setdefault(w, set()).add(v)
    return cycles


def _unblock(node: str, blocked: set[str], blocked_map: dict[str, set[str]]) -> None:
    stack = [node]
    while stack:
        u = stack.pop()
        if u in blocked:
            blocked.discard(u)
            stack.extend(blocked_map.pop(u, ()))


def piece_rotation_set(
    piece: BasicPieceModel, cycle_cap: int = DEFAULT_CYCLE_CAP
) -> RationalPolytope:
    """Rotation polytope of the piece: hull of simple-cycle mean displacements."""
    displacements = piece.graph.displacements()
    # Sum cycles as integer vectors over the displacements' common
    # denominator.  Equal means share one gcd-reduced (total, length) key,
    # so only one Fraction vector is built per distinct mean.
    den = lcm(*{c.denominator for disp in displacements.values() for c in disp})
    ints = {
        name: tuple(c.numerator * (den // c.denominator) for c in disp)
        for name, disp in displacements.items()
    }
    sums = {
        (tuple(map(sum, zip(*map(ints.__getitem__, cycle)))), len(cycle))
        for cycle in simple_cycles(piece.graph, cap=cycle_cap)
    }
    keys = set()
    for total, length in sums:
        g = gcd(length, *total)
        keys.add((tuple(t // g for t in total), length // g))
    means = [
        tuple(Fraction(t, length * den) for t in total) for total, length in keys
    ]
    return extreme_points(means)


def piece_table(pieces: Iterable[BasicPieceModel]) -> dict[str, BasicPieceModel]:
    return {piece.id: piece for piece in pieces}


def rotation_sets(
    pieces: Mapping[str, BasicPieceModel], cycle_cap: int = DEFAULT_CYCLE_CAP
) -> dict[str, RationalPolytope]:
    """Rotation polytopes for a whole piece table, keyed by piece id."""
    return {
        name: piece_rotation_set(piece, cycle_cap=cycle_cap)
        for name, piece in pieces.items()
    }
