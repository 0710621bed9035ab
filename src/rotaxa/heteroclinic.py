"""The heteroclinic partial order on basic pieces and its chain rotation sets.

The strict order ``u before v`` means an unstable manifold of ``u`` meets a
stable manifold of ``v``; the engine receives it as edge data and works with
its transitive closure.  A chain is a totally ordered set of pieces; the
rotation set of a chain is the convex hull of the union of its members'
rotation polytopes, and the global rotation set is the union of the chain
sets over all maximal chains.

Trivial pieces contribute nothing to rotation: they are removed from the
order *after* taking the closure, so that chains passing through them keep
their connectivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import ModelValidationError, ResourceCapError
from .exactgeom import RationalPolytope, hull_of_union
from .markov import ANNULAR, TRIVIAL, BasicPieceModel

# Maximal chains past which enumeration stops with a ResourceCapError.  A
# ladder relation of depth d has 2^d of them, and each one costs a hull and a
# marked support downstream (the 32 chains of exp_family(5) take about a
# second), so this many is already minutes of work.
CHAIN_CAP = 10_000

MARK_LEFT = "L"
MARK_RIGHT = "R"

Chain = tuple[str, ...]


@dataclass(frozen=True)
class RelationEdge:
    """One heteroclinic connection with optional orientation marks.

    ``source_marks`` record on which side (left/right) the connection leaves
    an annular source; ``target_marks`` on which side it enters an annular
    target.  Both can hold the two sides simultaneously.
    """

    source: str
    target: str
    source_marks: frozenset[str] = frozenset()
    target_marks: frozenset[str] = frozenset()


@dataclass(frozen=True)
class HeteroclinicPoset:
    pieces: tuple[str, ...]
    edges: tuple[RelationEdge, ...]

    def edge_between(self, source: str, target: str) -> RelationEdge | None:
        for edge in self.edges:
            if edge.source == source and edge.target == target:
                return edge
        return None


def relation_edge(
    source: str,
    target: str,
    source_marks: Sequence[str] = (),
    target_marks: Sequence[str] = (),
) -> RelationEdge:
    return RelationEdge(
        source=source,
        target=target,
        source_marks=frozenset(source_marks),
        target_marks=frozenset(target_marks),
    )


def transitive_closure(poset: HeteroclinicPoset) -> dict[str, frozenset[str]]:
    """Strict reachability: ``v in closure[u]`` iff a nonempty path u -> v."""
    succ: dict[str, set[str]] = {p: set() for p in poset.pieces}
    for edge in poset.edges:
        succ[edge.source].add(edge.target)
    closure: dict[str, frozenset[str]] = {}
    for origin in poset.pieces:
        seen: set[str] = set()
        frontier = list(succ[origin])
        while frontier:
            u = frontier.pop()
            if u in seen:
                continue
            seen.add(u)
            frontier.extend(succ[u])
        closure[origin] = frozenset(seen)
    return closure


def find_relation_cycle(poset: HeteroclinicPoset) -> list[str] | None:
    """One directed cycle of the relation, or None when acyclic."""
    succ: dict[str, list[str]] = {p: [] for p in poset.pieces}
    for edge in poset.edges:
        succ[edge.source].append(edge.target)
    for outs in succ.values():
        outs.sort()
    color: dict[str, int] = {}
    for node in sorted(poset.pieces):
        if color.get(node, 0):
            continue
        # Depth-first search with an explicit stack: one successor iterator
        # per node on the current path.
        color[node] = 1
        path = [node]
        stack = [iter(succ[node])]
        while stack:
            for v in stack[-1]:
                state = color.get(v, 0)
                if state == 1:
                    return path[path.index(v):] + [v]
                if state == 0:
                    color[v] = 1
                    path.append(v)
                    stack.append(iter(succ[v]))
                    break
            else:
                stack.pop()
                color[path.pop()] = 2
    return None


def is_connected(poset: HeteroclinicPoset) -> bool:
    """Connectivity of the undirected relation graph over all pieces, a
    duplicated piece id counted once."""
    if not poset.pieces:
        return True
    neighbors: dict[str, set[str]] = {p: set() for p in poset.pieces}
    for edge in poset.edges:
        neighbors[edge.source].add(edge.target)
        neighbors[edge.target].add(edge.source)
    start = poset.pieces[0]
    seen = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for v in neighbors[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return len(seen) == len(neighbors)


def validate_poset(
    poset: HeteroclinicPoset, pieces: Mapping[str, BasicPieceModel]
) -> tuple[list[str], list[str]]:
    """Invariant violations and soft warnings for the relation data."""
    violations: list[str] = []
    warnings: list[str] = []
    known = set(poset.pieces)
    if len(known) != len(poset.pieces):
        violations.append("duplicate piece ids in the relation")
    for edge in poset.edges:
        if edge.source not in known or edge.target not in known:
            violations.append(
                f"relation edge ({edge.source!r}, {edge.target!r}) references a missing piece"
            )
            return violations, warnings
        if edge.source == edge.target:
            violations.append(f"reflexive relation edge on {edge.source!r}")
        for mark in edge.source_marks | edge.target_marks:
            if mark not in (MARK_LEFT, MARK_RIGHT):
                violations.append(
                    f"edge ({edge.source!r}, {edge.target!r}) carries unknown mark {mark!r}"
                )
        if edge.source_marks:
            src = pieces.get(edge.source)
            if src is not None and src.classification != ANNULAR:
                violations.append(
                    f"source marks on edge ({edge.source!r}, {edge.target!r}) "
                    "whose source is not annular"
                )
        if edge.target_marks:
            dst = pieces.get(edge.target)
            if dst is not None and dst.classification != ANNULAR:
                violations.append(
                    f"target marks on edge ({edge.source!r}, {edge.target!r}) "
                    "whose target is not annular"
                )
    cycle = find_relation_cycle(poset)
    if cycle is not None:
        violations.append(
            "relation has a cycle: " + " -> ".join(cycle)
        )
    if not is_connected(poset):
        # The order of a full system is connected once every piece (including
        # the trivial ones a model may choose to omit) is listed; a model that
        # leaves connectors out is still computable, so this is soft.
        warnings.append("relation graph is not connected")
    return violations, warnings


def _hasse_covers(
    elements: Sequence[str], closure: Mapping[str, frozenset[str]]
) -> dict[str, list[str]]:
    element_set = set(elements)

    def above(u: str) -> set[str]:
        return closure[u] & element_set

    covers: dict[str, list[str]] = {u: [] for u in elements}
    for u in elements:
        ups = above(u)
        for v in ups:
            if any(v in closure[w] for w in ups if w != v):
                continue
            covers[u].append(v)
    for outs in covers.values():
        outs.sort()
    return covers


def maximal_nontrivial_chains(
    poset: HeteroclinicPoset, pieces: Mapping[str, BasicPieceModel]
) -> list[Chain]:
    """All maximal chains of the closure restricted to non-trivial pieces.

    Restriction happens after the closure, so reachability through trivial
    pieces survives.  Output is deterministic: lexicographic in the piece-id
    sequences.

    Precondition: the relation is acyclic, as :func:`validate_poset`
    establishes.  A piece that reaches itself raises
    :class:`ModelValidationError` naming it.
    """
    closure = transitive_closure(poset)
    for piece in sorted(poset.pieces):
        if piece in closure[piece]:
            raise ModelValidationError([f"relation has a cycle through {piece!r}"])
    elements = sorted(
        p for p in poset.pieces if pieces[p].classification != TRIVIAL
    )
    if not elements:
        return []
    covers = _hasse_covers(elements, closure)
    has_predecessor = {v for outs in covers.values() for v in outs}
    chains: list[Chain] = []
    for root in elements:
        if root in has_predecessor:
            continue
        # Depth-first walk up the Hasse diagram; each path that reaches a
        # piece with no cover is a maximal chain.
        path = [root]
        stack = [iter(covers[root])]
        while stack:
            v = next(stack[-1], None)
            if v is not None:
                path.append(v)
                stack.append(iter(covers[v]))
                continue
            if not covers[path[-1]]:
                chains.append(tuple(path))
                if len(chains) > CHAIN_CAP:
                    raise ResourceCapError(
                        f"maximal_nontrivial_chains: more than {CHAIN_CAP} "
                        f"maximal chains ({len(chains)} enumerated)"
                    )
            stack.pop()
            path.pop()
    chains.sort()
    return chains


def chain_rotation_set(
    chain: Chain, piece_sets: Mapping[str, RationalPolytope]
) -> RationalPolytope:
    """Hull of the union of the member pieces' rotation polytopes, read from
    ``piece_sets``; a chain of one piece gets that piece's polytope itself."""
    if not chain:
        raise ValueError("empty chain")
    return hull_of_union([piece_sets[name] for name in chain])
