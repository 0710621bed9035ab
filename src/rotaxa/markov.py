"""Symbolic basic pieces: displacement-labeled digraphs and their rotation sets.

A basic piece is modeled by a strongly connected digraph whose nodes carry
integer homology displacements (the deck translation picked up when the
dynamics pushes a partition element out of the fundamental domain).  The
rotation set of the piece is the convex hull of cycle-mean displacement
vectors.  Because any circulation decomposes into simple cycles supported on
the same node set, the hull over *simple* cycles already equals the hull over
all cycles.  A simple cycle visits each node of its node set once, so its
mean is the sum of the displacements over that set divided by the set's
size: it depends on the node set alone, not on the order of the nodes.  So
one simple cycle per node set that carries one gives every mean, and the
computation finds exactly those (:func:`simple_cycles`): the complete
digraph on 8 nodes with self-loops has 16,072 simple cycles on its 255
non-empty node sets.  The brute-force cross-check over all bounded cycles
lives in :mod:`rotaxa.oracle`.

Cycle sums are single integer additions.  With the displacements written
as integer rows over one denominator, ``n`` nodes and largest entry ``m``,
each node's row ``d`` is packed into the Python int
``pack(d) = sum(d[k] * 2**(s*k))``: signed base-``2**s`` digits, where
``2**s > 2 * n**2 * m``.  ``pack`` is linear, and it is injective on rows
whose entries are at most ``n**2 * m`` in absolute value: the difference
``u - v`` of two such rows has entries below ``2**s`` in absolute value,
so if its lowest non-zero entry is ``e``, at index ``j``, then
``pack(u - v)`` is ``2**(s*j)`` times an integer congruent to ``e``, not
to 0, modulo ``2**s``.  A simple cycle has length ``l <= n`` and a sum
``t`` with entries at most ``n * m``, packed as ``x = pack(t)``.  So two
cycles have equal means, ``t1 / l1 == t2 / l2``, iff ``l2 * t1 == l1 * t2``,
whose entries are at most ``n**2 * m``, iff ``x1 * l2 == x2 * l1``: iff the
rationals ``x1 / l1`` and ``x2 / l2`` are equal, that is, have one key in
lowest terms.  The packed sum is carried along the cycle search itself
(:func:`simple_cycles` with ``weights``), one addition per step, and only
one sum per distinct mean is decoded back into integer digits, signed digit
by signed digit, which go to the hull as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Collection, Iterable, Mapping, Sequence

from .errors import InadmissibleWordError, ResourceCapError
from .exactgeom import (
    HomogeneousPoint,
    RationalPolytope,
    Vector,
    extreme_points,
)
from .simplex import integer_rows

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

    def displacements(self) -> dict[str, Vector]:
        return {name: disp for name, disp in self.nodes}

    @cached_property
    def integer_displacements(self) -> tuple[int, dict[str, tuple[int, ...]]]:
        """The displacements' common denominator ``den`` and each node's
        displacement times ``den``, as integers: converted once per graph."""
        den, rows = integer_rows(disp for _, disp in self.nodes)
        return den, dict(zip(self.node_ids, rows))

    def successors(self) -> dict[str, list[str]]:
        succ: dict[str, list[str]] = {name: [] for name, _ in self.nodes}
        for u, v in self.edges:
            if u in succ:
                succ[u].append(v)
        for outs in succ.values():
            outs.sort()
        return succ


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


def validate_piece(piece: BasicPieceModel) -> list[str]:
    """All invariant violations of the piece; an empty list means valid.

    Violations are data, not exceptions: each entry names the broken
    invariant and the offending element.  No rotation set is computed here.
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
    targets = {v for _, v in graph.edges}
    for name in ids:
        if not succ[name]:
            out.append(f"node {name!r} has no outgoing edge")
        if name not in targets:
            out.append(f"node {name!r} has no incoming edge")
    if out:
        return out
    components = _cyclic_components(set(ids), succ)
    if len(components) != 1 or len(components[0]) != len(ids):
        out.append("not strongly connected")
    return out


def check_admissible(
    word: PeriodicWord,
    nodes: Collection[str],
    edges: Collection[tuple[str, str]],
) -> None:
    """Raise :class:`InadmissibleWordError` unless ``word`` is a non-empty
    cyclic word over ``nodes`` whose every transition is one of ``edges``."""
    if not word:
        raise InadmissibleWordError("empty periodic word")
    for node in word:
        if node not in nodes:
            raise InadmissibleWordError(f"word visits unknown node {node!r}")
    for i, node in enumerate(word):
        succ = word[(i + 1) % len(word)]
        if (node, succ) not in edges:
            raise InadmissibleWordError(
                f"transition {node!r} -> {succ!r} is not an edge"
            )


def word_rotation_vector(piece: BasicPieceModel, word: PeriodicWord) -> Vector:
    """Average displacement along one period of a cyclic word: the integer
    displacements summed, over the word length times their denominator."""
    den, ints = piece.graph.integer_displacements
    check_admissible(word, ints, set(piece.graph.edges))
    scale = len(word) * den
    return tuple(
        Fraction(sum(column), scale) for column in zip(*map(ints.__getitem__, word))
    )


def simple_cycles(
    graph: MarkovGraph, weights: Mapping[str, int] | None = None
) -> list[tuple]:
    """One simple cycle per node set that carries one.

    Each entry is the lexicographically least cycle on its node set, rooted
    at the set's smallest node, and the list is in the order in which a
    plain depth-first search, from each root in increasing order along
    successors in sorted order, first closes a cycle on each set.

    The search runs over states ``(node set of the path, end node)``, not
    over paths: two paths with the same state have the same extensions, so
    each state is expanded at most once, and a node set is emitted the
    first time a path on it closes back to the root.  The search from a
    root stays in the root's strongly connected component among the nodes
    at or above it, so a ring of N nodes costs O(N), not O(N^2).  Raises
    :class:`ResourceCapError` when more than ``DEFAULT_CYCLE_CAP`` states
    would be expanded; the search is never silently truncated.  Explicit
    stacks replace recursion.

    Without ``weights`` each cycle is its tuple of nodes.  With integer
    ``weights`` on the nodes, each cycle is ``(sum, length)`` instead, in
    the same order: the sum of its nodes' weights, carried along the search
    path so that a cycle costs one addition per step of the search, not one
    per node.
    """
    succ = graph.successors()
    weight = weights if weights is not None else dict.fromkeys(succ, 0)
    bit = {v: 1 << i for i, v in enumerate(succ)}
    # The first cycle closed on each node set, keyed by the set's bits.
    cycles: dict[int, tuple] = {}
    states, cap = 0, DEFAULT_CYCLE_CAP
    # Components still to search, keyed by their smallest node.  Components
    # are disjoint, and those of a component minus its root have larger
    # smallest nodes, so roots leave the heap in increasing order.
    pending = [(min(c), c) for c in _cyclic_components(set(succ), succ)]
    heapify(pending)
    while pending:
        start, component = heappop(pending)
        # The successors inside the component, filtered once per search.
        inner = {v: [w for w in succ[v] if w in component] for v in component}
        # For each end node, the node sets of the paths expanded to it.
        expanded: dict[str, set[int]] = {v: set() for v in component}
        # One frame per node on the path, each an expanded state: (node,
        # node set of the path, successor iterator, weight of the path).
        stack = [(start, bit[start], iter(inner[start]), weight[start])]
        states += 1
        while stack:
            if states > cap:
                raise ResourceCapError(
                    f"simple_cycles: more than {cap} search states ({states} reached)"
                )
            _, mask, successors, total = stack[-1]
            for w in successors:
                grown = mask | bit[w]
                if w == start and mask not in cycles:
                    nodes = tuple(frame[0] for frame in stack)
                    cycles[mask] = nodes if weights is None else (total, len(nodes))
                elif grown != mask and grown not in expanded[w]:
                    states += 1
                    expanded[w].add(grown)
                    stack.append((w, grown, iter(inner[w]), total + weight[w]))
                    break
            else:
                stack.pop()
        component.discard(start)
        for sub in _cyclic_components(component, succ):
            heappush(pending, (min(sub), sub))
    return list(cycles.values())


def _cyclic_components(
    nodes: set[str], succ: Mapping[str, Sequence[str]]
) -> list[set[str]]:
    """Strongly connected components of the subgraph on ``nodes`` that hold
    a cycle (two or more nodes, or one with a self-loop); Tarjan's algorithm
    with an explicit stack."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}  # only nodes whose component is still open
    open_nodes: list[str] = []
    components = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        open_nodes.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if w in nodes and w not in index:
                    index[w] = low[w] = len(index)
                    open_nodes.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if w in low:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if low[v] < index[v]:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                    continue
                component = set()
                while v not in component:
                    w = open_nodes.pop()
                    del low[w]
                    component.add(w)
                if len(component) > 1 or v in succ[v]:
                    components.append(component)
    return components


def piece_rotation_set(piece: BasicPieceModel) -> RationalPolytope:
    """Rotation polytope of the piece: hull of simple-cycle mean displacements.

    The means come from one simple cycle per node set (see the module
    docstring).  Each cycle is summed as one packed integer, carried along
    :func:`simple_cycles`' search, and keyed by its mean in lowest terms,
    ``(x // g, len // g)`` with ``g = gcd(x, len)``.  One packed sum per
    distinct mean is decoded into its integer digits, which go to
    :func:`~rotaxa.exactgeom.extreme_points` as the homogeneous column
    ``[sum; len * den]``, so no mean is built as a ``Fraction`` vector.
    """
    den, ints = piece.graph.integer_displacements
    n = len(ints)
    dim = len(next(iter(ints.values())))
    largest = max((abs(c) for row in ints.values() for c in row), default=0)
    width = (2 * n * n * largest).bit_length()
    packed = {
        name: sum(c << (width * k) for k, c in enumerate(row))
        for name, row in ints.items()
    }
    representatives: dict[tuple[int, int], tuple[int, int]] = {}
    for total, length in set(simple_cycles(piece.graph, packed)):
        g = gcd(total, length)
        representatives.setdefault((total // g, length // g), (total, length))
    # Signed base-2**width digits: each entry of a cycle sum is below
    # 2**(width - 1) in absolute value.  Width 0 (all displacements 0)
    # packs every row to 0, and the digits below read 0 too.
    half, mask = (1 << width) >> 1, (1 << width) - 1
    means = []
    for total, length in representatives.values():
        digits = []
        for _ in range(dim):
            digit = ((total + half) & mask) - half
            digits.append(digit)
            total = (total - digit) >> width
        means.append(HomogeneousPoint((*digits, length * den)))
    return extreme_points(means)


def rotation_sets(
    pieces: Mapping[str, BasicPieceModel],
) -> dict[str, RationalPolytope]:
    """Rotation polytopes for a whole piece table, keyed by piece id."""
    return {name: piece_rotation_set(piece) for name, piece in pieces.items()}
