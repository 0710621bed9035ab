"""Independent brute-force cross-checks for the rotation-set pipeline.

``oracle_piece_set`` recomputes a piece's rotation polytope straight from the
Birkhoff-mean semantics: the hull of average displacements over *all* cycles
(repetitions allowed) up to a length bound, with no reliance on the
simple-cycle shortcut.  ``sample_chain_averages`` realizes chain limits: a
convex combination of per-piece periodic-word means is exactly the asymptotic
average of an orbit shadowing those words in succession, so every sample must
land in the chain's rotation polytope.  A sample ``x`` is given as its
homogeneous integer column ``[x·den; den]`` in lowest terms (a
:class:`~rotaxa.exactgeom.HomogeneousPoint`), the form membership tests read.

Randomness is a documented 64-bit linear congruential generator so that runs
are reproducible across implementations:

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64

and a bounded draw below ``n`` is ``(state' >> 32) mod n``.  The seed is
read modulo 2^64.  A sample draws its convex weights first: each chain
member but the last takes a draw below ``r + 1`` as its weight over 64,
out of the ``r`` still left, and the last member takes what is left.  Then
it draws one closed walk per member, in chain order: a draw for the start
node among the sorted nodes, then one per step among the successors, until
a node repeats.  The sampling helpers take the state as a plain integer,
step it inline and hand it back, so a draw costs no method call.  The
reference generator, an object form of the same sequence with one method
call per draw, lives in the tests (``tests/test_oracle.py``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from .errors import ResourceCapError
from .exactgeom import HomogeneousPoint, RationalPolytope, Vector, extreme_points
from .heteroclinic import Chain
from .markov import BasicPieceModel, check_admissible

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
LCG_MASK = (1 << 64) - 1

WEIGHT_DENOMINATOR = 64

DEFAULT_STATE_CAP = 2_000_000


def oracle_piece_set(piece: BasicPieceModel, max_len: int) -> RationalPolytope:
    """Hull of mean displacements over all cycles of length up to ``max_len``.

    Depth-first search over walk states (current node, length, accumulated
    displacement); previously expanded states are blocked, which keeps the
    search finite without dropping any attainable cycle mean.  Walks rooted
    at a node never descend below it in node order, so each closed walk is
    counted from its minimal node.  Raises :class:`ResourceCapError` when the
    state space exceeds ``DEFAULT_STATE_CAP``.
    """
    node_ids = sorted(piece.graph.node_ids)
    if max_len < len(node_ids):
        raise ValueError("max_len must be at least the node count")
    succ = piece.graph.successors()
    displacements = piece.graph.displacements()
    dim = len(next(iter(displacements.values())))
    disp_int = {
        name: tuple(int(c) for c in disp) for name, disp in displacements.items()
    }
    order = {name: i for i, name in enumerate(node_ids)}

    means: set[Vector] = set()
    states = 0
    for start in node_ids:
        floor = order[start]
        zero = (0,) * dim
        seen = {(start, 0, zero)}
        stack = [(start, 0, zero)]
        while stack:
            node, length, total = stack.pop()
            if length == max_len:
                continue
            carried = tuple(a + b for a, b in zip(total, disp_int[node]))
            for nxt in succ[node]:
                if order[nxt] < floor:
                    continue
                if nxt == start:
                    means.add(
                        tuple(Fraction(c, length + 1) for c in carried)
                    )
                state = (nxt, length + 1, carried)
                if state not in seen:
                    seen.add(state)
                    states += 1
                    if states > DEFAULT_STATE_CAP:
                        raise ResourceCapError(
                            f"cycle-walk state space exceeded {DEFAULT_STATE_CAP}"
                        )
                    stack.append(state)
    return extreme_points(means)


def _closed_walk(
    nodes: Sequence[str], succ: Mapping[str, Sequence[str]], state: int
) -> tuple[tuple[str, ...], int]:
    """Walk from a random node along random successors until a node repeats;
    the walk's loop from that node's first visit is the word.  Returns the
    word and the generator state after its draws.  Reaching a node with no
    successor raises ``ValueError`` naming it, as an empty graph does."""
    if not nodes:
        raise ValueError("graph has no nodes")
    state = (LCG_MULTIPLIER * state + LCG_INCREMENT) & LCG_MASK
    node = nodes[(state >> 32) % len(nodes)]
    walk = [node]
    try:
        while True:
            options = succ[node]
            state = (LCG_MULTIPLIER * state + LCG_INCREMENT) & LCG_MASK
            node = options[(state >> 32) % len(options)]
            if node in walk:
                return tuple(walk[walk.index(node):]), state
            walk.append(node)
    except ZeroDivisionError:
        raise ValueError(f"node {node!r} has no successor") from None


def _weight_parts(count: int, state: int) -> tuple[list[int], int]:
    """Random convex weights with denominator dividing WEIGHT_DENOMINATOR,
    as their numerators over it, and the generator state after their
    draws."""
    remaining = WEIGHT_DENOMINATOR
    parts = []
    for _ in range(count - 1):
        state = (LCG_MULTIPLIER * state + LCG_INCREMENT) & LCG_MASK
        cut = (state >> 32) % (remaining + 1)
        parts.append(cut)
        remaining -= cut
    parts.append(remaining)
    return parts, state


def sample_chain_averages(
    chain: Chain,
    pieces: Mapping[str, BasicPieceModel],
    samples: int,
    seed: int,
) -> list[HomogeneousPoint]:
    """Deterministic pseudo-random chain-limit averages.

    Each sample draws convex weights and one periodic word per chain member,
    then forms the weighted combination of the word means.  These are exactly
    the asymptotic averages realized along the chain, hence must belong to
    the chain's rotation polytope.

    Each sample is returned as the homogeneous integer column of that
    average in lowest terms, which is what :func:`~rotaxa.exactgeom.homogeneous`
    gives for the rational vector; membership tests read it as it is.  The
    walk tables of each member are built once per call, and each distinct
    word of a member is checked and summed once per call.  The values are
    those of :func:`~rotaxa.markov.word_rotation_vector` on the words drawn,
    in the draw order of the module docstring.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    state = seed & LCG_MASK
    tables = []
    for name in chain:
        graph = pieces[name].graph
        den, ints = graph.integer_displacements
        walk = sorted(graph.node_ids), graph.successors()
        # The last entry maps each distinct word drawn to its integer total
        # and scale, or to None when the total is zero.
        tables.append((*walk, set(graph.edges), ints, den, {}))
    dim = len(pieces[chain[0]].graph.nodes[0][1])
    out: list[HomogeneousPoint] = []
    for _ in range(samples):
        # Member j adds part_j * total_j / (WEIGHT_DENOMINATOR * scale_j),
        # where scale_j is its word length times its displacement denominator.
        # A member with a zero weight or a zero total adds nothing, and the
        # column is reduced to lowest terms, so its scale is left out too.
        terms = []
        parts, state = _weight_parts(len(tables), state)
        for part, (nodes, succ, edges, ints, den, words) in zip(parts, tables):
            word, state = _closed_walk(nodes, succ, state)
            summed = words.get(word, False)
            if summed is False:
                check_admissible(word, ints, edges)
                total = [sum(column) for column in zip(*map(ints.__getitem__, word))]
                summed = words[word] = (
                    (total, len(word) * den) if any(total) else None
                )
            if part and summed:
                terms.append((part, *summed))
        common = lcm(*(scale for _, _, scale in terms))
        value = [0] * dim
        for part, total, scale in terms:
            factor = part * (common // scale)
            value = [v + factor * t for v, t in zip(value, total)]
        value.append(WEIGHT_DENOMINATOR * common)
        g = gcd(*value)
        out.append(HomogeneousPoint([v // g for v in value]))
    return out
