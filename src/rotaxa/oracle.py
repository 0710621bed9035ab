"""Independent brute-force cross-checks for the rotation-set pipeline.

``oracle_piece_set`` recomputes a piece's rotation polytope straight from the
Birkhoff-mean semantics: the hull of average displacements over *all* cycles
(repetitions allowed) up to a length bound, with no reliance on the
simple-cycle shortcut.  ``sample_chain_averages`` realizes chain limits: a
convex combination of per-piece periodic-word means is exactly the asymptotic
average of an orbit shadowing those words in succession, so every sample must
land in the chain's rotation polytope.

Randomness is a documented 64-bit linear congruential generator so that runs
are reproducible across implementations:

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64

and a bounded draw below ``n`` is ``(state' >> 32) mod n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .errors import ResourceCapError
from .exactgeom import RationalPolytope, Vector, extreme_points
from .heteroclinic import Chain
from .markov import BasicPieceModel, check_admissible

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
LCG_MASK = (1 << 64) - 1

WEIGHT_DENOMINATOR = 64

DEFAULT_STATE_CAP = 2_000_000


@dataclass
class Lcg64:
    """The documented linear congruential sequence; deterministic per seed."""

    state: int

    def __init__(self, seed: int):
        self.state = seed & LCG_MASK

    def next_raw(self) -> int:
        self.state = (LCG_MULTIPLIER * self.state + LCG_INCREMENT) & LCG_MASK
        return self.state

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("bound must be positive")
        return (self.next_raw() >> 32) % n

    def choice(self, items: Sequence):
        return items[self.below(len(items))]


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


def random_periodic_word(
    piece: BasicPieceModel, rng: Lcg64
) -> tuple[str, ...]:
    """A random closed walk in the piece graph, via first-revisit extraction."""
    return _closed_walk(
        sorted(piece.graph.node_ids), piece.graph.successors(), rng
    )


def _closed_walk(
    nodes: Sequence[str], succ: Mapping[str, Sequence[str]], rng: Lcg64
) -> tuple[str, ...]:
    """Walk from a random node along random successors until a node repeats;
    the walk's loop from that node's first visit is the word."""
    walk = [rng.choice(nodes)]
    positions = {walk[0]: 0}
    while True:
        nxt = rng.choice(succ[walk[-1]])
        if nxt in positions:
            return tuple(walk[positions[nxt]:])
        positions[nxt] = len(walk)
        walk.append(nxt)


def convex_weights(count: int, rng: Lcg64) -> list[Fraction]:
    """Random convex weights with denominator dividing WEIGHT_DENOMINATOR."""
    return [Fraction(p, WEIGHT_DENOMINATOR) for p in _weight_parts(count, rng)]


def _weight_parts(count: int, rng: Lcg64) -> list[int]:
    """The numerators of :func:`convex_weights` over WEIGHT_DENOMINATOR."""
    remaining = WEIGHT_DENOMINATOR
    parts = []
    for _ in range(count - 1):
        cut = rng.below(remaining + 1)
        parts.append(cut)
        remaining -= cut
    parts.append(remaining)
    return parts


def sample_chain_averages(
    chain: Chain,
    pieces: Mapping[str, BasicPieceModel],
    samples: int,
    seed: int,
) -> list[Vector]:
    """Deterministic pseudo-random chain-limit averages.

    Each sample draws convex weights and one periodic word per chain member,
    then forms the weighted combination of the word means.  These are exactly
    the asymptotic averages realized along the chain, hence must belong to
    the chain's rotation polytope.

    The walk tables of each member are built once per call, and each sample
    is summed in integers over one common denominator; the draws and values
    are those of :func:`convex_weights`, :func:`random_periodic_word` and
    :func:`~rotaxa.markov.word_rotation_vector`.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = Lcg64(seed)
    tables = []
    for name in chain:
        graph = pieces[name].graph
        den, ints = graph.integer_displacements()
        tables.append(
            (sorted(graph.node_ids), graph.successors(), set(graph.edges), ints, den)
        )
    dim = len(pieces[chain[0]].graph.nodes[0][1])
    out: list[Vector] = []
    for _ in range(samples):
        # Member j adds part_j * total_j / (WEIGHT_DENOMINATOR * scale_j),
        # where scale_j is its word length times its displacement denominator.
        terms = []
        for part, (nodes, succ, edges, ints, den) in zip(
            _weight_parts(len(tables), rng), tables
        ):
            word = _closed_walk(nodes, succ, rng)
            check_admissible(word, ints, edges)
            total = [sum(column) for column in zip(*map(ints.__getitem__, word))]
            terms.append((part, total, len(word) * den))
        common = lcm(*(scale for _, _, scale in terms))
        value = [0] * dim
        for part, total, scale in terms:
            factor = part * (common // scale)
            value = [v + factor * t for v, t in zip(value, total)]
        out.append(tuple(Fraction(v, WEIGHT_DENOMINATOR * common) for v in value))
    return out
