"""Two independent routes to the same polytope, plus chain-limit sampling.

The engine computes a piece's rotation set from one simple cycle per node
set, since a simple cycle's mean depends only on the nodes it visits; the
oracle recomputes it from all bounded cycles with repetitions.  The two
hulls must agree exactly (canonical forms are compared with ==).  Then a
thousand seeded pseudo-random chain averages are checked against the chain
polytope: every one is a convex combination of periodic word means, so every
one must lie inside it.  The chain polytope is a simplex, so each exact
membership test is a handful of integer sign tests on its kernel; each
sample comes as a homogeneous integer column, the form those tests read.
"""

import random

from rotaxa import compute, contains_point, get_fixture, oracle_piece_set, piece_rotation_set
from rotaxa.markov import CURVED, BasicPieceModel, graph_from_edges
from rotaxa.oracle import sample_chain_averages

rng = random.Random(2)
names = ["a", "b", "c", "d"]
ring = names[:]
rng.shuffle(ring)
edges = {(ring[i], ring[(i + 1) % 4]) for i in range(4)}
edges |= {("a", "c"), ("c", "a"), ("b", "b")}
nodes = [(n, tuple(rng.randint(-3, 3) for _ in range(4))) for n in names]
piece = BasicPieceModel(
    id="demo", classification=CURVED, graph=graph_from_edges(nodes, edges)
)

fast = piece_rotation_set(piece)
slow = oracle_piece_set(piece, max_len=8)
print("displacements:", {n: tuple(int(c) for c in d) for n, d in piece.graph.nodes})
print("simple-cycle hull:", [[str(c) for c in v] for v in fast.vertices])
print("bounded-cycle hull:", [[str(c) for c in v] for v in slow.vertices])
print("exact agreement:", fast == slow)

print()
computation = compute(get_fixture("genus2_full"))
[chain_data] = computation.chains
samples = sample_chain_averages(
    chain_data.chain, computation.model.pieces_by_id(), samples=1000, seed=42
)
inside = sum(contains_point(chain_data.polytope, s) for s in samples)
print(f"chain {' < '.join(chain_data.chain)}: {inside}/1000 sampled averages inside")
