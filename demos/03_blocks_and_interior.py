"""From chains to convex blocks, and what an interior buys you.

Three stories:

* connecting the two horseshoes of the non-convex example with one
  heteroclinic edge merges the chains; the single block becomes a
  full-dimensional polytope in Q^4 and the interior criterion promotes the
  whole rotation set to convex;
* five pieces with pairwise distinct supports give five blocks whose
  pairwise intersections are nontrivial (two planar blocks overlap in a
  full-dimensional piece of their shared plane);
* the structural report checks the block budget, the marked-variant
  pattern, subspace containment, chain containment and per-block convexity.
"""

from rotaxa import compute, get_fixture, interior_check, run_checks
from rotaxa.exactgeom import affine_dim, contains_point, as_vector

print("== one edge away from convexity ==")
full = compute(get_fixture("genus2_full"))
[block] = full.blocks
print(f"blocks: 1, affine dimension {affine_dim(block.polytope)} (ambient 4)")
report = interior_check(full.blocks, genus=2)
print(f"interior criterion: {report.status}")

print()
print("== overlapping blocks ==")
overlap = compute(get_fixture("genus2_blocks"))
print(f"blocks: {len(overlap.blocks)}")
for b in overlap.blocks:
    verts = " ".join(
        "(" + ",".join(str(c) for c in v) + ")" for v in b.polytope.vertices
    )
    print(f"  support {'+'.join(sorted(b.key.support))}: dim "
          f"{affine_dim(b.polytope)}, vertices {verts}")
shared = as_vector((1, 1, 0, 0))
planar = [b for b in overlap.blocks if affine_dim(b.polytope) == 2]
print("point (1,1,0,0) lies in both planar blocks:",
      all(contains_point(b.polytope, shared) for b in planar))

print()
print("== structural report ==")
for check in run_checks(overlap, bound=True, subspace=True, convex_density=4):
    print(f"  {check.name}: {'pass' if check.passed else 'FAIL'}")
