"""Computation pipeline: validate, compute chains and blocks, run checks.

:func:`compute` alone decides whether a model is valid, and
:func:`validate` reports its verdict.  The static checks come first; then
every piece polytope and every maximal chain's polytope and marked supports
are built once, the trivial-piece, direct-sum and origin checks run on
them, and the convex blocks are assembled from them.  The
:class:`Computation` it returns is the complete, deterministic answer for a
model.  Each check reads it without recomputing anything and returns a
:class:`CheckOutcome`, plain data that the command line (or a test) can
render; :func:`run_checks` calls only the checks requested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from . import analysis
from .conley import (
    NO_MARK,
    Block,
    ChainData,
    block_budget,
    chain_marked_support,
    coned,
    enumerate_blocks,
    support_span,
)
from .errors import ModelValidationError, ResourceCapError
from .exactgeom import (
    RationalPolytope,
    SubspaceBasis,
    contains_point,
    vertex_outside_span,
)
from .heteroclinic import chain_rotation_set, maximal_nontrivial_chains
from .markov import rotation_sets
from .model import ModelDocument, validate_model, validate_rotation_data
from .oracle import sample_chain_averages

# Oracle samples past which the chain-sampling check raises ResourceCapError
# before drawing any.  Every sample is kept until it is tested: 10^5 samples
# of genus2_full take about 2 s and 10 MiB more peak memory than 10^3 (on a
# 2-vCPU host).
SAMPLE_CAP = 100_000


@dataclass(frozen=True)
class Computation:
    model: ModelDocument
    piece_sets: dict[str, RationalPolytope]
    chains: tuple[ChainData, ...]
    blocks: tuple[Block, ...]
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    details: tuple[str, ...] = ()
    info: dict = field(default_factory=dict)


def validate(model: ModelDocument) -> tuple[list[str], list[str]]:
    """The verdict of :func:`compute` on the model: its violations and
    warnings.  A resource cap met on the way propagates."""
    try:
        computation = compute(model)
    except ModelValidationError as exc:
        return exc.violations, exc.warnings
    return [], list(computation.warnings)


def compute(model: ModelDocument) -> Computation:
    """Validate the model and compute its chains and blocks.  A
    :class:`ModelValidationError` carries the warnings gathered before it."""
    violations, warnings = validate_model(model)
    if violations:
        raise ModelValidationError(violations, warnings)
    table = model.pieces_by_id()
    piece_sets = rotation_sets(table)
    chain_sets = {
        chain: chain_rotation_set(chain, piece_sets)
        for chain in maximal_nontrivial_chains(model.heteroclinic, table)
    }
    violations, more = validate_rotation_data(model, piece_sets, chain_sets)
    warnings += more
    if violations:
        raise ModelValidationError(violations, warnings)
    try:
        chains = tuple(
            ChainData(chain, polytope, tuple(chain_marked_support(chain, model)))
            for chain, polytope in chain_sets.items()
        )
    except ModelValidationError as exc:
        raise ModelValidationError(exc.violations, warnings) from None
    return Computation(
        model=model,
        piece_sets=piece_sets,
        chains=chains,
        blocks=tuple(enumerate_blocks(chains)),
        warnings=tuple(warnings),
    )


def run_checks(
    computation: Computation,
    star: bool = False,
    bound: bool = False,
    subspace: bool = False,
    convex_density: int | None = None,
    interior: bool = False,
    oracle_samples: int | None = None,
    seed: int = 1,
) -> list[CheckOutcome]:
    """Run the requested checks and only those; default to the standard battery."""
    if not any([star, bound, subspace, convex_density, interior, oracle_samples]):
        star = bound = subspace = interior = True
        convex_density = analysis.DEFAULT_PROBE_DENSITY

    outcomes: list[CheckOutcome] = []
    if star:
        outcomes.append(_star_shape(computation))
    if bound:
        outcomes.append(_block_count_bound(computation))
        outcomes.append(_support_variants(computation))
    if subspace:
        outcomes.append(_subspace_containment(computation))
        outcomes.append(_chain_in_block(computation))
    if convex_density:
        outcomes.append(_block_union_convexity(computation, convex_density))
    if interior:
        outcomes.append(_interior(computation))
    if oracle_samples:
        outcomes.append(_chain_sampling(computation, oracle_samples, seed))
    return outcomes


def _star_shape(computation: Computation) -> CheckOutcome:
    """The union of the chain polytopes is star-shaped about the origin."""
    if not computation.chains:
        return CheckOutcome("star_shape", True, ("no non-trivial chains",))
    ok, witness = analysis.star_shape_check(
        [data.polytope for data in computation.chains]
    )
    if witness is None:
        return CheckOutcome("star_shape", ok)
    low, high = witness.gap
    return CheckOutcome(
        "star_shape",
        ok,
        (
            f"segment to {tuple(str(c) for c in witness.point)} uncovered "
            f"between parameters {low} and {high}",
        ),
        {"witness": [str(c) for c in witness.point], "gap": [str(low), str(high)]},
    )


def _bound_info(computation: Computation) -> dict:
    return {
        "blocks": len(computation.blocks),
        "budget": block_budget(computation.model.genus),
    }


def _block_count_bound(computation: Computation) -> CheckOutcome:
    """At most four blocks per admissible support over the genus budget."""
    info = _bound_info(computation)
    return CheckOutcome(
        "block_count_bound",
        info["blocks"] <= info["budget"],
        (f"{info['blocks']} blocks against budget {info['budget']}",),
        info,
    )


def _support_variants(computation: Computation) -> CheckOutcome:
    """Each support has 1, 2 or 4 marked variants, never zero mixed with
    oriented marks."""
    by_support: dict[frozenset[str], list[Block]] = {}
    for block in computation.blocks:
        by_support.setdefault(block.key.support, []).append(block)
    issues: list[str] = []
    for support, members in sorted(by_support.items(), key=lambda kv: sorted(kv[0])):
        initials = {b.key.initial_mark for b in members}
        finals = {b.key.final_mark for b in members}
        label = "+".join(sorted(support))
        if NO_MARK in initials and len(initials) > 1:
            issues.append(f"support {label}: mixed zero/oriented initial marks")
        if NO_MARK in finals and len(finals) > 1:
            issues.append(f"support {label}: mixed zero/oriented final marks")
        if len(members) not in (1, 2, 4):
            issues.append(f"support {label}: {len(members)} marked variants")
    return CheckOutcome(
        "support_variants", not issues, tuple(issues), _bound_info(computation)
    )


def _subspace_containment(computation: Computation) -> CheckOutcome:
    """Each block lies in the span of its support's subspaces.

    Blocks that share a support share one basis, built once and kept with
    its integer rows and rank for the call.
    """
    spans: dict[frozenset[str], SubspaceBasis] = {}
    issues: list[str] = []
    for block in computation.blocks:
        support = block.key.support
        if support not in spans:
            spans[support] = support_span(block.key, computation.model)
        v = vertex_outside_span(spans[support], block.polytope)
        if v is not None:
            issues.append(
                f"block {block.key.label()}: vertex "
                f"{tuple(str(c) for c in v)} outside the support span"
            )
    return CheckOutcome("subspace_containment", not issues, tuple(issues))


def _chain_in_block(computation: Computation) -> CheckOutcome:
    """Each chain polytope lies in every block the chain contributes to.

    A block whose polytope equals the chain's holds it with no test.
    """
    polytopes = {data.chain: data.polytope for data in computation.chains}
    issues: list[str] = []
    for block in computation.blocks:
        for chain in block.chains:
            polytope = polytopes[chain]
            if polytope == block.polytope:
                continue
            for y in polytope.columns:
                if not contains_point(block.polytope, y):
                    issues.append(
                        f"chain {'<'.join(chain)}: vertex "
                        f"{tuple(map(str, y.vector))} outside block {block.key.label()}"
                    )
    return CheckOutcome("chain_in_block", not issues, tuple(issues))


def _block_union_convexity(computation: Computation, density: int) -> CheckOutcome:
    """Grid probe of each block's union of coned chain polytopes.

    A block of one chain is one coned convex polytope, so only blocks that
    pool two or more chains are probed.  The union of all blocks is probed
    too; its verdict is informational.
    """
    polytopes = {data.chain: data.polytope for data in computation.chains}
    issues: list[str] = []
    for block in computation.blocks:
        if len(block.chains) < 2:
            continue
        members = [coned(polytopes[chain]) for chain in block.chains]
        ok, witness = analysis.convexity_probe(members, density=density)
        if not ok:
            issues.append(
                f"block {block.key.label()}: uncovered point "
                f"{tuple(str(c) for c in witness)}"  # type: ignore[union-attr]
            )
    info: dict = {"density": density}
    if computation.blocks:
        ok, witness = analysis.convexity_probe(
            [block.polytope for block in computation.blocks], density=density
        )
        info["global_union_convex"] = ok
        if witness is not None:
            info["global_witness"] = [str(c) for c in witness]
    return CheckOutcome("block_union_convexity", not issues, tuple(issues), info)


def _interior(computation: Computation) -> CheckOutcome:
    """A full-dimensional block, if any, contains every other block."""
    report = analysis.interior_check(computation.blocks, computation.model.genus)
    return CheckOutcome(
        "interior",
        report.status != analysis.VIOLATION,
        (report.detail,) if report.detail else (),
        {"status": report.status, "container": report.container},
    )


def _chain_sampling(
    computation: Computation, total_samples: int, seed: int
) -> CheckOutcome:
    """Seeded chain averages must land in their chain polytope.

    The samples are shared out evenly over the chains, the first chains
    taking one more each while some are left, and every chain takes at
    least one: ``exp_family(3)`` has 8 chains, so 3 samples asked for draw
    8.  Each sample comes as a homogeneous integer column and is tested in
    that form against its chain polytope only: a block that pools the
    chain is the hull of its chains' polytopes and the origin
    (:func:`~rotaxa.conley.enumerate_blocks`), so a sample inside the chain
    polytope is inside each such block.  A sample is written as
    rationals only for a failure message.
    """
    if total_samples > SAMPLE_CAP:
        raise ResourceCapError(
            f"chain_sampling: more than {SAMPLE_CAP} oracle samples "
            f"({total_samples} requested)"
        )
    table = computation.model.pieces_by_id()
    chains = computation.chains
    if not chains:
        return CheckOutcome("chain_sampling", True, ("no chains to sample",))
    share = max(1, total_samples // len(chains))
    counts = [share] * len(chains)
    for i in range(total_samples - share * len(chains)):
        counts[i % len(chains)] += 1
    failures: list[str] = []
    tested = 0
    for offset, (data, count) in enumerate(zip(chains, counts)):
        for point in sample_chain_averages(data.chain, table, count, seed + offset):
            tested += 1
            if not contains_point(data.polytope, point):
                failures.append(
                    f"sample {tuple(map(str, point.vector))} outside chain "
                    f"{'<'.join(data.chain)}"
                )
    return CheckOutcome(
        "chain_sampling",
        not failures,
        tuple(failures[:10]),
        {"samples": tested, "violations": len(failures)},
    )


def outcomes_passed(outcomes: Sequence[CheckOutcome]) -> bool:
    return all(outcome.passed for outcome in outcomes)
