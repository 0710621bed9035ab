"""Benchmark inputs: the model documents of each workload and their checks.

A workload is a list of jobs.  Each job carries one canonical JSON model
document (the only thing the program under test ever sees), the
``run_checks`` arguments if the job checks as well as computes, and the
invariants its output must satisfy.  Everything here is derived from the
workload seed, so one seed always gives the same jobs in the same order.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("battery", "piece_hulls", "sampling")
DEFAULT_SEED = 1
ORACLE_SAMPLES = 1000

BATTERY_FIXTURES = (
    "genus2_nonconvex",
    "genus2_full",
    "genus2_blocks",
    "exp_family(3)",
    "exp_family(4)",
)
SAMPLING_FIXTURES = ("genus2_full", "exp_family(3)")

# Each random piece is a Hamiltonian cycle plus chords, drawn from a fixed
# family seed until its number of simple cycles lands in the window.  The
# workload seed relabels its nodes and applies a signed permutation to the
# homology coordinates.  A fresh digraph per workload seed changed the job's
# cost by up to 2x (26 to 44 hull vertices), and even isomorphic copies vary
# by about 7% with the order in which the program meets the points, so the
# family is fixed and the pass holds four pieces to average that order
# effect.  These family members have 120 to 135 simple cycles and 35 to 37
# hull vertices, the size the workload is meant to have.
RANDOM_FAMILY_SEEDS = (2, 5, 7, 11)
RANDOM_NODES = 14
RANDOM_EDGES = 30
RANDOM_CYCLE_WINDOW = (120, 150)
DISPLACEMENT_RANGE = 3

# sha256 of each job's output at the default seed, as the seed commit of
# this benchmark produced it.  Battery jobs do not depend on the seed, so
# their digests are checked on every seed.
EXPECTED_DIGESTS = {
    "battery/genus2_nonconvex":
        "95428f3213f1734cdf3a439984d3b4c2820ba828e811caf392f8206d266e29cf",
    "battery/genus2_full":
        "0177b66cd2b391045f7bcd3366a5db1bba9affc8d3ff409db4e4d6df8ca65bda",
    "battery/genus2_blocks":
        "505459e818d16579ba6aaaeca6c07367c1bf0ca9629be056f0adc2967ddb47a3",
    "battery/exp_family(3)":
        "f5e94d110c69e6d932adf588d1c5469451b8b3a0a2ef346ef0249ccd54c64567",
    "battery/exp_family(4)":
        "ffc2bbf6098483a214d5dfcfd6f693389d654979e6d86c71bb3d94daeae4b12e",
    "piece_hulls/K_8":
        "ff8c32ffd5c11ff943b8704a9d1296b1548b7d956fce22c4cda9d63e65f8caa6",
    "piece_hulls/random_14_2":
        "3c220a4e3aad5212c21f7af94c1580c5e0d862282dbd88a8ff3baa8b01176ea6",
    "piece_hulls/random_14_5":
        "346b8200d42a257c29d80304c9c3e42a26bc6385c05a62cb410dc92e91be7a68",
    "piece_hulls/random_14_7":
        "5ae5da31015262f8e6e731f56488e904d2fdae31e490fd0aa016c81cecb5a275",
    "piece_hulls/random_14_11":
        "bcf2412360b26ded95477ca11c24dbc5843b712be5c4ce66c72ef9c1d9593956",
    "sampling/genus2_full":
        "28af4f25ec172b36281d3c64592bf602946bf04a003b04f162a32345fbbbc1e4",
    "sampling/exp_family(3)":
        "415ff9381aca6abc5482ed11dab7e446f1e98da3f5c363aabd07c9e6631fb698",
}
SEED_INDEPENDENT = ("battery",)
# Hull vertices of each random family piece, which relabelling and signed
# coordinate permutations leave unchanged.
RANDOM_VERTEX_COUNTS = {2: 35, 5: 35, 7: 35, 11: 37}


@dataclass(frozen=True)
class Job:
    """One closed-loop request: compute a model, then optionally check it."""

    name: str
    document: bytes
    checks: dict | None = None
    hull_of: list | None = None
    expected_blocks: tuple[int, int] | None = None
    node_box: tuple[list[int], list[int]] | None = None
    vertex_count: int | None = None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(data: dict) -> bytes:
    """The same encoding as the program's canonical JSON output."""
    return (json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n").encode()


def build_jobs(workload: str, seed: int, rotaxa) -> list[Job]:
    """The jobs of one workload, in the order the seed gives them."""
    rng = random.Random(seed)
    if workload == "battery":
        jobs = [
            Job(
                name=f"battery/{name}",
                document=_fixture_document(rotaxa, name),
                checks={},
                expected_blocks=_exp_blocks(name),
            )
            for name in BATTERY_FIXTURES
        ]
        rng.shuffle(jobs)
        return jobs
    if workload == "piece_hulls":
        return [_complete_digraph_job(rng)] + [
            _random_digraph_job(rng, family) for family in RANDOM_FAMILY_SEEDS
        ]
    if workload == "sampling":
        return [
            Job(
                name=f"sampling/{name}",
                document=_fixture_document(rotaxa, name),
                checks={"oracle_samples": ORACLE_SAMPLES, "seed": seed},
            )
            for name in SAMPLING_FIXTURES
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _fixture_document(rotaxa, name: str) -> bytes:
    model = rotaxa.fixtures.get_fixture(name)
    return rotaxa.serialize.dumps_canonical(
        rotaxa.serialize.model_to_dict(model)
    ).encode()


def _exp_blocks(name: str) -> tuple[int, int] | None:
    if name.startswith("exp_family("):
        k = int(name[len("exp_family("):-1])
        return 2**k, k
    return None


def _displacement(rng: random.Random) -> list[int]:
    return [rng.randint(-DISPLACEMENT_RANGE, DISPLACEMENT_RANGE) for _ in range(4)]


def _single_piece_document(nodes: dict[str, list[int]], edges) -> bytes:
    """A genus-2 model whose only piece is a curved piece with this graph."""
    unit = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    return canonical(
        {
            "genus": 2,
            "pieces": [
                {
                    "id": "P",
                    "classification": "curved",
                    "graph": {
                        "nodes": [
                            {"id": name, "displacement": [str(c) for c in disp]}
                            for name, disp in nodes.items()
                        ],
                        "edges": [list(edge) for edge in sorted(edges)],
                    },
                }
            ],
            "heteroclinic": {"edges": []},
            "decomposition": {
                "subsurfaces": [
                    {"id": "T1", "kind": "curved_surface", "basis": unit}
                ],
                "assignment": {"P": "T1"},
            },
        }
    )


def _complete_digraph_job(rng: random.Random) -> Job:
    """K_8 with self-loops: every node is a 1-cycle, so the hull of the
    node displacements is the piece polytope."""
    names = [f"k{i}" for i in range(8)]
    nodes = {name: _displacement(rng) for name in names}
    edges = [(u, v) for u in names for v in names]
    return Job(
        name="piece_hulls/K_8",
        document=_single_piece_document(nodes, edges),
        hull_of=list(nodes.values()),
    )


def _random_digraph(family_seed: int):
    rng = random.Random(family_seed)
    names = [f"r{i:02d}" for i in range(RANDOM_NODES)]
    order = names[:]
    rng.shuffle(order)
    ring = {(order[i], order[(i + 1) % RANDOM_NODES]) for i in range(RANDOM_NODES)}
    low, high = RANDOM_CYCLE_WINDOW
    while True:
        edges = set(ring)
        while len(edges) < RANDOM_EDGES:
            edges.add(tuple(rng.sample(names, 2)))
        if low <= count_simple_cycles(names, edges, cap=high) <= high:
            break
    return {name: _displacement(rng) for name in names}, edges


def _random_digraph_job(rng: random.Random, family_seed: int) -> Job:
    nodes, edges = _random_digraph(family_seed)
    names = list(nodes)
    labels = names[:]
    rng.shuffle(labels)
    rename = dict(zip(names, labels))
    axes = list(range(4))
    rng.shuffle(axes)
    signs = [rng.choice((-1, 1)) for _ in range(4)]
    nodes = dict(sorted(
        (rename[name], [signs[k] * disp[axes[k]] for k in range(4)])
        for name, disp in nodes.items()
    ))
    edges = {(rename[u], rename[v]) for u, v in edges}
    return Job(
        name=f"piece_hulls/random_14_{family_seed}",
        document=_single_piece_document(nodes, edges),
        node_box=(
            [min(d[k] for d in nodes.values()) for k in range(4)],
            [max(d[k] for d in nodes.values()) for k in range(4)],
        ),
        vertex_count=RANDOM_VERTEX_COUNTS[family_seed],
    )


def count_simple_cycles(names, edges, cap: int) -> int:
    """Number of simple cycles, or ``cap + 1`` once it exceeds ``cap``.

    Independent of the program: cycles are counted rooted at their
    smallest node by a plain depth-first search.
    """
    succ: dict[str, list[str]] = {name: [] for name in names}
    for u, v in edges:
        succ[u].append(v)
    count = 0
    for start in sorted(names):
        stack = [(start, iter(succ[start]))]
        on_path = {start}
        while stack:
            node, outs = stack[-1]
            nxt = next(outs, None)
            if nxt is None:
                stack.pop()
                on_path.discard(node)
            elif nxt == start:
                count += 1
                if count > cap:
                    return count
            elif nxt > start and nxt not in on_path:
                on_path.add(nxt)
                stack.append((nxt, iter(succ[nxt])))
    return count


def verify(rotaxa, job: Job, output: bytes, seed: int, workload: str) -> list[str]:
    """Problems with one job's output; an empty list means correct."""
    problems = []
    expected = EXPECTED_DIGESTS.get(job.name)
    if expected and (seed == DEFAULT_SEED or workload in SEED_INDEPENDENT):
        if sha256(output) != expected:
            problems.append(f"digest {sha256(output)} differs from {expected}")
    result = json.loads(output)
    if result["input_digest"] != "sha256:" + sha256(job.document):
        problems.append("input digest does not match the model document")
    report = result["report"]
    if job.checks is not None:
        if report is None or not report["passed"]:
            failed = [c["name"] for c in (report or {}).get("checks", []) if not c["passed"]]
            problems.append(f"checks failed: {failed}")
    if job.checks and job.checks.get("oracle_samples"):
        [outcome] = report["checks"]
        info = outcome.get("info", {})
        if info.get("samples") != ORACLE_SAMPLES or info.get("violations") != 0:
            problems.append(f"sampling reported {info}")
    if job.expected_blocks is not None:
        count, dim = job.expected_blocks
        blocks = result["blocks"]
        if len(blocks) != count or any(b["affine_dim"] != dim for b in blocks):
            problems.append(f"expected {count} blocks of affine dimension {dim}")
    if job.hull_of is not None:
        [chain] = result["chains"]
        hull = rotaxa.exactgeom.extreme_points(
            tuple(Fraction(c) for c in point) for point in job.hull_of
        )
        if chain["vertices"] != [[str(c) for c in v] for v in hull.vertices]:
            problems.append("piece polytope differs from the hull of the nodes")
    if job.vertex_count is not None:
        [chain] = result["chains"]
        if len(chain["vertices"]) != job.vertex_count:
            problems.append(
                f"{len(chain['vertices'])} hull vertices, expected {job.vertex_count}"
            )
    if job.node_box is not None:
        [chain] = result["chains"]
        low, high = job.node_box
        for vertex in chain["vertices"]:
            coords = [Fraction(c) for c in vertex]
            if any(not lo <= c <= hi for c, lo, hi in zip(coords, low, high)):
                problems.append(f"vertex {vertex} outside the node bounding box")
    return problems
