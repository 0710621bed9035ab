"""JSON serialization of models and results.

Rationals travel as strings ``"p/q"`` (positive denominator, lowest terms)
or ``"n"`` for integers — never as JSON floats, so exactness survives a
round trip.  Result documents are canonical (sorted keys, fixed separators)
and embed the engine version plus a digest of the input, so recomputing the
same model yields byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from . import __version__
from .conley import DecompositionModel, Subsurface
from .engine import CheckOutcome, Computation
from .errors import ModelFormatError, ModelValidationError
from .exactgeom import (
    RationalPolytope,
    SubspaceBasis,
    Vector,
    affine_dim,
    format_vector,
    parse_rational,
)
from .heteroclinic import HeteroclinicPoset, RelationEdge
from .markov import BasicPieceModel, MarkovGraph
from .model import ModelDocument


def _vector_from_json(data: Any, location: str, errors: list[str]) -> Vector:
    if not isinstance(data, list):
        errors.append(f"{location}: expected an array of rationals")
        return ()
    out = []
    for i, item in enumerate(data):
        if isinstance(item, float):
            errors.append(f"{location}/{i}: floating point is not accepted")
            return ()
        try:
            out.append(parse_rational(item))
        except (ValueError, TypeError, ZeroDivisionError):
            errors.append(f"{location}/{i}: unreadable rational {item!r}")
            return ()
    return tuple(out)


def _expect(data: dict, key: str, location: str, errors: list[str], kind=None):
    if key not in data:
        errors.append(f"{location}: missing {key!r}")
        return None
    value = data[key]
    if kind is not None and not isinstance(value, kind):
        errors.append(f"{location}/{key}: wrong type {type(value).__name__}")
        return None
    return value


def model_from_dict(data: Any) -> ModelDocument:
    """Build a model from parsed JSON; raises with pointer-located errors."""
    errors: list[str] = []
    if not isinstance(data, dict):
        raise ModelValidationError(["/: model document must be an object"])

    genus = _expect(data, "genus", "", errors, int)
    pieces_json = _expect(data, "pieces", "", errors, list) or []
    het_json = _expect(data, "heteroclinic", "", errors, dict) or {}
    dec_json = _expect(data, "decomposition", "", errors, dict) or {}

    pieces: list[BasicPieceModel] = []
    for i, piece_json in enumerate(pieces_json):
        loc = f"/pieces/{i}"
        if not isinstance(piece_json, dict):
            errors.append(f"{loc}: expected an object")
            continue
        pid = _expect(piece_json, "id", loc, errors, str)
        classification = _expect(piece_json, "classification", loc, errors, str)
        graph_json = _expect(piece_json, "graph", loc, errors, dict) or {}
        nodes = []
        for j, node_json in enumerate(graph_json.get("nodes", [])):
            nloc = f"{loc}/graph/nodes/{j}"
            if not isinstance(node_json, dict):
                errors.append(f"{nloc}: expected an object")
                continue
            name = _expect(node_json, "id", nloc, errors, str)
            disp = _vector_from_json(
                node_json.get("displacement"), f"{nloc}/displacement", errors
            )
            if name is not None:
                nodes.append((name, disp))
        edges = []
        for j, edge_json in enumerate(graph_json.get("edges", [])):
            eloc = f"{loc}/graph/edges/{j}"
            if (
                not isinstance(edge_json, list)
                or len(edge_json) != 2
                or not all(isinstance(e, str) for e in edge_json)
            ):
                errors.append(f"{eloc}: expected a pair of node ids")
                continue
            edges.append((edge_json[0], edge_json[1]))
        if pid is None or classification is None:
            continue
        pieces.append(
            BasicPieceModel(
                id=pid,
                classification=classification,
                graph=MarkovGraph(nodes=tuple(nodes), edges=tuple(sorted(set(edges)))),
                package=piece_json.get("package"),
                fill_behavior=piece_json.get("fill_behavior"),
            )
        )

    edges = []
    for i, edge_json in enumerate(het_json.get("edges", [])):
        loc = f"/heteroclinic/edges/{i}"
        if not isinstance(edge_json, dict):
            errors.append(f"{loc}: expected an object")
            continue
        source = _expect(edge_json, "source", loc, errors, str)
        target = _expect(edge_json, "target", loc, errors, str)
        if source is None or target is None:
            continue
        edges.append(
            RelationEdge(
                source=source,
                target=target,
                source_marks=frozenset(edge_json.get("source_marks", [])),
                target_marks=frozenset(edge_json.get("target_marks", [])),
            )
        )
    poset = HeteroclinicPoset(
        pieces=tuple(p.id for p in pieces), edges=tuple(edges)
    )

    subsurfaces = []
    for i, sub_json in enumerate(dec_json.get("subsurfaces", [])):
        loc = f"/decomposition/subsurfaces/{i}"
        if not isinstance(sub_json, dict):
            errors.append(f"{loc}: expected an object")
            continue
        sid = _expect(sub_json, "id", loc, errors, str)
        kind = _expect(sub_json, "kind", loc, errors, str)
        basis = []
        for j, vec_json in enumerate(sub_json.get("basis", [])):
            basis.append(
                _vector_from_json(vec_json, f"{loc}/basis/{j}", errors)
            )
        if sid is None or kind is None:
            continue
        subsurfaces.append(
            Subsurface(id=sid, kind=kind, subspace=SubspaceBasis(tuple(basis)))
        )
    assignment = dec_json.get("assignment", {})
    if not isinstance(assignment, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in assignment.items()
    ):
        errors.append("/decomposition/assignment: expected a string-to-string map")
        assignment = {}

    if errors:
        raise ModelValidationError(errors)
    return ModelDocument(
        genus=genus,
        pieces=tuple(pieces),
        heteroclinic=poset,
        decomposition=DecompositionModel(
            subsurfaces=tuple(subsurfaces), assignment=dict(assignment)
        ),
    )


def model_to_dict(model: ModelDocument) -> dict:
    return {
        "genus": model.genus,
        "pieces": [
            {
                "id": piece.id,
                "classification": piece.classification,
                **({"package": piece.package} if piece.package is not None else {}),
                **(
                    {"fill_behavior": piece.fill_behavior}
                    if piece.fill_behavior is not None
                    else {}
                ),
                "graph": {
                    "nodes": [
                        {"id": name, "displacement": format_vector(disp)}
                        for name, disp in piece.graph.nodes
                    ],
                    "edges": [list(edge) for edge in piece.graph.edges],
                },
            }
            for piece in model.pieces
        ],
        "heteroclinic": {
            "edges": [
                {
                    "source": edge.source,
                    "target": edge.target,
                    "source_marks": sorted(edge.source_marks),
                    "target_marks": sorted(edge.target_marks),
                }
                for edge in model.heteroclinic.edges
            ]
        },
        "decomposition": {
            "subsurfaces": [
                {
                    "id": sub.id,
                    "kind": sub.kind,
                    "basis": [format_vector(v) for v in sub.subspace.basis],
                }
                for sub in model.decomposition.subsurfaces
            ],
            "assignment": dict(sorted(model.decomposition.assignment.items())),
        },
    }


def dumps_canonical(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def model_digest(model: ModelDocument) -> str:
    payload = dumps_canonical(model_to_dict(model)).encode("utf-8")
    return "sha256:" + hashlib.sha256(payload).hexdigest()


def load_model(source: str | Path | bytes) -> ModelDocument:
    """Parse and validate a model from a file path or raw bytes."""
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    else:
        path = Path(source)
        if not path.exists():
            raise ModelFormatError(f"no such file: {path}")
        text = path.read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"unparseable JSON: {exc}") from exc
    return model_from_dict(data)


def polytope_to_json(polytope: RationalPolytope) -> list[list[str]]:
    return [format_vector(v) for v in polytope.vertices]


def outcomes_to_json(outcomes: Sequence[CheckOutcome]) -> dict:
    return {
        "passed": all(o.passed for o in outcomes),
        "checks": [
            {
                "name": o.name,
                "passed": o.passed,
                "details": list(o.details),
                **({"info": o.info} if o.info else {}),
            }
            for o in outcomes
        ],
    }


def result_to_dict(
    computation: Computation,
    outcomes: Sequence[CheckOutcome] | None = None,
) -> dict:
    model = computation.model
    return {
        "engine_version": __version__,
        "input_digest": model_digest(model),
        "genus": model.genus,
        "chains": [
            {
                "pieces": list(data.chain),
                "vertices": polytope_to_json(data.polytope),
                "marked_supports": [
                    {
                        "support": sorted(ms.support),
                        "initial_mark": ms.initial_mark,
                        "final_mark": ms.final_mark,
                    }
                    for ms in data.marked_supports
                ],
            }
            for data in computation.chains
        ],
        "blocks": [
            {
                "support": sorted(block.key.support),
                "initial_mark": block.key.initial_mark,
                "final_mark": block.key.final_mark,
                "vertices": polytope_to_json(block.polytope),
                "affine_dim": affine_dim(block.polytope),
                "chains": [list(chain) for chain in block.chains],
            }
            for block in computation.blocks
        ],
        "warnings": list(computation.warnings),
        "report": outcomes_to_json(outcomes) if outcomes is not None else None,
    }


def blocks_to_csv(computation: Computation) -> str:
    """One CSV row per block vertex: the block key, then the coordinates."""
    lines = []
    for block in computation.blocks:
        label = block.key.label()
        for v in block.polytope.vertices:
            lines.append(",".join([label] + format_vector(v)))
    return "\n".join(lines) + ("\n" if lines else "")


def fraction_str(value: Fraction) -> str:
    return str(value)
