"""rotaxa: exact homological rotation sets of symbolic surface dynamics.

A zero-dependency library (plus a small CLI) that computes, over exact
rationals, the rotation polytopes of displacement-labeled symbolic basic
pieces, the rotation sets of heteroclinic chains, and the decomposition of
the global rotation set into convex blocks indexed by marked supports, with
structural verification: star-shape about the origin, block-count budget,
subspace containments, convexity probes and the interior criterion.
"""

__version__ = "0.1.0"

from .analysis import (
    ChainClassification,
    classify_chain,
    convexity_probe,
    interior_check,
    star_shape_check,
)
from .conley import (
    Block,
    DecompositionModel,
    MarkedSupport,
    Subsurface,
    chain_marked_support,
    enumerate_blocks,
)
from .engine import Computation, compute, run_checks
from .errors import (
    DimensionMismatchError,
    EngineError,
    InadmissibleWordError,
    ModelFormatError,
    ModelValidationError,
    ResourceCapError,
)
from .exactgeom import (
    RationalPolytope,
    SubspaceBasis,
    affine_dim,
    as_vector,
    contains_point,
    extreme_points,
    in_span,
    rank_of,
    segment_covered,
)
from .fixtures import exp_family, fixture_catalog, get_fixture
from .heteroclinic import (
    HeteroclinicPoset,
    RelationEdge,
    chain_rotation_set,
    maximal_nontrivial_chains,
    relation_edge,
)
from .markov import (
    BasicPieceModel,
    MarkovGraph,
    graph_from_edges,
    piece_rotation_set,
    simple_cycles,
    validate_piece,
    word_rotation_vector,
)
from .model import ModelDocument, validate_model
from .oracle import Lcg64, oracle_piece_set, sample_chain_averages
from .serialize import load_model, model_from_dict, model_to_dict, result_to_dict

__all__ = [
    "BasicPieceModel",
    "Block",
    "ChainClassification",
    "Computation",
    "DecompositionModel",
    "DimensionMismatchError",
    "EngineError",
    "HeteroclinicPoset",
    "InadmissibleWordError",
    "Lcg64",
    "MarkedSupport",
    "MarkovGraph",
    "ModelDocument",
    "ModelFormatError",
    "ModelValidationError",
    "RationalPolytope",
    "RelationEdge",
    "ResourceCapError",
    "SubspaceBasis",
    "Subsurface",
    "affine_dim",
    "as_vector",
    "chain_marked_support",
    "chain_rotation_set",
    "classify_chain",
    "compute",
    "contains_point",
    "convexity_probe",
    "enumerate_blocks",
    "exp_family",
    "extreme_points",
    "fixture_catalog",
    "get_fixture",
    "graph_from_edges",
    "in_span",
    "interior_check",
    "load_model",
    "maximal_nontrivial_chains",
    "model_from_dict",
    "model_to_dict",
    "oracle_piece_set",
    "piece_rotation_set",
    "rank_of",
    "relation_edge",
    "result_to_dict",
    "run_checks",
    "sample_chain_averages",
    "segment_covered",
    "simple_cycles",
    "star_shape_check",
    "validate_model",
    "validate_piece",
    "word_rotation_vector",
]
