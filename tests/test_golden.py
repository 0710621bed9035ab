"""Golden CLI output: the exact bytes the command line prints.

Each case runs ``rotaxa.cli.main`` in-process on a fixture and pins the
sha256 of stdout and of stderr, and the exit code.  A change to the engine
that is meant to leave every answer as it is must leave these digests as
they are; a change that is meant to alter output updates them on purpose.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

import pytest

from rotaxa.cli import main

COMMANDS = {
    "validate": ["validate"],
    "compute": ["compute"],
    "check": ["check"],
    "check_all": [
        "check", "--star", "--bound", "--subspace", "--interior",
        "--convex-density", "2", "--oracle-samples", "300", "--seed", "7",
    ],
    "check_sampling": ["check", "--oracle-samples", "1000", "--seed", "1"],
}

# (model, command) -> (exit code, sha256 of stdout, sha256 of stderr)
GOLDEN = {
    ("genus2_nonconvex", "validate"): (0, "1df05f50cc9f7a1009619ed8113848b858c6fd3aa21f30ca1bdc1afbe8ba145d", "fa651d5d10a47d574988033d9842e502c3284b57ab470a1263a62c694c365fa9"),
    ("genus2_nonconvex", "compute"): (0, "d3f32ec10942f7c54d39495bc1d0821a93c657426412e614cfacfbfdbee9fbf1", "d694319495a2a2b7e98f195385a336b729a4c25d9ab0f34161367a797f0702b2"),
    ("genus2_nonconvex", "check"): (0, "95428f3213f1734cdf3a439984d3b4c2820ba828e811caf392f8206d266e29cf", "22b186479c87d21c0fdf7be42c8dc4a53fd1f065acc0ae2a4b7fe0ca098d29f3"),
    ("genus2_nonconvex", "check_all"): (0, "bddc21b4e9eba6f1c743d0fdcde99e56daf25725240e169b15cb25db8230163b", "661b36028c7c2fc47456b7bff1eb33a5cb3410f7351f7d39e4b9614dc1b44868"),
    ("genus2_full", "validate"): (0, "5e347c13a0be81eb3f46e2853247d3df9a473c2956c01e72872d55cb8b2f1a5c", "ca7fc00d1c49885f8d089e1ea68bbd7f357095e3ccae71e515cd0edf837a7f7a"),
    ("genus2_full", "compute"): (0, "d607b2f605ce959e75368d73711935b6db7c39f9b693631033515ecd349dc6d9", "be4c748c1ff430fd1672abd8a97f13d34a25c1615da257b38f06fdb743ed53ee"),
    ("genus2_full", "check"): (0, "0177b66cd2b391045f7bcd3366a5db1bba9affc8d3ff409db4e4d6df8ca65bda", "9895c5120ad8d244a9056ab5964e793520fda10d75d9405b1d80b36c9968a601"),
    ("genus2_full", "check_all"): (0, "6d5294682eb804e71381077194a8da54be69d5e6b623573de0510fac3d3ecdc4", "be23dbca87af55c3a0805e86e7ab190b9c199b557c6d1020210b6caf51e49203"),
    ("genus2_full", "check_sampling"): (0, "28af4f25ec172b36281d3c64592bf602946bf04a003b04f162a32345fbbbc1e4", "5c8759fd0b101a18af6be32697d8592dc89cd6e307febfbe6a7e9f78732d83ee"),
    ("genus2_blocks", "validate"): (0, "1df05f50cc9f7a1009619ed8113848b858c6fd3aa21f30ca1bdc1afbe8ba145d", "fa651d5d10a47d574988033d9842e502c3284b57ab470a1263a62c694c365fa9"),
    ("genus2_blocks", "compute"): (0, "7aa81b9db25a5f92f339e69532cdca1fed05c72a5154b37a2cc1baf684b3e85c", "4ceb16393f47ca1fa728566032ab5fd7ef63f857de5b336a7801271439c5c421"),
    ("genus2_blocks", "check"): (0, "505459e818d16579ba6aaaeca6c07367c1bf0ca9629be056f0adc2967ddb47a3", "452d3e2d18e60474c2bc28d91651fe698e5509b43e4e8d18009b2fa79c8fc84e"),
    ("genus2_blocks", "check_all"): (0, "fc3a2eadda1a7e89fc8ecb43861b136ddd831cdd01a3d1d29bca01d91327f69f", "3492b8a3db9693cd5f0b57c3d6572f1cb0776da8071861fe30c4d89dfb21c9c2"),
    ("exp_family(1)", "validate"): (0, "5e347c13a0be81eb3f46e2853247d3df9a473c2956c01e72872d55cb8b2f1a5c", "ca7fc00d1c49885f8d089e1ea68bbd7f357095e3ccae71e515cd0edf837a7f7a"),
    ("exp_family(1)", "compute"): (0, "10ff6adac2980a8fe15ab8c5540a472e836e3ff4357bd67dc8b8cbb9576b2146", "d694319495a2a2b7e98f195385a336b729a4c25d9ab0f34161367a797f0702b2"),
    ("exp_family(1)", "check"): (0, "dd93d706edbb720434a19171f2b688a74eb8ab9d624aeecb27686464fc9b8e52", "22b186479c87d21c0fdf7be42c8dc4a53fd1f065acc0ae2a4b7fe0ca098d29f3"),
    ("exp_family(1)", "check_all"): (0, "a03f524c50b64d344c238bd4c0d0a57d6b2a64a1b36cb138384d5870e1f0e854", "661b36028c7c2fc47456b7bff1eb33a5cb3410f7351f7d39e4b9614dc1b44868"),
    ("exp_family(2)", "validate"): (0, "5e347c13a0be81eb3f46e2853247d3df9a473c2956c01e72872d55cb8b2f1a5c", "ca7fc00d1c49885f8d089e1ea68bbd7f357095e3ccae71e515cd0edf837a7f7a"),
    ("exp_family(2)", "compute"): (0, "a4e5ab904ad947952f04614c236a2927c9c57e83e23155b0587868f42db9ce2e", "a536c07448a324a879a2f29c5135888ce2fb7a4ae6e03dd6ce220f8ca982978c"),
    ("exp_family(2)", "check"): (0, "89a4d52c1ca0bfa8aae3d3e46b947032710035471c7537d5dca2ed2e1b190f97", "8f975ba5042d936b60605a6bb00e97864858f9092bbd75ad8448f0bcc4238856"),
    ("exp_family(2)", "check_all"): (0, "328583d7f5bc151b7f5eeefbdd53c3c25df477ca5c6814c08ea2e569e135bbdf", "a3778019997937d7ad3d254c2c52524b268bd1e797ddafba127bfe516da817e5"),
    ("exp_family(3)", "validate"): (0, "5e347c13a0be81eb3f46e2853247d3df9a473c2956c01e72872d55cb8b2f1a5c", "ca7fc00d1c49885f8d089e1ea68bbd7f357095e3ccae71e515cd0edf837a7f7a"),
    ("exp_family(3)", "compute"): (0, "9a7844b7a105cd22969948736617e4256fce72d08338402aa03d11fdfb298783", "cff5ff8b36af9dfb010723b13758e693fdf859d3df1b3d3fc41b0f8c074c1b1c"),
    ("exp_family(3)", "check"): (0, "f5e94d110c69e6d932adf588d1c5469451b8b3a0a2ef346ef0249ccd54c64567", "43841cd65baf8f57eccff682575678351b0eefacd00448a001587a5be971faa8"),
    ("exp_family(3)", "check_all"): (0, "902496c72cbf251760012c8fe5d9d3b0ff30b477a6d981dcf2a79886fe41af53", "29cbc631dcba51473d2b5dd22dd2747467f2d5039f6af94239ed4a7e82b5f12e"),
    ("exp_family(3)", "check_sampling"): (0, "415ff9381aca6abc5482ed11dab7e446f1e98da3f5c363aabd07c9e6631fb698", "5c8759fd0b101a18af6be32697d8592dc89cd6e307febfbe6a7e9f78732d83ee"),
    ("exp_family(4)", "validate"): (0, "5e347c13a0be81eb3f46e2853247d3df9a473c2956c01e72872d55cb8b2f1a5c", "ca7fc00d1c49885f8d089e1ea68bbd7f357095e3ccae71e515cd0edf837a7f7a"),
    ("exp_family(4)", "compute"): (0, "6abfe6f64cd81cdcf1b85c353af0b75dfc61b7e2572087ea5a4dbe2d22488eda", "2971c1864f826949a5766ed624b1e12dd82acc9a06b09f59aa935ed04fbd8b45"),
    ("exp_family(4)", "check"): (0, "ffc2bbf6098483a214d5dfcfd6f693389d654979e6d86c71bb3d94daeae4b12e", "fee8a6827234b5b1ac8ec30f0e505ebd9aadc5aa6cd0958217bcedff700e3cee"),
    ("exp_family(4)", "check_all"): (0, "d18df6244de11d0239ab7665ae7d2158e2e614f4479d5827c149143322f78530", "7348d7b983643dddbc71e9d2de15fdb9e64cd63993e82b9dee292f909e0b62b9"),
    ("exp_family(5)", "check"): (0, "d04b9f96aed68bd29fb10ece9289c02102931795ff4b25afa528fa30ac35d853", "4d7ce644d4eaf186f41aea27c51b58334ce04b1cb9b064026d811f242a4e98de"),
    ("exp_family(5)", "check_all"): (0, "a24b2da008a5871b81bb1f091d5fa1b00078db9acdc7dad14b4c720f7f856dfe", "1c0f95c0385e96f80a2cf503a2c60879c0d3c571216658f7ca3e7869826025a3"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("model,command", sorted(GOLDEN))
def test_golden_output(model, command):
    verb, *flags = COMMANDS[command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([verb, model, *flags])
    assert (code, _sha256(out.getvalue()), _sha256(err.getvalue())) == GOLDEN[
        (model, command)
    ]


def _single_piece_model(nodes: dict, edges) -> dict:
    """A genus-2 model whose only piece is a curved piece with this graph."""
    unit = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    return {
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
            "subsurfaces": [{"id": "T1", "kind": "curved_surface", "basis": unit}],
            "assignment": {"P": "T1"},
        },
    }


def _complete_digraph_model() -> dict:
    """K_8 with self-loops and displacements in [-3, 3]^4: 16,072 simple
    cycles, each summed on the way to the piece polytope."""
    rng = random.Random(8)
    names = [f"k{i}" for i in range(8)]
    nodes = {name: [rng.randint(-3, 3) for _ in range(4)] for name in names}
    return _single_piece_model(nodes, [(u, v) for u in names for v in names])


def _ring_off_origin_model() -> dict:
    """A 14-node ring plus 16 chords whose first coordinate is positive on
    every node, so the piece polytope misses the origin and its block is
    coned."""
    rng = random.Random(14)
    names = [f"r{i:02d}" for i in range(14)]
    order = names[:]
    rng.shuffle(order)
    edges = {(order[i], order[(i + 1) % 14]) for i in range(14)}
    while len(edges) < 30:
        edges.add(tuple(rng.sample(names, 2)))
    nodes = {
        name: [rng.randint(1, 3)] + [rng.randint(-3, 3) for _ in range(3)]
        for name in names
    }
    return _single_piece_model(nodes, edges)


FILE_MODELS = {
    "K_8": _complete_digraph_model,
    "ring_14_off_origin": _ring_off_origin_model,
}

# Model built in the test -> (exit code, sha256 of stdout, sha256 of stderr)
# of ``compute`` on it.
GOLDEN_FILES = {
    "K_8": (0, "44b677810bd9b4e974452b3877c700fe4c836218f1f5e3bdcb8b5b081441a99c", "be4c748c1ff430fd1672abd8a97f13d34a25c1615da257b38f06fdb743ed53ee"),
    "ring_14_off_origin": (0, "69da66bdbb16b785d2e1ba36f148984f7bcb4c3e3fc353fb283c06ea8d48565a", "be4c748c1ff430fd1672abd8a97f13d34a25c1615da257b38f06fdb743ed53ee"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_FILES))
def test_golden_compute_on_built_model(name, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(FILE_MODELS[name](), sort_keys=True))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["compute", str(path)])
    assert (code, _sha256(out.getvalue()), _sha256(err.getvalue())) == GOLDEN_FILES[
        name
    ]
