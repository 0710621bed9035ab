"""Model I/O, the fixture catalog, and the command line."""

from __future__ import annotations

import copy
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rotaxa.cli import main
from rotaxa.engine import compute
from rotaxa.errors import ModelFormatError, ModelValidationError
from rotaxa.exactgeom import affine_dim, as_vector
from rotaxa.fixtures import (
    FIXTURE_NAMES,
    exp_family,
    fixture_catalog,
    genus2_blocks,
    genus2_full,
    genus2_nonconvex,
    get_fixture,
)
from rotaxa.model import validate_model
from rotaxa.serialize import (
    dumps_canonical,
    load_model,
    model_from_dict,
    model_to_dict,
    result_to_dict,
)

NO_SUCH_FILE = "No such file or directory"


def one_node_loop(displacement):
    return {"nodes": [{"id": "o", "displacement": displacement}], "edges": [["o", "o"]]}


def curved_model_document(pieces, relation):
    """Genus 2; every curved piece lives in one curved surface."""
    return {
        "genus": 2,
        "pieces": pieces,
        "heteroclinic": {
            "edges": [{"source": u, "target": v} for u, v in relation]
        },
        "decomposition": {
            "subsurfaces": [
                {"id": "S", "kind": "curved_surface", "basis": [["1", "0", "0", "0"]]}
            ],
            "assignment": {
                p["id"]: "S" for p in pieces if p["classification"] == "curved"
            },
        },
    }


def relation_path_document(length):
    """A curved piece at the head of a relation path of trivial connectors."""
    names = ["H"] + [f"T{i:04d}" for i in range(1, length)]
    pieces = [
        {
            "id": name,
            "classification": "curved" if name == "H" else "trivial",
            "graph": one_node_loop(["0", "0", "0", "0"]),
        }
        for name in names
    ]
    return curved_model_document(pieces, zip(names, names[1:]))


def ladder_document(depth):
    """Two curved pieces per level, each related to both of the next level:
    2^depth maximal chains."""
    levels = [[f"L{i:02d}a", f"L{i:02d}b"] for i in range(depth)]
    pieces = [
        {
            "id": name,
            "classification": "curved",
            "graph": one_node_loop(["0", "0", "0", "0"]),
        }
        for level in levels
        for name in level
    ]
    relation = [
        (u, v) for low, high in zip(levels, levels[1:]) for u in low for v in high
    ]
    return curved_model_document(pieces, relation)


# Each case sets one value of the exp_family(1) document; the parser must
# reject it with exit 2 and this pointer-located message.
MALFORMED_INPUTS = [
    pytest.param(
        ("pieces", 0, "graph", "nodes", 1, "displacement", 0), text,
        f"/pieces/0/graph/nodes/1/displacement/0: unreadable rational {text!r}",
        id=f"rational {text!r}",
    )
    for text in ("2/4", "1.5", "1e3", " 3 ", "+3", "-0")
] + [
    pytest.param(
        ("heteroclinic", "edges", 0, "source_marks"), "LR",
        "/heteroclinic/edges/0/source_marks: expected an array of strings",
        id="marks as a string",
    ),
    pytest.param(
        ("heteroclinic", "edges", 0, "target_marks"), [1],
        "/heteroclinic/edges/0/target_marks: expected an array of strings",
        id="marks holding a number",
    ),
    pytest.param(
        ("pieces", 0, "package"), 5, "/pieces/0/package: wrong type int",
        id="package as a number",
    ),
    pytest.param(
        ("pieces", 0, "fill_behavior"), ["neither"],
        "/pieces/0/fill_behavior: wrong type list",
        id="fill_behavior as an array",
    ),
    pytest.param(
        ("pieces", 0, "graph", "nodes"), 5,
        "/pieces/0/graph/nodes: expected an array",
        id="nodes as a number",
    ),
    pytest.param(
        ("decomposition", "subsurfaces", 0, "basis"),
        [["0", "0", "1", "0"], ["0", "0", "1"]],
        "/decomposition: subsurface 'A1_0' basis vector of length 3, expected 4",
        id="ragged basis",
    ),
]


# Values a fuzzed edit may put anywhere in a document.
FUZZ_VALUES = [
    None, True, False, 0, 1, -1, 7, 0.5, -2.25, "", "1/0", "2/4",
    "L", "R", "attracting", "repelling", "neither",
    "trivial", "annular", "curved", "annulus", "curved_surface",
    ["0", "0", "0", "0"], ["1", "0", "0"], ["L", "R"], [], {},
]

FUZZ_FIXTURES = [
    "genus2_nonconvex", "genus2_full", "genus2_blocks", "exp_family(1)",
    "exp_family(2)",
]


def json_locations(value, path=()):
    """Key paths of every value below the root of a JSON document."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield path + (key,)
        yield from json_locations(item, path + (key,))


@st.composite
def edited_documents(draw):
    """A fixture document after one to three edits at random locations:
    delete a key or item, duplicate an item, or substitute a value."""
    doc = model_to_dict(get_fixture(draw(st.sampled_from(FUZZ_FIXTURES))))
    for _ in range(draw(st.integers(1, 3))):
        where = draw(st.sampled_from(list(json_locations(doc))))
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        key = where[-1]
        edit = draw(st.sampled_from(["delete", "duplicate", "substitute"]))
        if edit == "delete":
            del parent[key]
        elif edit == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
    return doc


def missing_marks_document():
    """exp_family(1) with a repelling L1_0 whose relation edge has no source
    marks: the chain L1_0 < L1_s needs one."""
    doc = model_to_dict(exp_family(1))
    doc["pieces"][0]["fill_behavior"] = "repelling"
    doc["heteroclinic"]["edges"][0]["source_marks"] = []
    return doc


ALL_FIXTURES = [
    genus2_nonconvex(),
    genus2_full(),
    genus2_blocks(),
    exp_family(1),
    exp_family(2),
    exp_family(3),
]


class TestFixtureCatalog:
    def test_exactly_four_families(self):
        assert set(fixture_catalog()) == set(FIXTURE_NAMES)

    def test_nonconvex_shape(self):
        model = genus2_nonconvex()
        assert len(model.pieces) == 2
        assert len(model.heteroclinic.edges) == 0

    def test_exp_family_counts(self):
        model = exp_family(3)
        assert len(model.pieces) == 9
        # Two choices plus one separator per level: 2k edges into the
        # separators and 2(k-1) out of them.
        assert len(model.heteroclinic.edges) == 2 * 3 + 2 * (3 - 1)

    def test_full_fixture_single_full_dimensional_block(self):
        computation = compute(genus2_full())
        assert len(computation.blocks) == 1
        assert affine_dim(computation.blocks[0].polytope) == 4

    def test_every_fixture_validates(self):
        for model in ALL_FIXTURES:
            violations, _ = validate_model(model)
            assert violations == []

    def test_unknown_fixture(self):
        with pytest.raises(KeyError):
            get_fixture("nope")


class TestSerialization:
    def test_round_trip_every_fixture(self):
        for model in ALL_FIXTURES:
            doc = model_to_dict(model)
            again = model_from_dict(json.loads(dumps_canonical(doc)))
            assert again == model

    def test_results_byte_identical(self):
        model = genus2_blocks()
        first = dumps_canonical(result_to_dict(compute(model)))
        second = dumps_canonical(result_to_dict(compute(model)))
        assert first == second

    def test_rationals_as_strings(self):
        doc = model_to_dict(genus2_blocks())
        displacement = doc["pieces"][0]["graph"]["nodes"][0]["displacement"]
        assert all(isinstance(c, str) for c in displacement)

    def test_floats_rejected(self):
        doc = model_to_dict(genus2_nonconvex())
        doc["pieces"][0]["graph"]["nodes"][0]["displacement"] = [0.5, "0", "0", "0"]
        with pytest.raises(ModelValidationError, match="floating point"):
            model_from_dict(doc)

    def test_repeated_rationals_keep_their_own_violations(self):
        # Each distinct rational string is parsed once per document.  Bad
        # entries after valid copies of "1" are still rejected, each where
        # it stands: a JSON true (which hashes like 1), twice, "2/4" and
        # "01".
        doc = model_to_dict(genus2_nonconvex())
        h1, h2 = (piece["graph"]["nodes"] for piece in doc["pieces"])
        h1[0]["displacement"] = ["1", "1", "1", "0"]
        h1[1]["displacement"] = ["1", True, "0", "0"]
        h1[2]["displacement"] = ["1", "2/4", "0", "0"]
        h2[1]["displacement"] = [True, "1", "0", "0"]
        doc["decomposition"]["subsurfaces"][0]["basis"][0] = ["1", "01", "0", "0"]
        expected = '(expected "p/q" in lowest terms or "n")'
        with pytest.raises(ModelValidationError) as raised:
            model_from_dict(doc)
        assert raised.value.violations == [
            f"/pieces/0/graph/nodes/1/displacement/1: unreadable rational True {expected}",
            f"/pieces/0/graph/nodes/2/displacement/1: unreadable rational '2/4' {expected}",
            f"/pieces/1/graph/nodes/1/displacement/0: unreadable rational True {expected}",
            f"/decomposition/subsurfaces/0/basis/0/1: unreadable rational '01' {expected}",
        ]

    def test_repeated_rationals_parse_to_the_same_model(self):
        doc = model_to_dict(genus2_nonconvex())
        for piece in doc["pieces"]:
            for node in piece["graph"]["nodes"]:
                node["displacement"] = ["1/2", "1", "-1/2", "1/2"]
        model = model_from_dict(doc)
        expected = as_vector(["1/2", "1", "-1/2", "1/2"])
        assert all(
            disp == expected for piece in model.pieces for _, disp in piece.graph.nodes
        )
        assert model_from_dict(model_to_dict(model)) == model

    def test_wrong_vector_length_located(self):
        doc = model_to_dict(genus2_nonconvex())
        doc["pieces"][0]["graph"]["nodes"][0]["displacement"] = ["1"] * 5
        model = model_from_dict(doc)
        violations, _ = validate_model(model)
        assert any(
            "/pieces/0" in v and "length 5, expected 4" in v for v in violations
        )

    def test_relation_cycle_named(self):
        doc = model_to_dict(genus2_full())
        doc["heteroclinic"]["edges"].append(
            {"source": "H2", "target": "H1", "source_marks": [], "target_marks": []}
        )
        violations, _ = validate_model(model_from_dict(doc))
        assert any("cycle" in v and "H1" in v for v in violations)

    def test_unresolved_reference(self):
        doc = model_to_dict(genus2_full())
        doc["heteroclinic"]["edges"][0]["target"] = "missing"
        violations, _ = validate_model(model_from_dict(doc))
        assert any("missing" in v for v in violations)

    def test_parse_error_distinct_from_validation(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(bad)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ModelFormatError, match="no such file"):
            load_model(tmp_path / "absent.json")


class TestCli:
    def test_list_fixtures(self, capsys):
        assert main(["list-fixtures"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["fixtures"] == list(FIXTURE_NAMES)

    def test_validate_fixture(self, capsys):
        assert main(["validate", "genus2_full"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is True

    def test_check_star_and_bound(self, capsys):
        code = main(["check", "genus2_nonconvex", "--star", "--bound"])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        names = [c["name"] for c in payload["report"]["checks"]]
        assert "star_shape" in names and "block_count_bound" in names
        assert payload["report"]["passed"] is True
        assert len(payload["blocks"]) == 2

    def test_check_interior_not_applicable(self, capsys):
        code = main(["check", "genus2_nonconvex", "--interior"])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        [check] = payload["report"]["checks"]
        assert check["info"]["status"] == "not-applicable"

    def test_compute_missing_file(self, capsys):
        assert main(["compute", "missing.json"]) == 2

    def test_unreadable_input_exit_code(self, tmp_path, capsys):
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe{}")
        cases = [
            (["compute", str(tmp_path)], "Is a directory"),
            (["compute", str(binary)], "not UTF-8 text"),
            (["compute", "exp_family(0)"], "exp_family needs k >= 1"),
            (["fixture", "exp_family(0)"], "exp_family needs k >= 1"),
        ]
        for argv, message in cases:
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err.startswith("invalid input: ") and message in captured.err

    def test_compute_roundtrip_file(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(["fixture", "genus2_full", "--write", str(model_path)]) == 0
        capsys.readouterr()
        out_path = tmp_path / "result.json"
        csv_path = tmp_path / "blocks.csv"
        code = main(
            ["compute", str(model_path), "--out", str(out_path), "--csv", str(csv_path)]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["blocks"]) == 1
        assert payload["blocks"][0]["affine_dim"] == 4
        rows = csv_path.read_text().strip().splitlines()
        assert len(rows) == 5  # one row per block vertex
        assert rows[0].startswith("T1+T2|0|0,")

    def test_check_full_battery_on_fixtures(self, capsys):
        for name in ("genus2_nonconvex", "genus2_full", "genus2_blocks", "exp_family(2)"):
            code = main(
                ["check", name, "--star", "--bound", "--subspace",
                 "--interior", "--convex-density", "4"]
            )
            capsys.readouterr()
            assert code == 0, name

    def test_check_failure_exit_code(self, tmp_path, capsys):
        # A model whose single chain is a radial segment off the origin is
        # star-shape deficient: the engine must exit 1, not hide it.
        doc = model_to_dict(genus2_nonconvex())
        for node in doc["pieces"][0]["graph"]["nodes"]:
            node["displacement"] = ["1", "0", "0", "0"]
        for node in doc["pieces"][1]["graph"]["nodes"]:
            node["displacement"] = ["2", "0", "0", "0"]
        doc["decomposition"]["subsurfaces"] = [
            {"id": "T1", "kind": "curved_surface", "basis": [["1", "0", "0", "0"]]},
            {"id": "T2", "kind": "curved_surface", "basis": [["1", "0", "0", "0"]]},
        ]
        path = tmp_path / "radial.json"
        path.write_text(dumps_canonical(doc), encoding="utf-8")
        code = main(["check", str(path), "--star"])
        captured = capsys.readouterr()
        assert code == 1
        payload = json.loads(captured.out)
        assert payload["report"]["passed"] is False

    def test_invalid_model_exit_code(self, tmp_path, capsys):
        doc = model_to_dict(genus2_full())
        doc["heteroclinic"]["edges"].append(
            {"source": "H2", "target": "H1", "source_marks": [], "target_marks": []}
        )
        path = tmp_path / "cyclic.json"
        path.write_text(dumps_canonical(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        capsys.readouterr()
        assert main(["compute", str(path)]) == 2

    def test_duplicate_piece_id_leaves_the_relation_connected(self, tmp_path, capsys):
        # The duplicate is reported where it is, and the relation graph is
        # connected over the distinct piece ids.
        doc = model_to_dict(genus2_full())
        doc["pieces"].append(doc["pieces"][0])
        path = tmp_path / "duplicate.json"
        path.write_text(dumps_canonical(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["violations"] == [
            "/pieces/2 (H1): duplicate piece id",
            "/heteroclinic: duplicate piece ids in the relation",
        ]
        assert payload["warnings"] == []
        assert "not connected" not in captured.err

    def test_zero_denominator_exit_code(self, tmp_path, capsys):
        doc = model_to_dict(genus2_full())
        doc["pieces"][0]["graph"]["nodes"][0]["displacement"][1] = "1/0"
        path = tmp_path / "zero.json"
        path.write_text(dumps_canonical(doc), encoding="utf-8")
        assert main(["compute", str(path)]) == 2
        assert "/displacement/1: unreadable rational '1/0'" in capsys.readouterr().err

    def test_oracle_samples_flag(self, capsys):
        code = main(
            ["check", "genus2_full", "--oracle-samples", "64", "--seed", "5"]
        )
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        [check] = payload["report"]["checks"]
        assert check["name"] == "chain_sampling"
        assert check["info"]["samples"] == 64

    def test_oracle_samples_give_every_chain_one(self, capsys):
        # exp_family(3) has 8 chains: 3 samples asked for draw 8.
        assert main(["check", "exp_family(3)", "--oracle-samples", "3"]) == 0
        [check] = json.loads(capsys.readouterr().out)["report"]["checks"]
        assert check["info"] == {"samples": 8, "violations": 0}

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--convex-density", "-1"),
            ("--convex-density", "0"),
            ("--oracle-samples", "0"),
            ("--oracle-samples", "-5"),
        ],
    )
    def test_integer_flag_below_one_exit_code(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["check", "genus2_full", flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: must be at least 1, got {value}" in captured.err

    def test_resource_cap_exit_code(self, capsys, monkeypatch):
        from rotaxa import engine
        from rotaxa.errors import ResourceCapError

        def blow_up(table, cycle_cap=None):
            raise ResourceCapError("synthetic cap for the exit-code path")

        monkeypatch.setattr(engine, "rotation_sets", blow_up)
        assert main(["compute", "genus2_full"]) == 3
        assert "resource cap" in capsys.readouterr().err

    def test_oracle_sample_cap_exit_code(self, capsys, monkeypatch):
        from rotaxa import engine

        def no_draws(*args):
            raise AssertionError("a sample was drawn past the cap")

        monkeypatch.setattr(engine, "SAMPLE_CAP", 10)
        monkeypatch.setattr(engine, "sample_chain_averages", no_draws)
        assert main(["check", "genus2_full", "--oracle-samples", "11"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (
            "resource cap: chain_sampling: more than 10 oracle samples "
            "(11 requested)" in captured.err
        )

    def test_oracle_samples_at_cap(self, capsys, monkeypatch):
        from rotaxa import engine

        monkeypatch.setattr(engine, "SAMPLE_CAP", 10)
        assert main(["check", "genus2_full", "--oracle-samples", "10"]) == 0
        assert '"samples":10,' in capsys.readouterr().out

    def test_deep_relation_path_computes(self, tmp_path, capsys):
        # 1200 pieces in one relation path, deeper than the default
        # recursion limit; the trivial connectors drop out of the chains.
        path = tmp_path / "path.json"
        path.write_text(dumps_canonical(relation_path_document(1200)), encoding="utf-8")
        assert main(["compute", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [chain["pieces"] for chain in payload["chains"]] == [["H"]]

    def test_chain_cap_exit_code(self, tmp_path, capsys):
        # A depth-14 ladder has 16384 maximal chains, past the chain cap.
        path = tmp_path / "ladder.json"
        path.write_text(dumps_canonical(ladder_document(14)), encoding="utf-8")
        start = time.perf_counter()
        assert main(["compute", str(path)]) == 3
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert "maximal_nontrivial_chains: more than 10000 maximal chains" in err

    def test_validate_resource_cap_exit_code(self, capsys, monkeypatch):
        from rotaxa import engine
        from rotaxa.errors import ResourceCapError

        def blow_up(table, cycle_cap=None):
            raise ResourceCapError("synthetic cap for the exit-code path")

        monkeypatch.setattr(engine, "rotation_sets", blow_up)
        assert main(["validate", "genus2_full"]) == 3
        assert "resource cap: synthetic cap" in capsys.readouterr().err

    def test_validate_reports_missing_marks(self, tmp_path, capsys):
        path = tmp_path / "unmarked.json"
        path.write_text(json.dumps(missing_marks_document()), encoding="utf-8")
        message = (
            "annular piece with required mark missing: no source marks on "
            "relation ('L1_0', 'L1_s')"
        )
        assert main(["validate", str(path)]) == 2
        validated = capsys.readouterr()
        assert f"violation: {message}" in validated.err
        assert main(["compute", str(path)]) == 2
        computed = capsys.readouterr()
        assert f"invalid model: {message}" in computed.err
        assert (
            json.loads(validated.out)["violations"]
            == json.loads(computed.out)["violations"]
            == [message]
        )

    def test_origin_in_piece_but_no_chain_set(self, tmp_path, capsys):
        # A trivial piece at the origin below a curved piece at (1,0,0,0):
        # the only chain set is that one point.
        pieces = [
            {"id": "T", "classification": "trivial",
             "graph": one_node_loop(["0", "0", "0", "0"])},
            {"id": "C", "classification": "curved",
             "graph": one_node_loop(["1", "0", "0", "0"])},
        ]
        path = tmp_path / "offset.json"
        path.write_text(
            dumps_canonical(curved_model_document(pieces, [("T", "C")])),
            encoding="utf-8",
        )
        assert main(["validate", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["warnings"] == [
            "trivial piece 'T' rotates outside every chain set",
            "origin lies in a piece but in no chain set",
        ]

    def test_probe_cap_exit_code(self, capsys):
        # The 11-vertex union hull of exp_family(5) has 75,581 compositions
        # of denominator at most 8, past the probe cap.
        start = time.perf_counter()
        assert main(["check", "exp_family(5)", "--convex-density", "8"]) == 3
        assert time.perf_counter() - start < 5.0
        assert (
            "probe_points: more than 20000 grid compositions "
            "(75581 at density 8 on 11 vertices)"
        ) in capsys.readouterr().err

    def test_probe_cap_is_checked_without_counting_up(self, capsys):
        # The composition count is one binomial, so a huge density is
        # refused at once instead of being summed density by density.
        start = time.perf_counter()
        assert main(["check", "exp_family(5)", "--convex-density", "99999999999"]) == 3
        assert time.perf_counter() - start < 5.0
        assert "at density 99999999999 on 11 vertices" in capsys.readouterr().err

    @settings(
        max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(doc=edited_documents())
    def test_fuzzed_documents_validate_as_compute(self, tmp_path, capsys, doc):
        path = tmp_path / "fuzzed.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        code = main(["validate", str(path)])
        validated = capsys.readouterr()
        assert code in (0, 2, 3)
        assert main(["compute", str(path)]) == code
        computed = capsys.readouterr()
        if code == 2 and validated.out:
            assert (
                json.loads(validated.out)["violations"]
                == json.loads(computed.out)["violations"]
            )
        elif code == 2:
            assert validated.err == computed.err

    @pytest.mark.parametrize("where, value, message", MALFORMED_INPUTS)
    def test_malformed_input_exit_code(self, tmp_path, capsys, where, value, message):
        doc = model_to_dict(exp_family(1))
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["compute", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, target, message",
        [
            (["compute", "genus2_full", "--out"], "absent/x.json", NO_SUCH_FILE),
            (["compute", "genus2_full", "--csv"], "absent/x.csv", NO_SUCH_FILE),
            (["fixture", "genus2_full", "--write"], "absent/m.json", NO_SUCH_FILE),
            (["compute", "genus2_full", "--out"], "", "Is a directory"),
        ],
    )
    def test_unwritable_output_exit_code(self, tmp_path, capsys, argv, target, message):
        path = tmp_path / target
        assert main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"invalid input: cannot write {path}: {message}\n"
        # Files are written before anything goes to stdout.
        assert captured.out == ""

    def test_unknown_fixture_message(self, capsys):
        assert main(["fixture", "nope"]) == 2
        assert capsys.readouterr().err == "invalid input: no such file or fixture: 'nope'\n"
        assert main(["compute", "nope"]) == 2
        assert capsys.readouterr().err == "invalid input: no such file or fixture: 'nope'\n"

    @pytest.mark.parametrize("k", [14, 10**6])
    @pytest.mark.parametrize("command", ["compute", "fixture"])
    def test_exp_family_cap_exit_code(self, capsys, command, k):
        # 2^k maximal chains pass the chain cap of 10,000 from k = 14 on.
        start = time.perf_counter()
        assert main([command, f"exp_family({k})"]) == 3
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"resource cap: exp_family({k}): 2^{k} maximal chains exceed "
            "the chain cap of 10000\n"
        )

    def test_exp_family_below_cap(self, capsys):
        assert main(["fixture", "exp_family(13)"]) == 0
        assert len(json.loads(capsys.readouterr().out)["pieces"]) == 3 * 13
