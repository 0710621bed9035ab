"""Model I/O, the fixture catalog, and the command line."""

from __future__ import annotations

import json

import pytest

from rotaxa.cli import main
from rotaxa.engine import compute
from rotaxa.errors import ModelFormatError, ModelValidationError
from rotaxa.exactgeom import affine_dim
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

    def test_resource_cap_exit_code(self, capsys, monkeypatch):
        from rotaxa import engine
        from rotaxa.errors import ResourceCapError

        def blow_up(table, cycle_cap=None):
            raise ResourceCapError("synthetic cap for the exit-code path")

        monkeypatch.setattr(engine, "rotation_sets", blow_up)
        assert main(["compute", "genus2_full"]) == 3
        assert "resource cap" in capsys.readouterr().err
