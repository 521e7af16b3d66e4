import json

import pytest

import bieberbach.cli as cli
from bieberbach.cli import format_abelian, main
from bieberbach.finite import OrderBudgetExceeded


@pytest.fixture
def hw_file(tmp_path, capsys):
    assert main(["catalog", "export", "hw"]) == 0
    path = tmp_path / "hw.json"
    path.write_text(capsys.readouterr().out)
    return str(path)


@pytest.fixture
def torus2_file(tmp_path, capsys):
    assert main(["catalog", "export", "torus_2"]) == 0
    path = tmp_path / "torus_2.json"
    path.write_text(capsys.readouterr().out)
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


# ---------------------------------------------------------------- commands

def test_validate(hw_file, capsys):
    assert main(["validate", hw_file]) == 0
    out = capsys.readouterr().out
    assert "VALID" in out and "hw" in out


def test_connective_text_hw(hw_file, capsys):
    assert main(["connective", hw_file]) == 0
    out = capsys.readouterr().out
    assert "NOT CONNECTIVE" in out
    assert "core = input group" in out
    assert "H1 = Z/4 + Z/4" in out


def test_connective_with_certificate(torus2_file, capsys):
    doc = run_json(capsys, ["connective", torus2_file, "--certificate"])
    assert doc["connective"] is True
    assert len(doc["certificate"]["chain"]) == 2
    step = doc["certificate"]["chain"][0]
    assert set(step) >= {"lattice_map", "lift_values", "lattice_index", "kernel"}


def test_certificate_text_builds_the_document_once(torus2_file, capsys, monkeypatch):
    built = []
    real_document = cli.connectivity_document

    def counting_document(report):
        built.append(report)
        return real_document(report)

    monkeypatch.setattr(cli, "connectivity_document", counting_document)
    assert main(["connective", torus2_file, "--certificate"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("CONNECTIVE; poly-Z chain of length 2\n{")
    assert len(built) == 1


def test_analyze_json_torus(torus2_file, capsys):
    doc = run_json(capsys, ["analyze", torus2_file])
    assert doc["h1"]["rank"] == 2
    assert doc["connectivity"]["connective"] is True
    assert doc["characters"] == "infinite"
    assert doc["holonomy"]["structure"] == "trivial"


def test_analyze_json_hw(hw_file, capsys):
    doc = run_json(capsys, ["analyze", hw_file])
    assert doc["h1"] == {"rank": 0, "torsion": [4, 4], "order": 16}
    assert doc["characters"] == 16
    assert doc["holonomy"]["primitive"] is True
    assert doc["holonomy"]["coprime_class"] is None
    assert doc["fixed_torus"]["rank"] == 0
    assert len(doc["fixed_torus"]["points"]) == 8
    for point in doc["fixed_torus"]["points"]:
        assert all(x in ("0", "1/2") for x in point)
    assert doc["connectivity"]["connective"] is False


def test_h1_center_fixed_torus(hw_file, capsys):
    doc = run_json(capsys, ["h1", hw_file])
    assert doc == {"rank": 0, "torsion": [4, 4], "order": 16}
    doc = run_json(capsys, ["center", hw_file])
    assert doc == {"rank": 0, "basis": []}
    doc = run_json(capsys, ["fixed-torus", hw_file])
    assert doc["component_orders"] == [2, 2, 2]


def test_decompose_text(torus2_file, capsys):
    assert main(["decompose", torus2_file]) == 0
    out = capsys.readouterr().out
    assert "complete poly-Z chain of length 2" in out


def test_holonomy_flags(hw_file, capsys):
    doc = run_json(capsys, ["holonomy", hw_file, "--primitivity", "--coprime-class"])
    assert doc == {
        "order": 4,
        "structure": "Z/2 + Z/2",
        "primitive": True,
        "coprime_class": None,
    }


def test_orbits(hw_file, capsys):
    doc = run_json(capsys, ["orbits", hw_file, "--char", "1/4,0,0"])
    assert doc["orbit_size"] == 2
    assert doc["stabilizer_order"] == 2
    assert ["1/4", "0", "0"] in doc["orbit"]
    assert ["3/4", "0", "0"] in doc["orbit"]


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "hw" in out.split()
    assert "klein_bottle" in out.split()


def test_catalog_show(capsys):
    assert main(["catalog", "show", "klein_bottle"]) == 0
    out = capsys.readouterr().out
    assert "H1: Z + Z/2" in out


# ---------------------------------------------------------------- errors

def test_missing_file(capsys):
    assert main(["analyze", "/nonexistent/group.json"]) == 2
    assert "file not found" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == 2
    assert "GroupFileError" in capsys.readouterr().err


def test_decimal_translation_rejected(tmp_path, capsys):
    path = tmp_path / "dec.json"
    path.write_text(
        json.dumps(
            {
                "name": "bad",
                "dimension": 1,
                "generators": [{"matrix": [[1]], "translation": [0.5]}],
            }
        )
    )
    assert main(["analyze", str(path)]) == 2
    assert "decimal" in capsys.readouterr().err


def test_validation_error_class_named(tmp_path, capsys):
    path = tmp_path / "unfaithful.json"
    path.write_text(
        json.dumps(
            {
                "name": "bad",
                "dimension": 1,
                "generators": [{"matrix": [[1]], "translation": ["1/2"]}],
            }
        )
    )
    assert main(["validate", str(path)]) == 2
    assert "HolonomyNotFaithful" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["holonomy", "--primitivity"], ["analyze"], ["analyze", "--format", "json"]],
)
def test_order_budget_exceeded_is_an_input_error(hw_file, capsys, monkeypatch, argv):
    def over_budget(group, budget=64):
        raise OrderBudgetExceeded(f"order 96 exceeds budget {budget}")

    monkeypatch.setattr(cli, "is_primitive", over_budget)
    assert main(argv[:1] + [hw_file] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: OrderBudgetExceeded: order 96 exceeds budget 64\n"


def test_unknown_catalog_key(capsys):
    assert main(["catalog", "show", "nope"]) == 2
    assert "unknown catalog key" in capsys.readouterr().err


def test_torsion_input_connective_errors(tmp_path, capsys):
    path = tmp_path / "point.json"
    path.write_text(
        json.dumps(
            {
                "name": "flip",
                "dimension": 1,
                "generators": [{"matrix": [[-1]], "translation": ["0"]}],
            }
        )
    )
    assert main(["connective", str(path)]) == 2
    assert "NotTorsionFree" in capsys.readouterr().err
    # but analyze still works, reporting the torsion
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "torsion-free: no" in out
    assert "connective: n/a" in out


# ---------------------------------------------------------------- round trips

def test_export_reanalyze_roundtrip(tmp_path, capsys):
    for key in ("hw", "klein_bottle", "dim3_c4", "dim3_c2c2_connective"):
        assert main(["catalog", "export", key]) == 0
        path = tmp_path / f"{key}.json"
        path.write_text(capsys.readouterr().out)
        direct = run_json(capsys, ["catalog", "show", key])
        via_file = run_json(capsys, ["analyze", str(path)])
        assert direct == via_file


def test_json_output_stable(hw_file, capsys):
    first = run_json(capsys, ["analyze", hw_file])
    second = run_json(capsys, ["analyze", hw_file])
    assert first == second


def test_format_abelian():
    assert format_abelian(0, ()) == "0"
    assert format_abelian(1, ()) == "Z"
    assert format_abelian(2, (2,)) == "Z^2 + Z/2"
    assert format_abelian(0, (4, 4)) == "Z/4 + Z/4"
