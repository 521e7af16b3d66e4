import argparse
import json
import time
from fractions import Fraction as F

import pytest

import bieberbach.cli as cli
import bieberbach.groupfile as groupfile
from bieberbach.calabi import CalabiStep
from bieberbach.catalog import catalog_get, catalog_list
from bieberbach.cli import format_abelian, main
from oracles import corpus_items
from test_build_oracle import permutation_matrix
from test_calabi import count_torsion_tests, torsion_corpus_docs
from test_computed_once import count_lattice_enumerations
from test_group_core import record_finite_groups, tables_held


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


def test_lift_corrections_are_read_only_into_a_certificate(tmp_path, capsys, monkeypatch):
    """A step reads its lift corrections off its basis when a certificate
    is written, and at no other time: `analyze --format json` and the
    text `decompose` read none, and `connective --certificate --format
    json` one per step of the chain it prints.  On the catalog and the
    seed-1 `analyze` and `connective` corpora."""
    reads = []
    corrections = CalabiStep.lift_corrections
    counted = property(lambda step: reads.append(step) or corrections.fget(step))
    monkeypatch.setattr(CalabiStep, "lift_corrections", counted)
    catalog = [groupfile.group_to_document(catalog_get(key).group) for key in catalog_list()]
    analyzed = catalog + [item.doc for item in corpus_items("analyze", 1)]
    torsion_free = catalog + [item.doc for item in corpus_items("connective", 1)]
    path = tmp_path / "group.json"

    def run(doc, *argv):
        path.write_text(json.dumps(doc))
        assert main([argv[0], str(path), *argv[1:]]) == 0
        return capsys.readouterr().out

    for doc in analyzed:
        run(doc, "analyze", "--format", "json")
    for doc in torsion_free:
        run(doc, "decompose")
    assert reads == []
    steps = 0
    for doc in torsion_free:
        certificate = json.loads(run(doc, "connective", "--certificate", "--format", "json"))
        steps += len(certificate["certificate"]["chain"])
        assert len(reads) == steps
    assert steps >= 400


def test_analyze_tests_for_torsion_only_at_a_stall_and_only_on_the_core(
    tmp_path, capsys, monkeypatch
):
    """`analyze` reads torsion off the Calabi chain: a chain down to
    dimension 0 makes no `torsion_witness` call, and a stall makes one,
    on the stall stage, which is the reported core when the group is
    torsion free.  On the catalog and the seed-1 `analyze` corpus."""
    tested, stalls, _ = count_torsion_tests(monkeypatch)
    reports = []
    to_document = cli.AnalysisReport.to_document
    monkeypatch.setattr(
        cli.AnalysisReport, "to_document", lambda report: reports.append(report) or to_document(report)
    )
    catalog = [groupfile.group_to_document(catalog_get(key).group) for key in catalog_list()]
    path = tmp_path / "group.json"
    verdicts = []
    for doc in catalog + [item.doc for item in corpus_items("analyze", 1)]:
        path.write_text(json.dumps(doc))
        tested.clear()
        stalls.clear()
        out = run_json(capsys, ["analyze", str(path)])
        report = reports[-1]
        chain = report.connectivity
        assert report.torsion_free == (chain is not None) == out["torsion_free"]
        verdicts.append("torsion" if chain is None else "connective" if chain.connective else "core")
        assert tested == stalls and len(stalls) == (verdicts[-1] != "connective"), doc["name"]
        if verdicts[-1] == "core":
            assert tested[0] is chain.core
    assert tuple(map(verdicts.count, ("connective", "core", "torsion"))) == (73, 13, 14)


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


CATALOG_ORDER = [
    "torus_1",
    "torus_2",
    "torus_3",
    "torus_4",
    "klein_bottle",
    "hw",
    "dim3_c2",
    "dim3_c3",
    "dim3_c4",
    "dim3_c6",
    "dim3_c2c2_connective",
]


def test_catalog_list(capsys):
    """`catalog list` prints the keys in catalog order, one per line in
    text and as one JSON list."""
    assert main(["catalog", "list"]) == 0
    assert capsys.readouterr().out == "\n".join(CATALOG_ORDER) + "\n"
    assert main(["catalog", "list", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == CATALOG_ORDER


def test_catalog_show(capsys):
    assert main(["catalog", "show", "klein_bottle"]) == 0
    out = capsys.readouterr().out
    assert "H1: Z + Z/2" in out


# ---------------------------------------------------------------- errors

def test_missing_file(capsys):
    assert main(["analyze", "/nonexistent/group.json"]) == 2
    assert "file not found" in capsys.readouterr().err


def test_directory_as_group_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: GroupFileError: cannot read ")
    assert captured.err.count("\n") == 1


def test_unreadable_group_file(tmp_path, capsys, monkeypatch):
    """Any OSError on opening, not only a missing file, is an input error."""
    def denied(*args, **kwargs):
        raise PermissionError(13, "Permission denied", str(tmp_path / "locked.json"))

    monkeypatch.setattr(groupfile, "open", denied, raising=False)
    assert main(["connective", str(tmp_path / "locked.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: GroupFileError: cannot read {tmp_path / 'locked.json'}: Permission denied\n"
    )


@pytest.mark.parametrize("opener", ["[", "{\"a\": "])
def test_deeply_nested_json(tmp_path, capsys, opener):
    path = tmp_path / "deep.json"
    path.write_text(opener * 100_000)
    assert main(["analyze", str(path), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: GroupFileError: invalid JSON")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("dim", [groupfile.MAX_DIMENSION + 1, 100_000])
def test_huge_dimension_is_an_input_error(tmp_path, capsys, dim):
    """Rejected before any dim x dim matrix is built."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"name": "huge", "dimension": dim, "generators": []}))
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: GroupFileError: 'dimension' {dim} exceeds the limit {groupfile.MAX_DIMENSION}\n"
    )


def test_largest_dimension_is_accepted(tmp_path, capsys):
    path = tmp_path / "torus.json"
    dim = groupfile.MAX_DIMENSION
    path.write_text(json.dumps({"name": "big", "dimension": dim, "generators": []}))
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == f"VALID: big (dim {dim}, holonomy order 1)\n"


@pytest.mark.parametrize("dim", [16, 32, 64])
def test_a_unipotent_generator_is_rejected_before_the_closure(tmp_path, capsys, dim):
    """I + N, N the nilpotent shift, has trace k but is not I, so it has
    infinite order and is rejected at once, with the line the closure
    gave when it passed its budget, which took 2.0 s at dim 16, 10.6 s at
    dim 32 and 68 s at dim 64 (2 CPUs, CPython 3.11)."""
    unipotent = [[int(j in (i, i + 1)) for j in range(dim)] for i in range(dim)]
    path = tmp_path / "unipotent.json"
    path.write_text(
        json.dumps(
            {
                "name": "unipotent",
                "dimension": dim,
                "generators": [{"matrix": unipotent, "translation": ["0"] * dim}],
            }
        )
    )
    start = time.perf_counter()
    assert main(["validate", str(path)]) == 2
    elapsed = time.perf_counter() - start
    assert capsys.readouterr() == (
        "",
        "error: ClosureBudgetExceeded: holonomy closure exceeded 10000 elements\n",
    )
    assert elapsed < 1.0


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


NOT_RATIONALS = ["1e-5", "1E3", "0.5", "1_000", "١", "1 / 2", "1/2/3", "--1", "1/-2", "", " "]


@pytest.mark.parametrize("text", NOT_RATIONALS)
def test_only_sign_digits_and_slash_translations_accepted(tmp_path, capsys, text):
    """Exponent notation, underscores and non-ASCII digits are not the
    documented "p/q" or "n", though `Fraction` reads them."""
    path = tmp_path / "exp.json"
    path.write_text(
        json.dumps(
            {
                "name": "bad",
                "dimension": 1,
                "generators": [{"matrix": [[1]], "translation": [text]}],
            }
        )
    )
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: GroupFileError: not an exact rational: {text!r}\n"


def test_exact_rationals_parse():
    parse = groupfile.parse_rational
    assert parse(" -3/4 ") == F(-3, 4)
    assert parse("+1/2") == F(1, 2)
    assert parse("007") == 7
    assert parse("6/4") == F(3, 2)
    assert parse(-2) == -2
    with pytest.raises(groupfile.GroupFileError):
        parse("1/0")


@pytest.mark.parametrize("char", ["0.5,1e-1,0", "1e-1,0,0", "1/4,0.5,0", "1/4,0,1_0", "1/4,0"])
def test_orbits_char_rejects_what_a_group_file_rejects(hw_file, capsys, char):
    code = main(["orbits", hw_file, "--char", char])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_orbits_char_entries_parse_like_translations(hw_file, capsys):
    """Whitespace, signs and entries >= 1 are accepted and reduced mod 1."""
    doc = run_json(capsys, ["orbits", hw_file, "--char", " -1/4, 5/4 ,+2"])
    assert doc == run_json(capsys, ["orbits", hw_file, "--char", "3/4,1/4,0"])


@pytest.fixture
def point_file(tmp_path):
    path = tmp_path / "pt.json"
    path.write_text(json.dumps({"name": "pt", "dimension": 0, "generators": []}))
    return str(path)


@pytest.mark.parametrize("char", ["", "  "], ids=["empty", "blank"])
def test_a_blank_char_is_the_character_of_z0(point_file, capsys, char):
    """The one character of Z^0 is empty, and a blank `--char` writes it:
    its orbit is itself and the trivial holonomy fixes it.  It exited 2
    with `bad character ''`."""
    assert main(["orbits", point_file, "--char", char]) == 0
    assert capsys.readouterr() == (
        "character: ()\n"
        "orbit size: 1\n"
        "stabilizer order: 1 (elements 0)\n"
        "  orbit point: ()\n",
        "",
    )
    assert run_json(capsys, ["orbits", point_file, "--char", char]) == {
        "character": [],
        "orbit": [[]],
        "orbit_size": 1,
        "stabilizer_elements": [0],
        "stabilizer_order": 1,
    }


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]], ids=["text", "json"])
@pytest.mark.parametrize("char", ["", "  "], ids=["empty", "blank"])
def test_a_blank_char_against_a_positive_dimension_is_a_dimension_mismatch(
    hw_file, capsys, char, fmt
):
    assert main(["orbits", hw_file, "--char", char, *fmt]) == 2
    assert capsys.readouterr() == (
        "",
        "error: ValueError: character of dim 0 against a dim-3 group\n",
    )


@pytest.mark.parametrize(
    "argv", [["connective"], ["connective", "--certificate", "--format", "json"], ["decompose"]]
)
def test_connectivity_commands_reject_every_corpus_group_with_torsion(tmp_path, capsys, argv):
    """The chain of a group with torsion stalls and only then is the
    input tested: the command still exits 2 with the one error line and
    prints nothing else."""
    docs = torsion_corpus_docs()
    assert len(docs) >= 20
    for pos, doc in enumerate(docs):
        path = tmp_path / f"{pos}.json"
        path.write_text(json.dumps(doc))
        assert main([argv[0], str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: NotTorsionFree: group {doc['name']!r} has torsion\n"


# ---------------------------------------------------------------- one parser

def test_the_parser_is_built_once(hw_file, capsys, monkeypatch):
    assert main(["validate", hw_file]) == 0
    capsys.readouterr()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["fixed-torus", hw_file, "--format", "json"]) == 0
    assert main(["orbits", hw_file, "--char", "1/4,0,0", "--format", "json"]) == 0
    assert built == []
    assert cli.build_parser() is cli.build_parser()


def test_the_shared_parser_keeps_no_options_between_calls(hw_file, torus2_file, capsys):
    doc = run_json(capsys, ["connective", torus2_file, "--certificate"])
    assert "certificate" in doc
    doc = run_json(capsys, ["connective", torus2_file])
    assert "certificate" not in doc and doc["connective"] is True
    assert "primitive" in run_json(capsys, ["holonomy", hw_file, "--primitivity"])
    assert "primitive" not in run_json(capsys, ["holonomy", hw_file])


def run_main(monkeypatch, capsys, argv, reference=False):
    """(exit code, stdout, stderr) of `main(argv)`.  The `reference` main
    parses every command line with the full parser,
    `build_parser().parse_args(argv)`, as `main` once did."""
    with monkeypatch.context() as patch:
        if reference:
            patch.setattr(cli, "_parse_args", lambda argv: cli.build_parser().parse_args(argv))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return (code, *capsys.readouterr())


USAGE_ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["--format", "json", "analyze", "FILE"],
    ["analyze"],
    ["analyze", "FILE", "extra"],
    ["analyze", "FILE", "--bogus"],
    ["orbits", "FILE"],
    ["--format", "xml"],
    ["analyze", "FILE", "--format", "xml"],
    ["analyze", "-h"],
    ["analyze", "FILE", "--form", "json"],
    ["analyze", "--", "FILE"],
    ["catalog"],
    ["catalog", "show"],
    ["catalog", "bogus"],
]


@pytest.mark.parametrize("argv", USAGE_ARGVS, ids=" ".join)
def test_each_command_line_is_parsed_as_the_full_parser_parses_it(
    hw_file, capsys, monkeypatch, argv
):
    """Help, usage errors and the commands themselves give the exit code,
    stdout and stderr of the reference main, which runs the full parser
    on every command line."""
    argv = [hw_file if word == "FILE" else word for word in argv]
    got = run_main(monkeypatch, capsys, argv)
    assert got == run_main(monkeypatch, capsys, argv, reference=True)
    assert got[0] in (0, 2)


@pytest.mark.parametrize(
    "argv",
    [
        ["fixed-torus", "f.json", "--format", "json"],
        ["orbits", "--char", "1/4,0,0", "f.json"],
        ["connective", "--cert", "f.json"],
        ["holonomy", "f.json", "--coprime-class", "--primitivity", "--format", "text"],
        ["catalog", "show", "hw"],
        ["catalog", "list", "--format", "json"],
        ["analyze", "--", "-f.json"],
    ],
    ids=" ".join,
)
def test_a_command_parser_gives_the_namespace_of_the_full_parser(argv):
    assert cli._parse_args(argv) == cli.build_parser().parse_args(argv)


@pytest.mark.parametrize(
    "argv", [["fixed-torus", "--format", "json"], ["orbits", "--char", "1/4,0,0"]]
)
def test_a_valid_command_line_is_parsed_once_by_its_command_parser(
    hw_file, capsys, monkeypatch, argv
):
    """The full parser calls `parse_known_args` on itself and then on the
    command's parser; `main` calls only the command's parser."""
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    assert main([argv[0], hw_file, *argv[1:]]) == 0
    capsys.readouterr()
    assert calls == [f"bieberbach {argv[0]}"]


def test_the_shared_parser_survives_a_usage_error(hw_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["orbits", hw_file])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ") and "--char" in captured.err
    assert run_json(capsys, ["orbits", hw_file, "--char", "1/4,0,0"])["orbit_size"] == 2
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: bieberbach" in capsys.readouterr().out
    assert main(["validate", hw_file]) == 0


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


def minus_one_file(tmp_path, k):
    minus_one = [[-int(i == j) for j in range(k)] for i in range(k)]
    path = tmp_path / "minus_one.json"
    path.write_text(
        json.dumps(
            {
                "name": "minus_one",
                "dimension": k,
                "generators": [{"matrix": minus_one, "translation": ["0"] * k}],
            }
        )
    )
    return path


@pytest.mark.parametrize("argv", [["fixed-torus", "--format", "json"], ["fixed-torus"]])
def test_a_fixed_torus_of_2_to_the_20_points_is_an_input_error(tmp_path, capsys, argv):
    """-I in dimension 20 fixes 2^20 points of the dual torus: they are
    counted, not listed (listing 2^18 took 25 s and 60 MB of JSON), and
    `fixed-torus`, whose output is the list, refuses them."""
    path = minus_one_file(tmp_path, 20)
    start = time.perf_counter()
    assert main([argv[0], str(path), *argv[1:]]) == 2
    elapsed = time.perf_counter() - start
    assert capsys.readouterr() == (
        "",
        "error: TooManyFixedPoints: the fixed torus has 1048576 points,"
        " more than the limit 4096\n",
    )
    assert elapsed < 2.0


def string_leaves(value) -> int:
    """How many strings a JSON document holds."""
    if isinstance(value, str):
        return 1
    if isinstance(value, dict):
        value = list(value.values())
    return sum(map(string_leaves, value)) if isinstance(value, list) else 0


@pytest.mark.parametrize("argv", [["fixed-torus"], ["orbits", "--char", "1/4,0,0"]])
def test_json_output_formats_each_printed_rational_once(hw_file, capsys, monkeypatch, argv):
    """`--format json` builds no text form: `_format_ratio` runs once
    per rational the document prints, the only strings in it.  The text
    form, built eagerly, formatted every point a second time."""
    calls = []

    def counting(x, q):
        calls.append((x, q))
        return groupfile._format_ratio(x, q)

    monkeypatch.setattr(cli, "_format_ratio", counting)
    doc = run_json(capsys, [argv[0], hw_file, *argv[1:]])
    assert len(calls) == string_leaves(doc) > 0


def fractions_per_op(monkeypatch, tmp_path, capsys, argvs):
    """For each command line, with FILE standing for the group file, the
    `Fraction`s `main` builds, counted at `Fraction.__new__`."""
    made = []
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    counts = []
    for pos, (doc, argv) in enumerate(argvs):
        path = tmp_path / f"{pos}.json"
        path.write_text(json.dumps(doc))
        argv = [str(path) if word == "FILE" else word for word in argv]
        with monkeypatch.context() as patch:
            patch.setattr(F, "__new__", staticmethod(counting_new))
            assert main(argv) == 0
        capsys.readouterr()
        counts.append(len(made))
        made.clear()
    return counts


def test_a_seed1_fixed_torus_pass_builds_no_fraction(monkeypatch, tmp_path, capsys):
    """The fixed-torus points are integer shifts over one denominator,
    printed with `_format_ratio`."""
    items = corpus_items("lattice")
    argvs = [(item.doc, ["fixed-torus", "FILE", "--format", "json"]) for item in items]
    assert fractions_per_op(monkeypatch, tmp_path, capsys, argvs) == [0] * len(items)


def test_a_seed1_orbits_pass_builds_only_the_fractions_of_its_char(monkeypatch, tmp_path, capsys):
    """`parse_rational` makes one `Fraction` per `--char` entry; the orbit
    is computed and printed in integers."""
    items = corpus_items("lattice")
    argvs = [
        (item.doc, ["orbits", "FILE", "--char", item.expect["char"], "--format", "json"])
        for item in items
    ]
    counts = fractions_per_op(monkeypatch, tmp_path, capsys, argvs)
    entries = [item.expect["char"].count(",") + 1 for item in items]
    assert all(made <= k for made, k in zip(counts, entries)), (counts, entries)


def test_analyze_counts_a_fixed_torus_of_2_to_the_20_points_without_listing_them(
    tmp_path, capsys
):
    """`analyze` reports the rest of the group with `"points": null`: the
    count is the product of the component orders.  It exited 2, as
    `fixed-torus` does, for all of -I in dimension 13 to 64."""
    path = minus_one_file(tmp_path, 20)
    start = time.perf_counter()
    doc = run_json(capsys, ["analyze", str(path)])
    assert main(["analyze", str(path)]) == 0
    elapsed = time.perf_counter() - start
    text = capsys.readouterr().out
    assert doc["fixed_torus"] == {"rank": 0, "component_orders": [2] * 20, "points": None}
    assert (doc["torsion_free"], doc["connectivity"], doc["characters"]) == (False, None, 2**21)
    assert f"fixed torus: rank 0, components {' x '.join(['2'] * 20)}\n" in text
    assert "point" not in text
    assert elapsed < 2.0


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


def test_h1_of_the_order_384_signed_permutations(tmp_path, capsys):
    """The dim-4 signed permutations (holonomy order 384): H1 is taken on
    4 + 3 variables.  The Smith form on the 388 variables of the
    Cayley-graph presentation took about 47 s (2 CPUs, CPython 3.11)."""
    cycle = [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    swap = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    flip = [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    doc = {
        "name": "signed_permutations_4",
        "dimension": 4,
        "generators": [{"matrix": m, "translation": ["0"] * 4} for m in (cycle, swap, flip)],
    }
    path = tmp_path / "b4.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["h1", str(path)]) == 0
    elapsed = time.perf_counter() - start
    assert capsys.readouterr().out == "H1 = Z/2 + Z/2 + Z/2\n"
    assert elapsed < 10.0


def signed_permutations_document(n, minus_one=False):
    """B_n, the dim-n signed permutations (holonomy order 2^n n!), with
    zero translations; with `minus_one`, B_n x {+-1}: -1 on one more
    coordinate."""
    def padded(rows, corner):
        return [row + [0] for row in rows] + [[0] * n + [corner]]

    cycle = permutation_matrix([(i + 1) % n for i in range(n)])
    swap = permutation_matrix([1, 0, *range(2, n)])
    flip = [[-1 if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)]
    mats = [cycle, swap, flip]
    if minus_one:
        mats = [padded(m, 1) for m in mats] + [padded(permutation_matrix(range(n)), -1)]
    dim = len(mats[0])
    return {
        "name": f"signed_permutations_{n}" + "_times_minus_one" * minus_one,
        "dimension": dim,
        "generators": [{"matrix": m, "translation": ["0"] * dim} for m in mats],
    }


def symmetric_document(n):
    """S_n permuting the coordinates of Z^n (holonomy order n!)."""
    cycle = permutation_matrix([(i + 1) % n for i in range(n)])
    mats = [cycle, permutation_matrix([1, 0, *range(2, n)])]
    return {
        "name": f"symmetric_{n}",
        "dimension": n,
        "generators": [{"matrix": m, "translation": ["0"] * n} for m in mats],
    }


def large_holonomy_documents():
    """B4, B5, S7 and B5 x {+-1}: holonomy orders 384, 3840, 5040, 7680."""
    return {
        "b4": signed_permutations_document(4),
        "b5": signed_permutations_document(5),
        "s7": symmetric_document(7),
        "b5x2": signed_permutations_document(5, minus_one=True),
    }


def signed_permutations_5_times_minus_one(tmp_path):
    """B5 x {+-1}: the dim-5 signed permutations, and -1 on a sixth
    coordinate (holonomy order 7680), with integral translations."""
    path = tmp_path / "b5x2.json"
    path.write_text(json.dumps(signed_permutations_document(5, minus_one=True)))
    return path


def test_h1_of_the_order_7680_signed_permutations_times_minus_one(tmp_path, capsys):
    """The closure keeps the Cayley graph and builds no n x n table for
    H1: with the table it took 11.6 s and 486 MB (2 CPUs, CPython 3.11)."""
    path = signed_permutations_5_times_minus_one(tmp_path)
    start = time.perf_counter()
    assert main(["h1", str(path)]) == 0
    elapsed = time.perf_counter() - start
    assert capsys.readouterr().out == "H1 = Z/2 + Z/2 + Z/2 + Z/2 + Z/2\n"
    assert elapsed < 10.0


def test_connective_rejects_the_torsion_of_the_order_7680_group(tmp_path, capsys):
    path = signed_permutations_5_times_minus_one(tmp_path)
    start = time.perf_counter()
    assert main(["connective", str(path)]) == 2
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: NotTorsionFree: group 'signed_permutations_5_times_minus_one' has torsion\n"
    )
    assert elapsed < 10.0


ANALYZE_7680 = """\
group: signed_permutations_5_times_minus_one (dim 6)
holonomy: order 7680, nonabelian of order 7680
valid: yes
torsion-free: no
H1: Z/2 + Z/2 + Z/2 + Z/2 + Z/2 (rank 0)
center rank: 0
fixed torus: rank 0, components 2 x 2, 4 points
  point: (0, 0, 0, 0, 0, 0)
  point: (0, 0, 0, 0, 0, 1/2)
  point: (1/2, 1/2, 1/2, 1/2, 1/2, 0)
  point: (1/2, 1/2, 1/2, 1/2, 1/2, 1/2)
characters: 32
connective: n/a (group has torsion)
holonomy primitive: yes
holonomy coprime class: no
"""


@pytest.mark.parametrize(
    "argv, out",
    [
        (["holonomy"], "holonomy order 7680: nonabelian of order 7680\n"),
        (["analyze"], ANALYZE_7680),
        (
            ["holonomy", "--primitivity"],
            "holonomy order 7680: nonabelian of order 7680\nprimitive: yes\n",
        ),
    ],
    ids=["holonomy", "analyze", "holonomy-primitivity"],
)
def test_the_finite_layer_of_the_order_7680_group_builds_no_table(
    tmp_path, capsys, monkeypatch, argv, out
):
    """The structure name, primitivity and the coprime class read the
    Cayley graph, element orders and one Smith form, at any order: with
    the n x n table the structure name took 5.4-8.5 s (2 CPUs,
    CPython 3.11)."""
    made = record_finite_groups(monkeypatch)
    path = signed_permutations_5_times_minus_one(tmp_path)
    start = time.perf_counter()
    assert main([argv[0], str(path), *argv[1:]]) == 0
    elapsed = time.perf_counter() - start
    assert capsys.readouterr() == (out, "")
    assert elapsed < 3.0
    assert made and not tables_held(made)


@pytest.mark.parametrize("key", ["b4", "b5", "s7", "b5x2"])
@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["holonomy", "--primitivity", "--coprime-class"]],
    ids=["analyze", "holonomy"],
)
def test_primitivity_and_coprime_class_of_large_holonomies(tmp_path, capsys, key, argv):
    """Holonomy orders 384 to 7680 are answered, not refused: each group is
    primitive and not in the coprime class."""
    path = tmp_path / f"{key}.json"
    path.write_text(json.dumps(large_holonomy_documents()[key]))
    start = time.perf_counter()
    assert main([argv[0], str(path), *argv[1:]]) == 0
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    prefix = "holonomy " if argv[0] == "analyze" else ""
    assert f"\n{prefix}primitive: yes\n{prefix}coprime class: no\n" in out and err == ""
    assert elapsed < 3.0


def test_format_abelian():
    assert format_abelian(0, ()) == "0"
    assert format_abelian(1, ()) == "Z"
    assert format_abelian(2, (2,)) == "Z^2 + Z/2"
    assert format_abelian(0, (4, 4)) == "Z/4 + Z/4"


def block_diagonal(a, b):
    return [row + [0] * len(b) for row in a] + [[0] * len(a) + row for row in b]


HEX_ROTATION = [[0, -1], [1, -1]]
HEX_REFLECTION = [[0, 1], [1, 0]]
# companion matrix of 1 + x + x^2 + x^3 + x^4: order 5 on Z^4
C5 = [[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]
I2 = [[1, 0], [0, 1]]
I4 = [[int(i == j) for j in range(4)] for i in range(4)]

COPRIME_CLASS_HOLONOMIES = {
    "d3_hexagonal": ([HEX_ROTATION, HEX_REFLECTION], (3, 2)),
    "d3_times_c5": (
        [
            block_diagonal(HEX_ROTATION, I4),
            block_diagonal(HEX_REFLECTION, I4),
            block_diagonal(I2, C5),
        ],
        (15, 2),
    ),
    "f21": (
        [
            permutation_matrix([(i + 1) % 7 for i in range(7)]),
            permutation_matrix([2 * i % 7 for i in range(7)]),
        ],
        (7, 3),
    ),
}


@pytest.mark.parametrize("name", sorted(COPRIME_CLASS_HOLONOMIES))
def test_holonomy_in_the_coprime_class_but_not_cyclic(tmp_path, capsys, monkeypatch, name):
    """Non-cyclic holonomies whose Sylow subgroups are all cyclic: D3 on
    the hexagonal lattice, D3 x Z/5 (order 30) and the Frobenius group
    of order 21.  Each is a coprime semidirect product of cyclic groups,
    so none is primitive, and no command enumerates a subgroup lattice."""
    lattices = count_lattice_enumerations(monkeypatch)
    mats, orders = COPRIME_CLASS_HOLONOMIES[name]
    dim = len(mats[0])
    doc = {
        "name": name,
        "dimension": dim,
        "generators": [{"matrix": m, "translation": ["0"] * dim} for m in mats],
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    argv = ["holonomy", str(path), "--primitivity", "--coprime-class"]
    assert main(argv) == 0
    tree = " -> ".join(f"Z/{m}" for m in orders)
    assert capsys.readouterr().out.splitlines()[1:] == ["primitive: no", f"coprime class: {tree}"]
    held = run_json(capsys, argv)
    assert (held["primitive"], held["coprime_class"]) == (False, {"orders": list(orders)})
    report = run_json(capsys, ["analyze", str(path)])
    assert report["holonomy"] == held
    assert not lattices.seen


# ---------------------------------------------------------------- JSON writer

WRITER_CASES = [
    {},
    [],
    {"a": {}, "b": [], "c": [[], {}], "d": [{}]},
    [[], [[]], [{}], {"x": []}],
    None,
    True,
    False,
    {"verdict": True, "core": None, "flags": [True, False, None, 0, 1]},
    [1, True, 0, False],
    -7,
    [-1, 0, 2**64, -(2**64) - 1, 10**40],
    {"name": "Gruppe äß 漢 \U0001d4b3", "dimension": -3},
    {"naïve \"key\"": "a \"quoted\" \\ back\\slash"},
    "control \x00\x01\x1f\t\n\r\x7f  ",
    {"generators": [{"matrix": [[1, 0], [0, -1]], "translation": ["1/2", "0"]}]},
]


@pytest.mark.parametrize("value", WRITER_CASES, ids=range(len(WRITER_CASES)))
def test_json_writer_prints_what_json_dumps_prints(value):
    assert cli.json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value", [1.5, (1, 2), {"a": (1,)}, [0.0], {"a": [1, 2.0]}, {1: "int key"}, {None: 1}]
)
def test_json_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        cli.json_text(value)


def catalog_payloads(monkeypatch, tmp_path, capsys):
    """Every document the CLI writes as JSON for the golden catalog
    commands (both formats), `catalog export` and `catalog list`."""
    from bieberbach.catalog import catalog_list
    from test_golden_outputs import COMMANDS, FORMATS

    payloads = []
    real = cli.json_text

    def spy(value):
        payloads.append(value)
        return real(value)

    monkeypatch.setattr(cli, "json_text", spy)
    assert main(["catalog", "list", "--format", "json"]) == 0
    for key in catalog_list():
        capsys.readouterr()
        assert main(["catalog", "export", key]) == 0
        path = tmp_path / f"{key}.json"
        path.write_text(capsys.readouterr().out)
        for command in COMMANDS:
            for fmt in FORMATS:
                if command[0] == "catalog":
                    argv = [*command, key]
                else:
                    argv = [command[0], str(path), *command[1:]]
                assert main(argv + ["--format", fmt]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    return payloads


def test_json_writer_matches_json_dumps_on_every_catalog_payload(monkeypatch, tmp_path, capsys):
    payloads = catalog_payloads(monkeypatch, tmp_path, capsys)
    # catalog list; per group: export, one per command in json, the text
    # `catalog export` (JSON in either format), and the certificate inside
    # `connective --certificate --format text`
    assert len(payloads) == 1 + 11 * (1 + 9 + 1 + 1)
    for payload in payloads:
        assert cli.json_text(payload) == json.dumps(payload, indent=2)
