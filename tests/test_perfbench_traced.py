"""The benchmark's traced replicas print what the CLI prints.

`perfbench/traced.py` rebuilds the `analyze`, `connective
--certificate`, `fixed-torus` and `orbits --char` pipelines from public
`bieberbach` names (`relation_matrix`, `all_subgroups`,
`smith_normal_form`, `build_parser`, ...) to time them layer by layer.
This test imports it as it is, from its own directory, and checks that
each replica's JSON is the CLI's and that its counters are set, so a
renamed or reshaped public name breaks the test suite rather than
`--trace 1`.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from bieberbach.catalog import catalog_get
from bieberbach.cli import main
from bieberbach.groupfile import group_to_document
from oracles import corpus_items
from test_corpus_outputs import DIGESTS, argv_for


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def traced():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("traced")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("key", ["hw", "dim3_c6", "dim3_c2c2_connective"])
@pytest.mark.parametrize("command", [["analyze"], ["connective", "--certificate"]])
def test_traced_replica_prints_what_the_cli_prints(traced, tmp_path, capsys, key, command):
    path = tmp_path / f"{key}.json"
    path.write_text(json.dumps(group_to_document(catalog_get(key).group)))
    argv = [command[0], str(path), *command[1:], "--format", "json"]
    assert main(argv) == 0
    printed = capsys.readouterr().out

    tracer, op = traced.Tracer(), traced.Op()
    assert traced.run_command(tracer, op, argv) + "\n" == printed
    traced.probe(tracer, op)
    assert tracer.counters["crystal.build_group.calls"] >= 1
    if command[0] == "analyze":
        assert tracer.counters["invariants.relation_matrix.cols.sum"] > 0
        assert tracer.counters["finite.subgroups.sum"] > 0


@pytest.mark.parametrize(
    "command, counters",
    [
        ("fixed-torus --format json", ["invariants.fixed_torus.s"]),
        ("orbits --char --format json", ["orbits.orbit_data.s", "orbits.orbit_size.sum"]),
    ],
)
def test_lattice_replicas_print_what_the_cli_prints(traced, tmp_path, capsys, command, counters):
    """Every seed-1 `lattice` item, as the benchmark runs it."""
    assert DIGESTS[command][0] == "lattice"
    for item in corpus_items("lattice"):
        path = tmp_path / f"{item.name}.json"
        path.write_text(json.dumps(item.doc))
        argv = argv_for(command, item, path)
        assert main(argv) == 0, item.name
        printed = capsys.readouterr().out

        tracer = traced.Tracer()
        assert traced.run_command(tracer, traced.Op(), argv) + "\n" == printed, item.name
        assert tracer.counters["crystal.build_group.calls"] == 1
        for key in ["groupfile.parse.s", "cli.parse.s", "cli.render.s", *counters]:
            assert tracer.counters[key] > 0, (item.name, key)
