"""The benchmark's traced replicas print what the CLI prints.

`perfbench/traced.py` rebuilds the `analyze` and `connective
--certificate` pipelines from public `bieberbach` names
(`relation_matrix`, `all_subgroups`, `smith_normal_form`,
`build_parser`, ...) to time them layer by layer.  This test imports it
as it is, from its own directory, and checks that each replica's JSON is
the CLI's and that its probes run, so a renamed or reshaped public name
breaks the test suite rather than `--trace 1`.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from bieberbach.catalog import catalog_get
from bieberbach.cli import main
from bieberbach.groupfile import group_to_document


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
