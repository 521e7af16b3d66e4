"""The scale probe's finite-group stages run on the library as it is.

`perfbench/probe.py`'s `run_stage` imports `all_subgroups`,
`finite_group_from_holonomy` and `is_primitive` inside the function, so
only a call shows that those names and call shapes still fit.  This test
runs the order-48 stages in process, so a renamed or reshaped public name
breaks the test suite rather than the probe.
"""

import importlib
from pathlib import Path

import pytest


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize(
    "stage",
    [
        "is_primitive signed permutations (order 48)",
        "all_subgroups signed permutations (order 48)",
    ],
)
def test_probe_stage_runs(monkeypatch, stage):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # undone with the entry `run_stage` adds
    probe = importlib.import_module("probe")
    row = probe.run_stage(PERFBENCH.parent, stage)
    assert row["order"] == 48 and row["seconds"] >= 0
