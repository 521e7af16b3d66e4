"""Byte-exact CLI output on the catalog, pinned by SHA-256 digests.

Every catalog group is exported to a group file and run through the
commands below in both output formats; the digest of each run's exit
code, stdout and stderr must match `golden_outputs.json`.  A change
that is meant to keep behaviour (a refactor, a faster algorithm) must
keep every digest.

To rewrite the digests after an intended change of output:

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from bieberbach.catalog import catalog_list
from bieberbach.cli import main


DIGESTS = Path(__file__).with_name("golden_outputs.json")

COMMANDS = (
    ("catalog", "export"),
    ("catalog", "show"),
    ("connective", "--certificate"),
    ("decompose",),
    ("holonomy", "--primitivity", "--coprime-class"),
    ("analyze",),
    ("h1",),
    ("center",),
    ("fixed-torus",),
)
FORMATS = ("text", "json")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def catalog_digests(key, workdir):
    """Digest of every command x format run on one catalog group."""
    code, exported, _ = run_cli(["catalog", "export", key])
    assert code == 0
    path = Path(workdir) / f"{key}.json"
    path.write_text(exported, encoding="utf-8")
    digests = {}
    for command in COMMANDS:
        for fmt in FORMATS:
            if command[0] == "catalog":
                argv = [*command, key]
            else:
                argv = [command[0], str(path), *command[1:]]
            code, out, err = run_cli(argv + ["--format", fmt])
            blob = f"exit {code}\n{out}\0{err}".encode("utf-8")
            digests[" ".join([*command, "--format", fmt])] = hashlib.sha256(blob).hexdigest()
    return digests


def test_golden_file_covers_the_catalog():
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(catalog_list())
    assert sum(len(v) for v in golden.values()) == len(golden) * len(COMMANDS) * len(FORMATS)


@pytest.mark.parametrize("key", catalog_list())
def test_catalog_outputs_match_golden_digests(key, tmp_path):
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))[key]
    assert catalog_digests(key, tmp_path) == golden


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {key: catalog_digests(key, tmp) for key in catalog_list()}
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(len(v) for v in table.values())} digests to {DIGESTS}", file=sys.stderr)
