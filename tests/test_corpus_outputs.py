"""Byte-exact CLI output on the benchmark's seed-1 corpora.

The catalog digests in `golden_outputs.json` cover 11 groups.  These
cover the groups the benchmark runs: every seed-1 group document of the
`connective`, `analyze` and `lattice` workloads, drawn read-only by
`perfbench/corpus.py`, goes through the benchmark's own commands (and
the text forms of the two `lattice` commands), and one SHA-256 over all
of a command's outputs (the group name, exit code, stdout and stderr of
each run, in corpus order) must match the digest pinned below.  A change that is meant to keep behaviour must keep them.

To print the digests of the current code:

    PYTHONPATH=src python tests/test_corpus_outputs.py
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from bieberbach.cli import main
from oracles import corpus_items


DIGESTS = {
    "connective --certificate --format json": (
        "connective",
        "8fd25369f1b89369b19fbe0cded9ccc23a9df081ba4eb6d9bfe3706a371d07a4",
    ),
    "analyze --format json": (
        "analyze",
        "049bbb82d583155ce190c540b7f31924e37c087974812d9a45952946438beaf7",
    ),
    "fixed-torus --format json": (
        "lattice",
        "029f15a3104fa485491ebcecb63686d1c741460e71272688ead07c62e821feba",
    ),
    "orbits --char --format json": (
        "lattice",
        "d6faf3c65ee585f43d2952088b1a152c1728888f12a009fdee794118cb3e1474",
    ),
    "fixed-torus": (
        "lattice",
        "07b4d8b2bf4f4a21c2fe3ae6276caeea7637a9c1e1b12dbd35dd2750e3542db1",
    ),
    "orbits --char": (
        "lattice",
        "b60adb90dc0d61df0472c296ebe1e3c2a03def320c37a0fe106cbf4329f49235",
    ),
}


def argv_for(command, item, path):
    words = command.split()
    argv = [words[0], str(path), *words[1:]]
    if words[0] == "orbits":
        argv.insert(argv.index("--char") + 1, item.expect["char"])
    return argv


def corpus_digest(command, workload, workdir):
    sha = hashlib.sha256()
    for item in corpus_items(workload):
        path = Path(workdir) / f"{item.name}.json"
        path.write_text(json.dumps(item.doc, indent=2) + "\n", encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv_for(command, item, path))
        sha.update(f"{item.name}\0exit {code}\n{out.getvalue()}\0{err.getvalue()}\0".encode("utf-8"))
    return sha.hexdigest()


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_seed1_corpus_outputs_match_pinned_digests(command, tmp_path):
    workload, digest = DIGESTS[command]
    assert corpus_digest(command, workload, tmp_path) == digest


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for command, (workload, _) in DIGESTS.items():
            print(f"{command}: {corpus_digest(command, workload, tmp)}")
