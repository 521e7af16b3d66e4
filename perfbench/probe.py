"""One-shot scale probe: each stage of the ROADMAP baseline table, once.

    python3 perfbench/probe.py

Not a workload and not repeated.  Each stage runs in its own process with
a time limit of LIMIT_S seconds, so one slow stage cannot hold up the
rest; a stage over the limit is reported as such.  Build stages time `document_to_group`
(parsing, then `build_group`); the other stages build the group first,
untimed, then time the one call.  Times are plain wall-clock seconds.
The last line of standard output is the table as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

from corpus import group_doc, identity

LIMIT_S = 300  # seconds allowed per stage

# name: (group, stage)
STAGES = {
    "build_group signed permutations (order 48, dim 3)": ("b3", "build"),
    "abelianization signed permutations (order 48)": ("b3", "abelianization"),
    "all_subgroups signed permutations (order 48)": ("b3", "all_subgroups"),
    "is_primitive signed permutations (order 48)": ("b3", "is_primitive"),
    "analyze signed permutations (order 48, CLI)": ("b3", "analyze"),
    "build_group S5 permutation matrices (order 120, dim 5)": ("s5", "build"),
    "build_group diagonal (Z/2)^7 (order 128, dim 7)": ("diag7", "build"),
}


def permutation_matrix(images) -> tuple:
    n = len(images)
    return tuple(tuple(int(images[j] == i) for j in range(n)) for i in range(n))


def probe_doc(group: str) -> dict:
    if group == "b3":
        mats = [
            permutation_matrix((1, 2, 0)),
            permutation_matrix((1, 0, 2)),
            ((-1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ]
    elif group == "s5":
        mats = [permutation_matrix((1, 0, 2, 3, 4)), permutation_matrix((1, 2, 3, 4, 0))]
    else:
        mats = [
            tuple(tuple((-1 if i == j == k else int(i == j)) for j in range(7)) for i in range(7))
            for k in range(7)
        ]
    dim = len(mats[0])
    assert all(m != identity(dim) for m in mats)
    return group_doc(group, dim, [(m, (0,) * dim) for m in mats])


def run_stage(root: Path, name: str) -> dict:
    """Child process: time one stage and return {seconds, order}."""
    from run import import_program

    import_program(root)
    from bieberbach.cli import main
    from bieberbach.finite import all_subgroups, finite_group_from_holonomy, is_primitive
    from bieberbach.groupfile import document_to_group
    from bieberbach.invariants import abelianization

    group_key, stage = STAGES[name]
    doc = probe_doc(group_key)
    if stage == "analyze":
        path = root / ".perfbench_work" / f"probe-{group_key}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["analyze", str(path), "--format", "json"])
            seconds = time.perf_counter() - start
        finally:
            path.unlink()
            with contextlib.suppress(OSError):
                path.parent.rmdir()
        if code != 0:
            raise SystemExit(f"analyze exited with {code}")
        return {"seconds": seconds}
    start = time.perf_counter()
    group = document_to_group(doc)
    if stage == "build":
        return {"seconds": time.perf_counter() - start, "order": group.holonomy_order}
    calls = {
        "abelianization": lambda: abelianization(group),
        "all_subgroups": lambda: all_subgroups(finite_group_from_holonomy(group)),
        "is_primitive": lambda: is_primitive(finite_group_from_holonomy(group)),
    }
    start = time.perf_counter()
    calls[stage]()
    return {"seconds": time.perf_counter() - start, "order": group.holonomy_order}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one-shot scale probe")
    parser.add_argument("--stage", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if args.stage:
        print(json.dumps(run_stage(root, args.stage)))
        return 0
    table = {}
    for name in STAGES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--stage", name]
        try:
            done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=LIMIT_S)
        except subprocess.TimeoutExpired:
            table[name] = {"seconds": None, "status": f"over the {LIMIT_S} s limit"}
        else:
            if done.returncode == 0:
                table[name] = {**json.loads(done.stdout.strip().splitlines()[-1]), "status": "ok"}
            else:
                tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
                table[name] = {"seconds": None, "status": f"exit {done.returncode}: {tail[0]}"}
        row = table[name]
        shown = "-" if row["seconds"] is None else f"{row['seconds']:.3f} s"
        print(f"{name:58s} {shown:>12s}  {row['status']}", flush=True)
    print(json.dumps(table))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
