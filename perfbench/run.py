"""Benchmark of the `bieberbach` CLI, end to end and per layer.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 38

Run from the repository root; the program is imported from `src/`.
Each workload is a closed loop with one client: a single process, no
threads, one op after another, where an op is one or more documented CLI
commands on one group file, run in-process through `bieberbach.cli.main`
with stdout captured.  Every op's exit code and output are checked.

`--trace 0` reports the end-to-end metrics; `--trace 1` runs each op
twice, untraced and then through the traced replicas in `traced.py`, and
reports the per-layer metrics per traced pass.  Times
are in reference seconds (see hostclock.py).  The last line of standard
output is the result as one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import asdict
from pathlib import Path

import corpus
from check import check_analyze, check_connective, check_lattice, doc_fixed_rank
from hostclock import REFERENCE_S, HostClock

WORKLOADS = ("analyze", "lattice", "connective")
SETUP_REPEATS = 7
# Every time is reported in reference seconds (see hostclock.py).
END_TO_END_UNITS = {
    "op_s.p50": "s",
    "op_s.p90": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def import_program(root: Path) -> None:
    """Import `bieberbach` from `root/src`, and from nowhere else."""
    package = root / "src" / "bieberbach"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {package} not found; run from the repository root")
    sys.path.insert(0, str(root / "src"))
    import bieberbach

    if Path(bieberbach.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported bieberbach from {bieberbach.__file__}")


def build_corpus(workload: str, seed: int) -> list[corpus.Item]:
    """The workload's items; `analyze` adds the catalog groups, whose
    expected invariants come from the catalog itself."""
    items = corpus.generate(workload, seed)
    if workload != "analyze":
        return items
    from bieberbach.catalog import catalog_get, catalog_list
    from bieberbach.groupfile import group_to_document

    catalog = []
    for key in catalog_list():
        entry = catalog_get(key)
        doc = group_to_document(entry.group)
        expect = {
            "family": "catalog",
            "order": entry.expected.holonomy_order,
            "fixed_rank": doc_fixed_rank(doc),
            "torsion_free": True,
            "catalog": asdict(entry.expected),
        }
        catalog.append(corpus.Item(doc, expect))
    rng = random.Random(f"catalog:{seed}")
    return [corpus.rewrite(rng, item) for item in catalog] + items


def cli_argvs(workload: str, item: corpus.Item, path: Path) -> list[list[str]]:
    p = str(path)
    if workload == "analyze":
        return [["analyze", p, "--format", "json"]]
    if workload == "connective":
        return [["connective", p, "--certificate", "--format", "json"]]
    return [
        ["fixed-torus", p, "--format", "json"],
        ["orbits", p, "--char", item.expect["char"], "--format", "json"],
    ]


def verify(workload: str, texts: list[str], item: corpus.Item) -> list[str]:
    try:
        outs = [json.loads(t) for t in texts]
        if workload == "analyze":
            return check_analyze(outs[0], item)
        if workload == "connective":
            return check_connective(outs[0], item)
        return check_lattice(outs, item)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"malformed output: {exc!r}"]


def run_cli(main, argvs) -> tuple[float, list[str], list[str]]:
    """One untraced op: (seconds, captured stdout per command, problems)."""
    texts, problems = [], []
    start = time.perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaping exception is a traceback to the user
            code = f"traceback ({type(exc).__name__}: {exc})"
        texts.append(out.getvalue())
        if code != 0:
            problems.append(f"{argv[0]} exited with {code}: {err.getvalue().strip()[:200]}")
    return time.perf_counter() - start, texts, problems


def run_traced(tracer, argvs) -> tuple[float, list[str], list[str]]:
    """One traced op: (seconds, rendered outputs, problems); the probes
    run after the op span closes."""
    import traced

    op = traced.Op()
    start = time.perf_counter()
    try:
        with tracer.span("op"):
            texts = [traced.run_command(tracer, op, argv) for argv in argvs]
        elapsed = time.perf_counter() - start
        with tracer.span("probe"):
            traced.probe(tracer, op)
    except Exception as exc:  # recorded as a failed op, like a CLI traceback
        return time.perf_counter() - start, [], [f"traced op raised {type(exc).__name__}: {exc}"]
    return elapsed, texts, []


def passes(n_items: int, seconds: float, seed: int, run_op, fill: bool) -> int:
    """Call run_op(i) for every group i once per pass, in an order shuffled
    by the seed, while the next whole pass is predicted to end within
    `seconds`; there is always at least one.  With `fill`, the time left
    then goes to a last partial pass that skips each op predicted to end
    past `seconds`.  A group's op time is its median over its ops, so a
    group run once more weighs no more.  Returns the number of whole
    passes."""
    rng = random.Random(seed)
    start = time.perf_counter()
    last = {}  # group -> wall time of its last op
    count = 0
    while True:
        order = list(range(n_items))
        rng.shuffle(order)
        whole = count == 0 or time.perf_counter() - start + sum(last.values()) <= seconds
        if not (whole or fill):
            return count
        for i in order:
            if whole or time.perf_counter() - start + last[i] <= seconds:
                t0 = time.perf_counter()
                run_op(i)
                last[i] = time.perf_counter() - t0
        if not whole:
            return count
        count += 1


def p90(values) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def timed_setups(args, root: Path) -> float:
    """Median wall time of fresh processes that import the program,
    generate the corpus and write its files (process start to first op),
    in reference seconds.  The reference is sampled around every process,
    so the scale is that of the set-up phase."""
    out = []
    with HostClock() as clock:
        for k in range(SETUP_REPEATS):
            for _ in range(3):
                clock.sample()
            target = root / ".perfbench_work" / f"setup-{args.workload}-{args.seed}-{k}"
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", args.workload, "--seed", str(args.seed), "--setup-only", str(target),
            ]
            start = time.perf_counter()
            done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=120)
            out.append(time.perf_counter() - start)
            shutil.rmtree(target, ignore_errors=True)
            if done.returncode != 0:
                raise SystemExit(f"perfbench: set-up failed:\n{done.stderr}")
        return statistics.median(out) * clock.scale()


def pin_to_one_cpu() -> None:
    """Run the ops, the set-up processes and the reference clock on one
    CPU, so the reference measures the speed of the CPU the ops run on:
    on a shared host two CPUs can differ in speed at the same moment."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_workload(args, root: Path) -> dict:
    pin_to_one_cpu()
    setup_s = None if args.trace else timed_setups(args, root)
    import_program(root)
    from bieberbach.cli import main

    items = build_corpus(args.workload, args.seed)
    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}"
    try:
        paths = corpus.write(items, workdir)
        gc.collect()
        gc.freeze()  # long-lived set-up objects stay out of the ops' collections
        with HostClock() as clock:
            if args.trace:
                result = measure_traced(args, main, items, paths, clock)
            else:
                result = measure(args, main, items, paths, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    if not args.trace:
        metrics = result["metrics"]
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return result


def report_failures(failures) -> None:
    for name, problems in failures[:10]:
        print(f"FAILED {name}: {'; '.join(problems)}")


def group_medians(times, clock: HostClock) -> list[float]:
    """Each group's median op time in reference seconds, from its ops'
    (start, seconds); every op is scaled by the reference samples taken
    nearest to it, before and after."""
    return [
        statistics.median(seconds * clock.scale_at(start + seconds / 2) for start, seconds in v)
        for v in times.values()
    ]


def measure(args, main, items, paths, clock: HostClock) -> dict:
    times = defaultdict(list)  # item index -> (start, seconds) of its op in each pass
    attempted = 0
    failures = []

    def run_op(i):
        nonlocal attempted
        gc.collect()
        clock.tick()
        start = time.perf_counter()
        seconds, texts, problems = run_cli(main, cli_argvs(args.workload, items[i], paths[i]))
        problems = problems or verify(args.workload, texts, items[i])
        attempted += 1
        times[i].append((start, seconds))
        if problems:
            failures.append((items[i].name, problems))

    n_passes = passes(len(items), args.seconds, args.seed, run_op, fill=True)
    op_s = group_medians(times, clock)
    scale = clock.scale()
    ok_frac = 1 - len(failures) / attempted
    report_failures(failures)
    print(
        f"{args.workload} seed {args.seed}: {attempted} ops ({n_passes} whole passes x "
        f"{len(items)} groups, then {attempted - n_passes * len(items)} more), "
        f"{len(failures)} failed; reference sample median "
        f"{REFERENCE_S / scale * 1000:.3f} ms over {len(clock.samples)} samples "
        f"(scale factor {scale:.4f})"
    )
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            "op_s.p50": statistics.median(op_s),
            "op_s.p90": p90(op_s),
            "ops_per_s": ok_frac * len(op_s) / sum(op_s),
            "ok_frac": ok_frac,
        },
    }


def measure_traced(args, main, items, paths, clock: HostClock) -> dict:
    import traced

    tracer = traced.Tracer()
    times = (defaultdict(list), defaultdict(list))  # untraced, traced: index -> (start, seconds)
    records = []  # one per traced op, with its slice of tracer.spans
    failures = []

    def run(i, traced_run: bool):
        gc.collect()
        argvs = cli_argvs(args.workload, items[i], paths[i])
        start = time.perf_counter()
        if traced_run:
            first = len(tracer.spans)
            seconds, texts, problems = run_traced(tracer, argvs)
            records.append(
                {
                    "dim": items[i].doc["dimension"],
                    "order": items[i].expect["order"],
                    "traced_s": seconds,
                    "spans": [first, len(tracer.spans)],
                }
            )
        else:
            seconds, texts, problems = run_cli(main, argvs)
        times[traced_run][i].append((start, seconds))
        problems = problems or verify(args.workload, texts, items[i])
        if problems:
            failures.append((items[i].name + (" (traced)" if traced_run else ""), problems))

    def run_op(i):
        for traced_run in (False, True):
            clock.tick()
            run(i, traced_run)

    n_passes = passes(len(items), args.seconds, args.seed, run_op, fill=False)
    scale = clock.scale()
    metrics = {}
    for name in traced.LAYER_METRICS:
        value = tracer.counters.get(name, 0.0)
        if not name.endswith(".max"):
            value /= n_passes
        metrics[name] = value * scale if name.endswith(".s") else value
    untraced_p50, traced_p50 = (statistics.median(group_medians(t, clock)) for t in times)
    metrics["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1
    report_failures(failures)
    print_by_order(tracer, records, scale)
    attempted = 2 * len(records)
    print(
        f"{args.workload} seed {args.seed}: {n_passes} passes x {len(items)} groups, "
        f"each untraced then traced; {attempted} ops, {len(failures)} failed; "
        "per-layer values are per traced pass"
    )
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()},
    }


def layer_unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith("U_bits.max"):
        return "bits"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def print_by_order(tracer, records, scale: float) -> None:
    """Traced op time by holonomy order and dimension, split by the layer
    (module) of each span directly under the op span, in reference seconds."""
    layers = ("crystal", "groupfile", "invariants", "finite", "calabi", "orbits", "cli")
    by_order = defaultdict(lambda: defaultdict(float))
    counts = defaultdict(int)
    for rec in records:
        first, last = rec["spans"]
        spans = tracer.spans[first:last]
        op_id = next(sid for sid, name, *_ in spans if name == "op")
        key = rec["order"], rec["dim"]
        row = by_order[key]
        counts[key] += 1
        row["op"] += rec["traced_s"]
        for _, name, start, end, parent in spans:
            if parent == op_id:
                row[name.split(".")[0]] += end - start
    print("holonomy order, dimension, ops, mean traced op s, then mean s per op in " + ", ".join(layers))
    for key in sorted(by_order):
        row, n = by_order[key], counts[key]
        cells = " ".join(f"{row[layer] * scale / n:.4f}" for layer in layers)
        print(f"  {key[0]:4d} {key[1]:3d} {n:5d} {row['op'] * scale / n:.4f}  {cells}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_all(args, root: Path) -> dict:
    """Each workload in a fresh process, so peak RSS is its own."""
    results = {}
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: {workload} failed:\n{done.stderr}")
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    for workload, result in results.items():
        for name, metric in result["metrics"].items():
            print(f"{workload:10s} {name:40s} {metric['value']:14.6g} {metric['unit']}")
    return results


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if args.setup_only:
        import_program(root)
        corpus.write(build_corpus(args.workload, args.seed), Path(args.setup_only))
        return 0
    if args.workload == "all":
        result = run_all(args, root)
    else:
        result = run_workload(args, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
