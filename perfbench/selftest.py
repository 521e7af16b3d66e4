"""Self-tests of the benchmark.

    python3 -m pytest -p no:cacheprovider perfbench/selftest.py

The file name keeps these out of the repository's default test run: the
smoke runs take about two minutes.  Scratch files go under the checkout's
`.perfbench_work/`, like the benchmark's own.
"""

from __future__ import annotations

import contextlib
import copy
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import hostclock  # noqa: E402
import run  # noqa: E402

run.import_program(ROOT)
from bieberbach.cli import main  # noqa: E402

import traced  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def workdir():
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base))
    yield path
    shutil.rmtree(path)
    with contextlib.suppress(OSError):
        base.rmdir()


def written(workload: str, seed: int, directory: Path) -> dict[str, bytes]:
    paths = corpus.write(corpus.generate(workload, seed), directory)
    return {p.name: p.read_bytes() for p in paths}


def test_corpus_is_a_function_of_the_seed(workdir):
    for workload in run.WORKLOADS:
        first = written(workload, 7, workdir / f"{workload}-a")
        again = written(workload, 7, workdir / f"{workload}-b")
        other = written(workload, 8, workdir / f"{workload}-c")
        assert first == again
        assert first != other


def test_corpus_generator_does_not_import_the_program():
    source = (HERE / "corpus.py").read_text(encoding="utf-8")
    assert "bieberbach" not in re.sub(r'""".*?"""', "", source, flags=re.S)


def test_metric_names_and_units():
    name = re.compile(r"[A-Za-z0-9_.-]+")
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert list(per_layer) == list(traced.LAYER_METRICS) + ["trace.overhead_frac"]
    assert per_layer == {n: run.layer_unit(n) for n in per_layer}
    for metric in list(end_to_end) + list(per_layer):
        assert name.fullmatch(metric), metric
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def cli_json(argv) -> dict:
    _, texts, problems = run.run_cli(main, [argv])
    assert not problems
    return json.loads(texts[0])


def item_named(workload: str, prefix: str) -> corpus.Item:
    return next(i for i in run.build_corpus(workload, 3) if i.name.startswith(prefix))


def test_check_rejects_corrupted_analyze_output(workdir):
    for prefix in ("hw", "klein_bottle", "diagonal-d5", "torsion-d3"):
        item = item_named("analyze", prefix)
        path = corpus.write([item], workdir)[0]
        good = cli_json(["analyze", str(path), "--format", "json"])
        assert run.verify("analyze", [json.dumps(good)], item) == []

        def bad(edit):
            out = copy.deepcopy(good)
            edit(out)
            return run.verify("analyze", [json.dumps(out)], item)

        assert bad(lambda o: o["h1"].update(torsion=o["h1"]["torsion"][::-1] + [3]))
        assert bad(lambda o: o["center"].update(rank=o["center"]["rank"] + 1))
        assert bad(lambda o: o["holonomy"].update(order=o["holonomy"]["order"] * 2))
        assert bad(lambda o: o.update(torsion_free=not o["torsion_free"]))
        assert bad(lambda o: o.pop("fixed_torus"))
    hw = item_named("analyze", "hw")
    path = corpus.write([hw], workdir)[0]
    good = cli_json(["analyze", str(path), "--format", "json"])
    swapped = copy.deepcopy(good)
    swapped["h1"]["torsion"] = [2, 8]  # same order as the true Z/4 + Z/4
    swapped["h1"]["order"] = swapped["characters"] = 16
    assert run.verify("analyze", [json.dumps(swapped)], hw)


def test_check_rejects_corrupted_lattice_output(workdir):
    item = item_named("lattice", "lattice-d3")
    path = corpus.write([item], workdir)[0]
    texts = [
        json.dumps(cli_json(argv)) for argv in run.cli_argvs("lattice", item, path)
    ]
    assert run.verify("lattice", texts, item) == []
    orbit = json.loads(texts[1])
    orbit["orbit_size"] += 1
    assert run.verify("lattice", [texts[0], json.dumps(orbit)], item)
    torus = json.loads(texts[0])
    torus["rank"] += 1
    assert run.verify("lattice", [json.dumps(torus), texts[1]], item)


def test_check_rejects_corrupted_certificate(workdir):
    items = run.build_corpus("connective", 3)
    seen = set()
    for item in items:
        path = corpus.write([item], workdir)[0]
        good = cli_json(["connective", str(path), "--certificate", "--format", "json"])
        assert run.verify("connective", [json.dumps(good)], item) == []
        seen.add(good["connective"])
        flipped = copy.deepcopy(good)
        flipped["connective"] = flipped["certificate"]["connective"] = not good["connective"]
        assert run.verify("connective", [json.dumps(flipped)], item)
        if good["certificate"]["chain"]:
            short = copy.deepcopy(good)
            short["certificate"]["chain"].pop()
            assert run.verify("connective", [json.dumps(short)], item)
    assert seen == {True, False}


def test_reference_clock_scales_by_the_nearest_samples():
    with hostclock.HostClock() as clock:
        clock.sample()
    assert clock._child.poll() == 0  # the child process has ended
    clock.samples = [1.0, 2.0, 3.0, 4.0]
    clock.stamps = [0.0, 1.0, 2.0, 3.0]
    assert clock.scale_at(1.5) == hostclock.REFERENCE_S / 2.5
    assert clock.scale_at(-1.0) == hostclock.REFERENCE_S / 1.5
    assert clock.scale_at(9.0) == hostclock.REFERENCE_S / 3.5


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_smoke_run_emits_every_metric():
    for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
        for workload in run.WORKLOADS:
            done = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.1",
                             "--trace", str(trace))
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in BENCHMARK[listed]}
            assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert not (ROOT / ".perfbench_work").exists()


def test_fails_without_the_program(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(HERE, workdir / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(workdir, "--workload", "analyze", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
