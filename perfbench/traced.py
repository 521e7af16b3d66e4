"""Traced replicas of the benchmark's CLI ops.

Each replica runs the same public `bieberbach` functions, in the same
order, as the CLI command it stands for, one stage at a time, and
records a span around every call.  A call's span includes the calls it
makes internally: `calabi.calabi_kernel` includes the kernel's
`build_group`, and `calabi.surjection_to_Z` includes the stage's H1.

Some layers are only reachable inside another public function.  Those
are timed by probe calls made after the op, outside its span, once per
distinct input: `relation_matrix` and `smith_normal_form` for every
group whose H1 the op computed, `all_subgroups` on the holonomy group,
and `group_to_document` on every group the op serialized.

Only the benchmark's own code is instrumented; nothing in the program
is patched.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction

from bieberbach.calabi import (
    ConnectivityReport,
    NotTorsionFree,
    PolyZSeries,
    calabi_kernel,
    connectivity_document,
    surjection_to_Z,
)
from bieberbach.cli import AnalysisReport, build_parser, connectivity_text
from bieberbach.crystal import AffineGen, build_group, torsion_witness
from bieberbach.finite import (
    all_subgroups,
    finite_group_from_holonomy,
    in_coprime_class,
    is_primitive,
    structure_name,
)
from bieberbach.groupfile import format_rational, group_to_document, parse_rational
from bieberbach.invariants import (
    abelianization,
    character_count,
    fixed_lattice,
    fixed_torus,
    relation_matrix,
)
from bieberbach.linalg import smith_normal_form
from bieberbach.orbits import orbit_data

# per-layer metrics, in the order they are reported
LAYER_METRICS = (
    "crystal.build_group.s",
    "crystal.build_group.calls",
    "crystal.holonomy_order.sum",
    "crystal.holonomy_order.max",
    "crystal.torsion_witness.s",
    "groupfile.parse.s",
    "groupfile.group_to_document.s",
    "invariants.relation_matrix.s",
    "invariants.relation_matrix.cols.sum",
    "invariants.abelianization.s",
    "invariants.character_count.s",
    "invariants.fixed_lattice.s",
    "invariants.fixed_torus.s",
    "invariants.fixed_torus.points.sum",
    "linalg.smith_normal_form.s",
    "linalg.smith_normal_form.U_bits.max",
    "finite.finite_group_from_holonomy.s",
    "finite.structure_name.s",
    "finite.is_primitive.s",
    "finite.in_coprime_class.s",
    "finite.all_subgroups.s",
    "finite.subgroups.sum",
    "calabi.surjection_to_Z.s",
    "calabi.calabi_kernel.s",
    "calabi.connectivity_document.s",
    "calabi.stages.sum",
    "calabi.vasquez_steps.sum",
    "calabi.kernel_holonomy_order.sum",
    "orbits.orbit_data.s",
    "orbits.orbit_size.sum",
    "cli.parse.s",
    "cli.render.s",
)


class Tracer:
    """Spans (id, name, start, end, parent) and counters, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent))
            self.counters[name + ".s"] += end - start

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def add(self, key: str, value) -> None:
        self.counters[key] += value

    def peak(self, key: str, value) -> None:
        self.counters[key] = max(self.counters[key], value)


class Op:
    """What one traced op leaves for the probes, each group once: the
    groups whose H1 it computed, the groups it serialized and its
    holonomy groups."""

    def __init__(self):
        self.h1_groups = {}
        self.serialized = {}
        self.holonomy = []

    @staticmethod
    def note(groups: dict, group) -> None:
        groups.setdefault(id(group), group)


def load(t: Tracer, path):
    """`load_group` in two spans: parsing into generators, then closure."""
    with t.span("groupfile.parse"):
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        gens = [
            AffineGen.of(g["matrix"], tuple(parse_rational(x) for x in g["translation"]))
            for g in doc["generators"]
        ]
    group = t.call("crystal.build_group", build_group, doc["dimension"], gens, doc.get("name", ""))
    t.add("crystal.build_group.calls", 1)
    t.add("crystal.holonomy_order.sum", group.holonomy_order)
    t.peak("crystal.holonomy_order.max", group.holonomy_order)
    return group


def connectivity(t: Tracer, op: Op, group) -> ConnectivityReport:
    """`is_connective`, with `decompose` unrolled into its stages."""
    if t.call("crystal.torsion_witness", torsion_witness, group) is not None:
        raise NotTorsionFree(f"group {group.name!r} has torsion")
    chain = []
    stage = group
    core = None
    while stage.dim > 0:
        op.note(op.h1_groups, stage)
        surj = t.call("calabi.surjection_to_Z", surjection_to_Z, stage)
        if surj is None:
            core = stage
            break
        step = t.call("calabi.calabi_kernel", calabi_kernel, stage, surj)
        t.add("calabi.stages.sum", 1)
        t.add("calabi.vasquez_steps.sum", int(step.vasquez_applied))
        t.add("calabi.kernel_holonomy_order.sum", step.kernel_group.holonomy_order)
        chain.append(step)
        stage = step.kernel_group
    chain = tuple(chain)
    if core is None:
        return ConnectivityReport(True, PolyZSeries(steps=chain), None, chain)
    return ConnectivityReport(False, None, core, chain)


def render(t: Tracer, doc, text_fn=None) -> str:
    """`_emit` for --format json.  Like the CLI, the analyze and
    connective commands also build the text form, which is discarded."""
    with t.span("cli.render"):
        if text_fn is not None:
            text_fn()
        return json.dumps(doc, indent=2, sort_keys=False)


def analyze(t: Tracer, op: Op, args) -> str:
    """`cmd_analyze`: `AnalysisReport.compute`'s stages, then rendering."""
    group = load(t, args.file)
    torsion_free = t.call("crystal.torsion_witness", torsion_witness, group) is None
    op.note(op.h1_groups, group)
    ab = t.call("invariants.abelianization", abelianization, group)
    fl = t.call("invariants.fixed_lattice", fixed_lattice, group)
    ft = t.call("invariants.fixed_torus", fixed_torus, group)
    t.add("invariants.fixed_torus.points.sum", len(ft.points or ()))
    if not (ab.rank == fl.rank == ft.rank):
        raise AssertionError(f"rank chain broken: H1 {ab.rank}, center {fl.rank}, torus {ft.rank}")
    d = t.call("finite.finite_group_from_holonomy", finite_group_from_holonomy, group)
    op.holonomy.append(d)
    report = connectivity(t, op, group) if torsion_free else None
    characters = t.call("invariants.character_count", character_count, group)
    holonomy_id = t.call("finite.structure_name", structure_name, d)
    primitive = t.call("finite.is_primitive", is_primitive, d)
    coprime = t.call("finite.in_coprime_class", in_coprime_class, d)
    result = AnalysisReport(
        group=group,
        torsion_free=torsion_free,
        h1_rank=ab.rank,
        h1_torsion=ab.torsion,
        center_rank=fl.rank,
        center_basis=fl.basis,
        torus_rank=ft.rank,
        torus_components=ft.component_orders,
        torus_points=ft.points,
        characters=characters,
        holonomy_order=d.order,
        holonomy_id=holonomy_id,
        holonomy_primitive=primitive,
        coprime_class=coprime,
        connectivity=report,
    )
    if report is not None and report.core is not None:
        op.note(op.serialized, report.core)
    with t.span("cli.render"):
        doc = result.to_document()
        result.to_text()
        return json.dumps(doc, indent=2, sort_keys=False)


def connective(t: Tracer, op: Op, args) -> str:
    """`cmd_connective` with --certificate."""
    report = connectivity(t, op, load(t, args.file))
    doc = {"connective": report.connective}
    doc["certificate"] = t.call("calabi.connectivity_document", connectivity_document, report)
    for step in report.chain:
        op.note(op.serialized, step.kernel_group)
    if report.core is not None:
        op.note(op.serialized, report.core)
    return render(t, doc, lambda: connectivity_text(report))


def _rats(vec) -> list[str]:
    return [format_rational(x) for x in vec]


def fixed_torus_cmd(t: Tracer, op: Op, args) -> str:
    ft = t.call("invariants.fixed_torus", fixed_torus, load(t, args.file))
    t.add("invariants.fixed_torus.points.sum", len(ft.points or ()))
    doc = {
        "rank": ft.rank,
        "component_orders": list(ft.component_orders),
        "tangent_basis": [_rats(v) for v in ft.tangent_basis],
        "points": None if ft.points is None else [_rats(p) for p in ft.points],
    }
    return render(t, doc)


def orbits(t: Tracer, op: Op, args) -> str:
    group = load(t, args.file)
    chi = tuple(Fraction(part.strip()) for part in args.char.split(","))
    record = t.call("orbits.orbit_data", orbit_data, chi, group)
    t.add("orbits.orbit_size.sum", record.index)
    doc = {
        "character": _rats(record.character),
        "orbit": [_rats(p) for p in record.orbit],
        "orbit_size": record.index,
        "stabilizer_elements": list(record.stabilizer),
        "stabilizer_order": len(record.stabilizer),
    }
    return render(t, doc)


COMMANDS = {
    "analyze": analyze,
    "connective": connective,
    "fixed-torus": fixed_torus_cmd,
    "orbits": orbits,
}


def run_command(t: Tracer, op: Op, argv) -> str:
    """One CLI command: argument parsing as `main` does it, then the
    command's replica.  Returns the JSON the command would print."""
    with t.span("cli.parse"):
        args = build_parser().parse_args(argv)
    if args.format != "json" or (args.command == "connective" and not args.certificate):
        raise ValueError(f"no traced replica for {argv}")
    return COMMANDS[args.command](t, op, args)


def probe(t: Tracer, op: Op) -> None:
    """Separate calls timing what the op ran nested inside other calls."""
    for group in op.h1_groups.values():
        rel = t.call("invariants.relation_matrix", relation_matrix, group)
        t.add("invariants.relation_matrix.cols.sum", rel.cols)
        snf = t.call("linalg.smith_normal_form", smith_normal_form, rel)
        bits = max((abs(x).bit_length() for row in snf.U for x in row), default=0)
        t.peak("linalg.smith_normal_form.U_bits.max", bits)
    for d in op.holonomy:
        t.add("finite.subgroups.sum", len(t.call("finite.all_subgroups", all_subgroups, d)))
    for group in op.serialized.values():
        t.call("groupfile.group_to_document", group_to_document, group)
