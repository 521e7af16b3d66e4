"""Command line front end.

Subcommands parse a group file (or a catalog entry), run the requested
analysis and render the result as text or JSON.  Verdicts are data, not
failures: the exit code is 0 for any successfully computed analysis and
2 for input or validation errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .calabi import (
    ConnectivityReport,
    NotTorsionFree,
    connectivity_document,
    is_connective,
)
from .catalog import UnknownKey, catalog_get, catalog_list
from .crystal import CrystalError, CrystalGroup, is_torsion_free
from .finite import (
    CoprimeTree,
    OrderBudgetExceeded,
    finite_group_from_holonomy,
    in_coprime_class,
    is_primitive,
    structure_name,
)
from .groupfile import (
    GroupFileError,
    format_rational,
    group_to_document,
    load_group,
)
from .invariants import (
    abelianization,
    character_count,
    fixed_lattice,
    fixed_torus,
)
from .orbits import orbit_data


def format_abelian(rank: int, torsion) -> str:
    parts = []
    if rank == 1:
        parts.append("Z")
    elif rank > 1:
        parts.append(f"Z^{rank}")
    parts.extend(f"Z/{d}" for d in torsion)
    return " + ".join(parts) if parts else "0"


def _rat_list(vec) -> list[str]:
    return [format_rational(x) for x in vec]


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the analyzer knows about one group, aggregated."""

    group: CrystalGroup
    torsion_free: bool
    h1_rank: int
    h1_torsion: tuple[int, ...]
    center_rank: int
    center_basis: tuple[tuple[int, ...], ...]
    torus_rank: int
    torus_components: tuple[int, ...]
    torus_points: tuple[tuple[Fraction, ...], ...] | None
    characters: int | None
    holonomy_order: int
    holonomy_id: str
    holonomy_primitive: bool
    coprime_class: CoprimeTree | None
    connectivity: ConnectivityReport | None

    @classmethod
    def compute(cls, group: CrystalGroup) -> AnalysisReport:
        torsion_free = is_torsion_free(group)
        ab = abelianization(group)
        fl = fixed_lattice(group)
        ft = fixed_torus(group)
        if not (ab.rank == fl.rank == ft.rank):
            raise AssertionError(
                f"rank chain broken: H1 {ab.rank}, center {fl.rank}, torus {ft.rank}"
            )
        d = finite_group_from_holonomy(group)
        report = is_connective(group) if torsion_free else None
        return cls(
            group=group,
            torsion_free=torsion_free,
            h1_rank=ab.rank,
            h1_torsion=ab.torsion,
            center_rank=fl.rank,
            center_basis=fl.basis,
            torus_rank=ft.rank,
            torus_components=ft.component_orders,
            torus_points=ft.points,
            characters=character_count(group),
            holonomy_order=d.order,
            holonomy_id=structure_name(d),
            holonomy_primitive=is_primitive(d),
            coprime_class=in_coprime_class(d),
            connectivity=report,
        )

    def to_document(self) -> dict:
        conn: dict | None = None
        if self.connectivity is not None:
            conn = {
                "connective": self.connectivity.connective,
                "chain_length": len(self.connectivity.chain),
                "core": None
                if self.connectivity.core is None
                else group_to_document(self.connectivity.core),
            }
        return {
            "name": self.group.name,
            "dimension": self.group.dim,
            "valid": True,
            "torsion_free": self.torsion_free,
            "holonomy": {
                "order": self.holonomy_order,
                "structure": self.holonomy_id,
                "primitive": self.holonomy_primitive,
                "coprime_class": None
                if self.coprime_class is None
                else {"orders": list(self.coprime_class.orders())},
            },
            "h1": {
                "rank": self.h1_rank,
                "torsion": list(self.h1_torsion),
                "order": "infinite" if self.characters is None else self.characters,
            },
            "center": {
                "rank": self.center_rank,
                "basis": [list(v) for v in self.center_basis],
            },
            "fixed_torus": {
                "rank": self.torus_rank,
                "component_orders": list(self.torus_components),
                "points": None
                if self.torus_points is None
                else [_rat_list(p) for p in self.torus_points],
            },
            "characters": "infinite" if self.characters is None else self.characters,
            "connectivity": conn,
        }

    def to_text(self) -> str:
        lines = [
            f"group: {self.group.name or '(unnamed)'} (dim {self.group.dim})",
            f"holonomy: order {self.holonomy_order}, {self.holonomy_id}",
            "valid: yes",
            f"torsion-free: {'yes' if self.torsion_free else 'no'}",
            f"H1: {format_abelian(self.h1_rank, self.h1_torsion)}"
            f" (rank {self.h1_rank})",
            f"center rank: {self.center_rank}",
            f"fixed torus: rank {self.torus_rank}"
            + (
                f", components {' x '.join(str(d) for d in self.torus_components)}"
                if self.torus_components
                else ""
            )
            + (
                f", {len(self.torus_points)} points"
                if self.torus_points is not None
                else ""
            ),
        ]
        if self.torus_points is not None:
            for p in self.torus_points:
                lines.append(f"  point: ({', '.join(_rat_list(p))})")
        lines.append(
            "characters: "
            + ("infinite" if self.characters is None else str(self.characters))
        )
        if self.connectivity is None:
            lines.append("connective: n/a (group has torsion)")
        else:
            lines.append(connectivity_text(self.connectivity))
        lines.append(
            f"holonomy primitive: {'yes' if self.holonomy_primitive else 'no'}"
        )
        lines.append(
            "holonomy coprime class: "
            + (
                "no"
                if self.coprime_class is None
                else " -> ".join(f"Z/{m}" for m in self.coprime_class.orders())
            )
        )
        return "\n".join(lines)


def connectivity_text(report: ConnectivityReport) -> str:
    if report.connective:
        return f"CONNECTIVE; poly-Z chain of length {report.certificate.length}"
    core = report.core
    core_name = "input group" if not report.chain else (core.name or "reduction core")
    ab = abelianization(core)
    return f"NOT CONNECTIVE; core = {core_name}; H1 = {format_abelian(ab.rank, ab.torsion)}"


def _emit(payload, fmt: str, text: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=False))
    else:
        print(text)


def _load(args) -> CrystalGroup:
    return load_group(args.file)


def cmd_validate(args) -> int:
    group = _load(args)
    doc = {
        "name": group.name,
        "dimension": group.dim,
        "valid": True,
        "holonomy_order": group.holonomy_order,
    }
    _emit(
        doc,
        args.format,
        f"VALID: {group.name or '(unnamed)'} (dim {group.dim}, "
        f"holonomy order {group.holonomy_order})",
    )
    return 0


def cmd_analyze(args) -> int:
    report = AnalysisReport.compute(_load(args))
    _emit(report.to_document(), args.format, report.to_text())
    return 0


def cmd_h1(args) -> int:
    group = _load(args)
    ab = abelianization(group)
    order = ab.order()
    doc = {
        "rank": ab.rank,
        "torsion": list(ab.torsion),
        "order": "infinite" if order is None else order,
    }
    _emit(doc, args.format, f"H1 = {format_abelian(ab.rank, ab.torsion)}")
    return 0


def cmd_center(args) -> int:
    group = _load(args)
    fl = fixed_lattice(group)
    doc = {"rank": fl.rank, "basis": [list(v) for v in fl.basis]}
    text = [f"center rank: {fl.rank}"]
    text.extend(f"  basis: ({', '.join(map(str, v))})" for v in fl.basis)
    _emit(doc, args.format, "\n".join(text))
    return 0


def cmd_fixed_torus(args) -> int:
    group = _load(args)
    ft = fixed_torus(group)
    doc = {
        "rank": ft.rank,
        "component_orders": list(ft.component_orders),
        "tangent_basis": [_rat_list(v) for v in ft.tangent_basis],
        "points": None if ft.points is None else [_rat_list(p) for p in ft.points],
    }
    text = [
        f"fixed torus rank: {ft.rank}",
        "components: "
        + (" x ".join(str(d) for d in ft.component_orders) if ft.component_orders else "none"),
    ]
    if ft.points is not None:
        # additive coordinates mod 1; an entry 1/2 is the character value -1
        text.append(f"points ({len(ft.points)}):")
        text.extend(f"  ({', '.join(_rat_list(p))})" for p in ft.points)
    _emit(doc, args.format, "\n".join(text))
    return 0


def cmd_connective(args) -> int:
    group = _load(args)
    report = is_connective(group)
    doc: dict = {"connective": report.connective}
    text = connectivity_text(report)
    if args.certificate:
        doc["certificate"] = connectivity_document(report)
        if args.format != "json":
            text += "\n" + json.dumps(doc["certificate"], indent=2)
    else:
        doc["chain_length"] = len(report.chain)
        doc["core"] = None if report.core is None else group_to_document(report.core)
    _emit(doc, args.format, text)
    return 0


def cmd_decompose(args) -> int:
    group = _load(args)
    report = is_connective(group)
    doc = connectivity_document(report)
    lines = []
    dim = group.dim
    for step in report.chain:
        f = step.surjection.lattice_map
        lines.append(
            f"dim {dim} -> {dim - 1}: f = ({', '.join(map(str, f))}), "
            f"index d = {step.surjection.lattice_index}, "
            f"kernel holonomy order {step.kernel_group.holonomy_order}"
        )
        dim -= 1
    if report.core is None:
        lines.append(f"complete poly-Z chain of length {len(report.chain)}")
    else:
        ab = abelianization(report.core)
        lines.append(
            f"stalled at dim {report.core.dim}: core has finite "
            f"H1 = {format_abelian(ab.rank, ab.torsion)}"
        )
    _emit(doc, args.format, "\n".join(lines))
    return 0


def cmd_holonomy(args) -> int:
    group = _load(args)
    d = finite_group_from_holonomy(group)
    doc: dict = {"order": d.order, "structure": structure_name(d)}
    lines = [f"holonomy order {d.order}: {structure_name(d)}"]
    if args.primitivity:
        doc["primitive"] = is_primitive(d)
        lines.append(f"primitive: {'yes' if doc['primitive'] else 'no'}")
    if args.coprime_class:
        tree = in_coprime_class(d)
        doc["coprime_class"] = None if tree is None else {"orders": list(tree.orders())}
        lines.append(
            "coprime class: "
            + ("no" if tree is None else " -> ".join(f"Z/{m}" for m in tree.orders()))
        )
    _emit(doc, args.format, "\n".join(lines))
    return 0


def cmd_orbits(args) -> int:
    group = _load(args)
    try:
        chi = tuple(Fraction(part.strip()) for part in args.char.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise GroupFileError(f"bad character {args.char!r}: {exc}") from exc
    record = orbit_data(chi, group)
    doc = {
        "character": _rat_list(record.character),
        "orbit": [_rat_list(p) for p in record.orbit],
        "orbit_size": record.index,
        "stabilizer_elements": list(record.stabilizer),
        "stabilizer_order": len(record.stabilizer),
    }
    lines = [
        f"character: ({', '.join(_rat_list(record.character))})",
        f"orbit size: {record.index}",
        f"stabilizer order: {len(record.stabilizer)}"
        f" (elements {', '.join(map(str, record.stabilizer))})",
    ]
    lines.extend(f"  orbit point: ({', '.join(_rat_list(p))})" for p in record.orbit)
    _emit(doc, args.format, "\n".join(lines))
    return 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        keys = catalog_list()
        _emit(keys, args.format, "\n".join(keys))
        return 0
    if args.key is None:
        raise GroupFileError(f"catalog {args.action} needs a key")
    entry = catalog_get(args.key)
    if args.action == "export":
        print(json.dumps(group_to_document(entry.group), indent=2))
        return 0
    report = AnalysisReport.compute(entry.group)
    _emit(report.to_document(), args.format, report.to_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )

    parser = argparse.ArgumentParser(
        prog="bieberbach",
        description="Exact analysis of crystallographic/Bieberbach groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, with_file=True):
        p = sub.add_parser(name, parents=[common], help=help_text)
        if with_file:
            p.add_argument("file", help="group file (JSON)")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, "parse and validate a group file")
    add("analyze", cmd_analyze, "full analysis report")
    add("h1", cmd_h1, "first homology (abelianization)")
    add("center", cmd_center, "fixed lattice / center rank")
    add("fixed-torus", cmd_fixed_torus, "dual torus fixed subgroup")
    p = add("connective", cmd_connective, "connectivity verdict")
    p.add_argument("--certificate", action="store_true", help="emit the full certificate")
    add("decompose", cmd_decompose, "iterated peeling of Z quotients")
    p = add("holonomy", cmd_holonomy, "holonomy group facts")
    p.add_argument("--primitivity", action="store_true", help="report primitivity")
    p.add_argument("--coprime-class", action="store_true", help="report coprime class")
    p = add("orbits", cmd_orbits, "dual orbit/stabilizer of a character")
    p.add_argument("--char", required=True, help="character, e.g. 1/2,0,0")
    p = add("catalog", cmd_catalog, "built-in example groups", with_file=False)
    p.add_argument("action", choices=("list", "show", "export"))
    p.add_argument("key", nargs="?", help="catalog key for show/export")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except UnknownKey as exc:
        print(f"error: unknown catalog key {exc.args[0]!r}", file=sys.stderr)
        return 2
    except (
        GroupFileError, CrystalError, NotTorsionFree, OrderBudgetExceeded, ValueError
    ) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
