"""Command line front end.

Subcommands parse a group file (or a catalog entry), run the requested
analysis and render the result as text or JSON.  Verdicts are data, not
failures: the exit code is 0 for any successfully computed analysis and
2 for input or validation errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import lcm, prod

from .calabi import (
    ConnectivityReport,
    NotTorsionFree,
    connectivity_document,
    is_connective,
)
from .catalog import UnknownKey, catalog_get, catalog_list
from .crystal import CrystalError, CrystalGroup
from .finite import in_coprime_class, is_primitive, structure_name
from .groupfile import (
    GroupFileError,
    _format_ratio,
    format_rational,
    group_to_document,
    load_group,
    parse_rational,
)
from .invariants import (
    MAX_FIXED_POINTS,
    TooManyFixedPoints,
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


def _ratio_list(shifts, q: int) -> list[str]:
    """Each integer shift over q, written as "p/q" or "n"."""
    return [_format_ratio(x, q) for x in shifts]


def _coprime_text(orders: tuple[int, ...] | None) -> str:
    return "no" if orders is None else " -> ".join(f"Z/{m}" for m in orders)


def _coprime_document(orders: tuple[int, ...] | None) -> dict | None:
    return None if orders is None else {"orders": list(orders)}


def _h1_document(rank: int, torsion, order: int | None) -> dict:
    return {"rank": rank, "torsion": list(torsion), "order": "infinite" if order is None else order}


def _verdict_document(report: ConnectivityReport) -> dict:
    return {
        "connective": report.connective,
        "chain_length": len(report.chain),
        "core": None if report.core is None else group_to_document(report.core),
    }


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
    coprime_class: tuple[int, ...] | None
    connectivity: ConnectivityReport | None

    @classmethod
    def compute(cls, group: CrystalGroup) -> AnalysisReport:
        try:
            report = is_connective(group)  # the chain is the one torsion test
        except NotTorsionFree:
            report = None
        ab = abelianization(group)
        fl = fixed_lattice(group)
        ft = fixed_torus(group)
        d = group.holonomy
        return cls(
            group=group,
            torsion_free=report is not None,
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
        return {
            "name": self.group.name,
            "dimension": self.group.dim,
            "valid": True,
            "torsion_free": self.torsion_free,
            "holonomy": {
                "order": self.holonomy_order,
                "structure": self.holonomy_id,
                "primitive": self.holonomy_primitive,
                "coprime_class": _coprime_document(self.coprime_class),
            },
            "h1": _h1_document(self.h1_rank, self.h1_torsion, self.characters),
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
            "connectivity": None
            if self.connectivity is None
            else _verdict_document(self.connectivity),
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
        lines.extend(f"  point: ({', '.join(_rat_list(p))})" for p in self.torus_points or ())
        lines.append(f"characters: {'infinite' if self.characters is None else self.characters}")
        if self.connectivity is None:
            lines.append("connective: n/a (group has torsion)")
        else:
            lines.append(connectivity_text(self.connectivity))
        lines.append(f"holonomy primitive: {'yes' if self.holonomy_primitive else 'no'}")
        lines.append(f"holonomy coprime class: {_coprime_text(self.coprime_class)}")
        return "\n".join(lines)


def connectivity_text(report: ConnectivityReport) -> str:
    if report.connective:
        return f"CONNECTIVE; poly-Z chain of length {report.certificate.length}"
    core = report.core
    core_name = "input group" if not report.chain else (core.name or "reduction core")
    ab = abelianization(core)
    return f"NOT CONNECTIVE; core = {core_name}; H1 = {format_abelian(ab.rank, ab.torsion)}"


def json_text(value) -> str:
    """The bytes of `json.dumps(value, indent=2)`, for the values the CLI
    prints: dicts with str keys, lists, str, int, bool and None.  Any other
    type raises TypeError, so it never prints anything else."""
    return _json_lines(value, "\n")


def _json_lines(value, newline: str) -> str:
    """`value` as JSON; `newline` is a line break plus the indentation of
    `value`'s own level."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = newline + "  "
    if type(value) is list:
        if not value:
            return "[]"
        if all(type(x) is int for x in value):
            items = map(int.__repr__, value)
        else:
            items = (_json_lines(x, inner) for x in value)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if type(value) is dict:
        if not value:
            return "{}"
        if not all(isinstance(key, str) for key in value):
            raise TypeError("JSON object keys must be str")
        items = (
            encode_basestring_ascii(k) + ": " + _json_lines(v, inner) for k, v in value.items()
        )
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"cannot write a {type(value).__name__} as JSON")


def _emit(payload, fmt: str, text) -> None:
    """Print the payload as JSON, or else the text form `text()` builds."""
    print(json_text(payload) if fmt == "json" else text())


def _load(args) -> CrystalGroup:
    try:
        return load_group(args.file)
    except FileNotFoundError:
        raise
    except OSError as exc:  # a directory, no permission, a read error
        raise GroupFileError(f"cannot read {args.file}: {exc.strerror}") from exc


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
        lambda: f"VALID: {group.name or '(unnamed)'} (dim {group.dim}, "
        f"holonomy order {group.holonomy_order})",
    )
    return 0


def cmd_analyze(args) -> int:
    report = AnalysisReport.compute(_load(args))
    _emit(report.to_document(), args.format, report.to_text)
    return 0


def cmd_h1(args) -> int:
    group = _load(args)
    ab = abelianization(group)
    doc = _h1_document(ab.rank, ab.torsion, ab.order())
    _emit(doc, args.format, lambda: f"H1 = {format_abelian(ab.rank, ab.torsion)}")
    return 0


def cmd_center(args) -> int:
    group = _load(args)
    fl = fixed_lattice(group)
    doc = {"rank": fl.rank, "basis": [list(v) for v in fl.basis]}

    def text() -> str:
        basis = "".join(f"\n  basis: ({', '.join(map(str, v))})" for v in fl.basis)
        return f"center rank: {fl.rank}{basis}"

    _emit(doc, args.format, text)
    return 0


def cmd_fixed_torus(args) -> int:
    group = _load(args)
    ft = fixed_torus(group)
    shifts = ft.point_shifts
    if ft.rank == 0 and shifts is None:  # too many points to list
        raise TooManyFixedPoints(
            f"the fixed torus has {prod(ft.component_orders)} points,"
            f" more than the limit {MAX_FIXED_POINTS}"
        )
    q = lcm(*ft.component_orders)
    doc = {
        "rank": ft.rank,
        "component_orders": list(ft.component_orders),
        "tangent_basis": [_ratio_list(v, 1) for v in ft.tangent_basis],
        "points": None if shifts is None else [_ratio_list(p, q) for p in shifts],
    }

    def text() -> str:
        components = " x ".join(map(str, ft.component_orders)) or "none"
        lines = [f"fixed torus rank: {ft.rank}", f"components: {components}"]
        if shifts is not None:
            # additive coordinates mod 1; an entry 1/2 is the character value -1
            lines.append(f"points ({len(shifts)}):")
            lines.extend(f"  ({', '.join(p)})" for p in doc["points"])
        return "\n".join(lines)

    _emit(doc, args.format, text)
    return 0


def cmd_connective(args) -> int:
    group = _load(args)
    report = is_connective(group)
    if args.certificate:
        doc = {"connective": report.connective, "certificate": connectivity_document(report)}
    else:
        doc = _verdict_document(report)

    def text() -> str:
        if not args.certificate:
            return connectivity_text(report)
        return connectivity_text(report) + "\n" + json_text(doc["certificate"])

    _emit(doc, args.format, text)
    return 0


def cmd_decompose(args) -> int:
    group = _load(args)
    report = is_connective(group)

    def text() -> str:
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
        return "\n".join(lines)

    # the text form reads no certificate, so it builds none
    print(json_text(connectivity_document(report)) if args.format == "json" else text())
    return 0


def cmd_holonomy(args) -> int:
    group = _load(args)
    d = group.holonomy
    doc: dict = {"order": d.order, "structure": structure_name(d)}
    if args.primitivity:
        doc["primitive"] = is_primitive(d)
    if args.coprime_class:
        orders = in_coprime_class(d)
        doc["coprime_class"] = _coprime_document(orders)

    def text() -> str:
        lines = [f"holonomy order {d.order}: {doc['structure']}"]
        if args.primitivity:
            lines.append(f"primitive: {'yes' if doc['primitive'] else 'no'}")
        if args.coprime_class:
            lines.append(f"coprime class: {_coprime_text(orders)}")
        return "\n".join(lines)

    _emit(doc, args.format, text)
    return 0


def cmd_orbits(args) -> int:
    group = _load(args)
    # a blank --char is the empty character, the one character of Z^0
    parts = args.char.split(",") if args.char.strip() else ()
    try:
        chi = tuple(parse_rational(part) for part in parts)
    except GroupFileError as exc:
        raise GroupFileError(f"bad character {args.char!r}: {exc}") from exc
    record = orbit_data(chi, group)
    q = record.denominator
    doc = {
        "character": _ratio_list(record.shift, q),
        "orbit": [_ratio_list(p, q) for p in record.orbit_shifts],
        "orbit_size": record.index,
        "stabilizer_elements": list(record.stabilizer),
        "stabilizer_order": len(record.stabilizer),
    }

    def text() -> str:
        lines = [
            f"character: ({', '.join(doc['character'])})",
            f"orbit size: {record.index}",
            f"stabilizer order: {len(record.stabilizer)}"
            f" (elements {', '.join(map(str, record.stabilizer))})",
        ]
        lines.extend(f"  orbit point: ({', '.join(p)})" for p in doc["orbit"])
        return "\n".join(lines)

    _emit(doc, args.format, text)
    return 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        keys = catalog_list()
        _emit(keys, args.format, lambda: "\n".join(keys))
        return 0
    if args.key is None:
        raise GroupFileError(f"catalog {args.action} needs a key")
    entry = catalog_get(args.key)
    if args.action == "export":
        print(json_text(group_to_document(entry.group)))
        return 0
    report = AnalysisReport.compute(entry.group)
    _emit(report.to_document(), args.format, report.to_text)
    return 0


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser and, by name, each command's parser, built once on
    first use: parsing leaves them unchanged, so every `main` call shares
    them."""
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
    commands = {}

    def add(name, func, help_text, with_file=True):
        p = commands[name] = sub.add_parser(name, parents=[common], help=help_text)
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
    return parser, commands


def build_parser() -> argparse.ArgumentParser:
    """The full parser, with every command as a subparser."""
    return _parsers()[0]


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, with one parse: a command line
    that starts with a command goes to that command's own parser.  The
    full parser runs only where it prints the help or a usage error: no
    command, an unknown one, or arguments its parser leaves over."""
    full, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return full.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except UnknownKey as exc:
        print(f"error: unknown catalog key {exc.args[0]!r}", file=sys.stderr)
        return 2
    except (GroupFileError, CrystalError, NotTorsionFree, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
