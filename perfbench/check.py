"""Output checks, one per workload.

Each check takes the JSON the program printed (parsed) and the corpus
item's expectations, and returns a list of problems; an empty list means
the output is correct.  The checks compare ranks, orders, structure
names and divisor lists only, never holonomy element indices or bases,
so a program that relabels or reorders holonomy elements still passes.
Ranks are recomputed from the generators with the corpus's own exact
arithmetic, independent of the program.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from corpus import fixed_rank


def doc_fixed_rank(doc: dict) -> int:
    """Centre rank of a group document: rank of the lattice fixed by
    every generator matrix."""
    return fixed_rank([g["matrix"] for g in doc["generators"]], doc["dimension"])


def _divisor_chain(values) -> bool:
    return all(isinstance(d, int) and d >= 2 for d in values) and all(
        b % a == 0 for a, b in zip(values, values[1:])
    )


def _structure(order: int, family: str) -> str | None:
    if family == "diagonal":
        return " + ".join(["Z/2"] * (order.bit_length() - 1))
    if family == "screw":
        return f"Z/{order}"
    return None


def check_analyze(out: dict, item) -> list[str]:
    exp = item.expect
    problems = []

    def want(label, got, expected):
        if got != expected:
            problems.append(f"{label}: got {got!r}, expected {expected!r}")

    want("dimension", out["dimension"], item.doc["dimension"])
    want("valid", out["valid"], True)
    want("holonomy order", out["holonomy"]["order"], exp["order"])
    want("torsion_free", out["torsion_free"], exp["torsion_free"])
    h1, centre, torus = out["h1"], out["center"], out["fixed_torus"]
    want("H1 rank", h1["rank"], exp["fixed_rank"])
    want("centre rank", centre["rank"], exp["fixed_rank"])
    want("torus rank", torus["rank"], exp["fixed_rank"])
    want("centre basis size", len(centre["basis"]), centre["rank"])
    if not _divisor_chain(h1["torsion"]):
        problems.append(f"H1 torsion {h1['torsion']} is not a divisor chain")
    if not _divisor_chain(torus["component_orders"]):
        problems.append(f"torus components {torus['component_orders']} are not a divisor chain")
    finite = "infinite" if h1["rank"] > 0 else prod(h1["torsion"])
    want("H1 order", h1["order"], finite)
    want("characters", out["characters"], finite)
    want(
        "torus point count",
        None if torus["points"] is None else len(torus["points"]),
        prod(torus["component_orders"]) if torus["rank"] == 0 else None,
    )
    structure = _structure(exp["order"], exp["family"])
    if structure is not None:
        want("holonomy structure", out["holonomy"]["structure"], structure)
    cat = exp.get("catalog")
    if cat is not None:
        want("catalog H1 rank", h1["rank"], cat["h1_rank"])
        want("catalog H1 torsion", h1["torsion"], list(cat["h1_torsion"]))
        want("catalog torus rank", torus["rank"], cat["torus_rank"])
        want("catalog torus components", torus["component_orders"], list(cat["torus_components"]))
        want("catalog holonomy id", out["holonomy"]["structure"], cat["holonomy_id"])
        want("catalog connective", (out["connectivity"] or {}).get("connective"), cat["connective"])

    conn = out["connectivity"]
    if (conn is None) == exp["torsion_free"]:
        problems.append(f"connectivity {conn!r} for torsion_free={exp['torsion_free']}")
    elif conn is not None:
        dim, length = out["dimension"], conn["chain_length"]
        if conn["connective"]:
            want("connective chain length", length, dim)
            want("connective core", conn["core"], None)
        elif conn["core"] is None:
            problems.append("negative verdict without a core")
        else:
            want("core dimension", conn["core"]["dimension"], dim - length)
            want("core centre rank", doc_fixed_rank(conn["core"]), 0)
        if exp["fixed_rank"] == 0:
            want("verdict with trivial centre", (conn["connective"], length), (False, 0))
    return problems


def check_lattice(outs, item) -> list[str]:
    """`outs` are the parsed outputs of fixed-torus and orbits.  The torus
    rank must equal the fixed-lattice rank, which the corpus computed."""
    torus, orbit = outs
    exp = item.expect
    problems = []

    def want(label, got, expected):
        if got != expected:
            problems.append(f"{label}: got {got!r}, expected {expected!r}")

    want("torus rank", torus["rank"], exp["fixed_rank"])
    want(
        "torus point count",
        None if torus["points"] is None else len(torus["points"]),
        prod(torus["component_orders"]) if torus["rank"] == 0 else None,
    )
    chi = tuple(Fraction(x) for x in exp["char"].split(","))
    want("character", tuple(Fraction(x) for x in orbit["character"]), tuple(x % 1 for x in chi))
    want("orbit size", orbit["orbit_size"], exp["orbit_size"])
    want("orbit list", len(orbit["orbit"]), orbit["orbit_size"])
    want("stabilizer list", len(orbit["stabilizer_elements"]), orbit["stabilizer_order"])
    want("|orbit| * |stabilizer|", orbit["orbit_size"] * orbit["stabilizer_order"], exp["order"])
    return problems


def check_connective(out: dict, item) -> list[str]:
    """The chain must peel one dimension per stage, each peeled stage must
    have a non-trivial centre, and it must end at dimension 0 (connective)
    or at a core with trivial centre (not connective)."""
    exp = item.expect
    problems = []
    cert = out["certificate"]
    if cert["connective"] != out["connective"]:
        problems.append("certificate verdict differs from the reported verdict")
    stages = [item.doc] + [step["kernel"] for step in cert["chain"]]
    for depth, stage in enumerate(stages):
        if stage["dimension"] != item.doc["dimension"] - depth:
            problems.append(f"stage {depth} has dimension {stage['dimension']}")
            return problems
    for depth, stage in enumerate(stages[:-1]):
        if doc_fixed_rank(stage) == 0:
            problems.append(f"stage {depth} was peeled but has trivial centre")
    last = stages[-1]
    if out["connective"]:
        if cert["core"] is not None or last["dimension"] != 0:
            problems.append("connective verdict without a chain to dimension 0")
    else:
        if cert["core"] != last:
            problems.append("core is not the last stage of the chain")
        if last["dimension"] == 0 or doc_fixed_rank(last) != 0:
            problems.append("negative verdict on a core with non-trivial centre")
    if exp["fixed_rank"] == 0 and (out["connective"] or cert["chain"]):
        problems.append("input has trivial centre but was peeled")
    return problems
