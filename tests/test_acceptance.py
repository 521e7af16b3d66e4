"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(run pytest with -s to see them on success).  All assertions are exact:
integer and rational arithmetic only, no tolerances anywhere.
"""

import itertools
import random
import time
from fractions import Fraction
from math import gcd

from bieberbach.calabi import is_connective
from bieberbach.catalog import catalog_get, catalog_list
from bieberbach.crystal import AffineGen, build_group, is_torsion_free
from bieberbach.finite import finite_group_from_holonomy, is_primitive
from bieberbach.invariants import (
    abelianization,
    character_count,
    fixed_lattice,
    fixed_torus,
)
from bieberbach.linalg import IntMatrix, integer_kernel, smith_normal_form
from bieberbach.orbits import orbit_data
from oracles import (
    brute_force_torsion, coprime_split_properties, cyclic_group, fraction_stabilizer_classes,
    from_columns, is_cyclic, minor_gcd_divisors, random_signed_permutation, rational_solve,
    semidirect_cyclic, smith_diagonal, subgroups
)


F = Fraction


def report(name: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {name}: {status}")
    assert not failures, f"{name}: {failures}"


# ------------------------------------------------------------------ 1

def test_hantzsche_wendt_regression():
    failures = []
    start = time.monotonic()
    g = catalog_get("hw").group

    ab = abelianization(g)
    if (ab.rank, ab.torsion) != (0, (4, 4)):
        failures.append(f"H1 = Z^{ab.rank} + {ab.torsion}, expected Z/4 + Z/4")
    if fixed_lattice(g).rank != 0:
        failures.append("fixed lattice rank != 0")
    ft = fixed_torus(g)
    if ft.rank != 0:
        failures.append("fixed torus rank != 0")
    if ft.points is None or len(ft.points) != 8:
        failures.append(f"fixed torus has {ft.points and len(ft.points)} points, expected 8")
    elif any(x not in (F(0), F(1, 2)) for p in ft.points for x in p):
        failures.append("fixed torus points outside {0, 1/2} coordinates")
    verdict = is_connective(g)
    if verdict.connective is not False:
        failures.append("verdict should be not connective")
    if verdict.core is not g:
        failures.append("core should be the input group itself")
    if character_count(g) != 16:
        failures.append(f"character count {character_count(g)} != 16")
    d = finite_group_from_holonomy(g)
    if d.order != 4 or is_cyclic(d) or not is_primitive(d):
        failures.append("holonomy should be primitive Z/2 + Z/2")

    elapsed = time.monotonic() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    report("Hantzsche-Wendt regression", failures)


# ------------------------------------------------------------------ 2

def test_catalog_sweep():
    failures = []
    start = time.monotonic()

    finite_h1_dim3 = []
    for key in catalog_list():
        entry = catalog_get(key)
        g = entry.group
        if not is_torsion_free(g):
            failures.append(f"{key}: not torsion free")
        ab = abelianization(g)
        if g.dim == 3 and ab.order() is not None:
            finite_h1_dim3.append(key)
        d = finite_group_from_holonomy(g)
        verdict = is_connective(g)
        if is_cyclic(d) and not verdict.connective:
            failures.append(f"{key}: cyclic holonomy but not connective")
        if verdict.connective != entry.expected.connective:
            failures.append(f"{key}: verdict mismatch against expected record")
    if finite_h1_dim3 != ["hw"]:
        failures.append(f"dim-3 entries with finite H1: {finite_h1_dim3}, expected only hw")

    c2c2 = is_connective(catalog_get("dim3_c2c2_connective").group)
    if not c2c2.connective or c2c2.certificate.length != 3:
        failures.append("dim3_c2c2_connective must be connective with chain length 3")

    elapsed = time.monotonic() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    report("catalog sweep", failures)


# ------------------------------------------------------------------ 3

def test_equivalence_suite():
    failures = []
    for key in catalog_list():
        g = catalog_get(key).group
        verdict = is_connective(g)
        stages = [g] + [s.kernel_group for s in verdict.chain]
        if verdict.core is not None and verdict.core is not stages[-1]:
            stages.append(verdict.core)
        center_says_connective = True
        for stage in stages:
            h1_finite = abelianization(stage).order() is not None
            lattice_trivial = fixed_lattice(stage).rank == 0
            torus = fixed_torus(stage)
            torus_finite = torus.rank == 0 and torus.points is not None
            if not (h1_finite == lattice_trivial == torus_finite):
                failures.append(
                    f"{key}/{stage.name}: predicates disagree "
                    f"({h1_finite}, {lattice_trivial}, {torus_finite})"
                )
            if stage.dim > 0 and lattice_trivial:
                center_says_connective = False
        if center_says_connective != verdict.connective:
            failures.append(
                f"{key}: per-stage center verdict {center_says_connective} "
                f"!= poly-Z verdict {verdict.connective}"
            )
    report("connectivity equivalences", failures)


# ------------------------------------------------------------------ 4

def test_rank_duality_randomized():
    failures = []
    start = time.monotonic()
    rng = random.Random(2024)
    trials = 0
    while trials < 100:
        dim = rng.randint(2, 6)
        gens = [
            AffineGen(random_signed_permutation(rng, dim), (F(0),) * dim)
            for _ in range(rng.randint(1, 2))
        ]
        try:
            g = build_group(dim, gens, closure_budget=48)
        except Exception:
            continue  # closure too large; resample
        trials += 1
        lattice_rank = fixed_lattice(g).rank
        torus_rank = fixed_torus(g).rank
        if lattice_rank != torus_rank:
            failures.append(
                f"trial {trials}: lattice rank {lattice_rank} != torus rank {torus_rank}"
            )
    elapsed = time.monotonic() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s >= 10s")
    report("rank duality (100 random representations)", failures)


# ------------------------------------------------------------------ 5

def test_coprime_split_suite():
    failures = []
    corpus = [
        ("Z/6", cyclic_group(6)),
        ("Z/10", cyclic_group(10)),
        ("Z/12", cyclic_group(12)),
        ("Z/15", cyclic_group(15)),
        ("Z/21", cyclic_group(21)),
        ("S3", semidirect_cyclic(3, 2, 2)),
        ("D5", semidirect_cyclic(5, 2, 4)),
        ("D7", semidirect_cyclic(7, 2, 6)),
        ("Z/3x|Z/4", semidirect_cyclic(3, 4, 2)),
        ("Z/7x|Z/3", semidirect_cyclic(7, 3, 2)),
        ("Z/5x|Z/4", semidirect_cyclic(5, 4, 2)),
        ("F20'", semidirect_cyclic(5, 4, 3)),
        ("D11", semidirect_cyclic(11, 2, 10)),
    ]
    for name, g in corpus:
        if g.order > 24:
            failures.append(f"{name}: order {g.order} outside the corpus bound")
            continue
        subs = subgroups(g)
        split = None
        for k in subs:
            if not k.is_normal or k.order in (1, g.order):
                continue
            for c in subs:
                if (
                    k.order * c.order == g.order
                    and gcd(k.order, c.order) == 1
                    and k.elements & c.elements == {0}
                ):
                    split = (k, c)
                    break
            if split:
                break
        if split is None:
            failures.append(f"{name}: no coprime split found")
            continue
        rep = coprime_split_properties(g, *split)
        for check in rep.checks:
            if not check.quotient_decomposes:
                failures.append(f"{name}: quotient by {check.normal_subgroup} fails (a)")
            if not check.subgroup_decomposes:
                failures.append(f"{name}: normal subgroup {check.normal_subgroup} fails (b)")
    report("coprime-split stability suite", failures)


# ------------------------------------------------------------------ 6

def test_orbit_stabilizer_suite():
    failures = []
    rng = random.Random(4096)
    for key in catalog_list():
        g = catalog_get(key).group
        n = g.holonomy_order
        for _ in range(200):
            chi = tuple(
                F(rng.randint(0, 11), rng.randint(1, 12)) for _ in range(g.dim)
            )
            rec = orbit_data(chi, g)
            if rec.index * len(rec.stabilizer) != n:
                failures.append(f"{key}: orbit-stabilizer identity fails at {chi}")
    hw = catalog_get("hw").group
    classes = fraction_stabilizer_classes(hw, 2)
    if classes != {frozenset(range(hw.holonomy_order))}:
        failures.append(f"hw stabilizer classes at denominator 2: {classes}")
    report("orbit-stabilizer suite", failures)


# ------------------------------------------------------------------ 7

def test_oracle_equivalence():
    failures = []

    for key in catalog_list():
        g = catalog_get(key).group
        if g.dim > 3:
            continue
        fast = is_torsion_free(g)
        slow = not brute_force_torsion(g)
        if fast != slow:
            failures.append(f"{key}: torsion test {fast} vs brute force {slow}")

    rng = random.Random(512)
    for trial in range(50):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = IntMatrix(
            [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        )
        snf = smith_normal_form(m)
        if snf.divisors != minor_gcd_divisors(m):
            failures.append(f"trial {trial}: SNF divisors disagree with minors oracle")
        if snf.U * m * snf.V != smith_diagonal(m, snf.divisors):
            failures.append(f"trial {trial}: U M V != D")
        basis = integer_kernel(m)
        for vec in basis:
            if any(x != 0 for x in m.apply(vec)):
                failures.append(f"trial {trial}: kernel vector not annihilated")
        # every small solution must lie in the Z-span of the basis
        if cols <= 3:
            for vec in itertools.product(range(-3, 4), repeat=cols):
                if all(x == 0 for x in m.apply(vec)):
                    if not basis:
                        if any(vec):
                            failures.append(f"trial {trial}: missed kernel vector {vec}")
                        continue
                    sol = rational_solve(from_columns(basis), vec)
                    if sol is None or any(x.denominator != 1 for x in sol):
                        failures.append(f"trial {trial}: {vec} outside kernel span")
    report("oracle equivalence", failures)
