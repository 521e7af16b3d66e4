"""Finite-group machinery for holonomy groups.

Works on explicit multiplication tables at desk scale: subgroup
enumeration, Sylow subgroups, normal complements, the Hiller-Sah
primitivity test, and recognition of iterated coprime semidirect
products of cyclic groups.  Everything is brute force on purpose; the
order budget keeps it honest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from .crystal import CrystalGroup, computed_once


DEFAULT_ORDER_BUDGET = 64


class OrderBudgetExceeded(Exception):
    """Group order past the configured brute-force budget."""


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group as a verified multiplication table.

    Element 0 is the identity.
    """

    table: tuple[tuple[int, ...], ...]
    orders: tuple[int, ...]
    inverses: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.table)

    def is_abelian(self) -> bool:
        n = self.order
        return all(self.table[i][j] == self.table[j][i] for i in range(n) for j in range(n))

    def is_cyclic(self) -> bool:
        return any(o == self.order for o in self.orders)


@dataclass(frozen=True)
class Subgroup:
    elements: frozenset[int]
    order: int
    is_normal: bool


@dataclass(frozen=True)
class CoprimeTree:
    """Iterated semidirect product of cyclic groups with pairwise
    coprime orders: either a cyclic leaf (normal_part is None) or a node
    (normal part) x| Z/complement_order."""

    normal_part: CoprimeTree | None
    complement_order: int

    def orders(self) -> tuple[int, ...]:
        if self.normal_part is None:
            return (self.complement_order,)
        return self.normal_part.orders() + (self.complement_order,)


def finite_group(table) -> FiniteGroup:
    """Wrap and verify a multiplication table as a group law."""
    table = tuple(tuple(row) for row in table)
    n = len(table)
    if any(len(row) != n for row in table):
        raise ValueError("table is not square")
    if any(not (0 <= x < n) for row in table for x in row):
        raise ValueError("table entries out of range")
    identity = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            identity = e
            break
    if identity != 0:
        raise ValueError("identity must be element 0")
    inverses = []
    for i in range(n):
        inv = next((j for j in range(n) if table[i][j] == 0 and table[j][i] == 0), None)
        if inv is None:
            raise ValueError(f"element {i} has no inverse")
        inverses.append(inv)
    for i, j, k in itertools.product(range(n), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            raise ValueError("table is not associative")
    orders = []
    for i in range(n):
        power, order = i, 1
        while power != 0:
            power = table[power][i]
            order += 1
        orders.append(order)
    return FiniteGroup(table=table, orders=tuple(orders), inverses=tuple(inverses))


def finite_group_from_holonomy(group: CrystalGroup) -> FiniteGroup:
    return finite_group(group.mult)


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("order must be positive")
    return finite_group([[(i + j) % n for j in range(n)] for i in range(n)])


def semidirect_cyclic(n: int, m: int, unit: int) -> FiniteGroup:
    """Z/n x| Z/m where the generator of Z/m acts by multiplication by
    `unit` on Z/n; requires unit^m = 1 (mod n)."""
    if pow(unit, m, n) != 1 % n:
        raise ValueError(f"{unit}^{m} != 1 mod {n}: not an action of Z/{m}")
    elems = [(a, b) for b in range(m) for a in range(n)]  # (0,0) first
    index = {e: i for i, e in enumerate(elems)}

    def mul(p, q):
        (a1, b1), (a2, b2) = p, q
        return ((a1 + a2 * pow(unit, b1, n)) % n, (b1 + b2) % m)

    table = [[index[mul(p, q)] for q in elems] for p in elems]
    return finite_group(table)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    elems = [(a, b) for a in range(g.order) for b in range(h.order)]
    index = {e: i for i, e in enumerate(elems)}
    table = [
        [index[(g.table[a1][a2], h.table[b1][b2])] for (a2, b2) in elems]
        for (a1, b1) in elems
    ]
    return finite_group(table)


def _closure(group: FiniteGroup, seed) -> frozenset[int]:
    out = set(seed) | {0}
    frontier = list(out)
    while frontier:
        new = []
        for x in frontier:
            for y in list(out):
                for z in (group.table[x][y], group.table[y][x]):
                    if z not in out:
                        out.add(z)
                        new.append(z)
        frontier = new
    return frozenset(out)


def _is_normal(group: FiniteGroup, elems: frozenset[int]) -> bool:
    for g in range(group.order):
        ginv = group.inverses[g]
        for x in elems:
            if group.table[group.table[g][x]][ginv] not in elems:
                return False
    return True


def all_subgroups(
    group: FiniteGroup, budget: int = DEFAULT_ORDER_BUDGET
) -> tuple[Subgroup, ...]:
    """Every subgroup, as joins of cyclic subgroups closed under pairwise
    join.  Deterministic order: by (order, sorted elements).  The budget
    is checked on every call; the lattice is enumerated once per group
    object."""
    if group.order > budget:
        raise OrderBudgetExceeded(f"order {group.order} exceeds budget {budget}")
    return _subgroup_lattice(group)


@computed_once
def _subgroup_lattice(group: FiniteGroup) -> tuple[Subgroup, ...]:
    found: set[frozenset[int]] = {frozenset({0})}
    for g in range(group.order):
        found.add(_closure(group, {g}))
    while True:
        new = set()
        for a, b in itertools.combinations(found, 2):
            join = _closure(group, a | b)
            if join not in found:
                new.add(join)
        if not new:
            break
        found |= new
    ordered = sorted(found, key=lambda s: (len(s), sorted(s)))
    return tuple(
        Subgroup(elements=s, order=len(s), is_normal=_is_normal(group, s)) for s in ordered
    )


def _prime_factors(n: int) -> dict[int, int]:
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def sylow_subgroup(
    group: FiniteGroup, p: int, budget: int = DEFAULT_ORDER_BUDGET
) -> Subgroup:
    """One Sylow p-subgroup (maximal p-power order)."""
    factors = _prime_factors(group.order)
    if p not in factors:
        raise ValueError(f"{p} does not divide the group order {group.order}")
    target = p ** factors[p]
    for sub in all_subgroups(group, budget=budget):
        if sub.order == target:
            return sub
    raise AssertionError("Sylow subgroup not found; subgroup enumeration is broken")


def has_normal_complement(
    group: FiniteGroup, part: Subgroup, budget: int = DEFAULT_ORDER_BUDGET
) -> tuple[bool, Subgroup | None]:
    """Is there a normal K with K * part = group and trivial intersection?"""
    want = group.order // part.order
    if want * part.order != group.order:
        raise ValueError("subgroup order does not divide the group order")
    for sub in all_subgroups(group, budget=budget):
        if sub.is_normal and sub.order == want and sub.elements & part.elements == {0}:
            return True, sub
    return False, None


def subgroup_as_group(group: FiniteGroup, elems: frozenset[int]) -> FiniteGroup:
    """The subgroup on its own table (element 0 stays the identity)."""
    ordered = [0] + sorted(e for e in elems if e != 0)
    index = {e: i for i, e in enumerate(ordered)}
    table = [[index[group.table[a][b]] for b in ordered] for a in ordered]
    return finite_group(table)


def quotient_group(
    group: FiniteGroup, normal: frozenset[int]
) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Quotient by a normal subgroup; returns (quotient, projection map
    element index -> coset index)."""
    if not _is_normal(group, normal):
        raise ValueError("quotient by a non-normal subgroup")
    coset_of = [-1] * group.order
    reps = []
    for g in range(group.order):
        if coset_of[g] != -1:
            continue
        idx = len(reps)
        reps.append(g)
        for x in normal:
            coset_of[group.table[g][x]] = idx
    # identity coset must be index 0: rep 0 is the identity element
    table = [
        [coset_of[group.table[reps[a]][reps[b]]] for b in range(len(reps))]
        for a in range(len(reps))
    ]
    return finite_group(table), tuple(coset_of)


def is_primitive(group: FiniteGroup, budget: int = DEFAULT_ORDER_BUDGET) -> bool:
    """Hiller-Sah primitivity: no cyclic Sylow subgroup has a normal
    complement.  The test suite checks this against the equivalent
    formulation "no cyclic Sylow subgroup is isomorphic to a quotient of
    the group"."""
    if group.order > budget:
        raise OrderBudgetExceeded(f"order {group.order} exceeds budget {budget}")
    if group.order == 1:
        return False  # the trivial group counts as cyclic
    for p in _prime_factors(group.order):
        syl = sylow_subgroup(group, p, budget=budget)
        syl_group = subgroup_as_group(group, syl.elements)
        if syl_group.is_cyclic() and has_normal_complement(group, syl, budget=budget)[0]:
            return False
    return True


def in_coprime_class(
    group: FiniteGroup, budget: int = DEFAULT_ORDER_BUDGET
) -> CoprimeTree | None:
    """Recognize iterated semidirect products of cyclic groups with
    pairwise coprime orders; cyclic groups themselves are leaves."""
    if group.order > budget:
        raise OrderBudgetExceeded(f"order {group.order} exceeds budget {budget}")
    if group.is_cyclic():
        return CoprimeTree(normal_part=None, complement_order=group.order)
    subs = all_subgroups(group, budget=budget)
    for comp in subs:
        m = comp.order
        if m == 1 or m == group.order:
            continue
        if group.order % m != 0:
            continue
        want = group.order // m
        if gcd(want, m) != 1:
            continue
        comp_group = subgroup_as_group(group, comp.elements)
        if not comp_group.is_cyclic():
            continue
        for normal in subs:
            if not normal.is_normal or normal.order != want:
                continue
            if normal.elements & comp.elements != {0}:
                continue
            sub_tree = in_coprime_class(
                subgroup_as_group(group, normal.elements), budget=budget
            )
            if sub_tree is not None:
                return CoprimeTree(normal_part=sub_tree, complement_order=m)
    return None


@dataclass(frozen=True)
class SplitCheck:
    normal_subgroup: tuple[int, ...]
    quotient_decomposes: bool
    subgroup_decomposes: bool


@dataclass(frozen=True)
class CoprimeSplitReport:
    ok: bool
    checks: tuple[SplitCheck, ...]


def coprime_split_properties(
    group: FiniteGroup,
    normal_part: Subgroup,
    complement: Subgroup,
    budget: int = DEFAULT_ORDER_BUDGET,
) -> CoprimeSplitReport:
    """For a coprime internal semidirect product group = K x| C, verify
    on every normal subgroup M that (a) the quotient decomposes as
    image(K) x| image(C) with trivial intersection and (b) M equals
    (M cap K) * (M cap C)."""
    K, C = normal_part, complement
    if not K.is_normal:
        raise ValueError("normal_part is not normal")
    if K.order * C.order != group.order:
        raise ValueError("orders do not multiply to the group order")
    if gcd(K.order, C.order) != 1:
        raise ValueError("orders are not coprime")
    if K.elements & C.elements != {0}:
        raise ValueError("parts intersect nontrivially")

    checks = []
    for sub in all_subgroups(group, budget=budget):
        if not sub.is_normal:
            continue
        quot, proj = quotient_group(group, sub.elements)
        pk = {proj[x] for x in K.elements}
        pc = {proj[y] for y in C.elements}
        quotient_ok = (
            pk & pc == {0}
            and len(pk) * len(pc) == quot.order
            and _is_normal(quot, frozenset(pk))
        )
        mk = sub.elements & K.elements
        mc = sub.elements & C.elements
        products = {group.table[x][y] for x in mk for y in mc}
        subgroup_ok = products == sub.elements
        checks.append(
            SplitCheck(
                normal_subgroup=tuple(sorted(sub.elements)),
                quotient_decomposes=quotient_ok,
                subgroup_decomposes=subgroup_ok,
            )
        )
    ok = all(c.quotient_decomposes and c.subgroup_decomposes for c in checks)
    return CoprimeSplitReport(ok=ok, checks=tuple(checks))


def abelian_invariant_factors(group: FiniteGroup) -> tuple[int, ...] | None:
    """Invariant factor decomposition for abelian groups (largest
    first); None when the group is not abelian."""
    if not group.is_abelian():
        return None
    factors = []
    current = group
    while current.order > 1:
        g = max(range(current.order), key=lambda i: current.orders[i])
        factors.append(current.orders[g])
        current, _ = quotient_group(current, _closure(current, {g}))
    return tuple(factors)


def structure_name(group: FiniteGroup) -> str:
    """Short human-readable id: 'trivial', 'Z/4 + Z/2', or a generic
    tag for nonabelian groups."""
    if group.order == 1:
        return "trivial"
    invs = abelian_invariant_factors(group)
    if invs is None:
        return f"nonabelian of order {group.order}"
    return " + ".join(f"Z/{d}" for d in invs)
