"""Finite-group machinery for holonomy groups.

Works on explicit multiplication tables at desk scale: subgroup
enumeration, Sylow subgroups, normal complements, the Hiller-Sah
primitivity test (from element orders and the commutator subgroup), and
recognition of iterated coprime semidirect products of cyclic groups
(from element orders).  The subgroup lattice is brute force on purpose;
the order budget keeps it honest.
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
    """A finite group as a multiplication table that is a group law:
    verified by `finite_group`, or read off matrix products by
    `build_group`.

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
    # a two-sided identity is unique
    if n == 0 or any(table[0][x] != x or table[x][0] != x for x in range(n)):
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
    """The holonomy as a finite group.  `build_group` read its table
    off matrix products, so it is a group law already and is not
    re-verified here."""
    orders = tuple(e.order for e in group.elements)
    return FiniteGroup(table=group.mult, orders=orders, inverses=group.inverse)


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
    """The subgroup generated by `seed`: everything reached from the
    identity by right multiplication with seed elements (in a finite
    group each inverse is a positive power)."""
    out = {0}
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            row = group.table[x]
            for g in seed:
                z = row[g]
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
    found: set[frozenset[int]] = set()
    fresh = {frozenset({0})} | {_closure(group, {g}) for g in range(group.order)}
    # Round r joins two subgroups new in round r - 1 (round 0: the cyclic
    # ones).  That finds all: a subgroup whose shortest generating list has
    # k entries, 2^(r-1) < k <= 2^r, joins the subgroups spanned by its
    # first and by its last 2^(r-1) entries.  Each needs all of them (else
    # the list would shorten), so by induction each was new in round r - 1.
    while fresh:
        found |= fresh
        pairs = itertools.combinations(fresh, 2)
        # a nested pair's join is one of them
        fresh = {_closure(group, a | b) for a, b in pairs if not (a <= b or b <= a)} - found
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
    complement.

    A Sylow p-subgroup P of order p^a is cyclic iff some element has
    order p^a.  A normal complement K of an abelian P contains G', so
    P cap G' = 1; conversely that gives a normal p-complement by Tate's
    theorem (Tate, "Nilpotent quotient groups", Topology 1964).  As PG'/G'
    is a Sylow subgroup of G/G', P cap G' = 1 iff p^a divides |G/G'|."""
    if group.order > budget:
        raise OrderBudgetExceeded(f"order {group.order} exceeds budget {budget}")
    if group.order == 1:
        return False  # the trivial group counts as cyclic
    t, inv, n = group.table, group.inverses, group.order
    commutators = {t[t[inv[a]][inv[b]]][t[a][b]] for a in range(n) for b in range(n)}
    index = n // len(_closure(group, commutators))
    return not any(
        p**a in group.orders and index % p**a == 0 for p, a in _prime_factors(n).items()
    )


def in_coprime_class(
    group: FiniteGroup, budget: int = DEFAULT_ORDER_BUDGET
) -> CoprimeTree | None:
    """Recognize iterated semidirect products of cyclic groups with
    pairwise coprime orders; cyclic groups themselves are leaves.  These
    are the groups whose Sylow subgroups are all cyclic (Hoelder,
    Burnside, Zassenhaus)."""
    n = group.order
    if n > budget:
        raise OrderBudgetExceeded(f"order {n} exceeds budget {budget}")
    if any(p**a not in group.orders for p, a in _prime_factors(n).items()):
        return None
    return _coprime_tree(group, range(n))


def _coprime_tree(group: FiniteGroup, elems) -> CoprimeTree:
    """The tree of the subgroup on `elems`, whose Sylow subgroups are
    cyclic.  Z/m splits off for the smallest m coprime to n/m such that
    an element has order m and the elements of order dividing n/m form a
    subgroup: that subgroup is then normal of order n/m."""
    n = len(elems)
    orders = {group.orders[x] for x in elems}
    if n in orders:
        return CoprimeTree(normal_part=None, complement_order=n)
    for m in range(2, n):
        if n % m or gcd(m, n // m) != 1 or m not in orders:
            continue
        normal = [x for x in elems if (n // m) % group.orders[x] == 0]
        members = set(normal)
        if all(group.table[a][b] in members for a in normal for b in normal):
            return CoprimeTree(normal_part=_coprime_tree(group, normal), complement_order=m)
    raise AssertionError("a group with cyclic Sylow subgroups splits (Hoelder)")


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
