"""Finite-group machinery for holonomy groups.

A finite group is the Cayley graph of a generating set.  Its spanning
tree presents it (Reidemeister-Schreier): `tree_relations` writes that
presentation once, for G/G' here and, with the lattice cocycle on the
edges, for the crystallographic group's H1.  Element orders and G/G'
decide Hiller-Sah primitivity and recognize iterated coprime
semidirect products of cyclic groups, at any order.  Only subgroup
enumeration, Sylow subgroups and normal complements read the n x n
table; they are brute force on purpose, and no command calls them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, wraps
from math import gcd, prod
from operator import sub

from .linalg import IntMatrix, smith_divisors


def computed_once(func):
    """Store `func(obj)` on `obj` itself, like `cached_property` does for
    a method: the value is computed on first call and dies with the
    object.  A stored None counts as computed."""
    slot = f"_computed_{func.__name__}"

    @wraps(func)
    def wrapper(obj):
        memo = obj.__dict__
        if slot in memo:
            return memo[slot]
        # threads racing on a first call may each compute; setdefault
        # hands all of them the value stored first
        return memo.setdefault(slot, func(obj))

    return wrapper


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group as the Cayley graph of a generating set:
    `edges[x][j]` is x g_j, and element 0 is the identity.  Everything
    else is read off the graph on first use."""

    edges: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.edges)

    @cached_property
    def spanning_tree(self) -> tuple[tuple[int, int, int], ...]:
        """(s, j, t) for each element t but the identity: t = s g_j on the
        edge that first reaches t in a breadth-first walk from the
        identity.  In walk order, so s comes before t."""
        tree, walk, reached = [], [0], {0}
        for s in walk:  # grows as we go
            for j, t in enumerate(self.edges[s]):
                if t not in reached:
                    reached.add(t)
                    walk.append(t)
                    tree.append((s, j, t))
        return tuple(tree)

    @cached_property
    def words(self) -> tuple[tuple[int, ...], ...]:
        """Each element as a word in the generators' positions, read
        along the spanning tree."""
        words = [()] * self.order
        for s, j, t in self.spanning_tree:
            words[t] = words[s] + (j,)
        return tuple(words)

    def times(self, x: int, s: int) -> int:
        """The element x s, by following the edges of s's word from x."""
        edges = self.edges
        for j in self.words[s]:
            x = edges[x][j]
        return x

    @cached_property
    def _powers(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Each element's order and inverse, its last power before the
        identity: the powers of s step along s's word."""
        cycles = []
        for s in range(self.order):
            last, power, order = 0, s, 1
            while power:
                last, power, order = power, self.times(power, s), order + 1
            cycles.append((order, last))
        return tuple(zip(*cycles))

    @property
    def orders(self) -> tuple[int, ...]:
        return self._powers[0]

    @property
    def inverses(self) -> tuple[int, ...]:
        return self._powers[1]

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """The n x n multiplication table: t = s g_j on its tree edge, so
        x t = (x s) g_j, one edge per entry."""
        edges, tree = self.edges, self.spanning_tree
        rows = []
        for x in range(self.order):
            row = [x] * self.order
            for s, j, t in tree:
                row[t] = edges[row[s]][j]
            rows.append(tuple(row))
        return tuple(rows)

    def tree_lifts(self, labels, k: int) -> tuple[tuple[int, ...], ...]:
        """Each element's lift x_t over k label coordinates, then one
        coordinate e_j per generator g_j, along the spanning tree: x_e = 0
        and x_t = x_s + e_j - labels[s][j] on the edge t = s g_j that first
        reaches t.  `labels[s][j]` is a k-tuple on the edge (s, j)."""
        pad = (0,) * len(self.edges[0])
        lifts = [(0,) * (k + len(pad))] * self.order
        for s, j, t in self.spanning_tree:  # s comes before t
            x = list(map(sub, lifts[s], labels[s][j] + pad))
            x[k + j] += 1
            lifts[t] = tuple(x)
        return tuple(lifts)

    def tree_relations(self, labels, k: int, head=()) -> IntMatrix:
        """The spanning-tree presentation, one relation per column on
        k + |gens| rows: the columns `head`, then for each edge (s, j), in
        edge order, x_s + e_j - labels[s][j] - x_{s g_j} with x the
        `tree_lifts`.  The edges present G on its generators by
        w_s g_j = w_{s g_j}, w_s the word of s (Reidemeister-Schreier);
        labels carry what each edge adds besides."""
        lifts = self.tree_lifts(labels, k)
        pad = (0,) * len(self.edges[0])
        columns = list(head)
        for xs, row, marks in zip(lifts, self.edges, labels):
            for j, t in enumerate(row):
                col = [a - b - c for a, b, c in zip(xs, lifts[t], marks[j] + pad)]
                col[k + j] += 1
                columns.append(tuple(col))
        # tree edges give zero relations; zero and repeated ones change nothing
        unique = [col for col in dict.fromkeys(columns) if any(col)]
        data = tuple(zip(*unique)) if unique else ((),) * (k + len(pad))
        return IntMatrix._trusted(data, len(unique))

    @cached_property
    def abelian_quotient(self) -> tuple[int, ...]:
        """The invariant factors of G/G', each dividing the next: Z^|gens|
        modulo the unlabelled `tree_relations`, one Smith form."""
        unlabelled = (((),) * len(self.edges[0]),) * self.order
        rel = self.tree_relations(unlabelled, 0)
        return tuple(d for d in smith_divisors(rel) if d >= 2)

    def is_abelian(self) -> bool:
        return prod(self.abelian_quotient) == self.order

    def is_cyclic(self) -> bool:
        return self.order in self.orders


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
    """Verify a multiplication table as a group law, and return its
    Cayley graph on the generating set that Light's test checks: its
    table is the verified one."""
    table = tuple(tuple(row) for row in table)
    n = len(table)
    if any(len(row) != n for row in table):
        raise ValueError("table is not square")
    if any(not (0 <= x < n) for row in table for x in row):
        raise ValueError("table entries out of range")
    # a two-sided identity is unique
    if n == 0 or any(table[0][x] != x or table[x][0] != x for x in range(n)):
        raise ValueError("identity must be element 0")
    for i in range(n):
        if not any(table[i][j] == 0 and table[j][i] == 0 for j in range(n)):
            raise ValueError(f"element {i} has no inverse")
    # Light's test: the a with (x.a).y = x.(a.y) for all x, y contain 0 and
    # are closed under products, so a generating set suffices.
    gens, reached = [], {0}
    for g in range(n):
        if g not in reached:
            gens.append(g)
            reached = _closure(table, gens)
    for g, x, y in itertools.product(gens, range(n), range(n)):
        if table[table[x][g]][y] != table[x][table[g][y]]:
            raise ValueError("table is not associative")
    return FiniteGroup(tuple(tuple(row[g] for g in gens) for row in table))


def finite_group_from_holonomy(group) -> FiniteGroup:
    """A `CrystalGroup`'s holonomy as a finite group: the Cayley graph of
    `build_group`'s closure, so nothing is built or re-verified."""
    return group.holonomy


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("order must be positive")
    return FiniteGroup(tuple(((i + 1) % n,) for i in range(n)))


def semidirect_cyclic(n: int, m: int, unit: int) -> FiniteGroup:
    """Z/n x| Z/m where the generator of Z/m acts by multiplication by
    `unit` on Z/n; requires unit^m = 1 (mod n)."""
    if pow(unit, m, n) != 1 % n:
        raise ValueError(f"{unit}^{m} != 1 mod {n}: not an action of Z/{m}")
    # (a, b) is element b n + a; (a, b)(1, 0) = (a + unit^b, b), (a, b)(0, 1) = (a, b + 1)
    return FiniteGroup(tuple(
        (b * n + (a + pow(unit, b, n)) % n, (b + 1) % m * n + a)
        for b in range(m)
        for a in range(n)
    ))


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """G x H on (a, b), element a |H| + b, generated by G's generators
    and then H's."""
    k = h.order
    return FiniteGroup(tuple(
        tuple(x * k + b for x in g.edges[a]) + tuple(a * k + y for y in h.edges[b])
        for a in range(g.order)
        for b in range(k)
    ))


def _closure(table, seed) -> frozenset[int]:
    """The subgroup generated by `seed`: everything reached from the
    identity by right multiplication with seed elements (in a finite
    group each inverse is a positive power)."""
    out = {0}
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            row = table[x]
            for g in seed:
                z = row[g]
                if z not in out:
                    out.add(z)
                    new.append(z)
        frontier = new
    return frozenset(out)


def _is_normal(group: FiniteGroup, elems: frozenset[int]) -> bool:
    t = group.table  # gH = Hg for every g
    return all({t[g][x] for x in elems} == {t[x][g] for x in elems} for g in range(group.order))


@computed_once
def all_subgroups(group: FiniteGroup) -> tuple[Subgroup, ...]:
    """Every subgroup, as joins of cyclic subgroups closed under pairwise
    join.  Deterministic order: by (order, sorted elements).  Enumerated
    once per group object."""
    found: set[frozenset[int]] = set()
    fresh = {frozenset({0})} | {_closure(group.table, {g}) for g in range(group.order)}
    # Round r joins two subgroups new in round r - 1 (round 0: the cyclic
    # ones).  That finds all: a subgroup whose shortest generating list has
    # k entries, 2^(r-1) < k <= 2^r, joins the subgroups spanned by its
    # first and by its last 2^(r-1) entries.  Each needs all of them (else
    # the list would shorten), so by induction each was new in round r - 1.
    while fresh:
        found |= fresh
        pairs = itertools.combinations(fresh, 2)
        # a nested pair's join is one of them
        fresh = {_closure(group.table, a | b) for a, b in pairs if not (a <= b or b <= a)} - found
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


def sylow_subgroup(group: FiniteGroup, p: int) -> Subgroup:
    """One Sylow p-subgroup (maximal p-power order)."""
    factors = _prime_factors(group.order)
    if p not in factors:
        raise ValueError(f"{p} does not divide the group order {group.order}")
    target = p ** factors[p]
    for sub in all_subgroups(group):
        if sub.order == target:
            return sub
    raise AssertionError("Sylow subgroup not found; subgroup enumeration is broken")


def has_normal_complement(group: FiniteGroup, part: Subgroup) -> tuple[bool, Subgroup | None]:
    """Is there a normal K with K * part = group and trivial intersection?"""
    want = group.order // part.order
    if want * part.order != group.order:
        raise ValueError("subgroup order does not divide the group order")
    for sub in all_subgroups(group):
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


def is_primitive(group: FiniteGroup) -> bool:
    """Hiller-Sah primitivity: no cyclic Sylow subgroup has a normal
    complement.

    A Sylow p-subgroup P of order p^a is cyclic iff some element has
    order p^a.  A normal complement K of an abelian P contains G', so
    P cap G' = 1; conversely that gives a normal p-complement by Tate's
    theorem (Tate, "Nilpotent quotient groups", Topology 1964).  As PG'/G'
    is a Sylow subgroup of G/G', P cap G' = 1 iff p^a divides |G/G'|."""
    if group.order == 1:
        return False  # the trivial group counts as cyclic
    index, n = prod(group.abelian_quotient), group.order
    return not any(
        p**a in group.orders and index % p**a == 0 for p, a in _prime_factors(n).items()
    )


def in_coprime_class(group: FiniteGroup) -> CoprimeTree | None:
    """Recognize iterated semidirect products of cyclic groups with
    pairwise coprime orders; cyclic groups themselves are leaves.  These
    are the groups whose Sylow subgroups are all cyclic (Hoelder,
    Burnside, Zassenhaus)."""
    n = group.order
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
        if _is_subgroup(group, normal):
            return CoprimeTree(normal_part=_coprime_tree(group, normal), complement_order=m)
    raise AssertionError("a group with cyclic Sylow subgroups splits (Hoelder)")


def _is_subgroup(group: FiniteGroup, elems) -> bool:
    """Whether `elems` is closed under products, so a subgroup when not
    empty, by closing it breadth first from a greedy generating set drawn
    from it: each element not yet reached joins the generators, the
    elements reached before it are multiplied by it and each later one
    by every generator, O(|S| |gens|) products in all.  False as soon as
    a product leaves S; else the closure holds all of S and is S."""
    members = set(elems)
    reached, seen, gens = [0], {0}, []
    for g in elems:
        if g in seen:
            continue
        gens.append(g)
        old = len(reached)
        for pos, x in enumerate(reached):  # grows as we go
            for s in gens[-1:] if pos < old else gens:
                y = group.times(x, s)
                if y not in members:
                    return False
                if y not in seen:
                    seen.add(y)
                    reached.append(y)
    return True


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
    for sub in all_subgroups(group):
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
    return group.abelian_quotient[::-1]


def structure_name(group: FiniteGroup) -> str:
    """Short human-readable id: 'trivial', 'Z/4 + Z/2', or a generic
    tag for nonabelian groups."""
    if group.order == 1:
        return "trivial"
    invs = abelian_invariant_factors(group)
    if invs is None:
        return f"nonabelian of order {group.order}"
    return " + ".join(f"Z/{d}" for d in invs)
