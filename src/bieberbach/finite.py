"""Finite-group machinery for holonomy groups.

A finite group is the Cayley graph of a generating set.  Its spanning
tree presents it (Reidemeister-Schreier): `tree_relations` writes that
presentation once, for G/G' here and, with the lattice cocycle on the
edges, for the crystallographic group's H1.  Element orders and G/G'
decide Hiller-Sah primitivity and recognize iterated coprime
semidirect products of cyclic groups, at any order, as the tuple of
their cyclic orders: by P. Hall's theorem each level's normal Hall
subgroup is found by a count, with no closure (`_coprime_tree`).  One
walk of the graph closes a subgroup on a seed (`FiniteGroup.subgroup`):
the Calabi kernels, the torsion test and the subgroup lattice
`all_subgroups` all close their subgroups with it.  The lattice, a tuple
of element sets, is brute force on purpose, and no command calls it (the
benchmark's probe times it).
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
    else is read off the graph on first use, and a subgroup is closed by
    walking it (`subgroup`); there is no n x n table."""

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
    def orders(self) -> tuple[int, ...]:
        """Each element's order: the powers of s step along s's word."""
        orders = []
        for s in range(self.order):
            power, order = s, 1
            while power:
                power, order = self.times(power, s), order + 1
            orders.append(order)
        return tuple(orders)

    def subgroup(self, seed) -> frozenset[int]:
        """The subgroup `seed` generates: everything reached from the
        identity by right multiplication with seed elements (`times`).  In
        a finite group each inverse is a positive power, so that is all."""
        reached, walk, times = {0}, [0], self.times
        for x in walk:  # grows as we go
            for s in seed:
                y = times(x, s)
                if y not in reached:
                    reached.add(y)
                    walk.append(y)
        return frozenset(reached)

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


def finite_group_from_holonomy(group) -> FiniteGroup:
    """A `CrystalGroup`'s holonomy as a finite group: the Cayley graph of
    `build_group`'s closure, so nothing is built or re-verified."""
    return group.holonomy


@computed_once
def all_subgroups(group: FiniteGroup) -> tuple[frozenset[int], ...]:
    """Every subgroup, as the set of its elements: the joins of cyclic
    subgroups closed under pairwise join, each join closed on the seeds
    of its two parts, not on their elements.  Deterministic order: by
    (order, sorted elements).  Enumerated once per group object."""
    found: set[frozenset[int]] = set()
    fresh = {group.subgroup((g,)): (g,) for g in range(group.order)}  # each one's seed
    # Round r joins two subgroups new in round r - 1 (round 0: the cyclic
    # ones).  That finds all: a subgroup whose shortest generating list has
    # k entries, 2^(r-1) < k <= 2^r, joins the subgroups spanned by its
    # first and by its last 2^(r-1) entries.  Each needs all of them (else
    # the list would shorten), so by induction each was new in round r - 1.
    while fresh:
        found.update(fresh)
        joins = {}
        for (a, x), (b, y) in itertools.combinations(fresh.items(), 2):
            if not (a <= b or b <= a):  # a nested pair's join is one of them
                joins.setdefault(group.subgroup(x + y), x + y)
        fresh = {join: seed for join, seed in joins.items() if join not in found}
    return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))


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


def in_coprime_class(group: FiniteGroup) -> tuple[int, ...] | None:
    """Recognize iterated semidirect products of cyclic groups with
    pairwise coprime orders, and give the cyclic orders from the
    innermost normal part out: (3, 2) for S3 = Z/3 x| Z/2, and (n,) for
    a cyclic group.  None for any other group.  These are the groups
    whose Sylow subgroups are all cyclic (Hoelder, Burnside,
    Zassenhaus)."""
    n = group.order
    if any(p**a not in group.orders for p, a in _prime_factors(n).items()):
        return None
    return _coprime_tree(group, range(n))


def _coprime_tree(group: FiniteGroup, elems) -> tuple[int, ...]:
    """The cyclic orders of the subgroup on `elems`, whose Sylow
    subgroups are cyclic, innermost first.  Z/m splits off for the
    smallest m coprime to n/m such that an element has order m and
    exactly n/m elements have order dividing n/m: those elements then
    form a normal subgroup of order n/m, whose orders come before m.

    The count decides it.  A group with cyclic Sylow subgroups is
    solvable (Hoelder, Burnside, Zassenhaus), so it has a Hall subgroup H
    of order n/m (P. Hall, 1928), and the n/m elements of H all have order
    dividing n/m.  A subgroup made only of such elements has order prime
    to m (Cauchy), so dividing n/m: the set is a subgroup iff it is H,
    iff it has n/m elements.  It is closed under conjugation, so normal."""
    n = len(elems)
    orders = {group.orders[x] for x in elems}
    if n in orders:
        return (n,)
    for m in range(2, n):
        if n % m or gcd(m, n // m) != 1 or m not in orders:
            continue
        normal = [x for x in elems if (n // m) % group.orders[x] == 0]
        if len(normal) == n // m:
            return _coprime_tree(group, normal) + (m,)
    raise AssertionError("a group with cyclic Sylow subgroups splits (Hoelder)")


def structure_name(group: FiniteGroup) -> str:
    """Short human-readable id: 'trivial', 'Z/4 + Z/2', or a generic
    tag for nonabelian groups."""
    if group.order == 1:
        return "trivial"
    factors = group.abelian_quotient
    if prod(factors) != group.order:
        return f"nonabelian of order {group.order}"
    return " + ".join(f"Z/{d}" for d in reversed(factors))
