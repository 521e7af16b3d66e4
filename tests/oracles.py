"""Test oracles, each kept once: the slow predecessors of the library's
fast paths (the Hermite form, rational and Smith solves, rational
vectors, characters and translations, element normal forms and
products, the multiplication table and the subgroup closure over it,
the table-verified finite group, normality of its subgroups and their
Sylow, quotient and coprime-split checks), the brute-force torsion and
gcd-of-minors checks, the exhaustive (Z/2)^2 search behind the
catalog's frozen entry, the small groups several test modules build,
and the benchmark's corpus.  Nothing in `src/` calls them."""

from __future__ import annotations

import importlib.util
import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd
from pathlib import Path

from bieberbach.crystal import AffineGen, CrystalError, CrystalGroup, build_group, is_torsion_free
from bieberbach.finite import FiniteGroup, _prime_factors, all_subgroups, computed_once
from bieberbach.invariants import abelianization
from bieberbach.linalg import IntMatrix, _as_int, determinant, smith_normal_form

F = Fraction


# ---------------------------------------------------------------- linear algebra

@dataclass(frozen=True)
class HermiteForm:
    """U * M = H with U unimodular and H the canonical row Hermite form."""

    H: IntMatrix
    U: IntMatrix


def hermite_normal_form(m: IntMatrix) -> HermiteForm:
    """Canonical row Hermite form: positive pivots, entries above each
    pivot reduced into [0, pivot), zero rows at the bottom."""
    r, c = m.rows, m.cols
    h = [list(row) for row in m]
    u = [[int(i == j) for j in range(r)] for i in range(r)]

    def row_sub(i, k, q):
        h[i] = [x - q * y for x, y in zip(h[i], h[k])]
        u[i] = [x - q * y for x, y in zip(u[i], u[k])]

    def row_swap(i, k):
        h[i], h[k] = h[k], h[i]
        u[i], u[k] = u[k], u[i]

    def row_neg(i):
        h[i] = [-x for x in h[i]]
        u[i] = [-x for x in u[i]]

    p = 0
    for col in range(c):
        if p >= r:
            break
        while True:
            below = [i for i in range(p, r) if h[i][col] != 0]
            if not below:
                break
            imin = min(below, key=lambda i: abs(h[i][col]))
            if imin != p:
                row_swap(p, imin)
            done = True
            for i in range(p + 1, r):
                if h[i][col]:
                    row_sub(i, p, h[i][col] // h[p][col])
                    if h[i][col]:
                        done = False
            if done:
                break
        if p < r and h[p][col] != 0:
            if h[p][col] < 0:
                row_neg(p)
            for i in range(p):
                q = h[i][col] // h[p][col]
                if q:
                    row_sub(i, p, q)
            p += 1

    return HermiteForm(
        H=IntMatrix._trusted(tuple(map(tuple, h)), c),
        U=IntMatrix._trusted(tuple(map(tuple, u)), r),
    )


def invert_unimodular(m: IntMatrix) -> IntMatrix:
    """Inverse of a matrix in GL_n(Z), in integers only; raises
    ValueError if det is not +-1.

    The row Hermite form of a unimodular matrix is the identity: its
    pivots are positive units, so every entry above them reduces to 0.
    Then U M = I, and the transform U is the inverse.  Any other Hermite
    form means det M is not +-1 (a singular M leaves a zero row)."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    hnf = hermite_normal_form(m)
    if hnf.H != IntMatrix.identity(m.rows):
        raise ValueError("matrix is not unimodular (det is not +-1)")
    return hnf.U


def from_columns(columns, rows: int | None = None) -> IntMatrix:
    """The matrix with the given columns; `rows` fixes the height when
    there are none.  Entries are checked as `IntMatrix` checks them."""
    columns = [tuple(c) for c in columns]
    if columns:
        rows = len(columns[0])
    return IntMatrix([[c[i] for c in columns] for i in range(rows)], cols=len(columns))


def rational_solve(rows, rhs) -> tuple[Fraction, ...] | None:
    """One exact solution of (rows) x = rhs over Q, free variables
    pinned to 0; None when inconsistent.  `rows` may be an IntMatrix or
    any nested sequence of ints/Fractions."""
    mat = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(rows, rhs)]
    nrows = len(mat)
    ncols = (len(mat[0]) - 1) if mat else (len(list(rows[0])) if nrows else 0)
    if nrows == 0:
        return tuple()
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        inv = 1 / prow[col]
        mat[rank] = [x * inv for x in prow]
        for i in range(nrows):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, nrows):
        if mat[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        x[col] = mat[i][ncols]
    return tuple(x)


def solve_integer_linear(m: IntMatrix, b) -> tuple[tuple[int, ...], list[tuple[int, ...]]] | None:
    """Solve M x = b over the integers.

    Returns (particular solution, kernel basis), or None when the
    system has no integer solution.
    """
    if len(b) != m.rows:
        raise ValueError(f"rhs of dim {len(b)} against {m.shape()}")
    snf = smith_normal_form(m)
    ub = snf.U.apply(tuple(_as_int(x) for x in b))
    y = [0] * m.cols
    for i in range(m.rows):
        d = snf.divisors[i] if i < len(snf.divisors) else 0
        if d == 0:
            if ub[i] != 0:
                return None
        else:
            q, rem = divmod(ub[i], d)
            if rem:
                return None
            if i < m.cols:
                y[i] = q
    x0 = snf.V.apply(tuple(y))
    nnz = sum(1 for d in snf.divisors if d != 0)
    kernel = [snf.V.column(j) for j in range(nnz, m.cols)]
    return x0, kernel


def minor_gcd_divisors(m: IntMatrix) -> tuple[int, ...]:
    """Elementary divisors via the gcd-of-minors formula: the product
    d_1 * ... * d_i equals the gcd of all i x i minors."""
    rows, cols = m.rows, m.cols
    n = min(rows, cols)
    prev = 1
    out = []
    for size in range(1, n + 1):
        g = 0
        for ris in itertools.combinations(range(rows), size):
            for cis in itertools.combinations(range(cols), size):
                sub = IntMatrix([[m[i, j] for j in cis] for i in ris])
                g = gcd(g, abs(determinant(sub)))
        if g == 0:
            out.extend([0] * (n - size + 1))
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def smith_diagonal(m: IntMatrix, divisors) -> IntMatrix:
    """The Smith form D of `m`, of its shape: the divisors on the
    diagonal and zeros elsewhere."""
    return IntMatrix(
        [[divisors[i] if i == j else 0 for j in range(m.cols)] for i in range(m.rows)], cols=m.cols
    )


def frac_vector(entries) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in entries)


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_mod1(vec) -> tuple[Fraction, ...]:
    """Reduce a rational vector into [0, 1)^k."""
    return tuple(Fraction(x) % 1 for x in vec)


def character(entries) -> tuple[Fraction, ...]:
    """A character's entries, ints and `Fraction`s, reduced into [0, 1) as
    `Fraction`s; any other entry (a float, a string) raises TypeError.
    The library reduces a character in integers over one denominator."""
    entries = tuple(entries)
    for x in entries:
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"character entry {x!r} is not an int or a Fraction")
    return vec_mod1(entries)


# ---------------------------------------------------------------- crystallographic elements

def translation_of(g: AffineGen) -> tuple[Fraction, ...]:
    """The rational translation of an element: its shift over its
    denominator."""
    return tuple(Fraction(x, g.denominator) for x in g.shift)


class NotInGroup(CrystalError):
    """An affine element does not belong to the group."""


def element_normal_form(g: AffineGen, group: CrystalGroup) -> tuple[AffineGen, tuple[int, ...]]:
    """Coset decomposition g = (lattice shift) * (stored representative).

    Returns (holonomy element s, integer vector lam) with
    g = AffineGen(A(s), a_s + lam).
    """
    elem = next((e for e in group.elements if e.matrix == g.matrix), None)
    if elem is None:
        raise NotInGroup("matrix is not in the holonomy")
    lam = vec_sub(translation_of(g), translation_of(elem))
    if any(x.denominator != 1 for x in lam):
        raise NotInGroup("translation is not congruent to the coset representative mod Z^k")
    return elem, tuple(int(x) for x in lam)


def affine_product(a: AffineGen, b: AffineGen) -> AffineGen:
    """The product a b: x -> A (B x + b) + a, in `Fraction` arithmetic."""
    if a.matrix.cols != b.matrix.rows:
        raise ValueError("dimension mismatch")
    return AffineGen(
        a.matrix * b.matrix, vec_add(a.matrix.apply(translation_of(b)), translation_of(a))
    )


def affine_identity(dim: int) -> AffineGen:
    return AffineGen.of(IntMatrix.identity(dim).entries, (0,) * dim)


def reconstruct_element(group: CrystalGroup, index: int, lam) -> AffineGen:
    """Inverse of element_normal_form."""
    elem = group.elements[index]
    return AffineGen(elem.matrix, vec_add(translation_of(elem), frac_vector(lam)))


def brute_force_torsion(group, box=4):
    """Oracle: enumerate lattice corrections in a box and take powers."""
    for index in range(1, group.holonomy_order):
        for lam in itertools.product(range(-box, box + 1), repeat=group.dim):
            a = reconstruct_element(group, index, lam)
            power = a
            for _ in range(group.holonomy.orders[index] - 1):
                power = affine_product(power, a)
            if power == affine_identity(group.dim):
                return True
    return False


# ---------------------------------------------------------------- finite groups

@computed_once
def mult_table(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """The n x n multiplication table, built once per group object: t =
    s g_j on its spanning-tree edge, so x t = (x s) g_j, one edge per
    entry."""
    edges, tree = group.edges, group.spanning_tree
    rows = []
    for x in range(group.order):
        row = [x] * group.order
        for s, j, t in tree:
            row[t] = edges[row[s]][j]
        rows.append(tuple(row))
    return tuple(rows)


def _closure(table, seed) -> frozenset[int]:
    """The subgroup generated by `seed`, over a multiplication table:
    everything reached from the identity by right multiplication with
    seed elements (in a finite group each inverse is a positive power)."""
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


def inverses(group: FiniteGroup) -> tuple[int, ...]:
    """Each element's inverse, its last power before the identity: the
    powers of s step along s's word."""
    out = []
    for s in range(group.order):
        last, power = 0, s
        while power:
            last, power = power, group.times(power, s)
        out.append(last)
    return tuple(out)


def greedy_generating_subset(group: FiniteGroup, members) -> tuple[int, ...]:
    """The greedy generating set of the subgroup `members`, the identity
    first: walked in order, an element joins when the subgroup the
    earlier ones generate, closed afresh over the table, misses it."""
    gens, reached = [], frozenset({0})
    for s in members:
        if s not in reached:
            gens.append(s)
            reached = _closure(mult_table(group), gens)
    return tuple(gens)


def is_cyclic(group: FiniteGroup) -> bool:
    return group.order in group.orders


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


@dataclass(frozen=True)
class Subgroup:
    elements: frozenset[int]
    order: int
    is_normal: bool


def is_normal(group: FiniteGroup, elems: frozenset[int]) -> bool:
    t = mult_table(group)  # gH = Hg for every g
    return all({t[g][x] for x in elems} == {t[x][g] for x in elems} for g in range(group.order))


def subgroups(group: FiniteGroup) -> tuple[Subgroup, ...]:
    """`all_subgroups`, in its order, each with its order and normality."""
    return tuple(Subgroup(s, len(s), is_normal(group, s)) for s in all_subgroups(group))


def sylow_subgroup(group: FiniteGroup, p: int) -> Subgroup:
    """One Sylow p-subgroup (maximal p-power order)."""
    factors = _prime_factors(group.order)
    if p not in factors:
        raise ValueError(f"{p} does not divide the group order {group.order}")
    target = p ** factors[p]
    for sub in subgroups(group):
        if sub.order == target:
            return sub
    raise AssertionError("Sylow subgroup not found; subgroup enumeration is broken")


def has_normal_complement(group: FiniteGroup, part: Subgroup) -> tuple[bool, Subgroup | None]:
    """Is there a normal K with K * part = group and trivial intersection?"""
    want = group.order // part.order
    if want * part.order != group.order:
        raise ValueError("subgroup order does not divide the group order")
    for sub in subgroups(group):
        if sub.is_normal and sub.order == want and sub.elements & part.elements == {0}:
            return True, sub
    return False, None


def subgroup_as_group(group: FiniteGroup, elems: frozenset[int]) -> FiniteGroup:
    """The subgroup on its own table (element 0 stays the identity)."""
    ordered = [0] + sorted(e for e in elems if e != 0)
    index, mult = {e: i for i, e in enumerate(ordered)}, mult_table(group)
    table = [[index[mult[a][b]] for b in ordered] for a in ordered]
    return finite_group(table)


def quotient_group(
    group: FiniteGroup, normal: frozenset[int]
) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Quotient by a normal subgroup; returns (quotient, projection map
    element index -> coset index)."""
    if not is_normal(group, normal):
        raise ValueError("quotient by a non-normal subgroup")
    coset_of, mult = [-1] * group.order, mult_table(group)
    reps = []
    for g in range(group.order):
        if coset_of[g] != -1:
            continue
        idx = len(reps)
        reps.append(g)
        for x in normal:
            coset_of[mult[g][x]] = idx
    # identity coset must be index 0: rep 0 is the identity element
    table = [
        [coset_of[mult[reps[a]][reps[b]]] for b in range(len(reps))]
        for a in range(len(reps))
    ]
    return finite_group(table), tuple(coset_of)


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

    checks, mult = [], mult_table(group)
    for sub in subgroups(group):
        if not sub.is_normal:
            continue
        quot, proj = quotient_group(group, sub.elements)
        pk = {proj[x] for x in K.elements}
        pc = {proj[y] for y in C.elements}
        quotient_ok = (
            pk & pc == {0}
            and len(pk) * len(pc) == quot.order
            and is_normal(quot, frozenset(pk))
        )
        mk = sub.elements & K.elements
        mc = sub.elements & C.elements
        products = {mult[x][y] for x in mk for y in mc}
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


# ---------------------------------------------------------------- small groups, characters and the catalog search

def hw_group():
    x = AffineGen.of([[1, 0, 0], [0, -1, 0], [0, 0, -1]], (F(1, 2), F(1, 2), 0))
    y = AffineGen.of([[-1, 0, 0], [0, 1, 0], [0, 0, -1]], (0, F(1, 2), F(1, 2)))
    return build_group(3, [x, y], name="hw")


def klein_bottle():
    g = AffineGen.of([[1, 0], [0, -1]], (F(1, 2), 0))
    return build_group(2, [g], name="klein_bottle")


def torus(k):
    gens = [
        AffineGen(IntMatrix.identity(k), tuple(F(int(i == j)) for j in range(k)))
        for i in range(k)
    ]
    return build_group(k, gens, name=f"torus_{k}")


def random_signed_permutation(rng, dim):
    perm = list(range(dim))
    rng.shuffle(perm)
    rows = [[0] * dim for _ in range(dim)]
    for i, p in enumerate(perm):
        rows[i][p] = rng.choice((1, -1))
    return IntMatrix(rows)


def fraction_stabilizer_classes(group, q):
    transposed = [e.matrix.transpose() for e in group.elements]
    out = set()
    for combo in itertools.product(range(q), repeat=group.dim):
        chi = tuple(F(c, q) for c in combo)
        out.add(frozenset(i for i, m in enumerate(transposed) if vec_mod1(m.apply(chi)) == chi))
    return out


def search_connective_c2c2() -> tuple[AffineGen, AffineGen]:
    """First (Z/2)^2 example with infinite first homology, by exhaustive
    search over diagonal sign representations with half-integer
    translations.

    Enumeration order is lexicographic over (diagonal 1, diagonal 2,
    translation 1, translation 2) with -1 < 1 and 0 < 1/2; the first
    group that builds, is torsion free and has infinite first homology
    wins.  The Hantzsche-Wendt representation itself never passes: its
    fixed lattice is trivial for every choice of translations.
    """
    diagonals = list(itertools.product((-1, 1), repeat=3))
    shifts = list(itertools.product((F(0), F(1, 2)), repeat=3))
    identity = (1, 1, 1)
    for d1 in diagonals:
        if d1 == identity:
            continue
        m1 = [[d1[0], 0, 0], [0, d1[1], 0], [0, 0, d1[2]]]
        for d2 in diagonals:
            if d2 == identity or d2 == d1:
                continue
            m2 = [[d2[0], 0, 0], [0, d2[1], 0], [0, 0, d2[2]]]
            for t1 in shifts:
                for t2 in shifts:
                    try:
                        group = build_group(
                            3, [AffineGen.of(m1, t1), AffineGen.of(m2, t2)]
                        )
                    except CrystalError:
                        continue
                    if group.holonomy_order != 4:
                        continue
                    if not is_torsion_free(group):
                        continue
                    if abelianization(group).rank == 0:
                        continue
                    return AffineGen.of(m1, t1), AffineGen.of(m2, t2)
    raise AssertionError("no connective (Z/2)^2 representative found")


# ---------------------------------------------------------------- the benchmark's corpus

PERFBENCH_CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"


@cache
def _perfbench_corpus():
    spec = importlib.util.spec_from_file_location("perfbench_corpus", PERFBENCH_CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = corpus  # its dataclasses look their module up
    spec.loader.exec_module(corpus)
    return corpus


@cache
def corpus_items(workload: str, seed: int = 1) -> tuple:
    """The benchmark's items of one workload and seed, each `.doc` a group
    document, drawn by its own pure-Python corpus generator."""
    return tuple(_perfbench_corpus().generate(workload, seed))
