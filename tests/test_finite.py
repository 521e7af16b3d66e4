import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from bieberbach.catalog import catalog_get, catalog_list
from bieberbach.crystal import AffineGen, ClosureBudgetExceeded, build_group
from bieberbach.finite import (
    all_subgroups, finite_group_from_holonomy, in_coprime_class, is_primitive, structure_name
)
from bieberbach.groupfile import document_to_group
from oracles import (
    _closure, coprime_split_properties, corpus_items, cyclic_group, direct_product, finite_group,
    has_normal_complement, hw_group, inverses, is_cyclic, mult_table, quotient_group,
    random_signed_permutation, semidirect_cyclic, subgroup_as_group, subgroups, sylow_subgroup
)
from test_invariants import signed_permutation_group


F = Fraction


def s3():
    return semidirect_cyclic(3, 2, 2)


def klein_four():
    return direct_product(cyclic_group(2), cyclic_group(2))


def brute_force_subgroups(g):
    """Oracle: test every subset containing the identity."""
    out, t = set(), mult_table(g)
    n = g.order
    rest = [i for i in range(n) if i != 0]
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            subset = frozenset(combo) | {0}
            if all(t[a][b] in subset for a in subset for b in subset):
                out.add(subset)
    return out


# ---------------------------------------------------------------- tables

def test_from_holonomy():
    d = finite_group_from_holonomy(hw_group())
    assert d.order == 4
    assert all(o == 2 for o in d.orders[1:])
    assert structure_name(d) == "Z/2 + Z/2" and not is_cyclic(d)


def test_trivial_and_cyclic():
    assert finite_group_from_holonomy(build_group(0, [])).order == 1
    rot = AffineGen.of([[0, -1, 0], [1, 0, 0], [0, 0, 1]], (0, 0, F(1, 4)))
    d = finite_group_from_holonomy(build_group(3, [rot]))
    assert d.order == 4 and is_cyclic(d)


def test_from_holonomy_equals_the_verified_table():
    """`finite_group_from_holonomy` trusts the Cayley graph `build_group`
    made; `finite_group` verifies the table read off it and must give the
    same table, orders and inverses, on the catalog and on the draws of
    the acceptance rank-duality test."""
    groups = [catalog_get(key).group for key in catalog_list()]
    rng = random.Random(2024)
    while len(groups) < len(catalog_list()) + 100:
        dim = rng.randint(2, 6)
        gens = [
            AffineGen(random_signed_permutation(rng, dim), (F(0),) * dim)
            for _ in range(rng.randint(1, 2))
        ]
        try:
            groups.append(build_group(dim, gens, closure_budget=48))
        except ClosureBudgetExceeded:
            continue
    for g in groups:
        trusted = finite_group_from_holonomy(g)
        verified = finite_group(mult_table(trusted))
        assert mult_table(verified) == mult_table(trusted), g.name
        assert verified.orders == trusted.orders, g.name
        assert inverses(verified) == inverses(trusted), g.name


def law_table(elems, mul):
    index = {e: i for i, e in enumerate(elems)}
    return tuple(tuple(index[mul(p, q)] for q in elems) for p in elems)


def test_constructors_give_the_tables_of_their_group_laws():
    """`cyclic_group`, `semidirect_cyclic` and `direct_product` build their
    Cayley graphs directly; the tables read off them are the laws'
    tables, which `finite_group` verifies."""
    groups = []
    for n in range(1, 13):
        table = law_table(range(n), lambda a, b: (a + b) % n)
        groups.append((cyclic_group(n), table))
    for n, m in itertools.product(range(1, 9), range(1, 7)):
        for unit in range(n):
            if pow(unit, m, n) == 1 % n:
                elems = [(a, b) for b in range(m) for a in range(n)]
                table = law_table(
                    elems, lambda p, q: ((p[0] + q[0] * pow(unit, p[1], n)) % n, (p[1] + q[1]) % m)
                )
                groups.append((semidirect_cyclic(n, m, unit), table))
    factors = [cyclic_group(1), cyclic_group(4), s3(), klein_four(), semidirect_cyclic(5, 4, 2)]
    for g, h in itertools.product(factors, repeat=2):
        elems = [(a, b) for a in range(g.order) for b in range(h.order)]
        g_mult, h_mult = mult_table(g), mult_table(h)
        table = law_table(elems, lambda p, q: (g_mult[p[0]][q[0]], h_mult[p[1]][q[1]]))
        groups.append((direct_product(g, h), table))
    for d, table in groups:
        assert mult_table(d) == table == mult_table(finite_group(table))


def test_bad_tables_rejected():
    with pytest.raises(ValueError):
        finite_group([[0, 1], [1, 1]])  # not a group law
    with pytest.raises(ValueError):
        finite_group([[1, 0], [0, 1]])  # identity not at 0
    # loops with identity 0 and inverses: in the first x.x = 0 and
    # (1.2).4 != 1.(2.4); the second, generated by 1 and 2, associates
    # at 1 and fails only at 2
    loops = (
        [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
        [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 3, 4, 5, 0, 1],
         [3, 2, 5, 4, 1, 0], [4, 5, 0, 1, 3, 2], [5, 4, 1, 0, 2, 3]],
    )
    for loop in loops:
        with pytest.raises(ValueError, match="not associative"):
            finite_group(loop)


def test_semidirect_requires_action():
    with pytest.raises(ValueError):
        semidirect_cyclic(5, 2, 2)  # 2^2 = 4 != 1 mod 5


# ---------------------------------------------------------------- subgroups

def test_subgroups_klein_four():
    subs = subgroups(klein_four())
    assert len(subs) == 5
    assert brute_force_subgroups(klein_four()) == {s.elements for s in subs}
    assert all(s.is_normal for s in subs)


def test_subgroups_c4():
    subs = all_subgroups(cyclic_group(4))
    assert len(subs) == 3
    assert brute_force_subgroups(cyclic_group(4)) == set(subs)


def test_subgroups_trivial():
    subs = all_subgroups(cyclic_group(1))
    assert len(subs) == 1


def test_subgroups_s3_oracle():
    subs = subgroups(s3())
    assert brute_force_subgroups(s3()) == {s.elements for s in subs}
    assert len(subs) == 6  # 1, three C2, C3, S3
    normal_orders = sorted(s.order for s in subs if s.is_normal)
    assert normal_orders == [1, 3, 6]


def all_products_closure(g, seed):
    """Oracle for the subgroup generated by `seed`: close the set under
    products in both orders with every element found so far."""
    out, t = set(seed) | {0}, mult_table(g)
    frontier = list(out)
    while frontier:
        new = []
        for x in frontier:
            for y in list(out):
                for z in (t[x][y], t[y][x]):
                    if z not in out:
                        out.add(z)
                        new.append(z)
        frontier = new
    return frozenset(out)


def all_joins_lattice(g):
    """Oracle for the subgroup lattice: cyclic subgroups, then the join
    of every pair (nested pairs included) until nothing new appears."""
    found = {all_products_closure(g, {x}) for x in range(g.order)}
    while True:
        new = {all_products_closure(g, a | b) for a, b in itertools.combinations(found, 2)}
        if new <= found:
            return found
        found |= new


def test_subgroup_closure_matches_the_table_oracle():
    """`FiniteGroup.subgroup`, a walk of the Cayley graph, against the
    closure over the n x n table: every cyclic subgroup, and the subgroup
    of every prefix of the holonomy generators, on the catalog and the
    seed-1 corpora of all three workloads."""
    groups = [catalog_get(key).group for key in catalog_list()]
    for workload in ("analyze", "connective", "lattice"):
        groups += [document_to_group(item.doc) for item in corpus_items(workload)]
    for group in groups:
        g, gens = group.holonomy, group.holonomy_generator_indices()
        table = mult_table(g)
        for s in range(g.order):
            assert g.subgroup((s,)) == _closure(table, (s,)), group.name
        for k in range(len(gens) + 1):
            assert g.subgroup(gens[:k]) == _closure(table, gens[:k]), group.name
        assert len(g.subgroup(gens)) == g.order
    assert len(groups) > 300 and max(group.holonomy_order for group in groups) >= 48


def test_subgroup_lattice_matches_all_joins_oracle():
    groups = [finite_group_from_holonomy(catalog_get(k).group) for k in catalog_list()]
    groups += [s3(), klein_four(), semidirect_cyclic(5, 4, 2)]
    rng = random.Random(17)
    while len(groups) < 30:
        h = signed_permutation_group(rng, rng.randint(2, 4), order_bound=24)
        groups.append(finite_group_from_holonomy(h))
    assert max(g.order for g in groups) >= 16
    for g in groups:
        assert set(all_subgroups(g)) == all_joins_lattice(g)


# ---------------------------------------------------------------- sylow

def test_sylow_s3():
    syl3 = sylow_subgroup(s3(), 3)
    assert syl3.order == 3
    syl2 = sylow_subgroup(s3(), 2)
    assert syl2.order == 2


def test_sylow_whole_group():
    g = cyclic_group(4)
    assert sylow_subgroup(g, 2).order == 4
    assert sylow_subgroup(klein_four(), 2).order == 4


def test_sylow_bad_prime():
    with pytest.raises(ValueError):
        sylow_subgroup(cyclic_group(4), 3)


def test_sylow_orders_various():
    for g, p, want in [
        (cyclic_group(12), 2, 4),
        (cyclic_group(12), 3, 3),
        (semidirect_cyclic(3, 4, 2), 2, 4),
        (semidirect_cyclic(7, 3, 2), 7, 7),
    ]:
        assert sylow_subgroup(g, p).order == want


# ---------------------------------------------------------------- complements

def test_normal_complement_s3():
    ok, witness = has_normal_complement(s3(), sylow_subgroup(s3(), 2))
    assert ok and witness.order == 3


def test_normal_complement_whole_group():
    g = cyclic_group(4)
    ok, witness = has_normal_complement(g, sylow_subgroup(g, 2))
    assert ok and witness.order == 1


def test_normal_complement_klein_four():
    g = klein_four()
    some_c2 = next(s for s in subgroups(g) if s.order == 2)
    ok, witness = has_normal_complement(g, some_c2)
    assert ok and witness.order == 2


# ---------------------------------------------------------------- primitivity

def test_primitivity_cyclic_groups():
    for n in (1, 2, 3, 4, 6, 12):
        assert is_primitive(cyclic_group(n)) is False


def test_primitivity_klein_four():
    assert is_primitive(klein_four()) is True


def test_primitivity_s3():
    assert is_primitive(s3()) is False


def test_primitivity_p_squared():
    assert is_primitive(direct_product(cyclic_group(3), cyclic_group(3))) is True


def test_primitivity_hw_holonomy():
    assert is_primitive(finite_group_from_holonomy(hw_group())) is True


def primitive_via_quotients(g):
    """Oracle for `is_primitive`: g is primitive iff no cyclic Sylow
    subgroup is isomorphic to a quotient of g, i.e. no normal subgroup
    has a cyclic quotient whose order is a full prime power of |g|."""
    if g.order == 1:
        return False  # the trivial group counts as cyclic
    sylow_orders = set()
    n, p = g.order, 2
    while n > 1:
        q = 1
        while n % p == 0:
            n //= p
            q *= p
        if q > 1:
            sylow_orders.add(q)
        p += 1
    for sub in subgroups(g):
        if sub.is_normal:
            quot, _ = quotient_group(g, sub.elements)
            if quot.order in sylow_orders and is_cyclic(quot):
                return False
    return True


def lattice_is_primitive(group):
    """`is_primitive` before Tate's criterion: each Sylow subgroup and a
    normal complement are looked up in the subgroup lattice."""
    if group.order == 1:
        return False  # the trivial group counts as cyclic
    for p in prime_factors(group.order):
        syl = sylow_subgroup(group, p)
        syl_group = subgroup_as_group(group, syl.elements)
        if is_cyclic(syl_group) and has_normal_complement(group, syl)[0]:
            return False
    return True


def lattice_in_coprime_class(group):
    """`in_coprime_class` before the cyclic-Sylow test: every group
    that is not cyclic searches the subgroup lattice."""
    if is_cyclic(group):
        return (group.order,)
    subs = subgroups(group)
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
        if not is_cyclic(comp_group):
            continue
        for normal in subs:
            if not normal.is_normal or normal.order != want:
                continue
            if normal.elements & comp.elements != {0}:
                continue
            inner = lattice_in_coprime_class(subgroup_as_group(group, normal.elements))
            if inner is not None:
                return inner + (m,)
    return None


def prime_factors(n):
    """The primes dividing n, in increasing order."""
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]


def test_primitivity_matches_quotient_criterion():
    corpus = coprime_class_corpus() + split_corpus()
    corpus += [cyclic_group(n) for n in (1, 2, 3, 4, 6, 12)]
    corpus += [klein_four(), direct_product(cyclic_group(3), cyclic_group(3))]
    corpus += [finite_group_from_holonomy(catalog_get(k).group) for k in catalog_list()]
    rng = random.Random(9)
    for _ in range(40):
        g = signed_permutation_group(rng, rng.randint(2, 6))
        corpus.append(finite_group_from_holonomy(g))
    for g in corpus:
        assert is_primitive(g) == primitive_via_quotients(g), g.order


# ---------------------------------------------------------------- coprime class

def test_coprime_class_cyclic_leaf():
    assert in_coprime_class(cyclic_group(12)) == (12,)


def test_coprime_class_s3():
    assert in_coprime_class(s3()) == (3, 2)


def test_coprime_class_klein_four_rejected():
    assert in_coprime_class(klein_four()) is None


def test_coprime_class_frobenius20():
    orders = in_coprime_class(semidirect_cyclic(5, 4, 2))
    assert orders is not None and sorted(orders) == [4, 5]


def coprime_class_corpus():
    return [
        cyclic_group(6),
        s3(),
        semidirect_cyclic(3, 4, 2),
        semidirect_cyclic(7, 3, 2),
        semidirect_cyclic(5, 4, 3),
        klein_four(),
        direct_product(cyclic_group(2), cyclic_group(4)),
    ]


def test_coprime_class_implies_not_primitive():
    for g in coprime_class_corpus():
        if in_coprime_class(g) is not None:
            assert is_primitive(g) is False


# ---------------------------------------------------------------- lemma 3.6 splits

def coprime_split_parts(g):
    """Find (K, C) making g an internal coprime semidirect product."""
    subs = subgroups(g)
    for k in subs:
        if not k.is_normal:
            continue
        for c in subs:
            if (
                k.order * c.order == g.order
                and gcd(k.order, c.order) == 1
                and k.elements & c.elements == {0}
                and k.order > 1
                and c.order > 1
            ):
                return k, c
    return None


def test_split_properties_s3():
    g = s3()
    k, c = coprime_split_parts(g)
    report = coprime_split_properties(g, k, c)
    assert report.ok
    assert len(report.checks) == 3  # 1, C3, S3


def test_split_properties_z6():
    g = cyclic_group(6)
    k, c = coprime_split_parts(g)
    report = coprime_split_properties(g, k, c)
    assert report.ok


def split_corpus():
    return [
        cyclic_group(6),
        cyclic_group(10),
        cyclic_group(12),
        cyclic_group(15),
        cyclic_group(21),
        s3(),
        semidirect_cyclic(5, 2, 4),  # dihedral of order 10
        semidirect_cyclic(7, 2, 6),  # dihedral of order 14
        semidirect_cyclic(3, 4, 2),
        semidirect_cyclic(7, 3, 2),
        semidirect_cyclic(5, 4, 2),
        semidirect_cyclic(5, 4, 3),
        semidirect_cyclic(11, 2, 10),
    ]


def test_split_properties_corpus_order_24():
    for g in split_corpus():
        parts = coprime_split_parts(g)
        assert parts is not None, "corpus group admits no coprime split"
        report = coprime_split_properties(g, *parts)
        assert report.ok, f"split properties failed for order {g.order}"


def test_split_precondition_violations():
    g = klein_four()
    subs = subgroups(g)
    a = next(s for s in subs if s.order == 2)
    b = next(s for s in subs if s.order == 2 and s.elements != a.elements)
    with pytest.raises(ValueError):
        coprime_split_properties(g, a, b)  # orders 2,2 not coprime


# ---------------------------------------------------------------- structure ids

def test_structure_names():
    assert structure_name(cyclic_group(1)) == "trivial"
    assert structure_name(cyclic_group(6)) == "Z/6"
    assert structure_name(klein_four()) == "Z/2 + Z/2"
    assert structure_name(s3()) == "nonabelian of order 6"
    assert structure_name(direct_product(cyclic_group(2), cyclic_group(4))) == "Z/4 + Z/2"


def test_subgroup_as_group_reindexes():
    g = s3()
    syl3 = sylow_subgroup(g, 3)
    sub = subgroup_as_group(g, syl3.elements)
    assert sub.order == 3 and is_cyclic(sub)
