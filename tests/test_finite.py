import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from bieberbach.catalog import catalog_get, catalog_list
from bieberbach.crystal import AffineGen, build_group
from bieberbach.finite import (
    OrderBudgetExceeded,
    all_subgroups,
    abelian_invariant_factors,
    coprime_split_properties,
    cyclic_group,
    direct_product,
    finite_group,
    finite_group_from_holonomy,
    has_normal_complement,
    in_coprime_class,
    is_primitive,
    quotient_group,
    semidirect_cyclic,
    structure_name,
    subgroup_as_group,
    sylow_subgroup,
)
from test_invariants import signed_permutation_group


F = Fraction


def hw_group():
    x = AffineGen.of([[1, 0, 0], [0, -1, 0], [0, 0, -1]], (F(1, 2), F(1, 2), 0))
    y = AffineGen.of([[-1, 0, 0], [0, 1, 0], [0, 0, -1]], (0, F(1, 2), F(1, 2)))
    return build_group(3, [x, y], name="hw")


def s3():
    return semidirect_cyclic(3, 2, 2)


def klein_four():
    return direct_product(cyclic_group(2), cyclic_group(2))


def brute_force_subgroups(g):
    """Oracle: test every subset containing the identity."""
    out = set()
    n = g.order
    rest = [i for i in range(n) if i != 0]
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            subset = frozenset(combo) | {0}
            if all(g.table[a][b] in subset for a in subset for b in subset):
                out.add(subset)
    return out


# ---------------------------------------------------------------- tables

def test_from_holonomy():
    d = finite_group_from_holonomy(hw_group())
    assert d.order == 4
    assert all(o == 2 for o in d.orders[1:])
    assert d.is_abelian() and not d.is_cyclic()


def test_trivial_and_cyclic():
    assert finite_group_from_holonomy(build_group(0, [])).order == 1
    rot = AffineGen.of([[0, -1, 0], [1, 0, 0], [0, 0, 1]], (0, 0, F(1, 4)))
    d = finite_group_from_holonomy(build_group(3, [rot]))
    assert d.order == 4 and d.is_cyclic()


def test_bad_tables_rejected():
    with pytest.raises(ValueError):
        finite_group([[0, 1], [1, 1]])  # not a group law
    with pytest.raises(ValueError):
        finite_group([[1, 0], [0, 1]])  # identity not at 0


def test_semidirect_requires_action():
    with pytest.raises(ValueError):
        semidirect_cyclic(5, 2, 2)  # 2^2 = 4 != 1 mod 5


# ---------------------------------------------------------------- subgroups

def test_subgroups_klein_four():
    subs = all_subgroups(klein_four())
    assert len(subs) == 5
    assert brute_force_subgroups(klein_four()) == {s.elements for s in subs}
    assert all(s.is_normal for s in subs)


def test_subgroups_c4():
    subs = all_subgroups(cyclic_group(4))
    assert len(subs) == 3
    assert brute_force_subgroups(cyclic_group(4)) == {s.elements for s in subs}


def test_subgroups_trivial():
    subs = all_subgroups(cyclic_group(1))
    assert len(subs) == 1


def test_subgroups_s3_oracle():
    subs = all_subgroups(s3())
    assert brute_force_subgroups(s3()) == {s.elements for s in subs}
    assert len(subs) == 6  # 1, three C2, C3, S3
    normal_orders = sorted(s.order for s in subs if s.is_normal)
    assert normal_orders == [1, 3, 6]


def test_subgroup_budget():
    g = cyclic_group(6)
    assert len(all_subgroups(g)) == 4
    with pytest.raises(OrderBudgetExceeded):
        all_subgroups(g, budget=4)  # checked even once the lattice is known
    with pytest.raises(OrderBudgetExceeded):
        is_primitive(cyclic_group(6), budget=4)
    with pytest.raises(OrderBudgetExceeded):
        in_coprime_class(cyclic_group(6), budget=4)


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
    some_c2 = next(s for s in all_subgroups(g) if s.order == 2)
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
    for sub in all_subgroups(g):
        if sub.is_normal:
            quot, _ = quotient_group(g, sub.elements)
            if quot.order in sylow_orders and quot.is_cyclic():
                return False
    return True


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
    tree = in_coprime_class(cyclic_group(12))
    assert tree is not None and tree.orders() == (12,)


def test_coprime_class_s3():
    tree = in_coprime_class(s3())
    assert tree is not None
    assert sorted(tree.orders()) == [2, 3]
    assert tree.complement_order == 2


def test_coprime_class_klein_four_rejected():
    assert in_coprime_class(klein_four()) is None


def test_coprime_class_frobenius20():
    tree = in_coprime_class(semidirect_cyclic(5, 4, 2))
    assert tree is not None and sorted(tree.orders()) == [4, 5]


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
    subs = all_subgroups(g)
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
    subs = all_subgroups(g)
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
    assert abelian_invariant_factors(direct_product(cyclic_group(2), cyclic_group(4))) == (4, 2)


def test_subgroup_as_group_reindexes():
    g = s3()
    syl3 = sylow_subgroup(g, 3)
    sub = subgroup_as_group(g, syl3.elements)
    assert sub.order == 3 and sub.is_cyclic()
