import itertools
import random
from fractions import Fraction

import pytest

import bieberbach.crystal as crystal
from bieberbach.catalog import catalog_get, catalog_list
from bieberbach.crystal import (
    AffineGen,
    ClosureBudgetExceeded,
    CrystalError,
    HolonomyNotFaithful,
    NonIntegralCocycle,
    NotInGroup,
    TorsionWitness,
    build_group,
    element_normal_form,
    invert,
    is_torsion_free,
    multiply,
    reconstruct_element,
    torsion_witness,
)
from bieberbach.linalg import IntMatrix, solve_integer_linear
from test_build_oracle import random_rotation_generator, random_signed_permutation
from test_calabi import random_diagonal_group, random_screw_group


F = Fraction


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


# ---------------------------------------------------------------- build

def test_build_hw():
    g = hw_group()
    assert g.holonomy_order == 4
    assert all(e.order == 2 for e in g.elements if e.index != 0)
    # defining relations x^2 y x^2 = y and y^2 x y^2 = x
    x, y = g.generators
    x2 = x * x
    y2 = y * y
    assert multiply(multiply(x2, y), x2) == y
    assert multiply(multiply(y2, x), y2) == x


def test_build_torus():
    g = torus(2)
    assert g.holonomy_order == 1
    assert g.generator_images == (0, 0)


def test_build_klein_bottle():
    g = klein_bottle()
    assert g.holonomy_order == 2
    s = g.generator_images[0]
    assert g.cocycle[s][s] == (1, 0)


def test_build_dim0():
    g = build_group(0, [], name="point")
    assert g.dim == 0
    assert g.holonomy_order == 1


def test_build_rejects_non_unimodular():
    with pytest.raises(ValueError):
        AffineGen.of([[2, 0], [0, 1]], (0, 0))


def test_build_budget():
    # an infinite-order integral matrix never closes
    shear = AffineGen.of([[1, 1], [0, 1]], (0, 0))
    with pytest.raises(ClosureBudgetExceeded):
        build_group(2, [shear], closure_budget=50)


def test_build_not_faithful():
    # a half-integer pure translation collides with the identity matrix
    t = AffineGen.of([[1, 0], [0, 1]], (F(1, 2), 0))
    with pytest.raises(HolonomyNotFaithful):
        build_group(2, [t])


def test_cocycle_identity_rows():
    for g in (hw_group(), klein_bottle(), torus(3)):
        n = g.holonomy_order
        zero = (0,) * g.dim
        for i in range(n):
            assert g.cocycle[0][i] == zero
            assert g.cocycle[i][0] == zero
        assert g.elements[0].translation == (F(0),) * g.dim


def test_cocycle_associativity():
    # tau(s,t) + tau(st,u) = A(s) tau(t,u) + tau(s,tu), for all triples
    for g in (hw_group(), klein_bottle()):
        n = g.holonomy_order
        for s, t, u in itertools.product(range(n), repeat=3):
            left = tuple(
                a + b for a, b in zip(g.cocycle[s][t], g.cocycle[g.mult[s][t]][u])
            )
            right = tuple(
                a + b
                for a, b in zip(
                    g.elements[s].matrix.apply(g.cocycle[t][u]), g.cocycle[s][g.mult[t][u]]
                )
            )
            assert left == right


def test_mult_table_is_group():
    g = hw_group()
    n = g.holonomy_order
    for i in range(n):
        assert g.mult[0][i] == i and g.mult[i][0] == i
        assert g.mult[i][g.inverse[i]] == 0
    for i, j, k in itertools.product(range(n), repeat=3):
        assert g.mult[g.mult[i][j]][k] == g.mult[i][g.mult[j][k]]


# ---------------------------------------------------------------- affine ops

def test_multiply_invert_roundtrip():
    rng = random.Random(7)
    g = hw_group()
    for _ in range(20):
        elem = g.elements[rng.randrange(g.holonomy_order)]
        lam = tuple(rng.randint(-3, 3) for _ in range(3))
        a = reconstruct_element(g, elem.index, lam)
        assert multiply(a, invert(a)).is_identity()
        assert multiply(invert(a), a).is_identity()


def test_klein_square_is_translation():
    g = klein_bottle().generators[0]
    sq = multiply(g, g)
    assert sq.matrix == IntMatrix.identity(2)
    assert sq.translation == (F(1), F(0))


def test_hw_xy_product():
    gx, gy = hw_group().generators
    prod = multiply(gx, gy)
    assert prod.matrix == IntMatrix([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
    assert prod.translation == (F(1, 2), F(0), F(-1, 2))


# ---------------------------------------------------------------- normal form

def test_normal_form_identity():
    g = torus(2)
    elem, lam = element_normal_form(AffineGen.identity(2), g)
    assert elem.index == 0 and lam == (0, 0)


def test_normal_form_pure_translation():
    g = torus(2)
    elem, lam = element_normal_form(
        AffineGen(IntMatrix.identity(2), (F(2), F(-1))), g
    )
    assert elem.index == 0 and lam == (2, -1)


def test_normal_form_klein_square():
    g = klein_bottle()
    sq = multiply(g.generators[0], g.generators[0])
    elem, lam = element_normal_form(sq, g)
    assert elem.index == 0 and lam == (1, 0)


def test_normal_form_rejects_outsiders():
    g = klein_bottle()
    with pytest.raises(NotInGroup):
        element_normal_form(AffineGen.of([[0, 1], [1, 0]], (0, 0)), g)
    with pytest.raises(NotInGroup):
        element_normal_form(AffineGen(IntMatrix.identity(2), (F(1, 3), 0)), g)


def test_normal_form_roundtrip_random():
    rng = random.Random(8)
    for g in (hw_group(), klein_bottle(), torus(3)):
        for _ in range(30):
            idx = rng.randrange(g.holonomy_order)
            lam = tuple(rng.randint(-3, 3) for _ in range(g.dim))
            a = reconstruct_element(g, idx, lam)
            elem, lam2 = element_normal_form(a, g)
            assert (elem.index, lam2) == (idx, lam)


# ---------------------------------------------------------------- torsion

# quarter, third and sixth turns about the third axis
R90 = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
R120 = [[0, -1, 0], [1, -1, 0], [0, 0, 1]]
R60 = [[0, -1, 0], [1, 1, 0], [0, 0, 1]]


def brute_force_torsion(group, box=4):
    """Oracle: enumerate lattice corrections in a box and take powers."""
    for elem in group.elements:
        if elem.index == 0:
            continue
        for lam in itertools.product(range(-box, box + 1), repeat=group.dim):
            a = reconstruct_element(group, elem.index, lam)
            power = a
            for _ in range(elem.order - 1):
                power = multiply(power, a)
            if power.is_identity():
                return True
    return False


def test_hw_torsion_free():
    assert is_torsion_free(hw_group())


def test_point_group_has_torsion():
    x = AffineGen.of([[1, 0, 0], [0, -1, 0], [0, 0, -1]], (0, 0, 0))
    y = AffineGen.of([[-1, 0, 0], [0, 1, 0], [0, 0, -1]], (0, 0, 0))
    g = build_group(3, [x, y], name="hw_point")
    w = torsion_witness(g)
    assert w is not None
    assert w.order == 2
    # the witness element really is torsion
    a = reconstruct_element(g, w.element.index, w.correction)
    assert multiply(a, a).is_identity()
    # q = 1: each representative is linear, so g_s^p = 1 needs no correction
    for g in (g, cube_rotations()):
        w = torsion_witness(g)
        assert w.correction == (0, 0, 0)
        assert_witness_is_torsion(g, w)


def test_klein_torsion_free():
    assert is_torsion_free(klein_bottle())


def test_torsion_agrees_with_brute_force():
    x = AffineGen.of([[1, 0, 0], [0, -1, 0], [0, 0, -1]], (F(1, 2), F(1, 2), 0))
    zeroed = AffineGen.of([[1, 0, 0], [0, -1, 0], [0, 0, -1]], (0, 0, 0))
    groups = [
        hw_group(),
        klein_bottle(),
        torus(1),
        torus(2),
        torus(3),
        build_group(3, [zeroed], name="flipped_point"),
        build_group(3, [x], name="half_screw"),
        # torsion only in the coset of the square (a half turn)
        build_group(3, [AffineGen.of(R90, (0, 0, F(1, 2)))], name="quarter_screw"),
        # torsion free, with holonomy of order p = 3
        build_group(3, [AffineGen.of(R120, (0, 0, F(1, 3)))], name="third_screw"),
    ]
    for g in groups:
        assert is_torsion_free(g) == (not brute_force_torsion(g))
    quarter = groups[-2]
    assert [is_torsion_free(g) for g in groups[-2:]] == [False, True]
    w = torsion_witness(quarter)
    s = quarter.generator_images[0]
    assert w.order == 2 and w.element.index == quarter.mult[s][s]
    assert_witness_is_torsion(quarter, w)


# ---------------------------------------------------------------- the per-element oracle

def per_element_torsion_witness(group):
    """The earlier `torsion_witness`, kept verbatim as an oracle: it
    builds N_s from matrix products and solves once per holonomy element.

    For a representative g_s of order m over the lattice, torsion in
    the coset exists iff N_s (a_s + lam) = 0 has an integer solution,
    where N_s = sum of A(s)^j over j < m.
    """
    for elem in group.elements:
        if elem.index == 0:
            continue
        m = elem.order
        acc = IntMatrix.identity(group.dim)
        norm = IntMatrix.zeros(group.dim, group.dim)
        for _ in range(m):
            norm = norm + acc
            acc = acc * elem.matrix
        rhs_frac = norm.apply(elem.translation)
        # g_s^m is a lattice element, so N_s a_s is integral
        if any(x.denominator != 1 for x in rhs_frac):
            raise NonIntegralCocycle("representative power left the lattice")
        rhs = tuple(-int(x) for x in rhs_frac)
        sol = solve_integer_linear(norm, rhs)
        if sol is not None:
            return TorsionWitness(element=elem, correction=sol[0], order=m)
    return None


def is_prime(n):
    return n > 1 and all(n % d for d in range(2, n))


def assert_witness_is_torsion(group, w):
    """`w` names an element of prime order whose lift, shifted by the
    correction, has that order in the group."""
    assert is_prime(w.order) and w.element.order == w.order
    a = reconstruct_element(group, w.element.index, w.correction)
    power = a
    for _ in range(w.order - 1):
        assert not power.is_identity()
        power = multiply(power, a)
    assert power.is_identity()


def rank_duality_draws():
    """The 100 zero-translation signed-permutation groups of the
    acceptance rank-duality test (same seed and draws)."""
    rng = random.Random(2024)
    groups = []
    while len(groups) < 100:
        dim = rng.randint(2, 6)
        gens = [
            AffineGen(random_signed_permutation(rng, dim), (F(0),) * dim)
            for _ in range(rng.randint(1, 2))
        ]
        try:
            groups.append(build_group(dim, gens, closure_budget=48))
        except ClosureBudgetExceeded:
            continue
    return groups


def rotation_draws(q):
    """The rotation and screw groups with translation denominator
    dividing q that tests/test_build_oracle.py draws (same seed), those
    that build."""
    rng = random.Random(q)
    groups = []
    for _ in range(60):
        dim = rng.randint(2, 4)
        gens = [random_rotation_generator(rng, dim, q) for _ in range(rng.randint(1, 2))]
        try:
            groups.append(build_group(dim, gens, closure_budget=24))
        except CrystalError:
            continue
    return groups


def permutation_rows(images):
    n = len(images)
    return [[int(images[j] == i) for j in range(n)] for i in range(n)]


def signed_permutations_3(translations):
    """The order-48 group of 3x3 signed permutation matrices: a 3-cycle,
    a transposition and a sign change, with the given translations."""
    flip = [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]
    mats = [permutation_rows((1, 2, 0)), permutation_rows((1, 0, 2)), flip]
    return build_group(3, [AffineGen.of(m, t) for m, t in zip(mats, translations)], name="b3")


def cube_rotations():
    cycle = permutation_rows((1, 2, 0))
    return build_group(3, [AffineGen.of(R90, (0, 0, 0)), AffineGen.of(cycle, (0, 0, 0))])


def groups_with_torsion():
    h = F(1, 2)
    diag = [
        [[(-1 if i == j == k else int(i == j)) for j in range(4)] for i in range(4)]
        for k in range(3)
    ]
    return [
        signed_permutations_3([(0, 0, 0)] * 3),
        signed_permutations_3([(h, h, 0), (0, 0, h), (h, 0, 0)]),
        cube_rotations(),
        build_group(3, [AffineGen.of(R60, (0, 0, F(1, 2)))], name="sixth_screw_by_half"),
        build_group(3, [AffineGen.of(R90, (0, 0, F(1, 2)))], name="quarter_screw"),
        build_group(3, [AffineGen.of(R60, (F(1, 3), 0, F(1, 3)))], name="sixth_screw_by_third"),
        build_group(4, [AffineGen.of(m, (h, 0, 0, 0)) for m in diag], name="diagonal_points"),
    ]


def oracle_corpus():
    """Named families, each paired with its frozen count of torsion-free
    groups."""
    rng = random.Random(11)
    return {
        "catalog": ([catalog_get(key).group for key in catalog_list()], 11),
        "rank duality": (rank_duality_draws(), 2),
        "rotations": ([g for q in (3, 4, 6) for g in rotation_draws(q)], 5),
        # torsion free by construction, with holonomy elements of order 2-12
        "screws": ([random_screw_group(rng, rng.randint(3, 6)) for _ in range(20)], 20),
        "diagonal": ([random_diagonal_group(rng, 5, rng.randint(2, 3)) for _ in range(10)], 10),
        "with torsion": (groups_with_torsion(), 0),
    }


def test_torsion_matches_the_per_element_oracle():
    for family, (groups, torsion_free) in oracle_corpus().items():
        verdicts = []
        for g in groups:
            w = torsion_witness(g)
            assert (w is None) == (per_element_torsion_witness(g) is None), (family, g.name)
            if w is not None:
                assert_witness_is_torsion(g, w)
            verdicts.append(w is None)
        assert verdicts.count(True) == torsion_free, family


# ---------------------------------------------------------------- cost shape

def prime_order_cyclic_subgroups(group):
    """Brute force: the distinct sets of matrix powers of elements whose
    matrix has prime order."""
    ident = IntMatrix.identity(group.dim)
    subgroups = set()
    for e in group.elements:
        powers = [e.matrix]
        while powers[-1] != ident:
            powers.append(powers[-1] * e.matrix)
        if is_prime(len(powers)):
            subgroups.add(frozenset(powers))
    return len(subgroups)


@pytest.mark.parametrize(
    "make_group",
    [
        lambda: signed_permutations_3([(F(1, 2), F(1, 2), 0), (0, 0, F(1, 2)), (F(1, 2), 0, 0)]),
        lambda: random_diagonal_group(random.Random(3), 5, 4),
        lambda: catalog_get("dim3_c4").group,
        lambda: catalog_get("dim3_c6").group,
        lambda: signed_permutations_3([(0, 0, 0)] * 3),
    ],
    ids=["order48_half_translations", "diagonal_z2_4", "dim3_c4", "dim3_c6", "order48_points"],
)
def test_torsion_test_solves_once_per_prime_order_cyclic_subgroup(monkeypatch, make_group):
    shared = make_group()  # catalog groups may already hold a verdict
    group = build_group(shared.dim, shared.generators, name=shared.name)
    subgroups = prime_order_cyclic_subgroups(group)
    torsion_free = per_element_torsion_witness(group) is None
    products = []
    solves = []
    real_mul = IntMatrix.__mul__
    real_solve = crystal.solve_integer_linear

    def counting_mul(a, b):
        products.append(1)
        return real_mul(a, b)

    def counting_solve(*args):
        solves.append(args)
        return real_solve(*args)

    monkeypatch.setattr(IntMatrix, "__mul__", counting_mul)
    monkeypatch.setattr(crystal, "solve_integer_linear", counting_solve)
    witness = torsion_witness(group)
    monkeypatch.undo()

    assert products == []
    assert (witness is None) == torsion_free
    if torsion_free:  # a torsion-free verdict needs every subgroup checked
        assert len(solves) == subgroups
    else:
        assert 1 <= len(solves) <= subgroups
