import itertools
import random
from fractions import Fraction

import pytest

import bieberbach.crystal as crystal
from bieberbach.calabi import is_connective, surjection_to_Z
from bieberbach.catalog import catalog_get, catalog_list
from bieberbach.crystal import (
    AffineGen, ClosureBudgetExceeded, CrystalError, HolonomyNotFaithful, TorsionWitness,
    build_group, is_torsion_free, norm_solution, torsion_witness
)
from bieberbach.groupfile import document_to_group, group_to_document
from bieberbach.linalg import IntMatrix
from oracles import (
    NotInGroup, affine_identity, affine_product, brute_force_torsion, corpus_items,
    element_normal_form, hw_group, inverses, klein_bottle, mult_table, random_signed_permutation,
    reconstruct_element, solve_integer_linear, torus, translation_of
)
from test_build_oracle import full_cocycle, random_rotation_generator
from test_calabi import random_diagonal_group, random_screw_group


F = Fraction


# ---------------------------------------------------------------- build

def test_build_hw():
    g = hw_group()
    assert g.holonomy_order == 4
    assert all(order == 2 for order in g.holonomy.orders[1:])
    # defining relations x^2 y x^2 = y and y^2 x y^2 = x
    x, y = g.generators
    x2 = affine_product(x, x)
    y2 = affine_product(y, y)
    assert affine_product(affine_product(x2, y), x2) == y
    assert affine_product(affine_product(y2, x), y2) == x


def test_build_torus():
    g = torus(2)
    assert g.holonomy_order == 1
    assert g.holonomy_generator_indices() == ()  # both generators map to the identity


def test_build_klein_bottle():
    g = klein_bottle()
    assert g.holonomy_order == 2
    (s,) = g.holonomy_generator_indices()
    assert g.elements[s].matrix == g.generators[0].matrix
    assert g.edge_cocycle[s] == ((1, 0),)
    assert full_cocycle(g)[s][s] == (1, 0)


def test_holonomy_generators_are_the_distinct_generator_images():
    """The identity's row of the Cayley graph lists the distinct
    non-identity generator images in first-seen order, on the catalog and
    the seed-1 benchmark corpora."""
    groups = [catalog_get(key).group for key in catalog_list()]
    for workload in ("analyze", "lattice", "connective"):
        groups += [document_to_group(item.doc) for item in corpus_items(workload)]
    for g in groups:
        index = {e.matrix: i for i, e in enumerate(g.elements)}
        images = tuple(dict.fromkeys(index[x.matrix] for x in g.generators))
        images = tuple(idx for idx in images if idx != 0)
        assert g.holonomy_generator_indices() == images, g.name


def test_build_dim0():
    g = build_group(0, [], name="point")
    assert g.dim == 0
    assert g.holonomy_order == 1
    doc = {"dimension": 0, "generators": [{"matrix": [], "translation": []}]}
    point = document_to_group(doc)
    assert point.holonomy_order == 1 and point.generators == (AffineGen.of([], ()),)


def test_build_rejects_non_unimodular():
    with pytest.raises(ValueError):
        AffineGen.of([[2, 0], [0, 1]], (0, 0))


def test_of_reads_a_one_shot_translation_once():
    half = AffineGen.of([[1]], (x for x in [F(1, 2)]))
    assert half == AffineGen.of([[1]], (F(1, 2),)) and translation_of(half) == (F(1, 2),)


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
        cocycle = full_cocycle(g)
        for i in range(n):
            assert cocycle[0][i] == zero
            assert cocycle[i][0] == zero
        assert translation_of(g.elements[0]) == (F(0),) * g.dim
        assert all(tau == zero for tau in g.edge_cocycle[0])


def test_cocycle_associativity():
    # tau(s,t) + tau(st,u) = A(s) tau(t,u) + tau(s,tu), for all triples
    for g in (hw_group(), klein_bottle()):
        n, mult = g.holonomy_order, mult_table(g.holonomy)
        c = full_cocycle(g)
        for s, t, u in itertools.product(range(n), repeat=3):
            left = tuple(a + b for a, b in zip(c[s][t], c[mult[s][t]][u]))
            right = tuple(
                a + b for a, b in zip(g.elements[s].matrix.apply(c[t][u]), c[s][mult[t][u]])
            )
            assert left == right


def test_mult_table_is_group():
    g = hw_group()
    n = g.holonomy_order
    mult, inverse = mult_table(g.holonomy), inverses(g.holonomy)
    for i in range(n):
        assert mult[0][i] == i and mult[i][0] == i
        assert mult[i][inverse[i]] == 0
    for i, j, k in itertools.product(range(n), repeat=3):
        assert mult[mult[i][j]][k] == mult[i][mult[j][k]]


# ---------------------------------------------------------------- affine ops

def test_the_constructor_writes_the_translation_in_lowest_terms():
    g = AffineGen.of([[1, 0], [0, 1]], (F(1, 2), F(2, 3)))
    assert (g.shift, g.denominator, translation_of(g)) == ((3, 4), 6, (F(1, 2), F(2, 3)))
    g = AffineGen.of([[1, 0], [0, 1]], (F(4, 2), -3))
    assert (g.shift, g.denominator) == ((2, -3), 1)
    assert AffineGen.of([[1]], (F(2, 4),)) == AffineGen.of([[1]], (F(1, 2),))


@pytest.mark.parametrize("entry", [0.1, 0.5, 1.0, "1/2", None])
def test_the_constructor_rejects_translation_entries_that_are_not_exact(entry):
    """Only ints and Fractions are exact rationals: a float such as 0.1
    would be read as 3602879701896397/36028797018963968."""
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        AffineGen.of([[1]], (entry,))
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        AffineGen(IntMatrix.identity(2), (0, entry))


def test_klein_square_is_translation():
    g = klein_bottle().generators[0]
    sq = affine_product(g, g)
    assert sq.matrix == IntMatrix.identity(2)
    assert translation_of(sq) == (F(1), F(0))


def test_hw_xy_product():
    gx, gy = hw_group().generators
    prod = affine_product(gx, gy)
    assert prod.matrix == IntMatrix([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
    assert translation_of(prod) == (F(1, 2), F(0), F(-1, 2))


# ---------------------------------------------------------------- normal form

def test_normal_form_identity():
    g = torus(2)
    elem, lam = element_normal_form(affine_identity(2), g)
    assert g.elements.index(elem) == 0 and lam == (0, 0)


def test_normal_form_pure_translation():
    g = torus(2)
    elem, lam = element_normal_form(
        AffineGen(IntMatrix.identity(2), (F(2), F(-1))), g
    )
    assert g.elements.index(elem) == 0 and lam == (2, -1)


def test_normal_form_klein_square():
    g = klein_bottle()
    sq = affine_product(g.generators[0], g.generators[0])
    elem, lam = element_normal_form(sq, g)
    assert g.elements.index(elem) == 0 and lam == (1, 0)


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
            assert (g.elements.index(elem), lam2) == (idx, lam)


# ---------------------------------------------------------------- torsion

# quarter, third and sixth turns about the third axis
R90 = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
R120 = [[0, -1, 0], [1, -1, 0], [0, 0, 1]]
R60 = [[0, -1, 0], [1, 1, 0], [0, 0, 1]]


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
    a = reconstruct_element(g, g.elements.index(w.element), w.correction)
    assert affine_product(a, a) == affine_identity(3)
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
    s = quarter.holonomy_generator_indices()[0]
    assert w.order == 2 and w.element == quarter.elements[mult_table(quarter.holonomy)[s][s]]
    assert_witness_is_torsion(quarter, w)


# ---------------------------------------------------------------- the per-element oracle

def per_element_torsion_witness(group):
    """The earlier `torsion_witness`, kept verbatim as an oracle: it
    builds N_s from matrix products and solves once per holonomy element.

    For a representative g_s of order m over the lattice, torsion in
    the coset exists iff N_s (a_s + lam) = 0 has an integer solution,
    where N_s = sum of A(s)^j over j < m.
    """
    for s, elem in enumerate(group.elements[1:], start=1):
        m = group.holonomy.orders[s]
        acc = IntMatrix.identity(group.dim)
        norm = IntMatrix.zeros(group.dim, group.dim)
        for _ in range(m):
            norm = norm + acc
            acc = acc * elem.matrix
        rhs_frac = norm.apply(translation_of(elem))
        # g_s^m is a lattice element, so N_s a_s is integral
        if any(x.denominator != 1 for x in rhs_frac):
            raise AssertionError("representative power left the lattice")
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
    s = group.elements.index(w.element)
    assert is_prime(w.order) and group.holonomy.orders[s] == w.order
    a = reconstruct_element(group, s, w.correction)
    power, identity = a, affine_identity(group.dim)
    for _ in range(w.order - 1):
        assert power != identity
        power = affine_product(power, a)
    assert power == identity


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


# ---------------------------------------------------------------- the mod-p solve

def prime_order_norm_equations(group):
    """(s, p, N_s, b) for one element s per cyclic subgroup of prime order
    p: N_s is summed from matrix products, and b = -N_s t_s."""
    ident = IntMatrix.identity(group.dim)
    seen = set()
    for elem in group.elements:
        powers = [ident]
        while len(powers) == 1 or powers[-1] != ident:
            powers.append(powers[-1] * elem.matrix)
        powers.pop()
        key = frozenset(powers)
        if not is_prime(len(powers)) or key in seen:
            continue
        seen.add(key)
        norm = IntMatrix.zeros(group.dim, group.dim)
        for m in powers:
            norm = norm + m
        rhs = norm.apply(translation_of(elem))
        assert all(x.denominator == 1 for x in rhs)  # g_s^p is a lattice translation
        yield elem, len(powers), norm, tuple(-int(x) for x in rhs)


def assert_norm_solutions_match_the_smith_oracle(group) -> int:
    """Per prime-order cyclic subgroup, the mod-p solve and the Smith
    solve agree on whether N_s lam = b has an integer solution, and the
    mod-p lam solves it exactly and names torsion.  Returns the number
    of subgroups whose coset holds torsion."""
    solvable = 0
    for elem, p, norm, b in prime_order_norm_equations(group):
        lam = norm_solution(norm, b, p)
        assert (lam is None) == (solve_integer_linear(norm, b) is None), (group.name, p)
        if lam is not None:
            assert norm.apply(lam) == b
            assert_witness_is_torsion(group, TorsionWitness(element=elem, correction=lam, order=p))
            solvable += 1
    return solvable


def companion_of_phi7():
    """The companion matrix of 1 + x + ... + x^6: order 7, no fixed vector."""
    return [[int(i == j + 1) - (j == 5) for j in range(6)] for i in range(6)]


def odd_prime_groups():
    """Z/5 by the 5-cycle permutation matrix and Z/7 by the companion
    matrix of Phi_7, each alone and beside one fixed coordinate, with
    random shifts over q in {p, 2p}; draws that do not close to a
    standard-form group are skipped."""
    rng = random.Random(57)
    groups = []
    for mat, p in ((permutation_rows((1, 2, 3, 4, 0)), 5), (companion_of_phi7(), 7)):
        for extra in (0, 1):
            k = len(mat) + extra
            rows = [row + [0] * extra for row in mat] + [[0] * len(mat) + [1]] * extra
            for q in (p, 2 * p):
                built = 0
                while built < 6:
                    shift = [F(rng.randrange(q), q) for _ in range(k)]
                    try:
                        groups.append(build_group(k, [AffineGen.of(rows, shift)], name=f"z{p}"))
                    except HolonomyNotFaithful:
                        continue
                    built += 1
    return groups


def test_mod_p_norm_solution_matches_the_smith_solve():
    """On the oracle corpus (the catalog included), the seed 1-3 `analyze`
    and `connective` benchmark corpora, and odd primes."""
    groups = [g for gs, _ in oracle_corpus().values() for g in gs]
    for workload in ("analyze", "connective"):
        for seed in (1, 2, 3):
            groups += [document_to_group(item.doc) for item in corpus_items(workload, seed)]
    for g in groups:
        assert_norm_solutions_match_the_smith_oracle(g)
    odd = odd_prime_groups()
    torsion = [assert_norm_solutions_match_the_smith_oracle(g) for g in odd]
    # no Z[Z/5] or Z[zeta_7] extension is torsion free; a fixed coordinate
    # with a 1/p screw is
    assert all(torsion[i] for i in range(12)) and all(torsion[i] for i in range(24, 36))
    assert 0 < torsion[12:24].count(0) < 12 and 0 < torsion[36:].count(0) < 12


def test_norm_solution_lifts_a_solution_mod_p():
    """With A the 3-cycle, N is all ones: b = (3, 3, 3) is N (1, 1, 1), but
    the mod-3 solve sees b = 0 and returns x = 0, so the lift (b - N x)/p
    does all the work."""
    three_cycle = IntMatrix(permutation_rows((1, 2, 0)))
    norm = IntMatrix.identity(3) + three_cycle + three_cycle * three_cycle
    lam = norm_solution(norm, (3, 3, 3), 3)
    assert lam == (1, 1, 1) and norm.apply(lam) == (3, 3, 3)
    assert norm_solution(norm, (1, 1, 1), 3) == (1, 0, 0)


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
    real_solve = crystal.norm_solution

    def counting_mul(a, b):
        products.append(1)
        return real_mul(a, b)

    def counting_solve(*args):
        solves.append(args)
        return real_solve(*args)

    monkeypatch.setattr(IntMatrix, "__mul__", counting_mul)
    monkeypatch.setattr(crystal, "norm_solution", counting_solve)
    witness = torsion_witness(group)
    monkeypatch.undo()

    assert products == []
    assert (witness is None) == torsion_free
    if torsion_free:  # a torsion-free verdict needs every subgroup checked
        assert len(solves) == subgroups
    else:
        assert 1 <= len(solves) <= subgroups


# ---------------------------------------------------------------- integer translations

def test_group_core_makes_no_fractions(monkeypatch):
    """`build_group`, `torsion_witness`, `surjection_to_Z` and the whole
    `is_connective` chain, `calabi_kernel` included, read each element's
    integer shift over its denominator and build no `Fraction`, counted
    at `Fraction.__new__` wherever it is called.  The Fraction
    translation is derived from the shift on demand."""
    inputs = [
        (g.dim, g.generators, g.name)
        for groups, _ in oracle_corpus().values()
        for g in groups
    ]
    connective = [document_to_group(item.doc) for item in corpus_items("connective")]
    inputs += [(g.dim, g.generators, g.name) for g in connective]
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    groups, stages = [], 0
    for dim, gens, name in inputs:
        group = build_group(dim, gens, name=name)
        torsion_free = torsion_witness(group) is None
        surjection_to_Z(group)
        if torsion_free:
            stages += len(is_connective(group).chain)
        groups.append(group)
    monkeypatch.undo()

    assert made == []
    assert stages > len(connective)  # the chain peeled more than once per group
    denominators = set()
    for group in groups:
        q = group.denominator
        denominators.add(q)
        for e in group.elements:
            assert e.denominator == q
            assert all(type(x) is int and 0 <= x < q for x in e.shift)
            assert translation_of(e) == tuple(Fraction(x, q) % 1 for x in e.shift)
    assert {1, 2, 3, 4, 6} <= denominators


def test_group_documents_print_translations_without_fractions(monkeypatch):
    """`group_to_document` writes each generator's translation entry p/q
    from its shift over its denominator, as `str` writes the Fraction
    (whole, zero and negative entries included), and builds no
    `Fraction`.  The groups are the catalog, hand-made generators with
    negative and whole translations, and every stage of the catalog's
    Calabi chains."""
    catalog = [catalog_get(key).group for key in catalog_list()]
    groups = catalog + [
        build_group(2, [AffineGen.of([[1, 0], [0, -1]], (F(-1, 2), 0))]),
        build_group(2, [AffineGen.of([[1, 0], [0, -1]], (F(5, 2), F(-1, 3)))]),
        build_group(1, [AffineGen.of([[-1]], (F(-7, 4),)), AffineGen.of([[1]], (3,))]),
    ]
    groups += [
        step.kernel_group for g in catalog if is_torsion_free(g) for step in is_connective(g).chain
    ]
    expected = [[[str(x) for x in translation_of(gen)] for gen in g.generators] for g in groups]
    assert any(x.startswith("-") for doc in expected for gen in doc for x in gen)
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    docs = [group_to_document(g) for g in groups]
    monkeypatch.undo()

    assert made == []
    assert [[gen["translation"] for gen in doc["generators"]] for doc in docs] == expected
