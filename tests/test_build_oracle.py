"""The integer build of a crystallographic group against the Fraction
build it replaced.

`fraction_build_group` is the earlier `build_group`, kept as an oracle
with its tables returned in a `FractionGroup`: it closes (matrix,
translation mod 1) pairs by all-pairs products in `Fraction` arithmetic
and reads every table entry off a product.  The
library's build must give the same element set, and the same
multiplication, cocycle, inverse, order and generator tables up to a
relabelling of the elements.  The library keeps the cocycle on the
edges (s, g) of the generators' Cayley graph only; `full_cocycle`
computes it on every pair from the elements.  The oracle is slow (about
10 s on S5, of order 120), so the large groups are checked by group
axioms instead.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import pytest

from bieberbach.catalog import catalog_get, catalog_list
from bieberbach.crystal import (
    AffineGen,
    ClosureBudgetExceeded,
    CrystalError,
    HolonomyNotFaithful,
    build_group,
    computed_once,
)
from bieberbach.linalg import IntMatrix
from oracles import (
    affine_product, inverses, mult_table, random_signed_permutation, reconstruct_element,
    translation_of, vec_add, vec_mod1, vec_sub
)


F = Fraction
RatVec = tuple[Fraction, ...]


class NonIntegralCocycle(CrystalError):
    """A representative-multiplication defect fell outside Z^k."""


@computed_once
def full_cocycle(group):
    """tau(s, t) = A_s t_t + t_s - t_st for every pair of holonomy
    elements: the lattice vector with g_s g_t = tau(s, t) + g_st, computed
    from the elements (in integers, over the common denominator q of the
    translations) once per group object."""
    es = group.elements
    q = lcm(*(x.denominator for e in es for x in translation_of(e)))
    shifts = [tuple(x.numerator * (q // x.denominator) for x in translation_of(e)) for e in es]
    rows = []
    for s, (e, t_s, products) in enumerate(zip(es, shifts, mult_table(group.holonomy))):
        row = []
        for t, (t_t, st) in enumerate(zip(shifts, products)):
            defect = [a + b - c for a, b, c in zip(e.matrix.apply(t_t), t_s, shifts[st])]
            if any(x % q for x in defect):
                raise NonIntegralCocycle(f"defect of pair ({s},{t}) is not in Z^{group.dim}")
            row.append(tuple(x // q for x in defect))
        rows.append(tuple(row))
    return tuple(rows)


def assert_edge_cocycle_is_full(group):
    """`edge_cocycle` is the full cocycle at the holonomy generators."""
    cocycle = full_cocycle(group)
    gens = group.holonomy_generator_indices()
    assert len(group.edge_cocycle) == group.holonomy_order
    for row, full_row in zip(group.edge_cocycle, cocycle):
        assert row == tuple(full_row[g] for g in gens), group.name


# ---------------------------------------------------------------- the Fraction build

@dataclass(frozen=True)
class FractionGroup:
    """What the Fraction build made, every table read off products: the
    library's `CrystalGroup` keeps only the Cayley graph and reads its
    tables off that."""

    name: str
    dim: int
    generators: tuple[AffineGen, ...]
    elements: tuple[AffineGen, ...]
    mult: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    orders: tuple[int, ...]
    edge_cocycle: tuple[tuple[tuple[int, ...], ...], ...]
    generator_images: tuple[int, ...]

    @property
    def holonomy_order(self) -> int:
        return len(self.elements)


def fraction_build_group(
    dim: int, gens, name: str = "", closure_budget: int = 10_000
) -> FractionGroup:
    """Close the generators into a standard-form crystallographic group.

    Representatives are composed and reduced mod Z^k into [0,1)^k; the
    closure is keyed on (matrix, reduced translation) pairs.  Raises
    ClosureBudgetExceeded, HolonomyNotFaithful or NonIntegralCocycle
    when the input is not crystallographic in standard form.
    """
    gens = tuple(gens)
    for g in gens:
        if not isinstance(g, AffineGen):
            raise TypeError("generators must be AffineGen")
        if g.matrix.rows != dim:
            raise ValueError(f"generator of dim {g.matrix.rows} in a dim-{dim} group")

    ident = (IntMatrix.identity(dim), (Fraction(0),) * dim)
    index_of: dict[tuple[IntMatrix, RatVec], int] = {ident: 0}
    pairs: list[tuple[IntMatrix, RatVec]] = [ident]

    def compose(p, q):
        return (p[0] * q[0], vec_mod1(vec_add(p[0].apply(q[1]), p[1])))

    gen_pairs = []
    for g in gens:
        p = (g.matrix, vec_mod1(translation_of(g)))
        gen_pairs.append(p)
        if p not in index_of:
            index_of[p] = len(pairs)
            pairs.append(p)

    # every element gets processed once; processing multiplies it both
    # ways against everything already present, so every pair is covered
    frontier = list(range(1, len(pairs)))
    while frontier:
        new_frontier = []
        for i in frontier:
            for j in range(len(pairs)):
                for prod in (compose(pairs[i], pairs[j]), compose(pairs[j], pairs[i])):
                    if prod not in index_of:
                        index_of[prod] = len(pairs)
                        pairs.append(prod)
                        new_frontier.append(index_of[prod])
                        if len(pairs) > closure_budget:
                            raise ClosureBudgetExceeded(
                                f"holonomy closure exceeded {closure_budget} elements"
                            )
        frontier = new_frontier

    n = len(pairs)
    seen_matrices: dict[IntMatrix, int] = {}
    for idx, (mat, _) in enumerate(pairs):
        if mat in seen_matrices:
            raise HolonomyNotFaithful(
                f"elements {seen_matrices[mat]} and {idx} share a holonomy matrix; "
                "the lattice is not maximal abelian"
            )
        seen_matrices[mat] = idx

    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(index_of[compose(pairs[i], pairs[j])])
        rows.append(tuple(row))
    mult = tuple(rows)

    inverse = [0] * n
    for i in range(n):
        inverse[i] = next(j for j in range(n) if mult[i][j] == 0)

    cocycle_rows = []
    for i in range(n):
        row = []
        for j in range(n):
            defect = vec_sub(
                vec_add(pairs[i][0].apply(pairs[j][1]), pairs[i][1]), pairs[mult[i][j]][1]
            )
            if any(x.denominator != 1 for x in defect):
                raise NonIntegralCocycle(
                    f"defect of pair ({i},{j}) is {defect}, not in Z^{dim}"
                )
            row.append(tuple(int(x) for x in defect))
        cocycle_rows.append(tuple(row))

    orders = [0] * n
    for i in range(n):
        power, order = i, 1
        while power != 0:
            power = mult[power][i]
            order += 1
        orders[i] = order

    q = lcm(*(x.denominator for _, t in pairs for x in t))
    elements = tuple(
        AffineGen._trusted(mat, tuple(x.numerator * (q // x.denominator) for x in t), q)
        for mat, t in pairs
    )
    generator_images = tuple(index_of[p] for p in gen_pairs)
    gen_columns = [g for g in dict.fromkeys(generator_images) if g != 0]

    return FractionGroup(
        name=name,
        dim=dim,
        generators=gens,
        elements=elements,
        mult=mult,
        inverse=tuple(inverse),
        orders=tuple(orders),
        edge_cocycle=tuple(tuple(row[g] for g in gen_columns) for row in cocycle_rows),
        generator_images=generator_images,
    )


def relabelling(old, new):
    """Index map from `old`'s elements to `new`'s, matched by matrix."""
    index = {e.matrix: i for i, e in enumerate(new.elements)}
    perm = [index[e.matrix] for e in old.elements]
    assert sorted(perm) == list(range(new.holonomy_order))
    return perm


def assert_same_group(old, new):
    assert (new.name, new.dim, new.generators) == (old.name, old.dim, old.generators)
    assert new.holonomy_order == old.holonomy_order
    perm = relabelling(old, new)
    assert perm[0] == 0
    new_inverses = inverses(new.holonomy)
    for i, e in enumerate(old.elements):
        mine = new.elements[perm[i]]
        assert (mine.matrix, translation_of(mine)) == (e.matrix, translation_of(e))
        assert new.holonomy.orders[perm[i]] == old.orders[i]
        assert new_inverses[perm[i]] == perm[old.inverse[i]]
    n, mult = old.holonomy_order, mult_table(new.holonomy)
    for i, j in itertools.product(range(n), repeat=2):
        assert mult[perm[i]][perm[j]] == perm[old.mult[i][j]]
    new_index = {e.matrix: i for i, e in enumerate(new.elements)}
    images = tuple(new_index[g.matrix] for g in new.generators)
    assert images == tuple(perm[x] for x in old.generator_images)
    assert new.holonomy_generator_indices() == tuple(x for x in dict.fromkeys(images) if x)
    # so the holonomy generators correspond too, in the same order
    for i in range(n):
        assert new.edge_cocycle[perm[i]] == old.edge_cocycle[i]
    assert_edge_cocycle_is_full(new)


def assert_builds_agree(dim, gens, closure_budget):
    """Both builds succeed and agree, or both reject the input.  The one
    allowed difference: the integer build checks faithfulness during the
    closure, so it may report HolonomyNotFaithful where the oracle ran
    out of budget first.  Returns the group, or None when rejected."""
    try:
        old = fraction_build_group(dim, gens, closure_budget=closure_budget)
    except CrystalError as exc:
        with pytest.raises(CrystalError) as caught:
            build_group(dim, gens, closure_budget=closure_budget)
        allowed = {type(exc)}
        if isinstance(exc, ClosureBudgetExceeded):
            allowed.add(HolonomyNotFaithful)
        assert type(caught.value) in allowed
        return None
    new = build_group(dim, gens, closure_budget=closure_budget)
    assert_same_group(old, new)
    return new


# ---------------------------------------------------------------- oracle

@pytest.mark.parametrize("key", catalog_list())
def test_catalog_matches_fraction_build(key):
    g = catalog_get(key).group
    assert_same_group(fraction_build_group(g.dim, g.generators, name=g.name), g)


def test_rank_duality_family_matches_fraction_build():
    """The zero-translation signed-permutation groups of the acceptance
    rank-duality test (same seed and draws), those of order <= 16."""
    rng = random.Random(2024)
    trials = checked = 0
    while trials < 100:
        dim = rng.randint(2, 6)
        gens = [
            AffineGen(random_signed_permutation(rng, dim), (F(0),) * dim)
            for _ in range(rng.randint(1, 2))
        ]
        try:
            g = build_group(dim, gens, closure_budget=48)
        except ClosureBudgetExceeded:
            continue
        trials += 1
        # every translation is integral (q = 1), so every defect is 0
        assert full_cocycle(g) == (((0,) * dim,) * g.holonomy_order,) * g.holonomy_order
        assert_edge_cocycle_is_full(g)
        if g.holonomy_order <= 16:
            assert_same_group(fraction_build_group(dim, gens, closure_budget=48), g)
            checked += 1
    assert checked >= 50


ROTATIONS = {
    3: [[0, -1], [1, -1]],
    4: [[0, -1], [1, 0]],
    6: [[0, -1], [1, 1]],
}


def random_rotation_generator(rng, dim, q):
    """A block matrix of +-1 and a rotation of order dividing q (in a
    random signed coordinate order), with a random translation in
    (1/q) Z^dim."""
    blocks = []
    while sum(len(b) for b in blocks) < dim:
        if dim - sum(len(b) for b in blocks) >= 2 and rng.random() < 0.6:
            blocks.append(ROTATIONS[rng.choice([m for m in ROTATIONS if q % m == 0])])
        else:
            blocks.append([[rng.choice((1, -1))]])
    rows = [[0] * dim for _ in range(dim)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            for j, x in enumerate(row):
                rows[at + i][at + j] = x
        at += len(block)
    p = random_signed_permutation(rng, dim)
    mat = p * IntMatrix(rows) * IntMatrix([list(c) for c in p.transpose()])
    shift = tuple(F(rng.randrange(q), q) if rng.random() < 0.7 else F(0) for _ in range(dim))
    return AffineGen(mat, shift)


@pytest.mark.parametrize("q", [3, 4, 6])
def test_translation_denominators_above_two_match_fraction_build(q):
    rng = random.Random(q)
    built = rejected = 0
    denominators = set()
    for _ in range(60):
        dim = rng.randint(2, 4)
        gens = [random_rotation_generator(rng, dim, q) for _ in range(rng.randint(1, 2))]
        g = assert_builds_agree(dim, gens, closure_budget=24)
        if g is None:
            rejected += 1
            continue
        built += 1
        denominators.update(x.denominator for e in g.elements for x in translation_of(e))
    assert built >= 20 and rejected >= 10
    assert q in denominators


def test_unfaithful_inputs_rejected_like_the_fraction_build():
    half = AffineGen.of([[1, 0], [0, 1]], (F(1, 2), 0))
    third_screw = AffineGen.of([[-1, 0], [0, 1]], (0, F(1, 3)))
    flip = AffineGen.of([[0, 1], [1, 0]], (0, 0))
    for gens in ([half], [third_screw], [flip, half]):
        with pytest.raises(HolonomyNotFaithful):
            fraction_build_group(2, gens)
        with pytest.raises(HolonomyNotFaithful):
            build_group(2, gens)


@pytest.mark.parametrize(
    "dim, rows, shift",
    [
        (1, [[-1]], (F(1, 10**12),)),
        (2, [[-1, 0], [0, 1]], (F(3, 10**12 + 1), F(1, 2))),
        (2, [[0, 1], [1, 0]], (F(1, 7 * 10**15), F(-1, 7 * 10**15))),
    ],
)
def test_huge_translation_denominators_match_fraction_build(dim, rows, shift):
    """q, the lcm of the translation denominators, may be far larger than
    the group: the build must not spend time or memory in proportion to q."""
    g = assert_builds_agree(dim, [AffineGen.of(rows, shift)], closure_budget=8)
    assert g is not None and g.holonomy_order == 2
    first = g.elements[g.holonomy_generator_indices()[0]]
    assert translation_of(first) == tuple(x % 1 for x in shift)


# ---------------------------------------------------------------- large groups

def permutation_matrix(images):
    n = len(images)
    return [[int(images[j] == i) for j in range(n)] for i in range(n)]


def s5_group():
    """S5 permuting the coordinates of Z^5, conjugated by the shift
    x -> x + (1/2, 1/3, 0, 0, 0) so that translations and cocycle are
    not trivial."""
    c = (F(1, 2), F(1, 3), F(0), F(0), F(0))
    gens = []
    for images in ((1, 0, 2, 3, 4), (1, 2, 3, 4, 0)):
        mat = IntMatrix(permutation_matrix(images))
        gens.append(AffineGen(mat, vec_sub(mat.apply(c), c)))
    return build_group(5, gens, name="s5")


def diagonal_z2_7():
    """(Z/2)^7: generator i negates coordinate i and shifts coordinate
    i+1 (mod 7) by 1/2."""
    gens = []
    for i in range(7):
        diag = [[-1 if r == c == i else int(r == c) for c in range(7)] for r in range(7)]
        shift = tuple(F(1, 2) if r == (i + 1) % 7 else F(0) for r in range(7))
        gens.append(AffineGen.of(diag, shift))
    return build_group(7, gens, name="diag7")


def check_group_axioms(g, samples):
    n = g.holonomy_order
    mult, inverse = mult_table(g.holonomy), inverses(g.holonomy)
    identity = g.elements[0]
    assert identity.matrix == IntMatrix.identity(g.dim)
    assert translation_of(identity) == (F(0),) * g.dim
    assert len({e.matrix for e in g.elements}) == n
    for i in range(n):
        assert mult[0][i] == i and mult[i][0] == i
        assert mult[i][inverse[i]] == 0 and mult[inverse[i]][i] == 0
        assert g.elements[i].matrix * g.elements[inverse[i]].matrix == g.elements[0].matrix
    for gen in g.generators:
        elem = next(e for e in g.elements if e.matrix == gen.matrix)
        assert translation_of(elem) == vec_mod1(translation_of(gen))
    assert_edge_cocycle_is_full(g)
    c = full_cocycle(g)
    rng = random.Random(n)
    for _ in range(samples):
        s, t, u = (rng.randrange(n) for _ in range(3))
        st, tu = mult[s][t], mult[t][u]
        assert mult[st][u] == mult[s][tu]
        # tau(s,t) + tau(st,u) = A(s) tau(t,u) + tau(s,tu)
        left = vec_add(c[s][t], c[st][u])
        right = vec_add(g.elements[s].matrix.apply(c[t][u]), c[s][tu])
        assert left == right
        # the tables describe the affine product of representatives
        prod = affine_product(
            reconstruct_element(g, s, (0,) * g.dim), reconstruct_element(g, t, (0,) * g.dim)
        )
        assert prod == reconstruct_element(g, st, c[s][t])


def test_s5_builds_a_group():
    g = s5_group()
    assert g.holonomy_order == 120
    assert sorted(g.holonomy.orders).count(5) == 24
    assert any(any(row) for row in itertools.chain.from_iterable(g.edge_cocycle))
    check_group_axioms(g, samples=400)


def test_diagonal_z2_7_builds_a_group():
    g = diagonal_z2_7()
    assert g.holonomy_order == 128
    assert all(order == 2 for order in g.holonomy.orders[1:])
    assert any(any(row) for row in itertools.chain.from_iterable(g.edge_cocycle))
    check_group_axioms(g, samples=400)


# ---------------------------------------------------------------- dense holonomy
#
# Signed permutations have one-term orbit rows, which the closure copies
# from a generator's rows.  Their conjugates by a unitriangular P with an
# entry 2 have orbit rows with several nonzero entries and coefficients
# beyond +-1, which the closure sums.

P = IntMatrix([[1, 2, 0], [0, 1, 1], [0, 0, 1]])
P_INV = IntMatrix([[1, -2, 2], [0, 1, -1], [0, 0, 1]])
ROTATION_6 = IntMatrix([[0, -1, 0], [1, 1, 0], [0, 0, 1]])  # the dim3_c6 holonomy


def conjugated(gens):
    """The generators moved by x -> P x: (A, a) becomes (P A P^-1, P a)."""
    return [AffineGen(P * g.matrix * P_INV, P.apply(translation_of(g))) for g in gens]


def signed_permutations_3():
    """The dim-3 signed permutations (order 48) as generators (A, A c - c):
    the split group seen from the origin -c, so that its translations are
    halves, not zero."""
    c = (F(1, 2), F(0), F(1, 2))
    gens = []
    for images, sign in (((2, 0, 1), 1), ((1, 0, 2), 1), ((0, 1, 2), -1)):
        rows = permutation_matrix(images)
        rows[0] = [sign * x for x in rows[0]]
        mat = IntMatrix(rows)
        gens.append(AffineGen(mat, vec_sub(mat.apply(c), c)))
    return gens


def dense_holonomy_inputs():
    """Conjugates by P of the dim-3 signed permutations, of the dim3_c6
    holonomy with a half screw, and of the Hantzsche-Wendt group."""
    hw = [
        AffineGen.of([[1, 0, 0], [0, -1, 0], [0, 0, -1]], (F(1, 2), F(1, 2), 0)),
        AffineGen.of([[-1, 0, 0], [0, 1, 0], [0, 0, -1]], (0, F(1, 2), F(1, 2))),
    ]
    c6 = [AffineGen(ROTATION_6, (F(0), F(0), F(1, 2)))]
    return [conjugated(gens) for gens in (signed_permutations_3(), c6, hw)]


def test_dense_holonomy_conjugates_match_fraction_build():
    orders = []
    for gens in dense_holonomy_inputs():
        g = assert_builds_agree(3, gens, closure_budget=64)
        assert g is not None
        rows = {row for e in g.elements for row in e.matrix}
        assert any(sum(x != 0 for x in row) > 1 for row in rows)
        assert any(abs(x) > 1 for row in rows for x in row)
        assert any(x.denominator == 2 for e in g.elements for x in translation_of(e))
        orders.append(g.holonomy_order)
    assert orders == [48, 6, 4]


def rejections(gens, closure_budget):
    """(type, message) of the rejection by each build, the oracle's first."""
    caught = []
    for build in (fraction_build_group, build_group):
        with pytest.raises(CrystalError) as exc:
            build(3, gens, closure_budget=closure_budget)
        caught.append((type(exc.value), str(exc.value)))
    return caught


def test_dense_holonomy_rejections_match_fraction_build():
    # the rotation's cube, again as a generator with a half translation:
    # the closure reaches the rotation's fourth power as element 4 (the
    # rotation times the cube) and again as the cube times the rotation,
    # with other translations
    rotation = AffineGen(ROTATION_6, (F(0),) * 3)
    half_turn = AffineGen(ROTATION_6 * ROTATION_6 * ROTATION_6, (F(1, 2), F(0), F(0)))
    (oracle, _), (kind, message) = rejections(conjugated([rotation, half_turn]), 64)
    assert oracle is kind is HolonomyNotFaithful
    assert message == (
        "element 4 and element 2 times generator 0 share a holonomy matrix; "
        "the lattice is not maximal abelian"
    )
    oracle, mine = rejections(conjugated(signed_permutations_3()), 20)
    assert oracle == mine == (ClosureBudgetExceeded, "holonomy closure exceeded 20 elements")
