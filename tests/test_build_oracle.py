"""The integer build of a crystallographic group against the Fraction
build it replaced.

`fraction_build_group` is the earlier `build_group`, kept verbatim as an
oracle: it closes (matrix, translation mod 1) pairs by all-pairs products
in `Fraction` arithmetic and reads every table entry off a product.  The
library's build must give the same element set, and the same
multiplication, cocycle, inverse, order and generator tables up to a
relabelling of the elements.  The oracle is slow (about 10 s on S5, of
order 120), so the large groups are checked by group axioms instead.
"""

import itertools
import random
from fractions import Fraction

import pytest

from bieberbach.catalog import catalog_get, catalog_list
from bieberbach.crystal import (
    AffineGen,
    ClosureBudgetExceeded,
    CrystalError,
    CrystalGroup,
    HolonomyElement,
    HolonomyNotFaithful,
    NonIntegralCocycle,
    RatVec,
    build_group,
    reconstruct_element,
)
from bieberbach.linalg import IntMatrix, vec_add, vec_mod1, vec_sub


F = Fraction


# ---------------------------------------------------------------- the Fraction build

def fraction_build_group(
    dim: int, gens, name: str = "", closure_budget: int = 10_000
) -> CrystalGroup:
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
        p = (g.matrix, vec_mod1(g.translation))
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

    mult_table = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(index_of[compose(pairs[i], pairs[j])])
        mult_table.append(tuple(row))
    mult = tuple(mult_table)

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
    cocycle = tuple(cocycle_rows)

    orders = [0] * n
    for i in range(n):
        power, order = i, 1
        while power != 0:
            power = mult[power][i]
            order += 1
        orders[i] = order

    elements = tuple(
        HolonomyElement(index=i, matrix=pairs[i][0], translation=pairs[i][1], order=orders[i])
        for i in range(n)
    )
    generator_images = tuple(index_of[p] for p in gen_pairs)

    return CrystalGroup(
        name=name,
        dim=dim,
        generators=gens,
        elements=elements,
        mult=mult,
        inverse=tuple(inverse),
        cocycle=cocycle,
        generator_images=generator_images,
    )


def random_signed_permutation(rng, dim):
    perm = list(range(dim))
    rng.shuffle(perm)
    rows = [[0] * dim for _ in range(dim)]
    for i, p in enumerate(perm):
        rows[i][p] = rng.choice((1, -1))
    return IntMatrix(rows)


def relabelling(old, new):
    """Index map from `old`'s elements to `new`'s, matched by matrix."""
    perm = [new.element_for_matrix(e.matrix).index for e in old.elements]
    assert sorted(perm) == list(range(new.holonomy_order))
    return perm


def assert_same_group(old, new):
    assert (new.name, new.dim, new.generators) == (old.name, old.dim, old.generators)
    assert new.holonomy_order == old.holonomy_order
    perm = relabelling(old, new)
    assert perm[0] == 0
    for e in old.elements:
        mine = new.elements[perm[e.index]]
        assert (mine.matrix, mine.translation, mine.order) == (e.matrix, e.translation, e.order)
        assert new.inverse[perm[e.index]] == perm[old.inverse[e.index]]
    n = old.holonomy_order
    for i, j in itertools.product(range(n), repeat=2):
        assert new.mult[perm[i]][perm[j]] == perm[old.mult[i][j]]
        assert new.cocycle[perm[i]][perm[j]] == old.cocycle[i][j]
    assert new.generator_images == tuple(perm[x] for x in old.generator_images)


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
        n = g.holonomy_order
        assert g.cocycle == (((0,) * dim,) * n,) * n
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
        denominators.update(x.denominator for e in g.elements for x in e.translation)
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
    assert g.elements[g.generator_images[0]].translation == tuple(x % 1 for x in shift)


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
    assert g.elements[0].matrix.is_identity() and g.elements[0].translation == (F(0),) * g.dim
    assert len({e.matrix for e in g.elements}) == n
    for i in range(n):
        assert g.mult[0][i] == i and g.mult[i][0] == i
        assert g.mult[i][g.inverse[i]] == 0 and g.mult[g.inverse[i]][i] == 0
        assert g.elements[i].matrix * g.elements[g.inverse[i]].matrix == g.elements[0].matrix
    for gen, idx in zip(g.generators, g.generator_images):
        elem = g.elements[idx]
        assert elem.matrix == gen.matrix and elem.translation == vec_mod1(gen.translation)
    rng = random.Random(n)
    for _ in range(samples):
        s, t, u = (rng.randrange(n) for _ in range(3))
        st, tu = g.mult[s][t], g.mult[t][u]
        assert g.mult[st][u] == g.mult[s][tu]
        # tau(s,t) + tau(st,u) = A(s) tau(t,u) + tau(s,tu)
        left = vec_add(g.cocycle[s][t], g.cocycle[st][u])
        right = vec_add(g.elements[s].matrix.apply(g.cocycle[t][u]), g.cocycle[s][tu])
        assert left == right
        # the tables describe the affine product of representatives
        prod = reconstruct_element(g, s, (0,) * g.dim) * reconstruct_element(g, t, (0,) * g.dim)
        assert prod == reconstruct_element(g, st, g.cocycle[s][t])


def test_s5_builds_a_group():
    g = s5_group()
    assert g.holonomy_order == 120
    assert sorted(e.order for e in g.elements).count(5) == 24
    assert any(any(row) for row in itertools.chain.from_iterable(g.cocycle))
    check_group_axioms(g, samples=400)


def test_diagonal_z2_7_builds_a_group():
    g = diagonal_z2_7()
    assert g.holonomy_order == 128
    assert all(e.order == 2 for e in g.elements[1:])
    assert any(any(row) for row in itertools.chain.from_iterable(g.cocycle))
    check_group_axioms(g, samples=400)
