import itertools
import random
from fractions import Fraction
from math import prod

import pytest

from bieberbach.catalog import catalog_get, catalog_list
from bieberbach.crystal import AffineGen, CrystalError, build_group
from bieberbach.groupfile import document_to_group
from bieberbach.invariants import (
    MAX_FIXED_POINTS,
    abelianization,
    character_count,
    fixed_lattice,
    fixed_torus,
    relation_matrix,
)
from bieberbach.linalg import IntMatrix, integer_kernel, smith_normal_form
from oracles import (
    corpus_items, from_columns, hermite_normal_form, hw_group, klein_bottle, mult_table,
    random_signed_permutation, torus, translation_of
)
from test_build_oracle import full_cocycle, random_rotation_generator


F = Fraction


def signed_permutation_group(rng, dim, order_bound=48):
    """Random signed-permutation holonomy with zero translations."""
    while True:
        gens = []
        for _ in range(rng.randint(1, 2)):
            perm = list(range(dim))
            rng.shuffle(perm)
            signs = [rng.choice((1, -1)) for _ in range(dim)]
            rows = [[0] * dim for _ in range(dim)]
            for i, (p, s) in enumerate(zip(perm, signs)):
                rows[i][p] = s
            gens.append(AffineGen.of(rows, (0,) * dim))
        try:
            return build_group(dim, gens, closure_budget=order_bound)
        except Exception:
            continue


# ---------------------------------------------------------------- full-element oracles
#
# The library presents H1, the fixed lattice and the fixed torus through
# the holonomy generators only.  These oracles use every holonomy
# element, which gives the same groups from a larger presentation.

def full_element_stack(g, transpose=False):
    """A(s) - I (or A(s)^T - I) for every nonidentity holonomy element,
    stacked into one matrix."""
    shifts = []
    for e in g.elements[1:]:
        m = e.matrix.transpose() if transpose else e.matrix
        shifts.append(m - IntMatrix.identity(g.dim))
    return IntMatrix.vstack(shifts) if shifts else IntMatrix.zeros(0, g.dim)


def full_element_relation_matrix(g):
    """Relations of the abelianized group, one per column, with the
    lattice relations (A(s) - I) e_j = 0 taken for every element s."""
    k, n = g.dim, g.holonomy_order
    columns = [
        [e.matrix[i, j] - int(i == j) for i in range(k)] + [0] * n
        for e in g.elements[1:]
        for j in range(k)
    ]
    identity_lift = [0] * (k + n)
    identity_lift[k] = 1
    columns.append(identity_lift)
    cocycle = full_cocycle(g)
    for s in range(n):
        for t in range(n):
            col = [-x for x in cocycle[s][t]] + [0] * n
            col[k + s] += 1
            col[k + t] += 1
            col[k + mult_table(g.holonomy)[s][t]] -= 1
            columns.append(col)
    return from_columns(columns, rows=k + n)


def cayley_graph_relation_matrix(group):
    """The library's relations before the spanning tree: one lift
    variable x_s per holonomy element (k + n rows), x_e = 0, and r(s, g)
    on every edge (s, g) of the generators' Cayley graph."""
    k = group.dim
    n = group.holonomy_order
    nvars = k + n
    columns: list[list[int]] = []

    for mat in [group.elements[i].matrix for i in group.holonomy_generator_indices()]:
        delta = mat - IntMatrix.identity(k)
        for j in range(k):
            col = [0] * nvars
            for i in range(k):
                col[i] = delta[i, j]
            columns.append(col)

    col = [0] * nvars
    col[k] = 1  # identity lift variable is trivial
    columns.append(col)

    gens = group.holonomy_generator_indices()
    cocycle = full_cocycle(group)
    for s in range(n):
        for g in gens:
            col = [-x for x in cocycle[s][g]] + [0] * n
            col[k + s] += 1
            col[k + g] += 1
            col[k + mult_table(group.holonomy)[s][g]] -= 1
            columns.append(col)

    # duplicate and zero relations do not change the quotient
    unique = []
    seen = set()
    zero = (0,) * nvars
    for col in columns:
        key = tuple(col)
        if key != zero and key not in seen:
            seen.add(key)
            unique.append(col)
    return from_columns(unique, rows=nvars)


def full_element_h1(g):
    """(rank, torsion) of the quotient by the full-element relations."""
    rel = full_element_relation_matrix(g)
    divisors = smith_normal_form(rel).divisors
    rank = rel.rows - sum(1 for d in divisors if d != 0)
    return rank, tuple(d for d in divisors if d >= 2)


def full_element_fixed_lattice(g):
    """Kernel of the stacked A(s) - I, in row Hermite form."""
    return lattice_hnf(integer_kernel(full_element_stack(g)), g.dim)


def full_element_fixed_torus(g):
    """(rank, component orders) from the Smith form of the stacked
    A(s)^T - I."""
    divisors = list(smith_normal_form(full_element_stack(g, transpose=True)).divisors)
    divisors += [0] * (g.dim - len(divisors))
    return sum(1 for d in divisors if d == 0), tuple(d for d in divisors if d >= 2)


def lattice_hnf(basis, dim):
    """Canonical form of the lattice spanned by `basis`."""
    if not basis:
        return IntMatrix.zeros(0, dim)
    h = hermite_normal_form(IntMatrix(basis, cols=dim)).H
    return IntMatrix([row for row in h if any(row)], cols=dim)


def assert_presentation_kills_full_element_relations(g):
    """The quotient map read off the spanning-tree relations sends every
    all-pairs relation to 0 (mod the torsion orders), and both
    presentations give the same H1."""
    ab = abelianization(g)
    assert (ab.rank, ab.torsion) == full_element_h1(g)
    assert_presentation_kills(g, full_element_relation_matrix(g))


def assert_matches_full_element_oracles(g, h1=True):
    """The Smith divisors >= 2 and the ranks agree with the library's.
    The full-element H1 has about n^2 relations; `h1=False` skips it."""
    if h1:
        assert_presentation_kills_full_element_relations(g)
    fl = fixed_lattice(g)
    assert lattice_hnf(list(fl.basis), g.dim) == full_element_fixed_lattice(g)
    ft = fixed_torus(g)
    assert (ft.rank, ft.component_orders) == full_element_fixed_torus(g)


# ---------------------------------------------------------------- H1

def test_h1_hw():
    ab = abelianization(hw_group())
    assert ab.rank == 0
    assert ab.torsion == (4, 4)
    assert ab.order() == 16


def test_h1_torus():
    for k in (1, 2, 3):
        ab = abelianization(torus(k))
        assert ab.rank == k
        assert ab.torsion == ()
        assert ab.order() is None


def test_h1_klein():
    ab = abelianization(klein_bottle())
    assert ab.rank == 1
    assert ab.torsion == (2,)


def presentation_map(g):
    """The quotient map of H1 on the k + n original variables (e_1..e_k,
    then one lift variable per holonomy element): the kept rows of U in
    the Smith form of `relation_matrix`, with x_s sent to the image of
    its spanning-tree vector.  Its first len(torsion) rows are the
    finite cyclic coordinates (row i taken mod torsion[i]), its last
    `rank` rows the free coordinates."""
    rel = relation_matrix(g)
    snf = smith_normal_form(rel)
    nvars = rel.rows
    nnz = sum(1 for d in snf.divisors if d != 0)
    keep = [i for i, d in enumerate(snf.divisors) if d >= 2] + list(range(nnz, nvars))
    rows = [snf.U.row(i) for i in keep]
    lifts = g.holonomy.tree_lifts(g.edge_cocycle, g.dim)
    pres = [u[: g.dim] + tuple(sum(a * b for a, b in zip(u, x)) for x in lifts) for u in rows]
    return IntMatrix(pres, cols=g.dim + g.holonomy_order)


def assert_presentation_kills(g, relations):
    """Every column of `relations`, on the k + n original variables, maps
    to 0 (mod the torsion orders) under the presentation map."""
    torsion = abelianization(g).torsion
    images = presentation_map(g) * relations
    for i, row in enumerate(images):
        modulus = torsion[i] if i < len(torsion) else 0
        assert all((x % modulus if modulus else x) == 0 for x in row)


def test_h1_presentation_map_kills_relations():
    """The quotient map, read off the spanning-tree relations and
    carried back to one variable per holonomy element, kills the
    Cayley-graph and the all-pairs relations."""
    for g in (hw_group(), klein_bottle(), torus(2)):
        assert presentation_map(g).cols == g.dim + g.holonomy_order
        assert_presentation_kills(g, cayley_graph_relation_matrix(g))
        assert_presentation_kills(g, full_element_relation_matrix(g))


def test_h1_robust_to_full_element_presentation():
    catalog = [catalog_get(key).group for key in catalog_list()]
    for g in [hw_group(), klein_bottle(), torus(3)] + catalog:
        assert_matches_full_element_oracles(g)


@pytest.mark.parametrize("q", [3, 4, 6])
def test_presentation_kills_full_element_relations_with_denominator(q):
    """Seeded rotation groups whose translations have denominator q."""
    rng = random.Random(100 + q)
    built = 0
    denominators = set()
    for _ in range(60):
        dim = rng.randint(2, 4)
        gens = [random_rotation_generator(rng, dim, q) for _ in range(rng.randint(1, 2))]
        try:
            g = build_group(dim, gens, closure_budget=24)
        except CrystalError:
            continue
        assert_presentation_kills_full_element_relations(g)
        built += 1
        denominators.update(x.denominator for e in g.elements for x in translation_of(e))
    assert built >= 15
    assert q in denominators


def test_presentation_kills_full_element_relations_on_nonabelian_holonomy():
    """Nonabelian holonomy with a nonzero cocycle: here the edge (s, g)
    and the edge (g, s) give different relations."""
    rng = random.Random(7)
    groups = []
    while len(groups) < 12:
        dim = rng.randint(2, 4)
        q = rng.choice((2, 4))
        gens = [
            AffineGen(
                random_signed_permutation(rng, dim),
                tuple(F(rng.randrange(q), q) for _ in range(dim)),
            )
            for _ in range(2)
        ]
        try:
            g = build_group(dim, gens, closure_budget=16)
        except CrystalError:
            continue
        n = g.holonomy_order
        mult = mult_table(g.holonomy)
        abelian = all(mult[i][j] == mult[j][i] for i in range(n) for j in range(n))
        if not abelian and any(any(tau) for row in full_cocycle(g) for tau in row):
            groups.append(g)
    for g in groups:
        assert_presentation_kills_full_element_relations(g)


def test_presentation_kills_full_element_relations_at_rank_two_and_more():
    """With two or more free coordinates the free rows of the quotient
    map are not fixed up to sign, so each of them is checked."""
    rng = random.Random(5)
    groups = [torus(2), torus(3)]
    for _ in range(300):
        dim = rng.randint(3, 5)
        gens = [random_rotation_generator(rng, dim, rng.choice((3, 4, 6)))]
        try:
            g = build_group(dim, gens, closure_budget=12)
        except CrystalError:
            continue
        if g.holonomy_order > 1 and abelianization(g).rank >= 2:
            groups.append(g)
    assert len(groups) >= 30
    assert {abelianization(g).rank for g in groups} >= {2, 3}
    for g in groups:
        assert_presentation_kills_full_element_relations(g)


# ---------------------------------------------------------------- fixed lattice

def test_fixed_lattice_hw_trivial():
    assert fixed_lattice(hw_group()).rank == 0


def test_fixed_lattice_torus():
    fl = fixed_lattice(torus(3))
    assert fl.rank == 3


def test_fixed_lattice_klein():
    fl = fixed_lattice(klein_bottle())
    assert fl.basis == ((1, 0),)


# ---------------------------------------------------------------- fixed torus

def test_fixed_torus_hw_eight_points():
    ft = fixed_torus(hw_group())
    assert ft.rank == 0
    assert ft.component_orders == (2, 2, 2)
    assert ft.points is not None and len(ft.points) == 8
    expected = {
        tuple(F(b, 2) for b in bits) for bits in itertools.product((0, 1), repeat=3)
    }
    assert set(ft.points) == expected


def test_fixed_torus_torus():
    ft = fixed_torus(torus(2))
    assert ft.rank == 2
    assert ft.component_orders == ()
    assert ft.points is None


def test_fixed_torus_klein():
    ft = fixed_torus(klein_bottle())
    assert ft.rank == 1
    assert ft.component_orders == (2,)


def test_fixed_torus_lists_at_most_max_fixed_points():
    """-I on Z^k fixes the 2^k half-lattice points of the dual torus.
    Past MAX_FIXED_POINTS they are counted, by the component orders, and
    not listed."""
    def minus_one(k):
        rows = [[-int(i == j) for j in range(k)] for i in range(k)]
        return build_group(k, [AffineGen.of(rows, (0,) * k)])

    assert 2**12 == MAX_FIXED_POINTS
    ft = fixed_torus(minus_one(12))
    assert ft.component_orders == (2,) * 12 and len(set(ft.points)) == 2**12
    ft = fixed_torus(minus_one(13))
    assert (ft.rank, ft.component_orders, ft.points) == (0, (2,) * 13, None)


def test_fixed_torus_points_satisfy_congruence():
    g = hw_group()
    ft = fixed_torus(g)
    for pt in ft.points:
        for idx in g.holonomy_generator_indices():
            moved = g.elements[idx].matrix.transpose().apply(pt)
            assert all((a - b).denominator == 1 for a, b in zip(moved, pt))


def test_fixed_torus_points_match_brute_force():
    g = hw_group()
    ft = fixed_torus(g)
    q = prod(ft.component_orders)
    mats = [g.elements[i].matrix.transpose() for i in g.holonomy_generator_indices()]
    brute = set()
    for combo in itertools.product(range(q), repeat=3):
        a = tuple(F(c, q) for c in combo)
        if all(
            all((x - y).denominator == 1 for x, y in zip(m.apply(a), a)) for m in mats
        ):
            brute.add(a)
    assert brute == set(ft.points)


# ---------------------------------------------------------------- rank chain

def rank_chain(g) -> int:
    """The rank of H1, which must equal the centre's and the fixed
    torus's (a theorem; `analyze` does not check it at run time)."""
    r1 = abelianization(g).rank
    r2 = fixed_lattice(g).rank
    r3 = fixed_torus(g).rank
    assert r1 == r2 == r3, g.name
    return r1


def test_rank_chain_on_catalog_style_groups():
    """The small groups, then every group of the seed-1 corpora of the
    benchmark's three workloads, whose generator knows its fixed rank."""
    groups = [hw_group(), klein_bottle(), torus(1), torus(2), torus(3), torus(4)]
    for g in groups:
        rank_chain(g)
    for workload in ("analyze", "lattice", "connective"):
        items = corpus_items(workload, 1)
        assert len(items) >= 89
        for item in items:
            assert rank_chain(document_to_group(item.doc)) == item.expect["fixed_rank"]


def test_rank_chain_randomized_signed_permutations():
    rng = random.Random(9)
    for _ in range(40):
        dim = rng.randint(2, 6)
        g = signed_permutation_group(rng, dim)
        rank_chain(g)
        # generator-based and all-element presentations agree
        assert_matches_full_element_oracles(g, h1=g.holonomy_order <= 16)


def test_finiteness_equivalences():
    groups = [hw_group(), klein_bottle(), torus(1), torus(3)]
    for g in groups:
        h1_finite = abelianization(g).order() is not None
        lattice_trivial = fixed_lattice(g).rank == 0
        torus_finite = fixed_torus(g).rank == 0
        assert h1_finite == lattice_trivial == torus_finite


# ---------------------------------------------------------------- characters

def test_character_counts():
    assert character_count(hw_group()) == 16
    assert character_count(torus(2)) is None
    assert character_count(klein_bottle()) is None


def test_dim0_group_invariants():
    g = build_group(0, [], name="point")
    ab = abelianization(g)
    assert (ab.rank, ab.torsion) == (0, ())
    assert fixed_lattice(g).rank == 0
    ft = fixed_torus(g)
    assert ft.rank == 0 and ft.points == ((),)
    assert character_count(g) == 1
