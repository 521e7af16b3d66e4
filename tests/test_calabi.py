import random
from fractions import Fraction
from math import lcm

import pytest

from bieberbach.calabi import (
    NotTorsionFree,
    SurjectionToZ,
    _check_surjection,
    calabi_kernel,
    is_connective,
    surjection_to_Z,
)
from bieberbach.catalog import catalog_get, catalog_list
from bieberbach.crystal import AffineGen, CrystalError, build_group, is_torsion_free
from bieberbach.finite import finite_group_from_holonomy, in_coprime_class
from bieberbach.invariants import abelianization, fixed_lattice, fixed_torus
from bieberbach.linalg import (
    IntMatrix,
    frac_vector,
    gcd_all,
    hermite_normal_form,
    integer_kernel,
    rational_solve,
    smith_normal_form,
    solve_integer_linear,
    vec_add,
)


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


def c4_screw():
    rot = AffineGen.of([[0, -1, 0], [1, 0, 0], [0, 0, 1]], (0, 0, F(1, 4)))
    return build_group(3, [rot], name="dim3_c4")


# ---------------------------------------------------------------- surjection

def test_surjection_none_for_hw():
    assert surjection_to_Z(hw_group()) is None


def test_surjection_torus():
    surj = surjection_to_Z(torus(2))
    assert surj is not None
    assert surj.lattice_index == 1
    assert sorted(map(abs, surj.lattice_map)) in ([0, 1], [1, 1])


def test_surjection_klein_bottle():
    surj = surjection_to_Z(klein_bottle())
    assert surj is not None
    assert surj.lattice_map == (2, 0)
    assert surj.lattice_index == 2
    g = klein_bottle()
    s = g.generator_images[0]
    assert surj.lift_values[s] == 1
    assert surj.lift_values[0] == 0


def test_surjection_invariance():
    for g in (klein_bottle(), torus(3), c4_screw()):
        surj = surjection_to_Z(g)
        f = surj.lattice_map
        for elem in g.elements:
            for j in range(g.dim):
                col = elem.matrix.column(j)
                assert sum(a * b for a, b in zip(f, col)) == f[j]


# ---------------------------------------------------------------- kernel

def test_kernel_klein_bottle_is_Z():
    g = klein_bottle()
    step = calabi_kernel(g, surjection_to_Z(g))
    assert step.kernel_group.dim == 1
    assert step.kernel_group.holonomy_order == 1
    assert step.kernel_holonomy == (0,)
    assert step.sublattice_basis == ((0, 1),)
    assert not step.vasquez_applied


def test_kernel_torus_drops_dimension():
    g = torus(3)
    step = calabi_kernel(g, surjection_to_Z(g))
    assert step.kernel_group.dim == 2
    assert step.kernel_group.holonomy_order == 1


def test_kernel_c4_screw():
    g = c4_screw()
    step = calabi_kernel(g, surjection_to_Z(g))
    assert step.kernel_group.dim == 2
    assert step.kernel_group.holonomy_order == 1  # D -> Z/4 is injective


def test_kernel_validity_properties():
    for g in (klein_bottle(), torus(3), c4_screw()):
        surj = surjection_to_Z(g)
        step = calabi_kernel(g, surj)
        kernel = step.kernel_group
        assert kernel.dim == g.dim - 1
        assert is_torsion_free(kernel)
        assert g.holonomy_order % kernel.holonomy_order == 0
        # lift corrections really correct the lift values
        f = surj.lattice_map
        for idx, lam in zip(step.kernel_holonomy, step.lift_corrections):
            assert sum(a * b for a, b in zip(f, lam)) == -surj.lift_values[idx]


def test_lift_corrections_match_per_element_solves():
    """Corrections and the kernel basis come from one Smith form of [f];
    they must equal a separate integer solve per kernel element and the
    integer kernel of [f].  The catalog's chains only ever need zero
    corrections, so the surjections here are chosen by hand: the lift
    of the half screw g has a nonzero value, and f = (-1, -1, 0) makes
    the Smith form negate its row."""
    g = build_group(3, [AffineGen.of([[1, 0, 0], [0, 1, 0], [0, 0, -1]], (F(1, 2), F(1, 2), 0))])
    s = g.generator_images[0]
    # phi(g) + phi(g) = f . (1, 1, 0), the translation of g^2
    for f, phi in (((1, 1, 0), 1), ((-1, -1, 0), -1), ((1, 3, 0), 2), ((3, 1, 0), 2)):
        lift_values = tuple(phi if i == s else 0 for i in range(2))
        step = calabi_kernel(g, SurjectionToZ(f, lift_values, lattice_index=1))
        row = IntMatrix([f], cols=3)
        assert step.kernel_holonomy == (0, 1)
        assert step.lift_corrections == tuple(
            solve_integer_linear(row, (-lift_values[i],))[0] for i in step.kernel_holonomy
        )
        assert any(step.lift_corrections[s])
        assert step.sublattice_basis == tuple(integer_kernel(row))
        assert is_torsion_free(step.kernel_group)


def test_kernel_rejects_a_lattice_map_that_is_not_invariant():
    """The closed-form projection holds only for an invariant f; a
    hand-made surjection whose f is moved by the holonomy must raise
    instead of being averaged into some other projection."""
    for g, f in (
        (klein_bottle(), (0, 1)),
        (c4_screw(), (1, 0, 0)),
        (hw_group(), (1, 1, 0)),
        (hw_group(), (1, 0, 0)),  # fixed by the first generator only
    ):
        surj = SurjectionToZ(f, (0,) * g.holonomy_order, lattice_index=1)
        with pytest.raises(AssertionError, match="not holonomy invariant"):
            calabi_kernel(g, surj)


# ---------------------------------------------------------------- surjection oracle

def all_pairs_check_surjection(group, surj):
    """`_check_surjection` as it was before the Cayley-graph check:
    invariance under every holonomy matrix and the homomorphism identity
    on all n^2 pairs."""
    f, phi = surj.lattice_map, surj.lift_values
    k = group.dim
    if gcd_all(list(f) + list(phi)) != 1:
        raise AssertionError("values are not coprime; the map is not onto Z")
    fm = IntMatrix([f], cols=k)
    for elem in group.elements:
        for j in range(k):
            col = elem.matrix.column(j)
            if fm.apply(col)[0] != f[j]:
                raise AssertionError("lattice map is not holonomy invariant")
    n = group.holonomy_order
    for s in range(n):
        for t in range(n):
            tau = group.cocycle[s][t]
            if phi[s] + phi[t] - phi[group.mult[s][t]] != sum(
                a * b for a, b in zip(f, tau)
            ):
                raise AssertionError("lift values break the homomorphism property")


def accepts(check, group, surj) -> bool:
    try:
        check(group, surj)
    except AssertionError:
        return False
    return True


def single_entry_perturbations(surj):
    """The surjection with one lift value or one lattice map entry moved
    by -1 or +1."""
    f, phi = list(surj.lattice_map), list(surj.lift_values)
    for values, rebuild in (
        (phi, lambda v: SurjectionToZ(surj.lattice_map, tuple(v), surj.lattice_index)),
        (f, lambda v: SurjectionToZ(tuple(v), surj.lift_values, surj.lattice_index)),
    ):
        for i in range(len(values)):
            for delta in (-1, 1):
                moved = list(values)
                moved[i] += delta
                yield rebuild(moved)


def assert_edge_check_matches_all_pairs(group, surj) -> tuple[int, int]:
    """The edge check and the all-pairs copy agree on `surj` and on each
    single-entry perturbation; returns (accepted, rejected) counts."""
    accepted = rejected = 0
    for candidate in (surj, *single_entry_perturbations(surj)):
        verdict = accepts(_check_surjection, group, candidate)
        assert verdict == accepts(all_pairs_check_surjection, group, candidate), (
            group.name,
            candidate,
        )
        accepted += verdict
        rejected += not verdict
    return accepted, rejected


def chain_stages(group):
    """(stage group, surjection) for every stage of the Calabi chain."""
    stage = group
    while stage.dim > 0:
        surj = surjection_to_Z(stage)
        if surj is None:
            return
        yield stage, surj
        stage = calabi_kernel(stage, surj).kernel_group


def test_edge_surjection_check_matches_all_pairs_on_catalog_chains():
    stages = accepted = rejected = 0
    for key in catalog_list():
        for stage, surj in chain_stages(catalog_get(key).group):
            assert accepts(all_pairs_check_surjection, stage, surj), key
            a, r = assert_edge_check_matches_all_pairs(stage, surj)
            stages += 1
            accepted += a
            rejected += r
    assert stages >= 15
    # on a torus stage a perturbed f is often still onto Z
    assert accepted > stages and rejected > 5 * stages


def test_edge_surjection_check_matches_all_pairs_on_random_chains():
    """Seeded screw groups (translation denominators 2, 3, 4 and 6) and
    diagonal (Z/2)^r groups, whose chains carry nonzero lift values."""
    rng = random.Random(43)
    groups = [random_screw_group(rng, dim) for dim in (4, 5) for _ in range(4)]
    groups += [random_diagonal_group(rng, dim, r) for dim in (4, 5) for r in (2, 3)]
    denominators = {x.denominator for g in groups for e in g.elements for x in e.translation}
    assert denominators >= {3, 4, 6}
    nonzero_lifts = 0
    for g in groups:
        for stage, surj in chain_stages(g):
            assert_edge_check_matches_all_pairs(stage, surj)
            nonzero_lifts += any(surj.lift_values)
    assert nonzero_lifts >= len(groups)


def test_edge_surjection_check_matches_all_pairs_on_hand_made_surjections():
    """Lift corrections that are not zero, and lift values off by a
    constant."""
    g = build_group(3, [AffineGen.of([[1, 0, 0], [0, 1, 0], [0, 0, -1]], (F(1, 2), F(1, 2), 0))])
    s = g.generator_images[0]
    for f, phi in (((1, 1, 0), 1), ((-1, -1, 0), -1), ((1, 3, 0), 2), ((3, 1, 0), 2)):
        for shift in (-1, 0, 2):
            lift_values = tuple(phi + shift if i == s else 0 for i in range(2))
            surj = SurjectionToZ(f, lift_values, lattice_index=1)
            assert accepts(_check_surjection, g, surj) == (shift == 0)
            assert_edge_check_matches_all_pairs(g, surj)


# ---------------------------------------------------------------- Fraction oracle

def _averaged_projection(group, f: tuple[int, ...], w: tuple[int, ...], d: int):
    """D-equivariant rational projection of Q^k onto ker(f) tensor Q,
    obtained by averaging a coordinate projection over the holonomy;
    `w` is an integer vector with f.w = d."""
    k = group.dim
    # E = I - w f^T / d, a projection with image ker(f)
    e_rows = [
        [Fraction(int(i == j)) - Fraction(w[i] * f[j], d) for j in range(k)]
        for i in range(k)
    ]
    n = group.holonomy_order
    p_rows = [[Fraction(0)] * k for _ in range(k)]
    for elem in group.elements:
        a = elem.matrix
        ainv = group.elements[group.inverse[elem.index]].matrix
        # accumulate A(s^-1) E A(s)
        ea = [[sum(e_rows[i][l] * a[l, j] for l in range(k)) for j in range(k)] for i in range(k)]
        for i in range(k):
            for j in range(k):
                p_rows[i][j] += sum(ainv[i, l] * ea[l][j] for l in range(k))
    for i in range(k):
        for j in range(k):
            p_rows[i][j] /= n
    return p_rows


def _apply_rows(rows, vec):
    return tuple(sum(a * x for a, x in zip(row, vec)) for row in rows)


def fraction_kernel_generators(group, surj):
    """The kernel generators as `calabi_kernel` made them before its
    integer rewrite: the projection averaged over every holonomy element
    in Fractions, then one `rational_solve` for each translation and for
    each kernel basis vector moved by each element.  Returns the
    generators and the flag for the Vasquez pass."""
    k = group.dim
    f = surj.lattice_map
    d = surj.lattice_index
    snf = smith_normal_form(IntMatrix([f], cols=k))
    w = tuple(snf.U[0, 0] * x for x in snf.V.column(0))
    basis = [snf.V.column(j) for j in range(1, k)]
    bmat = IntMatrix.from_columns(basis, rows=k)
    kernel_holonomy = tuple(
        i for i in range(group.holonomy_order) if surj.lift_values[i] % d == 0
    )
    corrections = [
        tuple(-surj.lift_values[idx] // d * x for x in w) for idx in kernel_holonomy
    ]

    proj = _averaged_projection(group, f, w, d)
    new_gens_by_element = {}
    for idx, lam in zip(kernel_holonomy, corrections):
        elem = group.elements[idx]
        shifted = vec_add(elem.translation, frac_vector(lam))
        projected = _apply_rows(proj, shifted)
        coords = rational_solve(bmat, projected)
        assert coords is not None, "projected translation is outside the kernel sublattice span"
        restricted_cols = []
        for vec in basis:
            moved = elem.matrix.apply(vec)
            col = rational_solve(bmat, moved)
            assert col is not None and all(x.denominator == 1 for x in col)
            restricted_cols.append([int(x) for x in col])
        restricted = IntMatrix.from_columns(restricted_cols, rows=k - 1)
        new_gens_by_element[idx] = (restricted, coords)

    nontrivial = {idx: pair for idx, pair in new_gens_by_element.items() if idx != 0}
    vasquez_applied = any(mat.is_identity() for mat, _ in nontrivial.values())
    if vasquez_applied:
        gens = _vasquez_standardize(k - 1, list(nontrivial.values()))
    else:
        gens = [AffineGen(mat, tr) for (mat, tr) in nontrivial.values()]
    return tuple(gens), vasquez_applied


class InvariantProjectionFailure(Exception):
    """Raised by `_vasquez_standardize` when the enlarged lattice does
    not fit the generators."""


def _vasquez_standardize(dim: int, affine_pairs) -> list[AffineGen]:
    """Replace the lattice by the one generated by Z^dim and the
    translations of all identity-restriction elements, then rewrite the
    remaining generators in the finer basis.

    This is the centralizer passage: elements acting trivially on the
    kernel sublattice are pure translations and belong to the maximal
    abelian normal subgroup.
    """
    pure = [tr for mat, tr in affine_pairs if mat.is_identity()]
    denom = 1
    for tr in pure:
        for x in tr:
            denom = lcm(denom, x.denominator)
    scaled = [[int(x * denom) for x in tr] for tr in pure]
    scaled.extend([denom * int(i == j) for j in range(dim)] for i in range(dim))
    hnf = hermite_normal_form(IntMatrix(scaled, cols=dim)).H
    hnf_basis = [list(row) for row in hnf if any(x != 0 for x in row)]
    if len(hnf_basis) != dim:
        raise InvariantProjectionFailure("translation lattice is not full rank")
    # columns of C span the new lattice inside (1/denom) Z^dim
    cmat_cols = [[Fraction(x, denom) for x in row] for row in hnf_basis]
    cmat = [[cmat_cols[j][i] for j in range(dim)] for i in range(dim)]
    gens = []
    for mat, tr in affine_pairs:
        new_cols = []
        for j in range(dim):
            col = [cmat[i][j] for i in range(dim)]
            moved = mat.apply(col)
            coords = rational_solve(cmat, moved)
            if coords is None or any(x.denominator != 1 for x in coords):
                raise InvariantProjectionFailure(
                    "holonomy does not preserve the enlarged lattice"
                )
            new_cols.append([int(x) for x in coords])
        new_tr = rational_solve(cmat, tr)
        if new_tr is None:
            raise InvariantProjectionFailure("translation outside the enlarged span")
        gens.append(AffineGen(IntMatrix.from_columns(new_cols, rows=dim), new_tr))
    return gens


def assert_kernel_matches_fraction_oracle(group, surj):
    """`calabi_kernel` against the oracle: the same kernel generators
    (matrices and translations, in the same order); returns the step."""
    step = calabi_kernel(group, surj)
    gens, vasquez_applied = fraction_kernel_generators(group, surj)
    assert step.kernel_group.generators == gens, group.name
    assert step.vasquez_applied == vasquez_applied
    return step


def assert_chain_matches_fraction_oracle(group) -> int:
    """Every stage of the Calabi chain of `group` against the oracle;
    returns the number of stages."""
    stages = 0
    stage = group
    while stage.dim > 0:
        surj = surjection_to_Z(stage)
        if surj is None:
            break
        stage = assert_kernel_matches_fraction_oracle(stage, surj).kernel_group
        stages += 1
    return stages


def random_diagonal_group(rng, dim, r):
    """A torsion-free group generated by r diagonal sign matrices with
    half-integer translations, with holonomy (Z/2)^r; redrawn until the
    draw is one."""
    while True:
        gens = [
            AffineGen.of(
                [[rng.choice((1, -1)) * int(i == j) for j in range(dim)] for i in range(dim)],
                tuple(F(rng.randint(0, 1), 2) for _ in range(dim)),
            )
            for _ in range(r)
        ]
        try:
            g = build_group(dim, gens, name=f"diag{dim}")
        except CrystalError:
            continue  # not faithful
        if g.holonomy_order == 2**r and is_torsion_free(g):
            return g


# integral blocks without eigenvalue 1, by their order
SCREW_BLOCKS = {2: [[-1]], 3: [[0, -1], [1, -1]], 4: [[0, -1], [1, 0]], 6: [[0, -1], [1, 1]]}


def random_screw_group(rng, dim):
    """Cyclic holonomy: diag(blocks, I) with translation 1/order along
    the first fixed axis (torsion free, since each power that is not in
    the lattice moves that axis by a non-integer), and a random integer
    shift of the whole translation."""
    orders = []  # blocks fill dim - 2 or dim - 1 coordinates
    while sum(len(SCREW_BLOCKS[m]) for m in orders) < dim - 2:
        orders.append(rng.choice(sorted(SCREW_BLOCKS)))
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    at = 0
    for m in orders:
        block = SCREW_BLOCKS[m]
        for i, brow in enumerate(block):
            rows[at + i][at : at + len(block)] = brow
        at += len(block)
    order = lcm(*orders)
    shift = [F(rng.randint(-2, 2)) for _ in range(dim)]
    shift[at] += F(1, order)
    return build_group(dim, [AffineGen.of(rows, shift)], name=f"screw{dim}")


def test_kernel_matches_fraction_oracle_on_catalog_chains():
    stages = 0
    for key in catalog_list():
        stages += assert_chain_matches_fraction_oracle(catalog_get(key).group)
    assert stages >= 15


def test_kernel_matches_fraction_oracle_with_lift_corrections():
    """The hand-made surjections of the per-element solve test, whose
    lift corrections are not zero."""
    g = build_group(3, [AffineGen.of([[1, 0, 0], [0, 1, 0], [0, 0, -1]], (F(1, 2), F(1, 2), 0))])
    s = g.generator_images[0]
    for f, phi in (((1, 1, 0), 1), ((-1, -1, 0), -1), ((1, 3, 0), 2), ((3, 1, 0), 2)):
        lift_values = tuple(phi if i == s else 0 for i in range(2))
        surj = SurjectionToZ(f, lift_values, lattice_index=1)
        step = assert_kernel_matches_fraction_oracle(g, surj)
        assert any(step.lift_corrections[s])
        assert_chain_matches_fraction_oracle(step.kernel_group)


def test_kernel_rejects_lift_values_that_break_the_homomorphism_property():
    """For a surjection that passes `_check_surjection`, phi(s) = f.t_s
    (their difference is a homomorphism from the finite holonomy to Q).
    Lift values off by a constant break the homomorphism identity on
    s * s, so `calabi_kernel` must reject them before it reads any kernel
    coordinates; the old averaged projection moved these translations."""
    for dim, f in ((2, (1, 1)), (3, (1, 1, 0)), (3, (2, 2, 1))):
        swap = [[int(j == (1 - i if i < 2 else i)) for j in range(dim)] for i in range(dim)]
        g = build_group(dim, [AffineGen.of(swap, (F(1, 2), F(1, 2)) + (F(0),) * (dim - 2))])
        s = g.generator_images[0]
        genuine = int(sum(a * b for a, b in zip(f, g.elements[s].translation)))
        for phi in (genuine, genuine - 1, genuine + 2):
            lift_values = tuple(phi if i == s else 0 for i in range(2))
            surj = SurjectionToZ(f, lift_values, lattice_index=1)
            if phi == genuine:
                assert calabi_kernel(g, surj).kernel_holonomy == (0, s)
                continue
            with pytest.raises(AssertionError, match="homomorphism property"):
                calabi_kernel(g, surj)


def test_kernel_matches_fraction_oracle_on_random_diagonal_and_screw_groups():
    rng = random.Random(41)
    groups = [
        random_diagonal_group(rng, dim, r)
        for dim in (4, 5, 6)
        for r in (1, 2, 3)
        for _ in range(2)
    ]
    groups += [random_screw_group(rng, dim) for dim in (4, 5, 6) for _ in range(4)]
    assert {g.holonomy_order for g in groups} >= {2, 3, 4, 6, 8}
    stages = sum(assert_chain_matches_fraction_oracle(g) for g in groups)
    assert stages >= 2 * len(groups)


# ---------------------------------------------------------------- decomposition

def test_decompose_torus3():
    report = is_connective(torus(3))
    assert report.connective
    assert len(report.chain) == 3
    dims = [s.kernel_group.dim for s in report.chain]
    assert dims == [2, 1, 0]


def test_decompose_hw_stalls_immediately():
    report = is_connective(hw_group())
    assert not report.connective
    assert report.chain == ()
    assert report.core is hw_group() or report.core.name == "hw"


def test_decompose_klein():
    report = is_connective(klein_bottle())
    assert report.connective
    assert len(report.chain) == 2


def test_decompose_rejects_torsion():
    x = AffineGen.of([[1, 0, 0], [0, -1, 0], [0, 0, -1]], (0, 0, 0))
    g = build_group(3, [x], name="torsion")
    with pytest.raises(NotTorsionFree):
        is_connective(g)


# ---------------------------------------------------------------- verdicts

def test_hw_not_connective():
    report = is_connective(hw_group())
    assert report.connective is False
    assert report.certificate is None
    ab = abelianization(report.core)
    assert ab.rank == 0 and ab.torsion == (4, 4)


def test_klein_connective():
    report = is_connective(klein_bottle())
    assert report.connective is True
    assert report.certificate.length == 2


def test_tori_connective():
    for k in (1, 2, 3, 4):
        report = is_connective(torus(k))
        assert report.connective and report.certificate.length == k


def test_c4_screw_connective():
    report = is_connective(c4_screw())
    assert report.connective and report.certificate.length == 3


def test_stagewise_equivalences_along_chains():
    # at every reduction stage: H1 finite <=> fixed lattice trivial
    # <=> fixed torus finite; and the poly-Z verdict matches per-stage
    # center checking
    for g in (klein_bottle(), torus(3), c4_screw(), hw_group()):
        report = is_connective(g)
        stages = [g] + [s.kernel_group for s in report.chain]
        centers_nontrivial = []
        for stage in stages:
            h1_infinite = abelianization(stage).rank > 0
            center_rank = fixed_lattice(stage).rank
            torus_rank = fixed_torus(stage).rank
            assert h1_infinite == (center_rank > 0) == (torus_rank > 0)
            if stage.dim > 0:
                centers_nontrivial.append(center_rank > 0)
        assert report.connective == all(centers_nontrivial)


def test_coprime_holonomy_entries_are_connective():
    # cyclic (hence coprime-class) holonomy forces a connective verdict
    for g in (klein_bottle(), torus(2), c4_screw()):
        d = finite_group_from_holonomy(g)
        assert in_coprime_class(d) is not None
        assert is_connective(g).connective


def test_holonomy_monotone_along_chain():
    for g in (klein_bottle(), c4_screw()):
        report = is_connective(g)
        prev = g.holonomy_order
        for step in report.chain:
            cur = step.kernel_group.holonomy_order
            assert prev % cur == 0
            prev = cur


# ---------------------------------------------------------------- catalog-wide

def test_kernel_validity_across_catalog():
    for key in catalog_list():
        g = catalog_get(key).group
        surj = surjection_to_Z(g)
        if surj is None:
            continue
        step = calabi_kernel(g, surj)
        assert step.kernel_group.dim == g.dim - 1, key
        assert is_torsion_free(step.kernel_group), key
        # the surviving holonomy is a subgroup of the parent holonomy,
        # and the kernel's holonomy is a quotient of it
        surviving = set(step.kernel_holonomy)
        assert 0 in surviving
        for i in surviving:
            for j in surviving:
                assert g.mult[i][j] in surviving, key
        assert len(surviving) % step.kernel_group.holonomy_order == 0, key
        assert g.holonomy_order % len(surviving) == 0, key


def test_coprime_class_holonomy_forces_connective_across_catalog():
    for key in catalog_list():
        g = catalog_get(key).group
        d = finite_group_from_holonomy(g)
        if in_coprime_class(d) is not None:
            assert is_connective(g).connective, key


def test_nonprimitive_holonomy_forces_infinite_h1_across_catalog():
    from bieberbach.finite import is_primitive

    for key in catalog_list():
        g = catalog_get(key).group
        d = finite_group_from_holonomy(g)
        if not is_primitive(d):
            assert abelianization(g).rank > 0, key


# ---------------------------------------------------------------- vasquez pass

def test_vasquez_standardize_synthetic():
    # a dim-1 "kernel" handed a pure half translation: the lattice must
    # be refined to (1/2)Z and the flip rewritten in the finer basis
    flip = IntMatrix([[-1]])
    ident = IntMatrix([[1]])
    gens = _vasquez_standardize(
        1,
        [(ident, (F(1, 2),)), (flip, (F(0),))],
    )
    g = build_group(1, gens, name="standardized")
    assert g.holonomy_order == 2  # the flip survives, the translation merges
    assert g.elements[1].matrix == flip


def test_certificate_documents():
    from bieberbach.calabi import connectivity_document
    from bieberbach.groupfile import group_to_document

    hw = hw_group()
    doc = connectivity_document(is_connective(hw))
    assert doc["connective"] is False
    assert doc["chain"] == []
    assert doc["core"] == group_to_document(hw)

    doc = connectivity_document(is_connective(klein_bottle()))
    assert doc["connective"] is True and doc["core"] is None
    assert [s["kernel"]["dimension"] for s in doc["chain"]] == [1, 0]
    step = doc["chain"][0]
    assert step["lattice_map"] == [2, 0]
    assert step["lattice_index"] == 2
    assert step["sublattice_basis"] == [[0, 1]]


def test_vasquez_never_fires_on_catalog_style_groups():
    for g in (klein_bottle(), torus(3), c4_screw()):
        report = is_connective(g)
        assert all(not s.vasquez_applied for s in report.chain)
