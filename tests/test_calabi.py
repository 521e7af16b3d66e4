import random
import re
from dataclasses import fields, replace
from fractions import Fraction
from math import gcd, lcm

import pytest

import bieberbach.calabi as calabi
import bieberbach.crystal as crystal
from bieberbach.calabi import (
    NotTorsionFree,
    SurjectionToZ,
    _check_surjection,
    _generating_subset,
    _lattice_tail,
    calabi_kernel,
    is_connective,
    step_document,
    surjection_to_Z,
)
from bieberbach.catalog import catalog_get, catalog_list
from bieberbach.crystal import (
    AffineGen, CrystalError, CrystalGroup, build_group, is_torsion_free, torsion_witness
)
from bieberbach.finite import finite_group_from_holonomy, in_coprime_class
from bieberbach.groupfile import document_to_group
from bieberbach.invariants import abelianization, dual_action_smith, fixed_lattice, fixed_torus
from bieberbach.linalg import (
    IntMatrix, determinant, integer_kernel, row_smith_basis, smith_normal_form
)
from oracles import (
    _closure, corpus_items, frac_vector, from_columns, greedy_generating_subset,
    hermite_normal_form, hw_group, inverses, invert_unimodular, klein_bottle, mult_table,
    rational_solve, solve_integer_linear, torus, translation_of, vec_add
)
from test_build_oracle import full_cocycle
from test_invariants import presentation_map, signed_permutation_group
from test_scale import hw_times_bott, real_bott_group


F = Fraction


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
    s = g.holonomy_generator_indices()[0]
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
    assert step.surjection.kernel_holonomy == (0,)
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


def dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def assert_step_bookkeeping(stage, step):
    """What a step derives from its surjection and its basis: the basis
    is unimodular, its first vector w has f . w = d and the others span
    ker(f); the kernel holonomy is {s : d | phi(s)}; each correction is
    -phi(s)/d w and corrects the lift value; and the kernel holonomy
    acts faithfully on ker(f)."""
    surj, (w, *rest) = step.surjection, step.basis
    f, phi, d = surj.lattice_map, surj.lift_values, surj.lattice_index
    assert abs(determinant(IntMatrix(step.basis))) == 1, stage.name
    assert dot(f, w) == d
    assert step.sublattice_basis == tuple(rest)
    assert all(dot(f, b) == 0 for b in step.sublattice_basis)
    kernel_holonomy = surj.kernel_holonomy
    assert kernel_holonomy == tuple(s for s in range(stage.holonomy_order) if phi[s] % d == 0)
    corrections = step.lift_corrections
    assert corrections == tuple(tuple(-phi[s] // d * x for x in w) for s in kernel_holonomy)
    assert [dot(f, lam) for lam in corrections] == [-phi[s] for s in kernel_holonomy]
    # no kernel element but the identity acts trivially on ker(f) (`CalabiStep`)
    assert (step.kernel_group.dim, step.kernel_group.holonomy_order) == (
        stage.dim - 1, len(kernel_holonomy)
    )


def test_kernel_validity_properties():
    for g in (klein_bottle(), torus(3), c4_screw()):
        step = calabi_kernel(g, surjection_to_Z(g))
        assert_step_bookkeeping(g, step)
        assert is_torsion_free(step.kernel_group)
        assert g.holonomy_order % step.kernel_group.holonomy_order == 0
    # every step of every chain (whose corrections are all zero; the hand-made
    # surjections below have nonzero ones): the catalog, the seeded groups,
    # the seed-1 `analyze` and `connective` corpora and two order-128 groups
    groups = [catalog_get(key).group for key in catalog_list()] + seeded_chain_groups()
    groups += torsion_free_corpus_groups(seeds=(1,))
    groups += [real_bott_group(8), hw_times_bott(6)]
    steps = 0
    for group in groups:
        stage = group
        for step in is_connective(group).chain:
            assert_step_bookkeeping(stage, step)
            stage = step.kernel_group
            steps += 1
    assert steps >= 900


def test_lift_corrections_match_per_element_solves():
    """Corrections and the kernel basis come from one Smith form of [f];
    they must equal a separate integer solve per kernel element and the
    integer kernel of [f].  The catalog's chains only ever need zero
    corrections, so the surjections here are chosen by hand: the lift
    of the half screw g has a nonzero value, and f = (-1, -1, 0) makes
    the Smith form negate its row."""
    g = build_group(3, [AffineGen.of([[1, 0, 0], [0, 1, 0], [0, 0, -1]], (F(1, 2), F(1, 2), 0))])
    s = g.holonomy_generator_indices()[0]
    # phi(g) + phi(g) = f . (1, 1, 0), the translation of g^2
    for f, phi in (((1, 1, 0), 1), ((-1, -1, 0), -1), ((1, 3, 0), 2), ((3, 1, 0), 2)):
        lift_values = tuple(phi if i == s else 0 for i in range(2))
        step = calabi_kernel(g, SurjectionToZ(f, lift_values))
        row = IntMatrix([f], cols=3)
        assert step.surjection.kernel_holonomy == (0, 1)
        assert step.lift_corrections == tuple(
            solve_integer_linear(row, (-lift_values[i],))[0] for i in (0, 1)
        )
        assert any(step.lift_corrections[s])
        assert step.sublattice_basis == tuple(integer_kernel(row))
        assert is_torsion_free(step.kernel_group)
        assert_step_bookkeeping(g, step)


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
        surj = SurjectionToZ(f, (0,) * g.holonomy_order)
        with pytest.raises(AssertionError, match="not holonomy invariant"):
            calabi_kernel(g, surj)


def test_kernel_rejects_lift_values_of_the_wrong_length():
    """One lift value per holonomy element: one too few or one too many
    is rejected, not read past or printed in the certificate."""
    for key in ("klein_bottle", "dim3_c3", "dim3_c2c2_connective"):
        g = catalog_get(key).group
        surj = surjection_to_Z(g)
        for lift_values in (surj.lift_values[:-1], surj.lift_values + (7,)):
            with pytest.raises(AssertionError, match="one lift value per holonomy element"):
                calabi_kernel(g, replace(surj, lift_values=lift_values))


# ---------------------------------------------------------------- surjection oracle

def all_pairs_check_surjection(group, surj):
    """`_check_surjection` as it was before the Cayley-graph check:
    invariance under every holonomy matrix and the homomorphism identity
    on all n^2 pairs."""
    f, phi = surj.lattice_map, surj.lift_values
    k = group.dim
    if gcd(*f, *phi) != 1:
        raise AssertionError("values are not coprime; the map is not onto Z")
    fm = IntMatrix([f], cols=k)
    for elem in group.elements:
        for j in range(k):
            col = elem.matrix.column(j)
            if fm.apply(col)[0] != f[j]:
                raise AssertionError("lattice map is not holonomy invariant")
    n = group.holonomy_order
    cocycle = full_cocycle(group)
    for s in range(n):
        for t in range(n):
            tau = cocycle[s][t]
            if phi[s] + phi[t] - phi[mult_table(group.holonomy)[s][t]] != sum(
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
        (phi, lambda v: SurjectionToZ(surj.lattice_map, tuple(v))),
        (f, lambda v: SurjectionToZ(tuple(v), surj.lift_values)),
    ):
        for i in range(len(values)):
            for delta in (-1, 1):
                moved = list(values)
                moved[i] += delta
                yield rebuild(moved)


def assert_element_check_matches_all_pairs(group, surj) -> tuple[int, int]:
    """The per-element check and the all-pairs copy agree on `surj` and
    on each single-entry perturbation; returns (accepted, rejected)
    counts."""
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


def test_element_surjection_check_matches_all_pairs_on_catalog_chains():
    stages = accepted = rejected = 0
    for key in catalog_list():
        for stage, surj in chain_stages(catalog_get(key).group):
            assert accepts(all_pairs_check_surjection, stage, surj), key
            a, r = assert_element_check_matches_all_pairs(stage, surj)
            stages += 1
            accepted += a
            rejected += r
    assert stages >= 15
    # on a torus stage a perturbed f is often still onto Z
    assert accepted > stages and rejected > 5 * stages


def test_element_surjection_check_matches_all_pairs_on_random_chains():
    """Seeded screw groups (translation denominators 2, 3, 4 and 6) and
    diagonal (Z/2)^r groups, whose chains carry nonzero lift values."""
    rng = random.Random(43)
    groups = [random_screw_group(rng, dim) for dim in (4, 5) for _ in range(4)]
    groups += [random_diagonal_group(rng, dim, r) for dim in (4, 5) for r in (2, 3)]
    denominators = {x.denominator for g in groups for e in g.elements for x in translation_of(e)}
    assert denominators >= {3, 4, 6}
    nonzero_lifts = 0
    for g in groups:
        for stage, surj in chain_stages(g):
            assert_element_check_matches_all_pairs(stage, surj)
            nonzero_lifts += any(surj.lift_values)
    assert nonzero_lifts >= len(groups)


def test_element_surjection_check_matches_all_pairs_on_hand_made_surjections():
    """Lift corrections that are not zero, and lift values off by a
    constant."""
    g = build_group(3, [AffineGen.of([[1, 0, 0], [0, 1, 0], [0, 0, -1]], (F(1, 2), F(1, 2), 0))])
    s = g.holonomy_generator_indices()[0]
    for f, phi in (((1, 1, 0), 1), ((-1, -1, 0), -1), ((1, 3, 0), 2), ((3, 1, 0), 2)):
        for shift in (-1, 0, 2):
            lift_values = tuple(phi + shift if i == s else 0 for i in range(2))
            surj = SurjectionToZ(f, lift_values)
            assert accepts(_check_surjection, g, surj) == (shift == 0)
            assert_element_check_matches_all_pairs(g, surj)


# ---------------------------------------------------------------- H1 surjection oracle

def h1_surjection_to_Z(group):
    """`surjection_to_Z` as it was before it read the fixed dual lattice:
    the first free coordinate of the abelianization, sign normalized so
    that the first nonzero value is positive."""
    ab = abelianization(group)
    if ab.rank == 0:
        return None
    k = group.dim
    row = list(presentation_map(group).row(len(ab.torsion)))
    if next(x for x in row if x != 0) < 0:
        row = [-x for x in row]
    f = tuple(row[:k])
    assert any(f), "surjection vanishes on the lattice; rank bookkeeping broken"
    return SurjectionToZ(lattice_map=f, lift_values=tuple(row[k:]))


def chain_verdict(group, surjection):
    """(connective, chain length) of the Calabi chain whose stages peel
    the surjection that `surjection` picks."""
    stage, length = group, 0
    while stage.dim > 0:
        surj = surjection(stage)
        if surj is None:
            return False, length
        stage = calabi_kernel(stage, surj).kernel_group
        length += 1
    return True, length


def torsion_free_corpus_groups(seeds=(1, 2)):
    """The torsion-free groups of the `analyze` and `connective` corpora
    of these seeds, each built afresh."""
    for workload in ("analyze", "connective"):
        for seed in seeds:
            for item in corpus_items(workload, seed):
                group = document_to_group(item.doc)
                if is_torsion_free(group):
                    yield group


def seeded_chain_groups():
    """The seeded screw and diagonal groups of the chain tests below."""
    rng = random.Random(41)
    groups = [
        random_diagonal_group(rng, dim, r) for dim in (4, 5, 6) for r in (1, 2, 3) for _ in range(2)
    ]
    groups += [random_screw_group(rng, dim) for dim in (4, 5, 6) for _ in range(4)]
    rng = random.Random(43)
    groups += [random_screw_group(rng, dim) for dim in (4, 5) for _ in range(4)]
    groups += [random_diagonal_group(rng, dim, r) for dim in (4, 5) for r in (2, 3)]
    return groups


def assert_same_verdicts_as_h1_oracle(groups) -> tuple[int, int]:
    """The fixed-dual-lattice chain and the H1 chain reach the same
    verdict after the same number of peels; returns (groups, groups
    whose top-stage surjection differs between the two)."""
    count = differ = 0
    for g in groups:
        report = is_connective(g)
        assert (report.connective, len(report.chain)) == chain_verdict(g, h1_surjection_to_Z), g.name
        count += 1
        differ += surjection_to_Z(g) != h1_surjection_to_Z(g)
    return count, differ


def test_surjection_matches_h1_oracle_on_catalog_and_seeded_chains():
    groups = [catalog_get(key).group for key in catalog_list()] + seeded_chain_groups()
    count, differ = assert_same_verdicts_as_h1_oracle(groups)
    assert count == 11 + len(seeded_chain_groups())
    assert differ > 0  # the tori choose another basis vector of the dual lattice


def test_surjection_matches_h1_oracle_on_perfbench_corpora():
    count, differ = assert_same_verdicts_as_h1_oracle(torsion_free_corpus_groups())
    assert count >= 350
    assert differ > 0


def assert_normalized_surjection_or_trivial_centre(group):
    surj = surjection_to_Z(group)
    assert (surj is None) == (fixed_lattice(group).rank == 0), group.name
    if surj is not None:
        _check_surjection(group, surj)
        assert gcd(*surj.lattice_map, *surj.lift_values) == 1
        assert next(x for x in surj.lattice_map if x) > 0


def test_surjection_is_none_exactly_when_the_centre_is_trivial():
    for g in [catalog_get(key).group for key in catalog_list()] + seeded_chain_groups():
        for stage in [g] + [s.kernel_group for s in is_connective(g).chain]:
            assert_normalized_surjection_or_trivial_centre(stage)


def test_surjection_sign_is_normalized_on_signed_permutation_holonomy():
    """Zero-translation signed-permutation groups (with torsion, which
    the surjection does not mind), where the fixed dual lattice's first
    basis vector often leads with a negative entry."""
    rng = random.Random(5)
    negative_leads = 0
    for _ in range(100):
        g = signed_permutation_group(rng, rng.randint(2, 5))
        assert_normalized_surjection_or_trivial_centre(g)
        snf = dual_action_smith(g)
        nnz = sum(1 for d in snf.divisors if d != 0)
        if nnz < g.dim:
            negative_leads += next(x for x in snf.V.column(nnz) if x) < 0
    assert negative_leads >= 5


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
    n, inverse = group.holonomy_order, inverses(group.holonomy)
    p_rows = [[Fraction(0)] * k for _ in range(k)]
    for s, elem in enumerate(group.elements):
        a = elem.matrix
        ainv = group.elements[inverse[s]].matrix
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
    each kernel basis vector moved by each element.  The generators are
    the elements of the greedy generating set of the kernel holonomy,
    found by closures over the multiplication table.  Returns the
    generators and the flag for the Vasquez pass, which reads every
    kernel element."""
    k = group.dim
    f = surj.lattice_map
    d = surj.lattice_index
    snf = smith_normal_form(IntMatrix([f], cols=k))
    w = tuple(snf.U[0, 0] * x for x in snf.V.column(0))
    basis = [snf.V.column(j) for j in range(1, k)]
    bmat = from_columns(basis, rows=k)
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
        shifted = vec_add(translation_of(elem), frac_vector(lam))
        projected = _apply_rows(proj, shifted)
        coords = rational_solve(bmat, projected)
        assert coords is not None, "projected translation is outside the kernel sublattice span"
        restricted_cols = []
        for vec in basis:
            moved = elem.matrix.apply(vec)
            col = rational_solve(bmat, moved)
            assert col is not None and all(x.denominator == 1 for x in col)
            restricted_cols.append([int(x) for x in col])
        restricted = from_columns(restricted_cols, rows=k - 1)
        new_gens_by_element[idx] = (restricted, coords)

    nontrivial = {idx: pair for idx, pair in new_gens_by_element.items() if idx != 0}
    vasquez_applied = any(mat == IntMatrix.identity(mat.rows) for mat, _ in nontrivial.values())
    if vasquez_applied:
        gens = _vasquez_standardize(k - 1, list(nontrivial.values()))
    else:
        subset = greedy_generating_subset(group.holonomy, kernel_holonomy)
        gens = [AffineGen(*new_gens_by_element[idx]) for idx in subset]
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
    pure = [tr for mat, tr in affine_pairs if mat == IntMatrix.identity(mat.rows)]
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
        gens.append(AffineGen(from_columns(new_cols, rows=dim), new_tr))
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
    s = g.holonomy_generator_indices()[0]
    for f, phi in (((1, 1, 0), 1), ((-1, -1, 0), -1), ((1, 3, 0), 2), ((3, 1, 0), 2)):
        lift_values = tuple(phi if i == s else 0 for i in range(2))
        surj = SurjectionToZ(f, lift_values)
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
        s = g.holonomy_generator_indices()[0]
        genuine = int(sum(a * b for a, b in zip(f, translation_of(g.elements[s]))))
        for phi in (genuine, genuine - 1, genuine + 2):
            lift_values = tuple(phi if i == s else 0 for i in range(2))
            surj = SurjectionToZ(f, lift_values)
            if phi == genuine:
                assert calabi_kernel(g, surj).surjection.kernel_holonomy == (0, s)
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


# ---------------------------------------------------------------- lattice tail and generating sets

def general_peels(stage):
    """The chain below `stage` by `surjection_to_Z` and `calabi_kernel`
    alone, with no closed-form lattice tail."""
    return [calabi_kernel(peeled, surj) for peeled, surj in chain_stages(stage)]


def assert_lattice_tail_matches_general_peel(stage):
    """The closed-form peels of a lattice stage against the general peel:
    the same certificate documents and the same kernel groups."""
    tail, general = _lattice_tail(stage), general_peels(stage)
    assert stage.holonomy_order == 1
    assert len(tail) == len(general) == stage.dim, stage.name
    for closed, peeled in zip(tail, general):
        assert step_document(closed) == step_document(peeled), stage.name
        for field in ("elements", "edges", "edge_cocycle"):
            assert getattr(closed.kernel_group, field) == getattr(peeled.kernel_group, field)


def test_lattice_tail_matches_the_general_peel_on_catalog_and_corpora():
    """Every trivial-holonomy stage the general chain reaches from the
    catalog and the seed-1 and seed-2 `analyze` and `connective` corpora."""
    groups = [catalog_get(key).group for key in catalog_list()]
    stages = 0
    for group in groups + list(torsion_free_corpus_groups()):
        for stage, _ in chain_stages(group):
            if stage.holonomy_order == 1:
                assert_lattice_tail_matches_general_peel(stage)
                stages += 1
    assert stages >= 500


def test_lattice_tail_matches_the_general_peel_on_integer_translation_lattices():
    """Z^k for k = 0..8, generated by the unit translations or by a few
    random integer translations (none at all is Z^k too)."""
    rng = random.Random(11)
    for k in range(9):
        lattices = [torus(k)]
        for count in range(4):
            gens = [
                AffineGen(IntMatrix.identity(k), tuple(rng.randint(-3, 3) for _ in range(k)))
                for _ in range(count)
            ]
            lattices.append(build_group(k, gens, name=f"lattice_{k}_{count}"))
        for lattice in lattices:
            assert_lattice_tail_matches_general_peel(lattice)
            report = is_connective(lattice)
            assert report.connective and len(report.chain) == k
            assert list(map(step_document, report.chain)) == list(
                map(step_document, general_peels(lattice))
            )


def test_each_closed_form_tail_kernel_is_the_closure_of_no_generators(monkeypatch):
    """`_lattice_tail` closes nothing: each kernel Z^m, m = 8 down to 0,
    is written in closed form and equals `build_group(m, (), name=...)`
    field for field."""
    lattice = torus(9)
    closures = []
    monkeypatch.setattr(calabi, "build_group", lambda *args, **kw: closures.append(args))
    tail = _lattice_tail(lattice)
    monkeypatch.undo()
    assert closures == []
    assert [step.kernel_group.dim for step in tail] == list(range(8, -1, -1))
    for step in tail:
        kernel = step.kernel_group
        closed = build_group(kernel.dim, (), name=kernel.name)
        for field in fields(CrystalGroup):
            assert getattr(kernel, field.name) == getattr(closed, field.name), field.name
    assert tail[-1].kernel_group.name == "torus_9" + ".ker" * 9


def test_generating_subset_matches_the_table_oracle_on_signed_permutation_groups():
    """The incremental closure against closures afresh over the table,
    on non-abelian holonomy of order up to 48, for the whole group and for
    the subgroup a random pair of elements generates."""
    rng = random.Random(17)
    nonabelian = 0
    for _ in range(60):
        g = signed_permutation_group(rng, rng.randint(2, 4))
        table, n = mult_table(g.holonomy), g.holonomy_order
        nonabelian += any(table[x][y] != table[y][x] for x in range(n) for y in range(n))
        pair = [rng.randrange(n), rng.randrange(n)]
        for members in (tuple(range(n)), tuple(sorted(_closure(table, pair)))):
            subset = _generating_subset(g, members)
            assert tuple(subset) == greedy_generating_subset(g.holonomy, members)
            assert _closure(table, subset) == set(members)
            assert len(subset) <= (len(members) - 1).bit_length()
    assert nonabelian >= 10


def test_every_kernel_has_at_most_log2_of_its_holonomy_order_generators():
    groups = [catalog_get(key).group for key in catalog_list()] + seeded_chain_groups()
    generators = elements = 0
    for group in groups + list(torsion_free_corpus_groups()):
        for step in is_connective(group).chain:
            count, order = len(step.kernel_group.generators), len(step.surjection.kernel_holonomy)
            assert count <= (order - 1).bit_length(), group.name  # ceil(log2 order)
            generators += count
            elements += order - 1
    assert generators < elements  # one generator per element would be more


# ---------------------------------------------------------------- the peel's basis

def assert_row_basis_matches_smith_form(f):
    """`row_smith_basis` gives the V and U of `smith_normal_form` on the
    one-row matrix [f], and an inverse of that V: V V^-1 = V^-1 V = I, and
    it is the Hermite inverse."""
    snf = smith_normal_form(IntMatrix([f], cols=len(f)))
    v, v_inv, u = row_smith_basis(f)
    assert v == snf.V, f
    identity = IntMatrix.identity(len(f))
    assert v * v_inv == identity and v_inv * v == identity, f
    assert v_inv == invert_unimodular(snf.V), f
    assert u == snf.U[0, 0], f


def test_row_basis_matches_smith_form_on_every_chain_stage():
    """Every stage of the catalog chains and of the seed-1 and seed-2
    chains of all three benchmark workloads."""
    groups = [catalog_get(key).group for key in catalog_list()]
    for workload in ("analyze", "lattice", "connective"):
        for seed in (1, 2):
            groups += [document_to_group(item.doc) for item in corpus_items(workload, seed)]
    stages = 0
    for group in groups:
        for _, surj in chain_stages(group):
            assert_row_basis_matches_smith_form(surj.lattice_map)
            stages += 1
    assert stages >= 1000


def test_row_basis_matches_smith_form_on_random_rows():
    """Rows of length 1..7 with zeros, negatives, ties in |entry| and a
    common factor, so every branch of the elimination runs."""
    rng = random.Random(15)
    entries = (0, 0, 1, -1, 2, -2, 3, -3, 4, 6, -9, 10, 35)
    seen = set()
    for _ in range(10_000):
        k = rng.randint(1, 7)
        scale = rng.choice((1, 1, 2, 3, -6))
        f = [scale * rng.choice(entries) for _ in range(k)]
        if rng.random() < 0.1:
            f[rng.randrange(k)] = rng.randint(-10**9, 10**9)
        assert_row_basis_matches_smith_form(f)
        nonzero = [abs(x) for x in f if x]
        seen.add(("zero", 0 in f))
        seen.add(("negative", min(f) < 0))
        seen.add(("tie", len(nonzero) > len(set(nonzero))))
        seen.add(("non-primitive", gcd(*f) > 1))
        seen.add(("sign", row_smith_basis(f)[2]))
    assert seen == {(name, flag) for name in ("zero", "negative", "tie", "non-primitive")
                    for flag in (False, True)} | {("sign", 1), ("sign", -1)}


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


def count_torsion_tests(monkeypatch):
    """The groups tested for torsion (each `torsion_witness` call, through
    `is_torsion_free` too), the stages at which `surjection_to_Z` finds no
    surjection (the stall stages), and the arguments of every
    `norm_solution` call, one per prime-order cyclic subgroup that a
    torsion test reaches."""
    tested, stalls, solves = [], [], []
    test, surject, solve = crystal.torsion_witness, calabi.surjection_to_Z, crystal.norm_solution

    def testing(group):
        tested.append(group)
        return test(group)

    def surjecting(group):
        surj = surject(group)
        if surj is None:
            stalls.append(group)
        return surj

    def solving(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(crystal, "torsion_witness", testing)
    monkeypatch.setattr(calabi, "surjection_to_Z", surjecting)
    monkeypatch.setattr(crystal, "norm_solution", solving)
    return tested, stalls, solves


def test_the_torsion_test_runs_only_at_a_stall_and_only_on_the_core(monkeypatch):
    """A chain down to dimension 0 shows the group torsion free, so on
    every connective group of the catalog and of the seed-1 `connective`
    corpus `is_connective` tests nothing; at a stall it tests the core
    once, and nothing else.  `hw_times_bott(4)` stalls after 4 peels, at
    the Hantzsche-Wendt core, so there the core is not the input."""
    groups = [catalog_get(key).group for key in catalog_list()]
    groups = [build_group(g.dim, g.generators, name=g.name) for g in groups]  # nothing memoised
    groups += [document_to_group(item.doc) for item in corpus_items("connective")]
    groups.append(hw_times_bott(4))
    tested, stalls, solves = count_torsion_tests(monkeypatch)
    verdicts = []
    for group in groups:
        tested.clear()
        stalls.clear()
        solves.clear()
        report = is_connective(group)
        verdicts.append(report.connective)
        if report.connective:
            assert tested == stalls == solves == [], group.name
        else:
            assert len(tested) == 1 and tested[0] is report.core, group.name
            assert stalls == tested, group.name
    assert verdicts.count(True) >= 91 and verdicts.count(False) >= 12
    assert len(report.chain) == 4 and report.core.dim == 3  # hw_times_bott(4), the last


def torsion_corpus_docs():
    """The documents of the groups with torsion in the seed-1 and seed-2
    `analyze` corpora, as their generator labels them."""
    return [
        item.doc
        for seed in (1, 2)
        for item in corpus_items("analyze", seed)
        if not item.expect["torsion_free"]
    ]


def test_a_group_with_torsion_stalls_and_tests_only_the_core(monkeypatch):
    """Every group with torsion of the seed-1 and seed-2 `analyze` corpora
    raises `NotTorsionFree`, naming the input, after its chain stalls,
    with the stall stage the one group tested.  The input's own
    `torsion_witness` is the oracle for the verdict."""
    groups = [document_to_group(doc) for doc in torsion_corpus_docs()]
    assert all(torsion_witness(group) is not None for group in groups)
    tested, stalls, _ = count_torsion_tests(monkeypatch)
    peeled = 0
    for group in groups:
        tested.clear()
        stalls.clear()
        with pytest.raises(NotTorsionFree, match=re.escape(f"group {group.name!r} has torsion")):
            is_connective(group)
        assert len(tested) == 1 and stalls == tested, group.name
        peeled += tested[0].dim < group.dim
    assert len(groups) >= 20 and peeled >= 4


def all_corpus_groups():
    """The catalog, then seeds 1-3 of the three benchmark corpora."""
    groups = [catalog_get(key).group for key in catalog_list()]
    groups = [build_group(g.dim, g.generators, name=g.name) for g in groups]  # nothing memoised
    for workload in ("analyze", "lattice", "connective"):
        for seed in (1, 2, 3):
            groups += [document_to_group(item.doc) for item in corpus_items(workload, seed)]
    return groups


def test_the_chain_has_torsion_exactly_when_the_input_does(monkeypatch):
    """At a stall at stage C the quotient of the input by C is poly-Z, so
    every torsion element of the input lies in C: testing C alone decides
    the input.  On 884 groups `is_connective` tests only the stall stage,
    and raises NotTorsionFree exactly when the input's `torsion_witness`
    finds an element of finite order."""
    groups = all_corpus_groups()
    has_torsion = [torsion_witness(group) is not None for group in groups]
    tested, stalls, _ = count_torsion_tests(monkeypatch)
    verdicts = []
    for group in groups:
        tested.clear()
        stalls.clear()
        try:
            verdicts.append("connective" if is_connective(group).connective else "core")
        except NotTorsionFree:
            verdicts.append("torsion")
        assert tested == stalls and len(stalls) == (verdicts[-1] != "connective"), group.name
    for group, torsion, verdict in zip(groups, has_torsion, verdicts):
        assert torsion == (verdict == "torsion"), group.name
    split = (verdicts.count("connective"), verdicts.count("core"), verdicts.count("torsion"))
    assert len(groups) == 884 and split == (478, 70, 336)


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
        surviving = set(step.surjection.kernel_holonomy)
        assert 0 in surviving
        for i in surviving:
            for j in surviving:
                assert mult_table(g.holonomy)[i][j] in surviving, key
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


def z6_half_and_third_screw():
    """Holonomy Z/6 in dimension 5: a flips e5 and moves e2 by 1/2, b turns
    the (e3, e4) plane by a third and moves e1 by 1/3, so q = 6 while the
    first kernel keeps only a, whose shift is over 2."""
    identity = [[int(i == j) for j in range(5)] for i in range(5)]
    flip, turn = [r[:] for r in identity], [r[:] for r in identity]
    flip[4][4] = -1
    turn[2][2:4], turn[3][2:4] = [0, -1], [1, -1]
    a = AffineGen.of(flip, (0, F(1, 2), 0, 0, 0))
    b = AffineGen.of(turn, (F(1, 3), 0, 0, 0, 0))
    return build_group(5, [a, b], name="z6")


def test_kernel_generators_are_written_in_lowest_terms():
    """Each kernel generator's shift and denominator are coprime, the form
    `AffineGen`'s constructor writes, so the two compare equal, on the
    seed-1 benchmark corpus, the catalog and a group whose first kernel
    generator drops a factor of its parent's denominator."""
    groups = [document_to_group(item.doc) for item in corpus_items("connective")]
    groups += [catalog_get(key).group for key in catalog_list()] + [z6_half_and_third_screw()]
    reduced = 0
    for group in groups:
        stage = group
        for step in is_connective(group).chain:
            for g in step.kernel_group.generators:
                assert gcd(g.denominator, *g.shift) == 1
                assert AffineGen(g.matrix, translation_of(g)) == g
                reduced += g.denominator < stage.denominator
            stage = step.kernel_group
    assert reduced > 0
