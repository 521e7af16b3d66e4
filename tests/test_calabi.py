from fractions import Fraction

import pytest

from bieberbach.calabi import (
    NotTorsionFree,
    SurjectionToZ,
    _vasquez_standardize,
    calabi_kernel,
    is_connective,
    surjection_to_Z,
)
from bieberbach.crystal import AffineGen, build_group, is_torsion_free
from bieberbach.finite import finite_group_from_holonomy, in_coprime_class
from bieberbach.invariants import abelianization, fixed_lattice, fixed_torus
from bieberbach.linalg import IntMatrix, integer_kernel, solve_integer_linear


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
    from bieberbach.catalog import catalog_get, catalog_list

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
    from bieberbach.catalog import catalog_get, catalog_list

    for key in catalog_list():
        g = catalog_get(key).group
        d = finite_group_from_holonomy(g)
        if in_coprime_class(d) is not None:
            assert is_connective(g).connective, key


def test_nonprimitive_holonomy_forces_infinite_h1_across_catalog():
    from bieberbach.catalog import catalog_get, catalog_list
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
