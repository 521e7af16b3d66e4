"""Calabi reduction and the connectivity decision.

A torsion-free group with infinite first homology surjects onto Z; the
kernel is a torsion-free group one dimension down.  Iterating either
reaches the trivial group (the group is poly-Z, hence connective) or
stalls at a stage with finite first homology (a trivial-center core
certifying the negative verdict).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .crystal import AffineGen, CrystalGroup, build_group, is_torsion_free
from .groupfile import group_to_document
from .invariants import abelianization
from .linalg import (
    IntMatrix,
    gcd_all,
    hermite_normal_form,
    invert_unimodular,
    rational_solve,
    smith_normal_form,
)


class NotTorsionFree(Exception):
    """Connectivity is only decided for torsion-free (Bieberbach) input."""


class InvariantProjectionFailure(Exception):
    """The averaged projection left the kernel sublattice span; cannot
    happen for valid input."""


@dataclass(frozen=True)
class SurjectionToZ:
    """A surjective homomorphism onto Z, recorded by its values on the
    lattice basis (`lattice_map`) and on the holonomy lifts
    (`lift_values`, one per holonomy element).  `lattice_index` is the
    index of the image of the lattice inside Z."""

    lattice_map: tuple[int, ...]
    lift_values: tuple[int, ...]
    lattice_index: int


@dataclass(frozen=True)
class CalabiStep:
    """One peel: the surjection, the kernel group in its own standard
    form, and the data tying the two together (sublattice basis inside
    the parent lattice, surviving holonomy, lift corrections)."""

    surjection: SurjectionToZ
    kernel_group: CrystalGroup
    sublattice_basis: tuple[tuple[int, ...], ...]
    kernel_holonomy: tuple[int, ...]
    lift_corrections: tuple[tuple[int, ...], ...]
    vasquez_applied: bool = False


@dataclass(frozen=True)
class PolyZSeries:
    """Chain of peels from the group all the way down to dimension 0;
    consecutive quotients are all Z."""

    steps: tuple[CalabiStep, ...]

    @property
    def length(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class ConnectivityReport:
    connective: bool
    certificate: PolyZSeries | None
    core: CrystalGroup | None
    chain: tuple[CalabiStep, ...]


def surjection_to_Z(group: CrystalGroup) -> SurjectionToZ | None:
    """A surjection onto Z, or None when first homology is finite.

    The map is the first free coordinate of the abelianization, sign
    normalized so the first nonzero value is positive.
    """
    ab = abelianization(group)
    if ab.rank == 0:
        return None
    k = group.dim
    row = list(ab.presentation_map.row(len(ab.torsion)))
    lead = next(x for x in row if x != 0)
    if lead < 0:
        row = [-x for x in row]
    f = tuple(row[:k])
    phi = tuple(row[k:])
    if all(x == 0 for x in f):
        raise AssertionError("surjection vanishes on the lattice; rank bookkeeping broken")
    surj = SurjectionToZ(
        lattice_map=f, lift_values=phi, lattice_index=gcd_all(f)
    )
    _check_surjection(group, surj)
    return surj


def _check_surjection(group: CrystalGroup, surj: SurjectionToZ) -> None:
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


def calabi_kernel(group: CrystalGroup, surj: SurjectionToZ) -> CalabiStep:
    """Kernel of the surjection as a standard-form group of dimension
    k - 1, together with the bookkeeping for re-verification.

    Translations are projected onto ker(f) by the holonomy average of
    E = I - w f^T / d, where f.w = d.  Since f^T A(s) = f^T for every s,
    A(s^-1) E A(s) = I - A(s^-1) w f^T / d, so the average is the
    rank-one projection P = I - u f^T / (n d) with u = sum_s A(s) w, one
    integer vector.  Kernel coordinates come from one inverse of the
    Smith transform V: (V^-1 P x)[1:] for a translation x and
    (V^-1 A V)[1:, 1:] for a matrix A, all in integers.
    """
    k = group.dim
    f = surj.lattice_map
    d = surj.lattice_index
    fm = IntMatrix([f], cols=k)
    # the closed form for P needs the invariance on all of the holonomy
    if any(fm * group.elements[i].matrix != fm for i in group.holonomy_generator_indices()):
        raise AssertionError("lattice map is not holonomy invariant")
    # U f V = (d, 0, ..., 0): the first column of V, times the unit U,
    # solves f.w = d, and the other columns are a basis of ker(f)
    snf = smith_normal_form(fm)
    w = tuple(snf.U[0, 0] * x for x in snf.V.column(0))
    if sum(a * b for a, b in zip(f, w)) != d:
        raise AssertionError("gcd witness vector must exist")
    basis = [snf.V.column(j) for j in range(1, k)]
    v_inv = invert_unimodular(snf.V)

    kernel_holonomy = tuple(
        i for i in range(group.holonomy_order) if surj.lift_values[i] % d == 0
    )
    # d divides each kernel lift value, so each correction is a multiple of w
    corrections = [
        tuple(-surj.lift_values[idx] // d * x for x in w) for idx in kernel_holonomy
    ]

    u = tuple(map(sum, zip(*(elem.matrix.apply(w) for elem in group.elements))))
    nd = group.holonomy_order * d
    v_inv_u = v_inv.apply(u)
    new_gens_by_element = {}
    for idx, lam in zip(kernel_holonomy, corrections):
        elem = group.elements[idx]
        # m x is integral for the shifted translation x = t + lam; then
        # n d m V^-1 P x = n d V^-1 (m x) - (f . m x) V^-1 u
        m = lcm(*(t.denominator for t in elem.translation))
        mx = tuple(
            t.numerator * (m // t.denominator) + m * c for t, c in zip(elem.translation, lam)
        )
        fx = sum(a * b for a, b in zip(f, mx))
        coords = [nd * a - fx * b for a, b in zip(v_inv.apply(mx), v_inv_u)]
        if coords[0] != 0:
            raise InvariantProjectionFailure(
                "projected translation is outside the kernel sublattice span"
            )
        in_basis = v_inv * elem.matrix * snf.V  # A in the basis of the columns of V
        if any(in_basis.row(0)[1:]):
            raise InvariantProjectionFailure(
                "holonomy does not restrict integrally to the kernel sublattice"
            )
        restricted = IntMatrix([row[1:] for row in in_basis.entries[1:]], cols=k - 1)
        new_gens_by_element[idx] = (restricted, tuple(Fraction(x, nd * m) for x in coords[1:]))

    nontrivial = {idx: pair for idx, pair in new_gens_by_element.items() if idx != 0}
    vasquez_applied = any(mat.is_identity() for mat, _ in nontrivial.values())
    if vasquez_applied:
        # the kernel sublattice is not maximal abelian: absorb the pure
        # translations into a finer lattice and present the quotient
        gens = _vasquez_standardize(k - 1, list(nontrivial.values()))
    else:
        gens = [AffineGen(mat, tr) for (mat, tr) in nontrivial.values()]

    kernel_group = build_group(k - 1, gens, name=_kernel_name(group.name))
    return CalabiStep(
        surjection=surj,
        kernel_group=kernel_group,
        sublattice_basis=tuple(basis),
        kernel_holonomy=kernel_holonomy,
        lift_corrections=tuple(corrections),
        vasquez_applied=vasquez_applied,
    )


def _kernel_name(name: str) -> str:
    return f"{name}.ker" if name else "ker"


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


def is_connective(group: CrystalGroup) -> ConnectivityReport:
    """Connectivity verdict with a certificate.  Iterates surjection +
    kernel until dimension 0 (a full poly-Z chain: connective) or until
    a stage with finite first homology (the core: not connective)."""
    if not is_torsion_free(group):
        raise NotTorsionFree(f"group {group.name!r} has torsion")
    steps: list[CalabiStep] = []
    stage = group
    while stage.dim > 0:
        surj = surjection_to_Z(stage)
        if surj is None:
            chain = tuple(steps)
            return ConnectivityReport(
                connective=False, certificate=None, core=stage, chain=chain
            )
        step = calabi_kernel(stage, surj)
        steps.append(step)
        stage = step.kernel_group
    chain = tuple(steps)
    return ConnectivityReport(
        connective=True, certificate=PolyZSeries(steps=chain), core=None, chain=chain
    )


def step_document(step: CalabiStep) -> dict:
    return {
        "lattice_map": list(step.surjection.lattice_map),
        "lift_values": list(step.surjection.lift_values),
        "lattice_index": step.surjection.lattice_index,
        "sublattice_basis": [list(v) for v in step.sublattice_basis],
        "kernel_holonomy": list(step.kernel_holonomy),
        "lift_corrections": [list(v) for v in step.lift_corrections],
        "vasquez_applied": step.vasquez_applied,
        "kernel": group_to_document(step.kernel_group),
    }


def connectivity_document(report: ConnectivityReport) -> dict:
    """JSON-ready certificate, sufficient for independent
    re-verification of the verdict."""
    return {
        "connective": report.connective,
        "chain": [step_document(s) for s in report.chain],
        "core": None if report.core is None else group_to_document(report.core),
    }
