"""Calabi reduction and the connectivity decision.

A torsion-free group with infinite first homology surjects onto Z; the
kernel is a torsion-free group one dimension down.  Iterating either
reaches the trivial group (the group is poly-Z, hence connective) or
stalls at a stage with finite first homology (a trivial-center core
certifying the negative verdict).  A stage needs only a checked
surjection and its kernel: the surjection is checked on the edges of
the generators' Cayley graph, and the kernel's translations and
matrices are read off one change of basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .crystal import AffineGen, CrystalGroup, build_group, is_torsion_free
from .groupfile import group_to_document
from .invariants import abelianization
from .linalg import IntMatrix, gcd_all, invert_unimodular, smith_normal_form


class NotTorsionFree(Exception):
    """Connectivity is only decided for torsion-free (Bieberbach) input."""


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
    the parent lattice, surviving holonomy, lift corrections).

    `vasquez_applied` is always False.  A Vasquez pass would be needed
    only if a non-identity element restricted to the identity on ker(f);
    with f A = f that forces (A - I)^2 = 0, so A = I for a matrix of
    finite order, and a faithful holonomy has only the identity there.
    The field stays because certificate documents and the benchmark's
    trace carry it."""

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
    return SurjectionToZ(lattice_map=f, lift_values=phi, lattice_index=gcd_all(f))


def _check_surjection(group: CrystalGroup, surj: SurjectionToZ) -> None:
    """Raise AssertionError unless the values define a homomorphism onto
    Z.  Invariance f A(g) = f and the homomorphism identity
    phi(s) + phi(g) - phi(sg) = f . tau(s, g) are checked on the
    holonomy generators g only: every element is a word in them, and the
    cocycle identity carries the homomorphism identity from the edges
    (s, g) of the Cayley graph to every pair once phi(e) = 0."""
    f, phi = surj.lattice_map, surj.lift_values
    if gcd_all(list(f) + list(phi)) != 1:
        raise AssertionError("values are not coprime; the map is not onto Z")
    fm = IntMatrix([f], cols=group.dim)
    gens = group.holonomy_generator_indices()
    if any(fm * group.elements[g].matrix != fm for g in gens):
        raise AssertionError("lattice map is not holonomy invariant")
    edges_hold = phi[0] == 0 and all(
        phi[s] + phi[g] - phi[group.mult[s][g]]
        == sum(a * b for a, b in zip(f, group.cocycle[s][g]))
        for s in range(group.holonomy_order)
        for g in gens
    )
    if not edges_hold:
        raise AssertionError("lift values break the homomorphism property")


def calabi_kernel(group: CrystalGroup, surj: SurjectionToZ) -> CalabiStep:
    """Kernel of the surjection as a standard-form group of dimension
    k - 1, together with the bookkeeping for re-verification.

    The surjection is checked first (`_check_surjection`).  A checked
    surjection has phi(s) = f . t_s for each representative translation
    t_s: phi - f . t is a homomorphism from the finite holonomy to Q, so
    it is 0.  So each corrected translation x = t_s + lam lies in ker(f).
    The columns of the Smith transform V of [f] after the first are a
    basis of ker(f), so x has kernel coordinates (V^-1 x)[1:], and A
    restricts to (V^-1 A V)[1:, 1:], all in integers.  The correction
    lam is a multiple of the first column of V, so it moves only
    coordinate 0 and the kernel coordinates are (V^-1 t_s)[1:].
    """
    _check_surjection(group, surj)
    k = group.dim
    f = surj.lattice_map
    d = surj.lattice_index
    # U f V = (d, 0, ..., 0): the first column of V, times the unit U,
    # solves f.w = d, and the other columns are a basis of ker(f)
    snf = smith_normal_form(IntMatrix([f], cols=k))
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

    gens = []
    for idx in kernel_holonomy[1:]:  # kernel_holonomy[0] is the identity
        elem = group.elements[idx]
        # m t is integral for the representative translation t
        m = lcm(*(t.denominator for t in elem.translation))
        mt = tuple(t.numerator * (m // t.denominator) for t in elem.translation)
        in_basis = v_inv * elem.matrix * snf.V  # A in the basis of the columns of V
        restricted = IntMatrix([row[1:] for row in in_basis.entries[1:]], cols=k - 1)
        gens.append(AffineGen(restricted, tuple(Fraction(x, m) for x in v_inv.apply(mt)[1:])))

    kernel_group = build_group(k - 1, gens, name=_kernel_name(group.name))
    return CalabiStep(
        surjection=surj,
        kernel_group=kernel_group,
        sublattice_basis=tuple(basis),
        kernel_holonomy=kernel_holonomy,
        lift_corrections=tuple(corrections),
    )


def _kernel_name(name: str) -> str:
    return f"{name}.ker" if name else "ker"


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
