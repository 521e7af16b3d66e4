"""Calabi reduction and the connectivity decision.

A torsion-free group with a nontrivial centre surjects onto Z, by a map
read off the holonomy-fixed dual lattice; the kernel is a torsion-free
group one dimension down.  Iterating either reaches the trivial group
(the group is poly-Z, hence connective) or stalls at a stage with
trivial centre (a core with finite first homology, certifying the
negative verdict).  Each surjection is checked by reading each
holonomy element once, with no Cayley graph: for an invariant f, the
lift values phi make a homomorphism iff phi(s) = f . t_s.  The kernel's
translations and matrices are read off one change of basis, for the
corrected lifts of a greedy generating set of the kernel holonomy only
(at most log2 |H| of them), so each kernel's closure is |H| x log2 |H|.
Once a stage has trivial holonomy it is the lattice Z^m, and the rest of
the chain is written in closed form: each peel takes the first
coordinate, and each kernel is the lattice one dimension down, with no
Smith form and no closure.  A surjection stores only its values; the
index d of the lattice's image, gcd(f), and the kernel holonomy, the s
with d | phi(s), are read off them.  A step stores only its surjection,
the basis its peel chose and the kernel group; the sublattice basis and
the lift corrections are read off the basis when a certificate is
written.  So no record can carry a value that disagrees with its map.

The chain is the one torsion test.  A chain down to dimension 0 shows
the group poly-Z, hence torsion free.  A torsion element lies in the
kernel of every map to Z and is no translation, so a group with torsion
never reaches a stage with trivial holonomy; the peels are well defined
on it (`CalabiStep`), so its chain stalls.  At a stall at stage C the
quotient of the input by C is poly-Z, hence torsion free, so every
torsion element of the input lies in C: the input is torsion free iff C
is.  So only the stall stage is tested for torsion, to tell a core from
a group with torsion.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul
from typing import ClassVar

from .crystal import AffineGen, CrystalGroup, build_group, is_torsion_free
from .groupfile import group_to_document
from .invariants import dual_action_smith
from .linalg import IntMatrix, row_smith_basis


class NotTorsionFree(Exception):
    """Connectivity is only decided for torsion-free (Bieberbach) input."""


@dataclass(frozen=True)
class SurjectionToZ:
    """A surjective homomorphism onto Z, recorded by its values on the
    lattice basis (`lattice_map`) and on the holonomy lifts
    (`lift_values`, one per holonomy element)."""

    lattice_map: tuple[int, ...]
    lift_values: tuple[int, ...]

    @property
    def lattice_index(self) -> int:
        """The index of the image of the lattice inside Z."""
        return gcd(*self.lattice_map)

    @property
    def kernel_holonomy(self) -> tuple[int, ...]:
        """The holonomy elements s with a lift in the kernel: the index d
        divides phi(s)."""
        d = self.lattice_index
        return tuple(s for s, x in enumerate(self.lift_values) if x % d == 0)


@dataclass(frozen=True)
class CalabiStep:
    """One peel: the surjection f, the basis of the peel, and the kernel
    group in its own standard form.  The basis is unimodular: its first
    vector w has f . w = d, the lattice index, and the others are a basis
    of ker(f), the kernel's lattice inside the parent's
    (`sublattice_basis`).  Each kernel holonomy element s has the lift
    correction -phi(s)/d w (`lift_corrections`), which moves its lift
    into the kernel.

    `vasquez_applied` is always False.  A Vasquez pass would be needed
    only if a non-identity element restricted to the identity on ker(f);
    with f A = f that forces (A - I)^2 = 0, so A = I for a matrix of
    finite order, and a faithful holonomy has only the identity there.
    It is a class constant, so no step can set it, and it stays because
    certificate documents and the benchmark's trace carry it."""

    surjection: SurjectionToZ
    basis: tuple[tuple[int, ...], ...]
    kernel_group: CrystalGroup
    vasquez_applied: ClassVar[bool] = False

    @property
    def sublattice_basis(self) -> tuple[tuple[int, ...], ...]:
        return self.basis[1:]

    @property
    def lift_corrections(self) -> tuple[tuple[int, ...], ...]:
        w, phi = self.basis[0], self.surjection.lift_values
        d = self.surjection.lattice_index
        return tuple(tuple(-phi[s] // d * x for x in w) for s in self.surjection.kernel_holonomy)


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
    """A surjection onto Z, or None when the group has trivial centre.

    Every homomorphism to Q is (A, a) -> f . a with f A = f: the difference
    on the lifts is a homomorphism from the finite holonomy to Q, so 0.
    f is the first basis vector of this fixed dual lattice, and the map is
    divided by the generator of its image, spanned by the f_i and the
    f . t_s over the group's common denominator q.  The first nonzero f_i
    is > 0.
    """
    snf = dual_action_smith(group)
    nnz = sum(1 for d in snf.divisors if d != 0)
    if nnz == group.dim:
        return None
    f = snf.V.column(nnz)
    q = group.denominator
    values = [q * x for x in f] + [sum(map(mul, f, elem.shift)) for elem in group.elements]
    scale = gcd(*values) * (1 if next(x for x in f if x) > 0 else -1)
    values = [x // scale for x in values]
    f = tuple(values[: group.dim])
    return SurjectionToZ(f, tuple(values[group.dim :]))


def _check_surjection(group: CrystalGroup, surj: SurjectionToZ) -> None:
    """Raise AssertionError unless the values, one lift value per
    holonomy element, define a homomorphism onto Z.

    Invariance f A(g) = f is checked on the holonomy generators g, which
    carries it to every element.  Then phi is a homomorphism iff
    phi(s) = f . t_s for each representative translation t_s: from
    t_s + A_s t_g = tau(s, g) + t_sg and f A_s = f, phi - f . t is a
    homomorphism from the finite holonomy to Q, so it is 0; conversely
    f . tau(s, g) = f . t_s + f . t_g - f . t_sg.  So each element is read
    once: q phi(s) = f . shift_s over the group's denominator q."""
    f, phi = surj.lattice_map, surj.lift_values
    if len(phi) != group.holonomy_order:
        raise AssertionError("not one lift value per holonomy element")
    if gcd(*f, *phi) != 1:
        raise AssertionError("values are not coprime; the map is not onto Z")
    f = IntMatrix([f], cols=group.dim).row(0)  # integers, one per coordinate
    for g in group.holonomy_generator_indices():
        if tuple(sum(map(mul, f, col)) for col in zip(*group.elements[g].matrix)) != f:
            raise AssertionError("lattice map is not holonomy invariant")
    q = group.denominator
    if any(q * x != sum(map(mul, f, elem.shift)) for x, elem in zip(phi, group.elements)):
        raise AssertionError("lift values break the homomorphism property")


def calabi_kernel(group: CrystalGroup, surj: SurjectionToZ) -> CalabiStep:
    """Kernel of the surjection as a standard-form group of dimension
    k - 1, with the peel's basis (w, then a basis of ker(f)), from which
    the step reads the lift corrections when a certificate is written.
    The kernel's generators are the corrected lifts of the greedy
    generating set of the kernel holonomy (`_generating_subset`).  With
    the lattice ker(f), which stays implicit, those lifts generate the
    kernel.

    The surjection is checked first (`_check_surjection`), so
    phi(s) = f . t_s for each representative translation t_s, and each
    corrected translation x = t_s + lam lies in ker(f).
    The columns of the Smith transform V of [f] after the first are a
    basis of ker(f), so x has kernel coordinates (V^-1 x)[1:], and A
    restricts to (V^-1 A V)[1:, 1:], all in integers.  V and V^-1 come
    from one elimination on the row (`row_smith_basis`), with no Hermite
    form for the inverse, and only the kernel rows V^-1[1:] are applied.
    The correction lam is a multiple of the first column of V, so it
    moves only coordinate 0 and the kernel coordinates are (V^-1 t_s)[1:].
    """
    _check_surjection(group, surj)
    k = group.dim
    # u f V = (d, 0, ..., 0): the first column of V, times the unit u,
    # solves f.w = d, and the other columns are a basis of ker(f)
    v, v_inv, u = row_smith_basis(surj.lattice_map)
    w, *basis = v.transpose().entries
    w = tuple(u * x for x in w)
    kernel_rows = v_inv.entries[1:]  # the kernel coordinates

    q = group.denominator
    gens = []
    for idx in _generating_subset(group, surj.kernel_holonomy):
        elem = group.elements[idx]
        cols = tuple(zip(*elem.matrix.entries))
        # f A = f, so A keeps ker(f): the block V^-1[1:] A V[:, 1:] of A in
        # the basis of the columns of V is A on ker(f), and
        # a det(restricted) = det(A) = +-1 makes it unimodular
        restricted = tuple(
            tuple(sum(map(mul, row_a, b)) for b in basis)
            for row_a in (tuple(sum(map(mul, r, c)) for c in cols) for r in kernel_rows)
        )
        shift = tuple(sum(map(mul, r, elem.shift)) for r in kernel_rows)  # q times the coordinates
        g = gcd(q, *shift)  # in lowest terms, as the constructor writes it
        gens.append(
            AffineGen._trusted(
                IntMatrix._trusted(restricted, k - 1), tuple(x // g for x in shift), q // g
            )
        )

    return CalabiStep(surj, (w, *basis), build_group(k - 1, gens, name=_kernel_name(group.name)))


def _generating_subset(group: CrystalGroup, members: tuple[int, ...]) -> list[int]:
    """A greedy generating set of the holonomy subgroup `members`: walked
    in order, an element joins when the subgroup the earlier ones
    generate (`FiniteGroup.subgroup`) misses it.  By Lagrange each one at
    least doubles that subgroup, so there are at most log2 |members|."""
    holonomy, gens, reached = group.holonomy, [], frozenset({0})
    for s in members:
        if s not in reached:
            gens.append(s)
            reached = holonomy.subgroup(gens)
    return gens


def _kernel_name(name: str) -> str:
    return f"{name}.ker" if name else "ker"


def _lattice(dim: int, name: str) -> CrystalGroup:
    """The lattice Z^dim as `build_group(dim, (), name=name)` closes it:
    the identity alone, with no generators and no edges."""
    identity = AffineGen._trusted(IntMatrix.identity(dim), (0,) * dim, 1)
    return CrystalGroup(
        name=name, generators=(), elements=(identity,), edges=((),), edge_cocycle=((),)
    )


def _lattice_tail(stage: CrystalGroup) -> tuple[CalabiStep, ...]:
    """The rest of the chain from a stage with trivial holonomy, the
    lattice Z^m, in closed form: the peels `surjection_to_Z` and
    `calabi_kernel` would make.  The fixed dual lattice is all of Z^m, so
    each peel's surjection is the first coordinate, its basis the unit
    vectors, and its kernel the lattice one dimension down (`_lattice`)."""
    steps = []
    name = stage.name
    for m in range(stage.dim, 0, -1):
        units = IntMatrix.identity(m).entries
        name = _kernel_name(name)
        steps.append(CalabiStep(SurjectionToZ(units[0], (0,)), units, _lattice(m - 1, name)))
    return tuple(steps)


def is_connective(group: CrystalGroup) -> ConnectivityReport:
    """Connectivity verdict with a certificate.  Iterates surjection +
    kernel while the stage has holonomy, until a stage with finite first
    homology or a stage with trivial holonomy.  The latter is the lattice
    Z^m, and `_lattice_tail` writes its m peels down to dimension 0 in
    closed form (a full poly-Z chain: connective, and so torsion free).
    At the former the stall stage, not the input, is tested for torsion,
    the only place the test runs: the input has torsion iff that stage
    has (see the module docstring), and then NotTorsionFree names the
    input; a torsion-free input has reached its core (not connective)."""
    steps: list[CalabiStep] = []
    stage = group
    while stage.holonomy_order > 1:  # a dimension-0 stage has trivial holonomy
        surj = surjection_to_Z(stage)
        if surj is None:
            if not is_torsion_free(stage):
                raise NotTorsionFree(f"group {group.name!r} has torsion")
            chain = tuple(steps)
            return ConnectivityReport(
                connective=False, certificate=None, core=stage, chain=chain
            )
        step = calabi_kernel(stage, surj)
        steps.append(step)
        stage = step.kernel_group
    chain = tuple(steps) + _lattice_tail(stage)
    return ConnectivityReport(
        connective=True, certificate=PolyZSeries(steps=chain), core=None, chain=chain
    )


def step_document(step: CalabiStep) -> dict:
    return {
        "lattice_map": list(step.surjection.lattice_map),
        "lift_values": list(step.surjection.lift_values),
        "lattice_index": step.surjection.lattice_index,
        "sublattice_basis": [list(v) for v in step.sublattice_basis],
        "kernel_holonomy": list(step.surjection.kernel_holonomy),
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
