"""Homological and fixed-point invariants of a crystallographic group.

Three independent computations of "how much free rank the group has":
the abelianization (presented on the generators' Cayley graph), the fixed
lattice of the holonomy action, and the fixed subgroup of the dual
torus.  For valid groups the three ranks agree; the test suite checks
that equality rather than assuming it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .crystal import CrystalGroup, computed_once
from .linalg import (
    IntMatrix,
    SmithForm,
    frac_vector,
    integer_kernel,
    smith_normal_form,
    vec_mod1,
)


@dataclass(frozen=True)
class AbelianInvariants:
    """A finitely generated abelian group: Z^rank + sum of Z/d_i.

    `presentation_map` carries the quotient map on the original
    generators (e_1..e_k, then one lift variable per holonomy element):
    its first len(torsion) rows are the finite cyclic coordinates (row i
    taken mod torsion[i]), and its last `rank` rows are the free
    coordinates.
    """

    rank: int
    torsion: tuple[int, ...]
    presentation_map: IntMatrix

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.rank > 0:
            return None
        return prod(self.torsion) if self.torsion else 1


@dataclass(frozen=True)
class FixedLattice:
    """Z-basis of the sublattice fixed by the whole holonomy action."""

    basis: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class FixedTorusSubgroup:
    """Fixed subgroup of the dual torus: a torus of dimension `rank`
    times a finite group with the given cyclic component orders.  When
    the rank is 0 the full (finite) fixed-point list is enumerated."""

    rank: int
    component_orders: tuple[int, ...]
    tangent_basis: tuple[tuple[Fraction, ...], ...]
    points: tuple[tuple[Fraction, ...], ...] | None

    def component_count(self) -> int:
        return prod(self.component_orders) if self.component_orders else 1


def _action_matrices(group: CrystalGroup) -> list[IntMatrix]:
    return [group.elements[i].matrix for i in group.holonomy_generator_indices()]


def relation_matrix(group: CrystalGroup) -> IntMatrix:
    """Relations of the abelianized group, one relation per column.

    Variables: e_1..e_k (lattice basis), then x_s per holonomy element.
    Relations: (A(g) - I) e_j = 0 over the holonomy generators g; x_e = 0
    pinning the identity lift; and r(s, g) = x_s + x_g - x_{sg} -
    <tau(s,g), e> = 0 on the edges (s, g) of the generators' Cayley
    graph.  These imply r(s, t) = 0 for every pair: the cocycle identity
    tau(s,t) + tau(st,u) = A(s) tau(t,u) + tau(s,tu), read modulo
    (A(s) - I) e = 0, gives r(s,tu) = r(s,t) + r(st,u) - r(t,u), and
    r(s,e) = x_e starts an induction on the word length of t.
    """
    k = group.dim
    n = group.holonomy_order
    nvars = k + n
    columns: list[list[int]] = []

    for mat in _action_matrices(group):
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
    for s in range(n):
        for g in gens:
            col = [-x for x in group.cocycle[s][g]] + [0] * n
            col[k + s] += 1
            col[k + g] += 1
            col[k + group.mult[s][g]] -= 1
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
    return IntMatrix.from_columns(unique, rows=nvars)


@computed_once
def abelianization(group: CrystalGroup) -> AbelianInvariants:
    """First homology of the group, i.e. its abelianization; computed
    once per group object."""
    rel = relation_matrix(group)
    snf = smith_normal_form(rel)
    nvars = rel.rows
    nnz = sum(1 for d in snf.divisors if d != 0)
    torsion = tuple(d for d in snf.divisors if d >= 2)
    rank = nvars - nnz
    keep = [i for i, d in enumerate(snf.divisors) if d >= 2]
    keep.extend(range(nnz, nvars))
    pres = IntMatrix([snf.U.row(i) for i in keep], cols=nvars)
    return AbelianInvariants(rank=rank, torsion=torsion, presentation_map=pres)


def fixed_lattice(group: CrystalGroup) -> FixedLattice:
    """Sublattice of Z^k fixed by the holonomy; equals the intersection
    of the group's center with the lattice."""
    mats = _action_matrices(group)
    k = group.dim
    if not mats:
        return FixedLattice(basis=tuple(IntMatrix.identity(k).column(j) for j in range(k)))
    stacked = IntMatrix.vstack([m - IntMatrix.identity(k) for m in mats])
    return FixedLattice(basis=tuple(integer_kernel(stacked)))


@computed_once
def dual_action_smith(group: CrystalGroup) -> SmithForm:
    """Smith form of the stacked A(g)^T - I over the holonomy generators,
    computed once per group object.  Its V columns past the nonzero
    divisors are a basis of the holonomy-fixed dual lattice {f : f A = f}."""
    k = group.dim
    mats = [m.transpose() - IntMatrix.identity(k) for m in _action_matrices(group)]
    return smith_normal_form(IntMatrix.vstack(mats) if mats else IntMatrix.zeros(0, k))


def fixed_torus(group: CrystalGroup) -> FixedTorusSubgroup:
    """Fixed subgroup of the dual torus under the transposed action.

    A point a (mod Z^k) is fixed iff (A(s)^T - I) a is integral for all
    s.  Substituting through the Smith form of the stacked matrices
    turns that congruence into independent 1-dimensional conditions:
    zero divisors contribute torus directions, divisors >= 2 contribute
    finite cyclic components.
    """
    k = group.dim
    snf = dual_action_smith(group)
    divisors = list(snf.divisors) + [0] * (k - len(snf.divisors))
    rank = sum(1 for d in divisors if d == 0)
    component_orders = tuple(d for d in divisors if d >= 2)
    tangent = tuple(frac_vector(snf.V.column(j)) for j, d in enumerate(divisors) if d == 0)

    points = None
    if rank == 0:
        pts = []
        ranges = [range(max(d, 1)) for d in divisors]
        for combo in itertools.product(*ranges):
            b = [Fraction(c, max(d, 1)) for c, d in zip(combo, divisors)]
            pts.append(vec_mod1(snf.V.apply(b)))
        points = tuple(sorted(pts))
    return FixedTorusSubgroup(
        rank=rank,
        component_orders=component_orders,
        tangent_basis=tangent,
        points=points,
    )


def character_count(group: CrystalGroup) -> int | None:
    """Number of one-dimensional unitary representations, or None when
    there are infinitely many (equivalently: H_1 has positive rank)."""
    return abelianization(group).order()
