"""Homological and fixed-point invariants of a crystallographic group.

Three independent computations of "how much free rank the group has":
the abelianization (presented on k + |gens| variables by a spanning
tree of the generators' Cayley graph), the fixed lattice of the
holonomy action, and the fixed subgroup of the dual torus.  For valid
groups the three ranks agree; the test suite checks that equality
rather than assuming it.

The points of a finite fixed torus are integer shifts over one
denominator, the lcm of its component orders, so none of this module's
computations builds a `Fraction`; `FixedTorusSubgroup.points` is a
`Fraction` view of those shifts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from .crystal import CrystalGroup
from .finite import computed_once
from .linalg import (
    IntMatrix,
    SmithColumns,
    integer_kernel,
    smith_columns,
    smith_divisors,
)


MAX_FIXED_POINTS = 4096  # a finite fixed torus is listed point by point: bound the list


class TooManyFixedPoints(ValueError):
    """A finite fixed torus with more points than MAX_FIXED_POINTS."""


@dataclass(frozen=True)
class AbelianInvariants:
    """A finitely generated abelian group: Z^rank + sum of Z/d_i, with
    the d_i >= 2 in divisibility order."""

    rank: int
    torsion: tuple[int, ...]

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
    """Fixed subgroup of the dual torus: a torus spanned by the integer
    vectors `tangent_basis`, times a finite group with the given cyclic
    component orders.  When the rank is 0 the full (finite) fixed-point
    list is enumerated, up to MAX_FIXED_POINTS points, as sorted integer
    shifts over q = lcm(component orders); beyond that `point_shifts` is
    None, and the count is the product of the component orders."""

    component_orders: tuple[int, ...]
    tangent_basis: tuple[tuple[int, ...], ...]
    point_shifts: tuple[tuple[int, ...], ...] | None

    @property
    def rank(self) -> int:
        return len(self.tangent_basis)

    @property
    def points(self) -> tuple[tuple[Fraction, ...], ...] | None:
        """The points as `Fraction`s mod 1, or None when they are not listed."""
        if self.point_shifts is None:
            return None
        q = lcm(*self.component_orders)
        return tuple(tuple(Fraction(x, q) for x in p) for p in self.point_shifts)


def _action_matrices(group: CrystalGroup) -> list[IntMatrix]:
    return [group.elements[i].matrix for i in group.holonomy_generator_indices()]


def relation_matrix(group: CrystalGroup) -> IntMatrix:
    """Relations of the abelianized group, one relation per column, on
    the variables e_1..e_k (lattice basis), then y_g per holonomy
    generator g.

    With a lift variable x_s per holonomy element, H1 is presented by
    (A(g) - I) e = 0, x_e = 0 and r(s, g) = x_s + x_g - x_{sg} -
    tau(s,g).e = 0 on the edges (s, g) of the generators' Cayley graph:
    the cocycle identity, read modulo (A(s) - I) e = 0, gives r(s,tu) =
    r(s,t) + r(st,u) - r(t,u), so with r(s,e) = x_e every r(s, t) follows.
    The spanning tree solves for the x_s (Reidemeister-Schreier), leaving
    the holonomy's `tree_relations` labelled by the edge cocycle, after
    the A(g) - I columns: k + |gens| rows.
    """
    k = group.dim
    pad = (0,) * len(group.holonomy_generator_indices())
    action = [
        tuple(row[j] - (i == j) for i, row in enumerate(mat)) + pad
        for mat in _action_matrices(group)
        for j in range(k)
    ]
    return group.holonomy.tree_relations(group.edge_cocycle, k, head=action)


@computed_once
def abelianization(group: CrystalGroup) -> AbelianInvariants:
    """First homology of the group, i.e. its abelianization, read off the
    Smith divisors of `relation_matrix`; computed once per group object."""
    rel = relation_matrix(group)
    divisors = smith_divisors(rel)
    rank = rel.rows - sum(1 for d in divisors if d != 0)
    return AbelianInvariants(rank, tuple(d for d in divisors if d >= 2))


def fixed_lattice(group: CrystalGroup) -> FixedLattice:
    """Sublattice of Z^k fixed by the holonomy; equals the intersection
    of the group's center with the lattice."""
    k = group.dim
    mats = [m - IntMatrix.identity(k) for m in _action_matrices(group)]
    stacked = IntMatrix.vstack(mats) if mats else IntMatrix.zeros(0, k)
    return FixedLattice(basis=tuple(integer_kernel(stacked)))


@computed_once
def dual_action_smith(group: CrystalGroup) -> SmithColumns:
    """Divisors and V of the Smith form of the stacked A(g)^T - I over the
    holonomy generators, computed once per group object.  Its V columns
    past the nonzero divisors are a basis of the holonomy-fixed dual
    lattice {f : f A = f}."""
    k = group.dim
    mats = [m.transpose() - IntMatrix.identity(k) for m in _action_matrices(group)]
    return smith_columns(IntMatrix.vstack(mats) if mats else IntMatrix.zeros(0, k))


def fixed_torus(group: CrystalGroup) -> FixedTorusSubgroup:
    """Fixed subgroup of the dual torus under the transposed action.

    A point a (mod Z^k) is fixed iff (A(s)^T - I) a is integral for all
    s.  Substituting through the Smith form of the stacked matrices
    turns that congruence into independent 1-dimensional conditions:
    zero divisors contribute torus directions, divisors >= 2 contribute
    finite cyclic components.  A finite fixed subgroup of more than
    MAX_FIXED_POINTS points is counted, not listed: its `point_shifts`
    is None.
    """
    k = group.dim
    snf = dual_action_smith(group)
    divisors = list(snf.divisors) + [0] * (k - len(snf.divisors))
    tangent = tuple(snf.V.column(j) for j, d in enumerate(divisors) if d == 0)

    shifts = None
    if not tangent and prod(divisors) <= MAX_FIXED_POINTS:
        q = lcm(*divisors)  # the points V (c_i / d_i) mod 1, times q
        ranges = [range(0, q, q // d) for d in divisors]
        pts = sorted(tuple(x % q for x in snf.V.apply(c)) for c in itertools.product(*ranges))
        shifts = tuple(pts)
    return FixedTorusSubgroup(
        component_orders=tuple(d for d in divisors if d >= 2),
        tangent_basis=tangent,
        point_shifts=shifts,
    )


def character_count(group: CrystalGroup) -> int | None:
    """Number of one-dimensional unitary representations, or None when
    there are infinitely many (equivalently: H_1 has positive rank)."""
    return abelianization(group).order()
