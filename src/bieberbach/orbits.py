"""Orbit and stabilizer data for the dual action on rational characters.

A character of the lattice Z^k is a rational vector mod 1; the holonomy
acts through transposed matrices.  Only torsion characters are handled:
they carry every finite-order phenomenon and keep the arithmetic exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .crystal import CrystalGroup
from .linalg import frac_vector, vec_mod1


Character = tuple[Fraction, ...]


def character(entries) -> Character:
    """Reduce entries into [0,1) and normalize to exact fractions."""
    return vec_mod1(frac_vector(entries))


@dataclass(frozen=True)
class StabilizerRecord:
    character: Character
    orbit: tuple[Character, ...]
    stabilizer: tuple[int, ...]  # holonomy element indices, sorted
    index: int

    def stabilizer_order(self) -> int:
        return len(self.stabilizer)


def orbit_data(chi, group: CrystalGroup) -> StabilizerRecord:
    """Orbit of a character under the dual holonomy action, with its
    stabilizer subgroup of D; |orbit| * |stabilizer| = |D|.  The orbit
    points are sorted, so their order does not depend on how the
    holonomy elements are labelled."""
    chi = character(chi)
    if len(chi) != group.dim:
        raise ValueError(f"character of dim {len(chi)} against a dim-{group.dim} group")
    orbit: set[Character] = set()
    stabilizer = []
    for elem in group.elements:
        moved = vec_mod1(elem.matrix.transpose().apply(chi))
        if moved == chi:
            stabilizer.append(elem.index)
        orbit.add(moved)
    record = StabilizerRecord(
        character=chi,
        orbit=tuple(sorted(orbit)),
        stabilizer=tuple(stabilizer),
        index=len(orbit),
    )
    assert record.index * len(record.stabilizer) == group.holonomy_order
    return record


def stabilizer_classes(group: CrystalGroup, q: int) -> set[frozenset[int]]:
    """Distinct stabilizer subgroups over all characters with entries in
    {0, 1/q, ..., (q-1)/q}."""
    if q < 1:
        raise ValueError("denominator bound must be >= 1")
    out: set[frozenset[int]] = set()
    transposed = [e.matrix.transpose() for e in group.elements]
    for combo in itertools.product(range(q), repeat=group.dim):
        chi = tuple(Fraction(c, q) for c in combo)
        stab = frozenset(
            i for i, m in enumerate(transposed) if vec_mod1(m.apply(chi)) == chi
        )
        out.add(stab)
    return out


def induced_dimension(record: StabilizerRecord, sigma_dim: int) -> int:
    """Dimension of the representation induced from a sigma of the given
    dimension on the stabilizer: orbit length times sigma_dim."""
    if sigma_dim < 1:
        raise ValueError("sigma_dim must be >= 1")
    return record.index * sigma_dim
