"""Orbit and stabilizer data for the dual action on rational characters.

A character of the lattice Z^k is a rational vector mod 1; the holonomy
acts through transposed matrices.  Only torsion characters are handled:
they carry every finite-order phenomenon and keep the arithmetic exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .crystal import CrystalGroup


Character = tuple[Fraction, ...]


def character(entries) -> Character:
    """Reduce exact entries, ints and `Fraction`s, into [0,1); any other
    entry (a float, a string) raises TypeError."""
    entries = tuple(entries)
    for x in entries:
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"character entry {x!r} is not an int or a Fraction")
    return tuple(Fraction(x) % 1 for x in entries)


@dataclass(frozen=True)
class StabilizerRecord:
    character: Character
    orbit: tuple[Character, ...]
    stabilizer: tuple[int, ...]  # holonomy element indices, sorted

    @property
    def index(self) -> int:
        """The stabilizer's index in the holonomy: the orbit size."""
        return len(self.orbit)


def orbit_data(chi, group: CrystalGroup) -> StabilizerRecord:
    """Orbit of a character under the dual holonomy action, with its
    stabilizer subgroup of D; |orbit| * |stabilizer| = |D|.  The orbit
    points are sorted, so their order does not depend on how the
    holonomy elements are labelled."""
    chi = character(chi)
    if len(chi) != group.dim:
        raise ValueError(f"character of dim {len(chi)} against a dim-{group.dim} group")
    q = lcm(*(x.denominator for x in chi))
    c = tuple(x.numerator * (q // x.denominator) for x in chi)
    # the dual action on c/q in integers: A^T c mod q for each holonomy
    # element in index order, reading A^T's rows off A's columns
    images = [
        tuple(sum(map(mul, col, c)) % q for col in zip(*e.matrix.entries))
        for e in group.elements
    ]
    # over one denominator, the integer tuples sort as the fractions do
    orbit = sorted(set(images))
    return StabilizerRecord(
        character=chi,
        orbit=tuple(tuple(Fraction(x, q) for x in point) for point in orbit),
        stabilizer=tuple(i for i, image in enumerate(images) if image == c),
    )
