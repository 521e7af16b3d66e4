"""Orbit and stabilizer data for the dual action on rational characters.

A character of the lattice Z^k is a rational vector mod 1; the holonomy
acts through transposed matrices.  Only torsion characters are handled:
they carry every finite-order phenomenon and keep the arithmetic exact.

A character c/q and its orbit points are kept as integer shifts over one
denominator q, the lcm of the character's denominators, as `AffineGen`
keeps a translation: `orbit_data` builds no `Fraction`, and the record's
`character` and `orbit` are `Fraction` views of those integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .crystal import CrystalGroup


Character = tuple[Fraction, ...]


@dataclass(frozen=True)
class StabilizerRecord:
    """The orbit and stabilizer of the character shift/denominator, each
    entry reduced into [0, denominator); the orbit points are shifts over
    the same denominator, sorted."""

    shift: tuple[int, ...]
    denominator: int
    orbit_shifts: tuple[tuple[int, ...], ...]
    stabilizer: tuple[int, ...]  # holonomy element indices, sorted

    @property
    def character(self) -> Character:
        return tuple(Fraction(x, self.denominator) for x in self.shift)

    @property
    def orbit(self) -> tuple[Character, ...]:
        q = self.denominator
        return tuple(tuple(Fraction(x, q) for x in point) for point in self.orbit_shifts)

    @property
    def index(self) -> int:
        """The stabilizer's index in the holonomy: the orbit size."""
        return len(self.orbit_shifts)


def orbit_data(chi, group: CrystalGroup) -> StabilizerRecord:
    """Orbit of a character, a sequence of ints and `Fraction`s, under the
    dual holonomy action, with its stabilizer subgroup of D; |orbit| *
    |stabilizer| = |D|.  Any other entry (a float, a string) raises
    TypeError.  The orbit points are sorted, so their order does not
    depend on how the holonomy elements are labelled."""
    chi = tuple(chi)
    for x in chi:
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"character entry {x!r} is not an int or a Fraction")
    if len(chi) != group.dim:
        raise ValueError(f"character of dim {len(chi)} against a dim-{group.dim} group")
    q = lcm(*(x.denominator for x in chi))
    c = tuple(x.numerator * (q // x.denominator) % q for x in chi)
    # the dual action on c/q in integers: A^T c mod q for each holonomy
    # element in index order, reading A^T's rows off A's columns
    images = [
        tuple(sum(map(mul, col, c)) % q for col in zip(*e.matrix.entries))
        for e in group.elements
    ]
    return StabilizerRecord(
        shift=c,
        denominator=q,
        # over one denominator, the integer tuples sort as the fractions do
        orbit_shifts=tuple(sorted(set(images))),
        stabilizer=tuple(i for i, image in enumerate(images) if image == c),
    )
