"""Built-in example groups with frozen expected invariants.

Each entry is a torsion-free group document, as `catalog export` prints it,
read by `groupfile.document_to_group` with a user file's checks; the test
suite recomputes its expected record.  The dim-3 entries cover every
holonomy that matters at this scale: trivial, Z/2, Z/3, Z/4, Z/6, and both
(Z/2)^2 behaviors (the finite-homology screw group and a connective one).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .crystal import CrystalGroup
from .groupfile import document_to_group


class UnknownKey(KeyError):
    """No catalog entry under that key."""


@dataclass(frozen=True)
class ExpectedInvariants:
    h1_rank: int
    h1_torsion: tuple[int, ...]
    torus_rank: int
    torus_components: tuple[int, ...]
    connective: bool
    holonomy_order: int
    holonomy_id: str


@dataclass(frozen=True)
class CatalogEntry:
    group: CrystalGroup
    expected: ExpectedInvariants


def _doc(name: str, *gens) -> dict:
    """The group document of `gens`, (matrix, translation strings) pairs."""
    return {
        "name": name,
        "dimension": len(gens[0][0]),
        "generators": [{"matrix": rows, "translation": shift} for rows, shift in gens],
    }


def _torus(k: int) -> dict:
    unit = [[int(i == j) for j in range(k)] for i in range(k)]
    return _doc(f"torus_{k}", *((unit, list(map(str, e))) for e in unit))


# (document, expected record) in `catalog list` order, keyed by name
_TABLE = (
    *((_torus(k), ExpectedInvariants(k, (), k, (), True, 1, "trivial")) for k in (1, 2, 3, 4)),
    (
        _doc("klein_bottle", ([[1, 0], [0, -1]], ["1/2", "0"])),
        ExpectedInvariants(1, (2,), 1, (2,), True, 2, "Z/2"),
    ),
    (
        _doc(
            "hw",
            ([[1, 0, 0], [0, -1, 0], [0, 0, -1]], ["1/2", "1/2", "0"]),
            ([[-1, 0, 0], [0, 1, 0], [0, 0, -1]], ["0", "1/2", "1/2"]),
        ),
        ExpectedInvariants(0, (4, 4), 0, (2, 2, 2), False, 4, "Z/2 + Z/2"),
    ),
    (
        _doc("dim3_c2", ([[1, 0, 0], [0, 1, 0], [0, 0, -1]], ["1/2", "0", "0"])),
        ExpectedInvariants(2, (2,), 2, (2,), True, 2, "Z/2"),
    ),
    (
        _doc("dim3_c3", ([[0, -1, 0], [1, -1, 0], [0, 0, 1]], ["0", "0", "1/3"])),
        ExpectedInvariants(1, (3,), 1, (3,), True, 3, "Z/3"),
    ),
    (
        _doc("dim3_c4", ([[0, -1, 0], [1, 0, 0], [0, 0, 1]], ["0", "0", "1/4"])),
        ExpectedInvariants(1, (2,), 1, (2,), True, 4, "Z/4"),
    ),
    (
        _doc("dim3_c6", ([[0, -1, 0], [1, 1, 0], [0, 0, 1]], ["0", "0", "1/6"])),
        ExpectedInvariants(1, (), 1, (), True, 6, "Z/6"),
    ),
    (
        # frozen first hit of an exhaustive search over diagonal sign
        # representations; the test suite re-runs it and checks the hit
        _doc(
            "dim3_c2c2_connective",
            ([[-1, 0, 0], [0, -1, 0], [0, 0, 1]], ["0", "0", "1/2"]),
            ([[-1, 0, 0], [0, 1, 0], [0, 0, 1]], ["0", "1/2", "0"]),
        ),
        ExpectedInvariants(1, (2, 2), 1, (2, 2), True, 4, "Z/2 + Z/2"),
    ),
)


@lru_cache(maxsize=1)
def _entries() -> dict[str, CatalogEntry]:
    return {doc["name"]: CatalogEntry(document_to_group(doc), exp) for doc, exp in _TABLE}


def catalog_list() -> list[str]:
    return list(_entries().keys())


def catalog_get(key: str) -> CatalogEntry:
    try:
        return _entries()[key]
    except KeyError:
        raise UnknownKey(key) from None
