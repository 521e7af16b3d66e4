"""Built-in example groups with frozen expected invariants.

Every entry is validated, torsion free, and regression-anchored: the
expected record is recomputed and compared at load time by the test
suite.  The dim-3 entries cover every holonomy that matters at this
scale: trivial, Z/2, Z/3, Z/4, Z/6, and both (Z/2)^2 behaviors (the
finite-homology screw group and a connective one).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .crystal import AffineGen, CrystalGroup, build_group
from .linalg import IntMatrix


F = Fraction


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


def _torus(k: int) -> CrystalGroup:
    gens = [
        AffineGen(IntMatrix.identity(k), tuple(F(int(i == j)) for j in range(k)))
        for i in range(k)
    ]
    return build_group(k, gens, name=f"torus_{k}")


def _klein_bottle() -> CrystalGroup:
    g = AffineGen.of([[1, 0], [0, -1]], (F(1, 2), 0))
    return build_group(2, [g], name="klein_bottle")


def _hw() -> CrystalGroup:
    x = AffineGen.of([[1, 0, 0], [0, -1, 0], [0, 0, -1]], (F(1, 2), F(1, 2), 0))
    y = AffineGen.of([[-1, 0, 0], [0, 1, 0], [0, 0, -1]], (0, F(1, 2), F(1, 2)))
    return build_group(3, [x, y], name="hw")


def _dim3_cyclic(name, rows, shift) -> CrystalGroup:
    return build_group(3, [AffineGen.of(rows, shift)], name=name)


def _dim3_c2c2_connective() -> CrystalGroup:
    # frozen first hit of an exhaustive search over diagonal sign
    # representations; the test suite re-runs it and checks the hit
    g1 = AffineGen.of([[-1, 0, 0], [0, -1, 0], [0, 0, 1]], (0, 0, F(1, 2)))
    g2 = AffineGen.of([[-1, 0, 0], [0, 1, 0], [0, 0, 1]], (0, F(1, 2), 0))
    return build_group(3, [g1, g2], name="dim3_c2c2_connective")


def _expected_torus(k: int) -> ExpectedInvariants:
    return ExpectedInvariants(
        h1_rank=k,
        h1_torsion=(),
        torus_rank=k,
        torus_components=(),
        connective=True,
        holonomy_order=1,
        holonomy_id="trivial",
    )


@lru_cache(maxsize=1)
def _entries() -> dict[str, CatalogEntry]:
    groups: dict[str, tuple[CrystalGroup, ExpectedInvariants]] = {}
    for k in (1, 2, 3, 4):
        groups[f"torus_{k}"] = (_torus(k), _expected_torus(k))
    groups["klein_bottle"] = (
        _klein_bottle(),
        ExpectedInvariants(1, (2,), 1, (2,), True, 2, "Z/2"),
    )
    groups["hw"] = (
        _hw(),
        ExpectedInvariants(0, (4, 4), 0, (2, 2, 2), False, 4, "Z/2 + Z/2"),
    )
    groups["dim3_c2"] = (
        _dim3_cyclic("dim3_c2", [[1, 0, 0], [0, 1, 0], [0, 0, -1]], (F(1, 2), 0, 0)),
        ExpectedInvariants(2, (2,), 2, (2,), True, 2, "Z/2"),
    )
    groups["dim3_c3"] = (
        _dim3_cyclic("dim3_c3", [[0, -1, 0], [1, -1, 0], [0, 0, 1]], (0, 0, F(1, 3))),
        ExpectedInvariants(1, (3,), 1, (3,), True, 3, "Z/3"),
    )
    groups["dim3_c4"] = (
        _dim3_cyclic("dim3_c4", [[0, -1, 0], [1, 0, 0], [0, 0, 1]], (0, 0, F(1, 4))),
        ExpectedInvariants(1, (2,), 1, (2,), True, 4, "Z/4"),
    )
    groups["dim3_c6"] = (
        _dim3_cyclic("dim3_c6", [[0, -1, 0], [1, 1, 0], [0, 0, 1]], (0, 0, F(1, 6))),
        ExpectedInvariants(1, (), 1, (), True, 6, "Z/6"),
    )
    groups["dim3_c2c2_connective"] = (
        _dim3_c2c2_connective(),
        ExpectedInvariants(1, (2, 2), 1, (2, 2), True, 4, "Z/2 + Z/2"),
    )
    return {key: CatalogEntry(grp, exp) for key, (grp, exp) in groups.items()}


def catalog_list() -> list[str]:
    return list(_entries().keys())


def catalog_get(key: str) -> CatalogEntry:
    try:
        return _entries()[key]
    except KeyError:
        raise UnknownKey(key) from None
