"""Seeded group-file corpus for the benchmark.

Pure Python with its own small exact toolkit: it never imports
`bieberbach`, so neither the program's speed nor its answers leak into
set-up time or into the expected values the checks compare against.
The program only ever sees the JSON group files written from `Item.doc`.

A workload's groups are drawn once, from a fixed generator seed: on
`analyze` and `connective` by rejection sampling a fixed number of groups
per stratum (family, dimension, holonomy order), on `lattice` by the
acceptance test's own rank-duality draw.  The run's seed then picks, for every group, the order of its generators,
integer shifts of their translations and, on `lattice`, the character.
So runs with different seeds get different files but do the same amount
of work: a seed never changes which groups a run holds, only how they are
written down.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from pathlib import Path

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Item:
    """One group file plus what the checks expect of it.

    `expect` keys: family, order (holonomy order from our own closure),
    fixed_rank (rank of the lattice fixed by every generator),
    torsion_free; lattice items add char and orbit_size.
    """

    doc: dict
    expect: dict

    @property
    def name(self) -> str:
        return self.doc["name"]


# ---------------------------------------------------------------- matrices

def identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def closure(gens, budget: int) -> list[Matrix] | None:
    """Matrix group generated by `gens` (identity first), or None once it
    has more than `budget` elements."""
    if not gens:
        raise ValueError("closure of no generators")
    one = identity(len(gens[0]))
    seen = {one}
    out = [one]
    for x in out:
        for g in gens:
            y = mat_mul(x, g)
            if y not in seen:
                if len(out) == budget:
                    return None
                seen.add(y)
                out.append(y)
    return out


def rank(rows) -> int:
    """Rank over Q by Gaussian elimination in exact fractions."""
    work = [[Fraction(x) for x in row] for row in rows]
    r = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            if work[i][c] != 0:
                f = work[i][c] / work[r][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return r


def fixed_rank(mats, dim: int) -> int:
    """Rank of the sublattice fixed by every matrix: dim - rank of the
    stacked (A - I)."""
    rows = [
        [a[i][j] - int(i == j) for j in range(dim)] for a in mats for i in range(dim)
    ]
    return dim - rank(rows) if rows else dim


def orbit_size(elements, chi) -> int:
    """Orbit length of a rational character under the transposed action,
    points taken mod 1."""
    orbit = set()
    for a in elements:
        moved = tuple(sum(a[i][j] * chi[i] for i in range(len(chi))) % 1 for j in range(len(chi)))
        orbit.add(moved)
    return len(orbit)


def block_diag(blocks) -> Matrix:
    n = sum(len(b) for b in blocks)
    rows = []
    at = 0
    for b in blocks:
        for row in b:
            rows.append((0,) * at + tuple(row) + (0,) * (n - at - len(row)))
        at += len(b)
    return tuple(rows)


def companion(coeffs) -> Matrix:
    """Companion matrix of x^k + c_{k-1} x^{k-1} + ... + c_0, given
    (c_0, ..., c_{k-1})."""
    k = len(coeffs)
    return tuple(
        tuple(
            (-coeffs[i] if j == k - 1 else int(i == j + 1)) for j in range(k)
        )
        for i in range(k)
    )


def signed_permutation(rng: random.Random, dim: int) -> Matrix:
    perm = list(range(dim))
    rng.shuffle(perm)
    rows = [[0] * dim for _ in range(dim)]
    for i, p in enumerate(perm):
        rows[i][p] = rng.choice((1, -1))
    return tuple(tuple(r) for r in rows)


def group_doc(name: str, dim: int, gens) -> dict:
    return {
        "name": name,
        "dimension": dim,
        "generators": [
            {"matrix": [list(row) for row in mat], "translation": [str(Fraction(x)) for x in tr]}
            for mat, tr in gens
        ],
    }


# ---------------------------------------------------------------- families

def attempts(limit: int = 200_000):
    """Bound on rejection sampling, so that an empty stratum fails loudly."""
    yield from range(limit)
    raise RuntimeError(f"no group drawn in {limit} attempts")


def diagonal_group(
    rng: random.Random, name: str, dim: int, r: int, trivial_centre: bool
) -> Item:
    """Torsion-free (Z/2)^r generated by diagonal sign matrices with
    half-integer translations, with or without a coordinate fixed by
    every generator (a trivial centre makes the connectivity verdict
    negative at once).

    Elements are bit vectors: sign mask s (bit set = entry -1) and
    translation mask t (bit set = 1/2); products XOR both, since
    -1/2 = 1/2 mod 1.  The holonomy is faithful iff the sign masks are
    independent over F2, and a coset (s, t) is torsion free iff some
    coordinate with entry +1 carries translation 1/2, i.e. t & ~s != 0.
    """
    full = (1 << dim) - 1
    for _ in attempts():
        signs = [rng.randint(1, full) for _ in range(r)]
        fixed = full
        for sg in signs:
            fixed &= ~sg
        if (fixed == 0) != trivial_centre:
            continue
        shifts = [rng.randint(0, full) for _ in range(r)]
        elements = []
        for pick in itertools.product((0, 1), repeat=r):
            s = t = 0
            for bit, sg, sh in zip(pick, signs, shifts):
                if bit:
                    s ^= sg
                    t ^= sh
            elements.append((s, t))
        if any(s == 0 for s, _ in elements[1:]):
            continue  # dependent sign masks: not faithful
        if any(t & ~s & full == 0 for s, t in elements[1:]):
            continue  # some coset contains torsion
        break
    gens = [
        (
            tuple(tuple((-1 if s >> i & 1 else 1) * int(i == j) for j in range(dim)) for i in range(dim)),
            tuple(Fraction(t >> i & 1, 2) for i in range(dim)),
        )
        for s, t in zip(signs, shifts)
    ]
    return Item(
        group_doc(name, dim, gens),
        {
            "family": "diagonal",
            "order": 2**r,
            "fixed_rank": bin(fixed).count("1"),
            "torsion_free": True,
        },
    )


# integral blocks without eigenvalue 1, by the order of the block
SCREW_BLOCKS = {
    2: ((-1,),),
    3: companion((1, 1)),
    4: companion((1, 0)),
    6: companion((1, -1)),
    5: companion((1, 1, 1, 1)),
    8: companion((1, 0, 0, 0)),
    10: companion((1, -1, 1, -1)),
    12: companion((1, 0, -1, 0)),
}


def screw_choices(dim: int, order: int) -> list[tuple[int, ...]]:
    """Multisets of block orders whose lcm is `order` and which leave at
    least one coordinate for the screw axis."""
    out = []
    keys = sorted(SCREW_BLOCKS)
    for count in range(1, dim):
        for combo in itertools.combinations_with_replacement(keys, count):
            size = sum(len(SCREW_BLOCKS[b]) for b in combo)
            if size <= dim - 1 and lcm(*combo) == order:
                out.append(combo)
    return out


def screw_group(rng: random.Random, name: str, dim: int, order: int) -> Item:
    """Cyclic holonomy of the given order: one generator diag(C, I) with
    translation 1/order along the first fixed axis.  Torsion free by
    construction, since every non-lattice power moves that axis by a
    non-integer."""
    combo = list(rng.choice(screw_choices(dim, order)))
    rng.shuffle(combo)
    blocks = [SCREW_BLOCKS[b] for b in combo]
    used = sum(len(b) for b in blocks)
    mat = block_diag(blocks + [identity(dim - used)])
    shift = [Fraction(0)] * dim
    shift[used] = Fraction(1, order)
    elems = closure([mat], budget=order)
    assert elems is not None and len(elems) == order
    return Item(
        group_doc(name, dim, [(mat, shift)]),
        {
            "family": "screw",
            "order": order,
            "fixed_rank": fixed_rank([mat], dim),
            "torsion_free": True,
        },
    )


def torsion_group(rng: random.Random, name: str, dim: int, orders) -> Item:
    """1 or 2 random signed permutations with zero translation, redrawn
    until the holonomy order lies in `orders`."""
    top = max(orders)
    for _ in attempts():
        mats = [signed_permutation(rng, dim) for _ in range(rng.randint(1, 2))]
        elems = closure(mats, budget=top)
        if elems is not None and len(elems) in orders:
            break
    expect = {
        "family": "torsion",
        "order": len(elems),
        "fixed_rank": fixed_rank(mats, dim),
        "torsion_free": len(elems) == 1,
    }
    return Item(group_doc(name, dim, [(m, (0,) * dim) for m in mats]), expect)


def rewrite(rng: random.Random, item: Item) -> Item:
    """The same group written differently: generators in a random order,
    each translation shifted by a random integer vector (the lattice Z^k
    is part of every group, so the group does not change).  Lattice items
    get a fresh character, with its orbit size from our own closure.

    A change of coordinates would also keep the group, but it changes how
    much work some groups take (a screw group's op time moved by 40%), and
    the seed must not change the work a run does."""
    doc = item.doc
    dim = doc["dimension"]
    gens = [
        (
            tuple(map(tuple, g["matrix"])),
            tuple(Fraction(x) + rng.randint(-1, 1) for x in g["translation"]),
        )
        for g in doc["generators"]
    ]
    rng.shuffle(gens)
    expect = dict(item.expect)
    if expect["family"] == "lattice":
        q = rng.choice((2, 3, 4))
        chi = tuple(Fraction(rng.randrange(q), q) for _ in range(dim))
        expect["char"] = ",".join(str(x) for x in chi)
        expect["orbit_size"] = orbit_size(closure([m for m, _ in gens], expect["order"]), chi)
    return Item(group_doc(doc["name"], dim, gens), expect)


def torus(name: str, dim: int) -> Item:
    gens = [(identity(dim), tuple(int(i == j) for j in range(dim))) for i in range(dim)]
    return Item(
        group_doc(name, dim, gens),
        {"family": "torus", "order": 1, "fixed_rank": dim, "torsion_free": True},
    )


# ---------------------------------------------------------------- workloads

# (family, dimension, holonomy order or orders, count).  Each workload
# has at least 100 groups, so that ten lie beyond its 90th percentile;
# the large orders are a few groups, each of one exact order.
ANALYZE = (
    ("diagonal", 3, 2, 6),
    ("diagonal", 4, 2, 6),
    ("diagonal", 5, 2, 3),
    ("diagonal", 3, 4, 4),
    ("diagonal", 4, 4, 6),
    ("diagonal", 5, 4, 4),
    ("diagonal", 4, 8, 3),
    ("diagonal", 5, 8, 3),
    ("diagonal", 5, 16, 1),
    ("diagonal0", 3, 4, 2),
    ("diagonal0", 4, 4, 2),
    ("diagonal0", 4, 8, 3),
    ("diagonal0", 5, 8, 3),
    ("diagonal0", 5, 16, 1),
    ("screw", 3, 2, 3),
    ("screw", 3, 3, 3),
    ("screw", 3, 4, 3),
    ("screw", 3, 6, 3),
    ("screw", 4, 2, 2),
    ("screw", 4, 3, 2),
    ("screw", 4, 4, 2),
    ("screw", 4, 6, 2),
    ("screw", 5, 2, 1),
    ("screw", 5, 3, 1),
    ("screw", 5, 4, 1),
    ("screw", 5, 5, 1),
    ("screw", 5, 6, 1),
    ("screw", 5, 8, 1),
    ("screw", 5, 10, 1),
    ("screw", 5, 12, 1),
    ("torsion", 3, (8,), 6),
    ("torsion", 4, (8,), 3),
    ("torsion", 3, (12,), 3),
    ("torsion", 3, (24,), 2),
)

CONNECTIVE = (
    ("torus", 4, 1, 3),
    ("torus", 5, 1, 4),
    ("torus", 6, 1, 3),
    ("diagonal", 4, 2, 6),
    ("diagonal", 4, 4, 6),
    ("diagonal", 5, 2, 8),
    ("diagonal", 5, 4, 6),
    ("diagonal", 5, 8, 4),
    ("diagonal", 6, 2, 6),
    ("diagonal", 6, 4, 6),
    ("diagonal", 6, 8, 4),
    ("diagonal0", 4, 4, 2),
    ("diagonal0", 4, 8, 3),
    ("diagonal0", 5, 8, 3),
    ("diagonal0", 6, 8, 3),
    ("screw", 4, 2, 4),
    ("screw", 4, 3, 4),
    ("screw", 4, 4, 4),
    ("screw", 4, 6, 4),
    ("screw", 5, 2, 2),
    ("screw", 5, 4, 2),
    ("screw", 5, 5, 2),
    ("screw", 5, 8, 2),
    ("screw", 5, 12, 1),
    ("screw", 5, 3, 2),
    ("screw", 6, 2, 2),
    ("screw", 6, 3, 2),
    ("screw", 6, 6, 2),
    ("screw", 6, 10, 1),
    ("screw", 6, 12, 1),
)

PLANS = {"analyze": ANALYZE, "connective": CONNECTIVE}


def rank_duality_family(count: int = 100) -> list[Item]:
    """The acceptance test's rank-duality family, drawn as the test draws
    it: from Random(2024), a dimension in 2..6 and 1 or 2 random signed
    permutations with zero translation, redrawn while the closure has
    more than 48 elements."""
    rng = random.Random(2024)
    items = []
    while len(items) < count:
        dim = rng.randint(2, 6)
        mats = [signed_permutation(rng, dim) for _ in range(rng.randint(1, 2))]
        elems = closure(mats, budget=48)
        if elems is None:
            continue
        expect = {
            "family": "lattice",
            "order": len(elems),
            "fixed_rank": fixed_rank(mats, dim),
            "torsion_free": len(elems) == 1,
        }
        name = f"lattice-d{dim}-{len(items):03d}"
        items.append(Item(group_doc(name, dim, [(m, (0,) * dim) for m in mats]), expect))
    return items


def base(workload: str) -> list[Item]:
    """The workload's groups before any seed is applied."""
    if workload == "lattice":
        return rank_duality_family()
    rng = random.Random(f"perfbench:{workload}")
    items = []
    for family, dim, order, count in PLANS[workload]:
        for _ in range(count):
            name = f"{family}-d{dim}-{len(items):03d}"
            if family in ("diagonal", "diagonal0"):
                r = order.bit_length() - 1
                items.append(diagonal_group(rng, name, dim, r, family == "diagonal0"))
            elif family == "screw":
                items.append(screw_group(rng, name, dim, order))
            elif family == "torus":
                items.append(torus(name, dim))
            else:
                items.append(torsion_group(rng, name, dim, order))
    return items


def generate(workload: str, seed: int) -> list[Item]:
    """The workload's groups as written for `seed`; the same seed always
    gives the same files."""
    rng = random.Random(f"{workload}:{seed}")
    return [rewrite(rng, item) for item in base(workload)]


def write(items, directory: Path) -> list[Path]:
    """Write one group file per item; returns the paths in item order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for item in items:
        path = directory / f"{item.name}.json"
        path.write_text(json.dumps(item.doc, indent=2) + "\n", encoding="utf-8")
        paths.append(path)
    return paths
