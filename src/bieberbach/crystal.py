"""Standard-form crystallographic groups.

A group lives here as: the lattice Z^k (implicit), a finite holonomy
table of integer matrices with rational coset-representative
translations in [0,1)^k, and the integral defect table of representative
multiplication.  Inputs that do not close to such a structure are
rejected with a specific error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
from math import lcm

from .linalg import (
    IntMatrix,
    determinant,
    frac_vector,
    invert_unimodular,
    solve_integer_linear,
    vec_add,
    vec_sub,
)


class CrystalError(Exception):
    """Base class for structural errors in crystallographic input."""


class ClosureBudgetExceeded(CrystalError):
    """Holonomy closure grew past the budget; the input generators do
    not define a crystallographic group."""


class NonIntegralCocycle(CrystalError):
    """A representative-multiplication defect fell outside Z^k."""


class HolonomyNotFaithful(CrystalError):
    """Two holonomy elements share a matrix: the lattice Z^k is not
    maximal abelian in the generated group."""


class NotInGroup(CrystalError):
    """An affine element does not belong to the group."""


RatVec = tuple[Fraction, ...]


def computed_once(func):
    """Store `func(obj)` on `obj` itself, like `cached_property` does for
    a method: the value is computed on first call and dies with the
    object.  A stored None counts as computed."""
    slot = f"_computed_{func.__name__}"

    @wraps(func)
    def wrapper(obj):
        memo = obj.__dict__
        if slot in memo:
            return memo[slot]
        # threads racing on a first call may each compute; setdefault
        # hands all of them the value stored first
        return memo.setdefault(slot, func(obj))

    return wrapper


@dataclass(frozen=True)
class AffineGen:
    """Affine element (A, a): x -> A x + a with A integral and a rational."""

    matrix: IntMatrix
    translation: RatVec

    def __post_init__(self):
        object.__setattr__(self, "translation", frac_vector(self.translation))
        if self.matrix.rows != self.matrix.cols:
            raise ValueError("matrix must be square")
        if len(self.translation) != self.matrix.rows:
            raise ValueError("translation dim does not match matrix")
        if abs(determinant(self.matrix)) != 1:
            raise ValueError("matrix is not invertible over Z (|det| != 1)")

    @classmethod
    def identity(cls, dim: int) -> AffineGen:
        return cls(IntMatrix.identity(dim), (Fraction(0),) * dim)

    @classmethod
    def of(cls, matrix_rows, translation) -> AffineGen:
        return cls(IntMatrix(matrix_rows, cols=len(tuple(translation))), frac_vector(translation))

    def __mul__(self, other: AffineGen) -> AffineGen:
        if self.matrix.cols != other.matrix.rows:
            raise ValueError("dimension mismatch")
        return AffineGen(
            self.matrix * other.matrix,
            vec_add(self.matrix.apply(other.translation), self.translation),
        )

    def invert(self) -> AffineGen:
        inv = invert_unimodular(self.matrix)
        return AffineGen(inv, tuple(-x for x in inv.apply(self.translation)))

    def is_identity(self) -> bool:
        return self.matrix.is_identity() and all(x == 0 for x in self.translation)


def multiply(g: AffineGen, h: AffineGen) -> AffineGen:
    return g * h


def invert(g: AffineGen) -> AffineGen:
    return g.invert()


@dataclass(frozen=True)
class HolonomyElement:
    """One coset of the lattice: matrix plus the representative
    translation reduced into [0,1)^k."""

    index: int
    matrix: IntMatrix
    translation: RatVec
    order: int


@dataclass(frozen=True)
class TorsionWitness:
    """Data certifying a finite-order element: (lattice shift by
    `correction`) * (lift of `element`) has order `order`."""

    element: HolonomyElement
    correction: tuple[int, ...]
    order: int


@dataclass(frozen=True, eq=False)
class CrystalGroup:
    name: str
    dim: int
    generators: tuple[AffineGen, ...]
    elements: tuple[HolonomyElement, ...]
    mult: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    cocycle: tuple[tuple[tuple[int, ...], ...], ...]
    generator_images: tuple[int, ...]

    @property
    def holonomy_order(self) -> int:
        return len(self.elements)

    @cached_property
    def _matrix_index(self) -> dict[IntMatrix, int]:
        return {e.matrix: e.index for e in self.elements}

    def element_for_matrix(self, matrix: IntMatrix) -> HolonomyElement | None:
        idx = self._matrix_index.get(matrix)
        return None if idx is None else self.elements[idx]

    def holonomy_generator_indices(self) -> tuple[int, ...]:
        """Distinct non-identity generator images, in first-seen order."""
        seen = []
        for idx in self.generator_images:
            if idx != 0 and idx not in seen:
                seen.append(idx)
        return tuple(seen)


def build_group(dim: int, gens, name: str = "", closure_budget: int = 10_000) -> CrystalGroup:
    """Close the generators into a standard-form crystallographic group.

    An element is its matrix and an integer translation t mod q, where q
    is the lcm of the generators' translation denominators; t/q is the
    representative translation in [0,1)^k.  The closure multiplies by the
    generators on the right and is keyed on the matrix alone, so the
    multiplication table is read off the Cayley graph.  Raises
    ClosureBudgetExceeded, HolonomyNotFaithful or NonIntegralCocycle
    when the input is not crystallographic in standard form.
    """
    gens = tuple(gens)
    for g in gens:
        if not isinstance(g, AffineGen):
            raise TypeError("generators must be AffineGen")
        if g.matrix.rows != dim:
            raise ValueError(f"generator of dim {g.matrix.rows} in a dim-{dim} group")

    q = lcm(*(x.denominator for g in gens for x in g.translation))
    gen_pairs = [
        (g.matrix, tuple(x.numerator * (q // x.denominator) % q for x in g.translation))
        for g in gens
    ]

    matrices = [IntMatrix.identity(dim)]
    shifts = [(0,) * dim]
    index_of = {matrices[0]: 0}
    parent: list[tuple[int, int]] = [(0, -1)]  # (element, generator) that first reached it
    right: list[list[int]] = []  # right[i][g]: element i times generator g
    for i, (a, t) in enumerate(zip(matrices, shifts)):  # both lists grow as we go
        row = []
        for pos, (b, u) in enumerate(gen_pairs):
            mat = a * b
            shift = tuple((x + y) % q for x, y in zip(a.apply(u), t))
            idx = index_of.get(mat)
            if idx is None:
                idx = index_of[mat] = len(matrices)
                matrices.append(mat)
                shifts.append(shift)
                parent.append((i, pos))
                if len(matrices) > closure_budget:
                    raise ClosureBudgetExceeded(
                        f"holonomy closure exceeded {closure_budget} elements"
                    )
            elif shifts[idx] != shift:
                raise HolonomyNotFaithful(
                    f"element {idx} and element {i} times generator {pos} share a "
                    "holonomy matrix; the lattice is not maximal abelian"
                )
            row.append(idx)
        right.append(row)

    n = len(matrices)
    zero_row = ((0,) * dim,) * n
    mult_rows = []
    cocycle_rows = []
    for i, (a, t) in enumerate(zip(matrices, shifts)):
        # element j is parent(j) * g, so i * j = (i * parent(j)) * g
        row = [i]
        for p, pos in parent[1:]:
            row.append(right[row[p]][pos])
        mult_rows.append(tuple(row))
        if q == 1:  # every translation is integral, so every defect is 0
            cocycle_rows.append(zero_row)
            continue
        cocycle_row = []
        for j, (tj, ij) in enumerate(zip(shifts, row)):
            defect = [x + y - z for x, y, z in zip(a.apply(tj), t, shifts[ij])]
            if any(x % q for x in defect):
                raise NonIntegralCocycle(f"defect of pair ({i},{j}) is not in Z^{dim}")
            cocycle_row.append(tuple(x // q for x in defect))
        cocycle_rows.append(tuple(cocycle_row))
    mult = tuple(mult_rows)

    inverse = tuple(row.index(0) for row in mult)
    orders = [0] * n
    for i in range(n):
        power, order = i, 1
        while power != 0:
            power = mult[power][i]
            order += 1
        orders[i] = order

    elements = tuple(
        HolonomyElement(
            index=i,
            matrix=matrices[i],
            translation=tuple(Fraction(x, q) for x in shifts[i]),
            order=orders[i],
        )
        for i in range(n)
    )
    return CrystalGroup(
        name=name,
        dim=dim,
        generators=gens,
        elements=elements,
        mult=mult,
        inverse=inverse,
        cocycle=tuple(cocycle_rows),
        generator_images=tuple(right[0]),
    )


def element_normal_form(g: AffineGen, group: CrystalGroup) -> tuple[HolonomyElement, tuple[int, ...]]:
    """Coset decomposition g = (lattice shift) * (stored representative).

    Returns (holonomy element s, integer vector lam) with
    g = AffineGen(A(s), a_s + lam).
    """
    elem = group.element_for_matrix(g.matrix)
    if elem is None:
        raise NotInGroup("matrix is not in the holonomy")
    lam = vec_sub(g.translation, elem.translation)
    if any(x.denominator != 1 for x in lam):
        raise NotInGroup("translation is not congruent to the coset representative mod Z^k")
    return elem, tuple(int(x) for x in lam)


def reconstruct_element(group: CrystalGroup, index: int, lam) -> AffineGen:
    """Inverse of element_normal_form."""
    elem = group.elements[index]
    return AffineGen(elem.matrix, vec_add(elem.translation, frac_vector(lam)))


@computed_once
def torsion_witness(group: CrystalGroup) -> TorsionWitness | None:
    """Find a nontrivial finite-order element, or None when the group
    is torsion free.

    A finite-order element has a power of prime order p, and the cosets
    of s and s^j (j prime to p) hold torsion together, so one s is checked
    per cyclic subgroup of prime order.  With c the cocycle, g_s^p = tau(v)
    for v the sum of c(s^j, s) over 0 < j < p, as g_s^(j+1) =
    tau(v_j + c(s^j, s)) g_(s^(j+1)).  The coset of s holds torsion iff
    N_s lam = -v has an integer solution, N_s the sum of the matrices of <s>.
    """
    mult, cocycle, elements = group.mult, group.cocycle, group.elements
    seen = {0}
    for elem in elements:
        s, p = elem.index, elem.order
        if s in seen or any(p % d == 0 for d in range(2, p)):
            continue
        powers = [0, s]
        while len(powers) < p:
            powers.append(mult[powers[-1]][s])
        seen.update(powers)
        minus_v = [-sum(c) for c in zip(*(cocycle[x][s] for x in powers[1:]))]
        rows = zip(*(elements[x].matrix.entries for x in powers))
        norm = IntMatrix([[sum(col) for col in zip(*r)] for r in rows], cols=group.dim)
        sol = solve_integer_linear(norm, minus_v)
        if sol is not None:
            return TorsionWitness(element=elem, correction=sol[0], order=p)
    return None


def is_torsion_free(group: CrystalGroup) -> bool:
    return torsion_witness(group) is None
