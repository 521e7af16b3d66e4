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

from .linalg import (
    IntMatrix,
    determinant,
    frac_vector,
    invert_unimodular,
    solve_integer_linear,
    vec_add,
    vec_mod1,
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

    def lift(self) -> AffineGen:
        return AffineGen(self.matrix, self.translation)


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

    @property
    def identity_index(self) -> int:
        return 0

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

    Representatives are composed and reduced mod Z^k into [0,1)^k; the
    closure is keyed on (matrix, reduced translation) pairs.  Raises
    ClosureBudgetExceeded, HolonomyNotFaithful or NonIntegralCocycle
    when the input is not crystallographic in standard form.
    """
    gens = tuple(gens)
    for g in gens:
        if not isinstance(g, AffineGen):
            raise TypeError("generators must be AffineGen")
        if g.matrix.rows != dim:
            raise ValueError(f"generator of dim {g.matrix.rows} in a dim-{dim} group")

    ident = (IntMatrix.identity(dim), (Fraction(0),) * dim)
    index_of: dict[tuple[IntMatrix, RatVec], int] = {ident: 0}
    pairs: list[tuple[IntMatrix, RatVec]] = [ident]

    def compose(p, q):
        return (p[0] * q[0], vec_mod1(vec_add(p[0].apply(q[1]), p[1])))

    gen_pairs = []
    for g in gens:
        p = (g.matrix, vec_mod1(g.translation))
        gen_pairs.append(p)
        if p not in index_of:
            index_of[p] = len(pairs)
            pairs.append(p)

    # every element gets processed once; processing multiplies it both
    # ways against everything already present, so every pair is covered
    frontier = list(range(1, len(pairs)))
    while frontier:
        new_frontier = []
        for i in frontier:
            for j in range(len(pairs)):
                for prod in (compose(pairs[i], pairs[j]), compose(pairs[j], pairs[i])):
                    if prod not in index_of:
                        index_of[prod] = len(pairs)
                        pairs.append(prod)
                        new_frontier.append(index_of[prod])
                        if len(pairs) > closure_budget:
                            raise ClosureBudgetExceeded(
                                f"holonomy closure exceeded {closure_budget} elements"
                            )
        frontier = new_frontier

    n = len(pairs)
    seen_matrices: dict[IntMatrix, int] = {}
    for idx, (mat, _) in enumerate(pairs):
        if mat in seen_matrices:
            raise HolonomyNotFaithful(
                f"elements {seen_matrices[mat]} and {idx} share a holonomy matrix; "
                "the lattice is not maximal abelian"
            )
        seen_matrices[mat] = idx

    mult_table = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(index_of[compose(pairs[i], pairs[j])])
        mult_table.append(tuple(row))
    mult = tuple(mult_table)

    inverse = [0] * n
    for i in range(n):
        inverse[i] = next(j for j in range(n) if mult[i][j] == 0)

    cocycle_rows = []
    for i in range(n):
        row = []
        for j in range(n):
            defect = vec_sub(
                vec_add(pairs[i][0].apply(pairs[j][1]), pairs[i][1]), pairs[mult[i][j]][1]
            )
            if any(x.denominator != 1 for x in defect):
                raise NonIntegralCocycle(
                    f"defect of pair ({i},{j}) is {defect}, not in Z^{dim}"
                )
            row.append(tuple(int(x) for x in defect))
        cocycle_rows.append(tuple(row))
    cocycle = tuple(cocycle_rows)

    orders = [0] * n
    for i in range(n):
        power, order = i, 1
        while power != 0:
            power = mult[power][i]
            order += 1
        orders[i] = order

    elements = tuple(
        HolonomyElement(index=i, matrix=pairs[i][0], translation=pairs[i][1], order=orders[i])
        for i in range(n)
    )
    generator_images = tuple(index_of[p] for p in gen_pairs)

    return CrystalGroup(
        name=name,
        dim=dim,
        generators=gens,
        elements=elements,
        mult=mult,
        inverse=tuple(inverse),
        cocycle=cocycle,
        generator_images=generator_images,
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

    For a representative g_s of order m over the lattice, torsion in
    the coset exists iff N_s (a_s + lam) = 0 has an integer solution,
    where N_s = sum of A(s)^j over j < m.
    """
    for elem in group.elements:
        if elem.index == 0:
            continue
        m = elem.order
        acc = IntMatrix.identity(group.dim)
        norm = IntMatrix.zeros(group.dim, group.dim)
        for _ in range(m):
            norm = norm + acc
            acc = acc * elem.matrix
        rhs_frac = norm.apply(elem.translation)
        # g_s^m is a lattice element, so N_s a_s is integral
        if any(x.denominator != 1 for x in rhs_frac):
            raise NonIntegralCocycle("representative power left the lattice")
        rhs = tuple(-int(x) for x in rhs_frac)
        sol = solve_integer_linear(norm, rhs)
        if sol is not None:
            return TorsionWitness(element=elem, correction=sol[0], order=m)
    return None


def is_torsion_free(group: CrystalGroup) -> bool:
    return torsion_witness(group) is None
