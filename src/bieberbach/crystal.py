"""Standard-form crystallographic groups.

A group lives here as: the lattice Z^k (implicit), a finite holonomy
of integer matrices with coset-representative translations in
[0,1)^k, kept as integer shifts over one common denominator, and the
Cayley graph of the holonomy generators with the integral cocycle on
its edges.  That graph is also the holonomy as a `FiniteGroup`, which
reads its spanning tree, words and element orders off it on first use.
Inputs that do not close to such a structure are rejected with a
specific error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add, mul

from .finite import FiniteGroup, computed_once
from .linalg import IntMatrix, determinant, solve_mod_p


class CrystalError(Exception):
    """Base class for structural errors in crystallographic input."""


class ClosureBudgetExceeded(CrystalError):
    """Holonomy closure grew past the budget; the input generators do
    not define a crystallographic group."""


class HolonomyNotFaithful(CrystalError):
    """Two holonomy elements share a matrix: the lattice Z^k is not
    maximal abelian in the generated group."""


@dataclass(frozen=True, init=False)
class AffineGen:
    """Affine element (A, a): x -> A x + a with A integral and a the
    integer vector `shift` over the integer `denominator` >= 1.

    The constructor takes a rational translation (ints and `Fraction`s),
    checks the shapes and |det A| = 1, and writes it in lowest terms:
    the denominator is the lcm of the entries' denominators.  A group's
    elements and the Calabi kernel's generators are made by `_trusted`,
    which checks nothing; a group's elements all carry the group's
    denominator q, with shifts in [0, q)^k."""

    matrix: IntMatrix
    shift: tuple[int, ...]
    denominator: int

    def __init__(self, matrix: IntMatrix, translation):
        translation = tuple(translation)
        for x in translation:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"translation entry {x!r} is not an int or a Fraction")
        if matrix.rows != matrix.cols:
            raise ValueError("matrix must be square")
        if len(translation) != matrix.rows:
            raise ValueError("translation dim does not match matrix")
        check_unimodular(matrix)
        q = lcm(*(x.denominator for x in translation))
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(
            self, "shift", tuple(x.numerator * (q // x.denominator) for x in translation)
        )
        object.__setattr__(self, "denominator", q)

    @classmethod
    def _trusted(cls, matrix: IntMatrix, shift: tuple[int, ...], denominator: int) -> AffineGen:
        """An element on `matrix` and `shift` over `denominator`,
        unchecked: a square matrix with |det| = 1, a tuple of ints of its
        size and an int >= 1."""
        g = object.__new__(cls)
        object.__setattr__(g, "matrix", matrix)
        object.__setattr__(g, "shift", shift)
        object.__setattr__(g, "denominator", denominator)
        return g

    @classmethod
    def of(cls, matrix_rows, translation) -> AffineGen:
        translation = tuple(translation)
        return cls(IntMatrix(matrix_rows, cols=len(translation)), translation)


def check_unimodular(matrix: IntMatrix) -> None:
    """Raise ValueError unless the square `matrix` has determinant +-1:
    the one check of `AffineGen`'s constructor and of group files."""
    if abs(determinant(matrix)) != 1:
        raise ValueError("matrix is not invertible over Z (|det| != 1)")


@dataclass(frozen=True)
class TorsionWitness:
    """Data certifying a finite-order element: (lattice shift by
    `correction`) * (lift of `element`) has order `order`."""

    element: AffineGen
    correction: tuple[int, ...]
    order: int


@dataclass(frozen=True, eq=False)
class CrystalGroup:
    """The generators' Cayley graph: `edges[s][j]` is the element s h and
    `edge_cocycle[s][j]` the lattice vector c with g_s g_h = c + g_sh, for
    h the j-th of `holonomy_generator_indices()`.  `holonomy` is the
    finite group on that graph."""

    name: str
    generators: tuple[AffineGen, ...]
    elements: tuple[AffineGen, ...]
    edges: tuple[tuple[int, ...], ...]
    edge_cocycle: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def dim(self) -> int:
        """The lattice rank k, the size of the first element's matrix."""
        return self.elements[0].matrix.rows

    @property
    def holonomy_order(self) -> int:
        return len(self.elements)

    @property
    def denominator(self) -> int:
        """The common denominator q of the representative translations."""
        return self.elements[0].denominator

    @cached_property
    def holonomy(self) -> FiniteGroup:
        """The holonomy as a finite group, on the same Cayley graph."""
        return FiniteGroup(self.edges)

    def holonomy_generator_indices(self) -> tuple[int, ...]:
        """Distinct non-identity generator images, in first-seen order:
        the identity's row of the Cayley graph."""
        return self.edges[0]


def build_group(dim: int, gens, name: str = "", closure_budget: int = 10_000) -> CrystalGroup:
    """Close the generators into a standard-form crystallographic group.

    An element is its matrix and an integer translation t mod q, where q
    is the lcm of the generators' translation denominators; t/q is the
    representative translation in [0,1)^k.  The closure multiplies by the
    generators on the right, breadth first.  It holds a matrix as the
    indices of its rows in the orbit of the unit row vectors: row r of
    A B is (row r of A) B, so each generator acts on that orbit, and a
    right multiplication is one lookup per row.  Each (orbit row,
    generator) image, and the row's dot with the generator's translation,
    is computed once, on first use.  The closure is keyed on the row
    indices, and one `IntMatrix` is made per element at the end.  Each
    edge's cocycle is the quotient by q of the sum reduced to its shift;
    every edge lands on its element's shift, so by induction along the
    closure every defect is integral.  When q = 1 every shift and every
    cocycle is zero, and none is computed.
    The identity is multiplied by every generator, which checks that a
    repeated matrix repeats its translation mod Z^k and that an identity
    matrix has an integral one; every other element only by the first
    generator with each distinct non-identity matrix, since the others
    act as it does, or trivially.  After the identity's row, a generator
    whose trace shows infinite order fails at once, as the budget would.
    Raises ClosureBudgetExceeded or HolonomyNotFaithful when the input is
    not crystallographic in standard form.
    """
    gens = tuple(gens)
    for g in gens:
        if not isinstance(g, AffineGen):
            raise TypeError("generators must be AffineGen")
        if g.matrix.rows != dim:
            raise ValueError(f"generator of dim {g.matrix.rows} in a dim-{dim} group")

    q = lcm(*(g.denominator for g in gens))
    orbit = list(IntMatrix.identity(dim).entries)
    orbit_index = {row: r for r, row in enumerate(orbit)}
    actions = [  # each generator's position and rows, its translation
        # times q, and its images and dots on the orbit rows reached so far
        (pos, g.matrix.entries, tuple(x * (q // g.denominator) % q for x in g.shift), {}, {})
        for pos, g in enumerate(gens)
    ]

    def extend(rows, u, image, dot, key):
        """A generator's images and dots on the rows of `key` it has not
        met.  The image of an orbit row x e_j is x times row j."""
        for o in key:
            if o not in image:
                row = orbit[o]
                terms = [(x, rows[j]) for j, x in enumerate(row) if x]
                if len(terms) == 1:
                    x, new = terms[0]
                    if x != 1:
                        new = tuple(x * y for y in new)
                else:
                    new = tuple(map(sum, zip(*([x * y for y in r] for x, r in terms))))
                image[o] = orbit_index.setdefault(new, len(orbit))
                if image[o] == len(orbit):
                    orbit.append(new)
                if q > 1:
                    dot[o] = sum(map(mul, row, u))

    zero = (0,) * dim
    keys = [tuple(range(dim))]  # each element's matrix, as orbit rows
    shifts = [zero]
    index_of = {keys[0]: 0}
    right: list[tuple[int, ...]] = []  # right[i][j]: element i times holonomy generator j
    defects: list[tuple[tuple[int, ...], ...]] = []  # defects[i][j]: the cocycle of that edge
    active = actions  # the identity meets every generator
    for i, (key, t) in enumerate(zip(keys, shifts)):  # both lists grow as we go
        row, defect_row = [], []
        for pos, rows, u, image, dot in active:
            try:
                mat = tuple(map(image.__getitem__, key))
            except KeyError:
                extend(rows, u, image, dot, key)
                mat = tuple(map(image.__getitem__, key))
            if q > 1:
                total = list(map(add, map(dot.__getitem__, key), t))
                shift = tuple(map(q.__rmod__, total))
                defect_row.append(tuple(map(q.__rfloordiv__, total)))
            else:
                shift = zero
            idx = index_of.get(mat)
            if idx is None:
                idx = index_of[mat] = len(keys)
                keys.append(mat)
                shifts.append(shift)
                if len(keys) > closure_budget:
                    raise ClosureBudgetExceeded(
                        f"holonomy closure exceeded {closure_budget} elements"
                    )
            elif shifts[idx] != shift:
                raise HolonomyNotFaithful(
                    f"element {idx} and element {i} times generator {pos} share a "
                    "holonomy matrix; the lattice is not maximal abelian"
                )
            row.append(idx)
        if i == 0:  # the first input generator with each holonomy generator's matrix
            positions = [row.index(g) for g in dict.fromkeys(row) if g != 0]
            active = [actions[pos] for pos in positions]
            row = [row[pos] for pos in positions]
            if any(_has_infinite_order(gens[pos].matrix) for pos in positions):
                raise ClosureBudgetExceeded(f"holonomy closure exceeded {closure_budget} elements")
        right.append(tuple(row))
        if q > 1:  # the identity's defects, like its row, for the holonomy generators only
            defects.append(tuple(defect_row if i else map(defect_row.__getitem__, positions)))

    elements = tuple(
        AffineGen._trusted(IntMatrix._trusted(tuple(map(orbit.__getitem__, key)), dim), shift, q)
        for key, shift in zip(keys, shifts)
    )
    return CrystalGroup(
        name=name,
        generators=gens,
        elements=elements,
        edges=tuple(right),
        edge_cocycle=tuple(defects) if q > 1 else ((zero,) * len(positions),) * len(keys),
    )


def _has_infinite_order(matrix: IntMatrix) -> bool:
    """Whether the trace shows that the k x k `matrix`, not I, has infinite
    order: a matrix of finite order is diagonalizable with roots of unity
    for eigenvalues, so |tr A| <= k, with equality only at A = +-I."""
    k, rows = matrix.rows, matrix.entries
    if abs(sum(rows[r][r] for r in range(k))) < k:
        return False
    return rows != tuple(tuple(-x for x in row) for row in IntMatrix.identity(k).entries)


def norm_solution(norm: IntMatrix, b, p: int) -> tuple[int, ...] | None:
    """An integer lam with N lam = b, or None when there is none, for N
    the norm I + A + ... + A^(p-1) of a matrix A of prime order p and b an
    integer vector in N Q^k, from one elimination of [N | b] over F_p.

    L = ker(A - I) cap Z^k is saturated, N acts on L as p, and N Z^k and b
    lie in L, since (A - I) N = A^p - I = 0.  So pL = N L lies in N Z^k,
    and an x with N x = b (mod p) leaves b - N x in L cap pZ^k = pL: then
    lam = x + (b - N x)/p has N lam = N x + (b - N x) = b.  With no such
    x there is no integer solution either.
    """
    x = solve_mod_p(norm, b, p)
    if x is None:
        return None
    return tuple(xi + (bi - yi) // p for xi, bi, yi in zip(x, b, norm.apply(x)))


@computed_once
def torsion_witness(group: CrystalGroup) -> TorsionWitness | None:
    """Find a nontrivial finite-order element, or None when the group
    is torsion free.

    A finite-order element has a power of prime order p, and the cosets
    of s and s^j (j prime to p) hold torsion together, so one s is checked
    per cyclic subgroup of prime order.  With N_s the sum of the matrices
    of <s> and g_s = (A, t_s), g_s^p = (A^p, (A^(p-1) + ... + I) t_s) =
    (I, N_s t_s), a lattice translation.  The coset of s holds torsion iff
    N_s lam = -N_s t_s has an integer solution, and `norm_solution` decides
    that by one elimination over F_p: N_s acts as p on the saturated
    lattice ker(A - I) cap Z^k, which holds N_s Z^k, so a solution mod p
    lifts to an exact one.
    """
    holonomy, elements, q = group.holonomy, group.elements, group.denominator
    seen = {0}
    for s, elem in enumerate(elements):
        p = holonomy.orders[s]
        if s in seen or any(p % d == 0 for d in range(2, p)):
            continue
        cyclic = holonomy.subgroup((s,))
        seen |= cyclic
        rows = zip(*(elements[x].matrix.entries for x in cyclic))
        norm = IntMatrix._trusted(tuple(tuple(map(sum, zip(*r))) for r in rows), group.dim)
        minus_v = [-y // q for y in norm.apply(elem.shift)]  # N_s t_s is integral
        lam = norm_solution(norm, minus_v, p)
        if lam is not None:
            return TorsionWitness(element=elem, correction=lam, order=p)
    return None


def is_torsion_free(group: CrystalGroup) -> bool:
    return torsion_witness(group) is None
