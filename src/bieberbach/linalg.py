"""Exact integer linear algebra.

Everything here runs over arbitrary-precision Python ints; no
fractions and no floats.  The workhorse is the Smith normal form, from
which integer kernels, the fixed dual lattice and first homology all
fall out.

One Smith elimination serves three entry points, each carrying only
the transforms its caller reads: `smith_divisors` carries none (H1 and
G/G'), `smith_columns` carries V (integer kernels and the fixed dual
lattice), and `smith_normal_form` carries U and V (the benchmark's
probe and the tests).  The pivots never depend on what is carried, so
the divisors and V agree bit for bit across the three.
`row_smith_basis` gives V and its inverse for one row (the Calabi
peel), and `solve_mod_p` is one Gaussian elimination over F_p (the
torsion test).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add, mul, sub


def _as_int(x):
    """An exact integral entry as an int; a float, whose value may
    already be rounded, is never read."""
    if isinstance(x, float):
        raise TypeError(f"float matrix entry: {x!r}")
    xi = int(x)
    if xi != x:
        raise TypeError(f"non-integer matrix entry: {x!r}")
    return xi


class IntMatrix:
    """Immutable integer matrix (row-major, arbitrary precision).

    Zero-row and zero-column matrices are allowed; pass `cols=` when
    there are no rows to fix the width.  The constructor checks every
    entry; the results of this module's own integer arithmetic are made
    by `_trusted`, which does not.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, entries, cols=None):
        data = tuple(tuple(_as_int(x) for x in row) for row in entries)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data[1:]):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError(f"cols={cols} but rows have width {width}")
            cols = width
        elif cols is None:
            cols = 0
        self.rows = len(data)
        self.cols = cols
        self._data = data

    @classmethod
    def _trusted(cls, data, cols: int) -> IntMatrix:
        """A matrix on `data`, unchecked: a tuple of tuples of ints,
        each of width `cols`, such as integer arithmetic makes."""
        m = object.__new__(cls)
        m.rows = len(data)
        m.cols = cols
        m._data = data
        return m

    @classmethod
    @lru_cache(maxsize=128)  # immutable, so one per size serves every caller
    def identity(cls, n: int) -> IntMatrix:
        return cls._trusted(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> IntMatrix:
        return cls._trusted(((0,) * cols,) * rows, cols)

    @staticmethod
    def vstack(mats) -> IntMatrix:
        mats = list(mats)
        if not mats:
            raise ValueError("vstack of nothing")
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("mismatched widths")
        return IntMatrix._trusted(tuple(row for m in mats for row in m._data), cols)

    @property
    def entries(self):
        return self._data

    def row(self, i: int):
        return self._data[i]

    def column(self, j: int):
        return tuple(row[j] for row in self._data)

    def __getitem__(self, key):
        i, j = key
        return self._data[i][j]

    def __iter__(self):
        return iter(self._data)

    def __mul__(self, other: IntMatrix) -> IntMatrix:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape()} by {other.shape()}")
        ot = other.transpose()._data
        return IntMatrix._trusted(
            tuple(tuple(sum(map(mul, row, col)) for col in ot) for row in self._data),
            other.cols,
        )

    def apply(self, vec):
        """Matrix times an integer column vector."""
        if len(vec) != self.cols:
            raise ValueError(f"vector of dim {len(vec)} against {self.shape()}")
        return tuple(sum(a * x for a, x in zip(row, vec)) for row in self._data)

    def __sub__(self, other: IntMatrix) -> IntMatrix:
        if self.shape() != other.shape():
            raise ValueError("shape mismatch")
        return IntMatrix._trusted(
            tuple(tuple(map(sub, r1, r2)) for r1, r2 in zip(self._data, other._data)),
            self.cols,
        )

    def __add__(self, other: IntMatrix) -> IntMatrix:
        if self.shape() != other.shape():
            raise ValueError("shape mismatch")
        return IntMatrix._trusted(
            tuple(tuple(map(add, r1, r2)) for r1, r2 in zip(self._data, other._data)),
            self.cols,
        )

    def transpose(self) -> IntMatrix:
        # with no rows, zip(*rows) would lose the width
        data = tuple(zip(*self._data)) if self.rows else ((),) * self.cols
        return IntMatrix._trusted(data, self.rows)

    def shape(self):
        return (self.rows, self.cols)

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.cols == other.cols and self._data == other._data

    def __hash__(self):
        return hash((self.cols, self._data))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self._data]!r})"


@dataclass(frozen=True)
class SmithForm:
    """U * M * V = D with U, V unimodular and D in Smith normal form, the
    divisors on its diagonal."""

    U: IntMatrix
    V: IntMatrix
    divisors: tuple[int, ...]


@dataclass(frozen=True)
class SmithColumns:
    """The column transform V and the divisors of a Smith form U M V = D,
    without U."""

    V: IntMatrix
    divisors: tuple[int, ...]


def _smith_eliminate(a: list[list[int]], r: int, c: int) -> tuple[int, ...]:
    """Bring the top-left r x c block of `a` to Smith normal form in
    place, and return its divisors: nonnegative, each dividing the next,
    zeros trailing.

    Row steps act on whole rows and column steps on every row, so
    columns past c that start as the identity end as the row transform
    U, and rows past r that start as the identity end as the column
    transform V.  What is not carried costs nothing, and the pivots do
    not depend on it.  Pivoting picks the smallest nonzero entry of the
    working submatrix, which keeps intermediate growth tame for the
    small matrices this package deals in.
    """
    t = 0
    while t < min(r, c):
        piv = None
        best = None
        for i in range(t, r):
            row = a[i]
            for j in range(t, c):
                x = row[j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        i, j = piv
        a[t], a[i] = a[i], a[t]
        if j != t:
            for row in a:
                row[t], row[j] = row[j], row[t]
        while True:
            # clear below the pivot (Euclid on the column)
            while any(a[i][t] for i in range(t + 1, r)):
                imin = min(
                    (i for i in range(t, r) if a[i][t] != 0), key=lambda i: abs(a[i][t])
                )
                a[t], a[imin] = a[imin], a[t]
                top = a[t]
                for i in range(t + 1, r):
                    if a[i][t]:
                        q = a[i][t] // top[t]
                        a[i] = [x - q * y for x, y in zip(a[i], top)]
            # clear right of the pivot (Euclid on the row)
            top = a[t]
            while any(top[j] for j in range(t + 1, c)):
                jmin = min((j for j in range(t, c) if top[j] != 0), key=lambda j: abs(top[j]))
                if jmin != t:
                    for row in a:
                        row[t], row[jmin] = row[jmin], row[t]
                for j in range(t + 1, c):
                    if top[j]:
                        q = top[j] // top[t]
                        for row in a:
                            row[j] -= q * row[t]
            if any(a[i][t] for i in range(t + 1, r)):
                continue  # column swaps dirtied the pivot column
            # force the pivot to divide the remaining submatrix (a unit does)
            p = top[t]
            if p in (1, -1):
                break
            witness = next(
                (i for i in range(t + 1, r) if any(x % p for x in a[i][t + 1 : c])), None
            )
            if witness is None:
                break
            a[t] = [x + y for x, y in zip(top, a[witness])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        t += 1
    return tuple(a[i][i] for i in range(min(r, c)))


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Smith normal form over the integers, U M V = D with both transforms;
    the divisors are nonnegative, each dividing the next, zeros trailing."""
    r, c = m.rows, m.cols
    a = [list(row) + [int(i == j) for j in range(r)] for i, row in enumerate(m)]
    a += [[int(i == j) for j in range(c)] for i in range(c)]
    divisors = _smith_eliminate(a, r, c)
    return SmithForm(
        U=IntMatrix._trusted(tuple(tuple(row[c:]) for row in a[:r]), r),
        V=IntMatrix._trusted(tuple(map(tuple, a[r:])), c),
        divisors=divisors,
    )


def smith_columns(m: IntMatrix) -> SmithColumns:
    """The divisors and V of `smith_normal_form(m)`, from the same
    elimination without the row transform U."""
    a = [list(row) for row in m]
    a += [[int(i == j) for j in range(m.cols)] for i in range(m.cols)]
    divisors = _smith_eliminate(a, m.rows, m.cols)
    return SmithColumns(IntMatrix._trusted(tuple(map(tuple, a[m.rows :])), m.cols), divisors)


def smith_divisors(m: IntMatrix) -> tuple[int, ...]:
    """The divisors of `smith_normal_form(m)`, from the same elimination
    without either transform."""
    return _smith_eliminate([list(row) for row in m], m.rows, m.cols)


def row_smith_basis(f) -> tuple[IntMatrix, IntMatrix, int]:
    """V, V^-1 and the unit u of `smith_normal_form` on the one-row
    matrix [f], from one elimination: u [f] V = (d, 0, ..., 0).

    The steps are the Smith form's on one row: Euclid on the row, each
    round pivoting on the first entry of least nonzero |x|, and u = -1
    when the pivot ends negative.  V is kept as its columns.  Each
    column step col_j -= q col_0 is row_0 += q row_j on V^-1, and each
    swap of columns 0 and j swaps rows 0 and j of V^-1."""
    a = list(f)
    k = len(a)
    v = [[int(i == j) for j in range(k)] for i in range(k)]  # the columns of V
    v_inv = [row[:] for row in v]  # the rows of V^-1
    while any(a[1:]):  # the first round makes the Smith form's pivot swap
        j = min((j for j in range(k) if a[j]), key=lambda j: abs(a[j]))
        if j:
            a[0], a[j] = a[j], a[0]
            v[0], v[j] = v[j], v[0]
            v_inv[0], v_inv[j] = v_inv[j], v_inv[0]
        p = a[0]
        for j in range(1, k):
            if a[j]:
                q = a[j] // p
                a[j] -= q * p
                v[j] = [x - q * y for x, y in zip(v[j], v[0])]
                v_inv[0] = [x + q * y for x, y in zip(v_inv[0], v_inv[j])]
    return (
        IntMatrix._trusted(tuple(zip(*v)), k),
        IntMatrix._trusted(tuple(map(tuple, v_inv)), k),
        -1 if a and a[0] < 0 else 1,
    )


def integer_kernel(m: IntMatrix) -> list[tuple[int, ...]]:
    """Z-basis of {x in Z^cols : M x = 0}.

    The basis is saturated (it spans the full rational kernel), with
    cols - rank(M) vectors.
    """
    snf = smith_columns(m)
    nnz = sum(1 for d in snf.divisors if d != 0)
    return [snf.V.column(j) for j in range(nnz, m.cols)]


def solve_mod_p(m: IntMatrix, b, p: int) -> tuple[int, ...] | None:
    """One solution x in [0, p)^cols of M x = b (mod p), for p prime,
    with the free variables 0; None when there is none.  Gauss-Jordan
    elimination of [M | b] over F_p."""
    if len(b) != m.rows:
        raise ValueError(f"rhs of dim {len(b)} against {m.shape()}")
    rows = [[x % p for x in row] + [y % p] for row, y in zip(m, b)]
    pivots = []
    for col in range(m.cols):
        rank = len(pivots)
        piv = next((i for i in range(rank, m.rows) if rows[i][col]), None)
        if piv is None:
            continue
        inv = pow(rows[piv][col], -1, p)
        prow = [x * inv % p for x in rows[piv]]
        rows[piv] = rows[rank]
        rows[rank] = prow
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                f = row[col]
                rows[i] = [(x - f * y) % p for x, y in zip(row, prow)]
        pivots.append(col)
    if any(row[-1] for row in rows[len(pivots) :]):
        return None
    x = [0] * m.cols
    for row, col in zip(rows, pivots):
        x[col] = row[-1]
    return tuple(x)


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for t in range(n - 1):
        if a[t][t] == 0:
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    a[t], a[i] = a[i], a[t]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
            a[i][t] = 0
        prev = a[t][t]
    return sign * a[n - 1][n - 1]
