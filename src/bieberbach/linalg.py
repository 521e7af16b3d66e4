"""Exact integer and rational linear algebra.

Everything here runs over arbitrary-precision Python ints and
fractions.Fraction; no floats anywhere.  The workhorses are the Smith
and Hermite normal forms, from which integer kernels, integer linear
system solving and lattice membership all fall out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


def _as_int(x):
    xi = int(x)
    if xi != x:
        raise TypeError(f"non-integer matrix entry: {x!r}")
    return xi


class IntMatrix:
    """Immutable integer matrix (row-major, arbitrary precision).

    Zero-row and zero-column matrices are allowed; pass `cols=` when
    there are no rows to fix the width.
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
    def identity(cls, n: int) -> IntMatrix:
        return cls([[int(i == j) for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> IntMatrix:
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def from_columns(cls, columns, rows: int | None = None) -> IntMatrix:
        columns = [tuple(c) for c in columns]
        if columns:
            rows = len(columns[0])
        elif rows is None:
            raise ValueError("from_columns with no columns needs rows=")
        return cls([[c[i] for c in columns] for i in range(rows)], cols=len(columns))

    @staticmethod
    def vstack(mats) -> IntMatrix:
        mats = list(mats)
        if not mats:
            raise ValueError("vstack of nothing")
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("mismatched widths")
        out = []
        for m in mats:
            out.extend(m._data)
        return IntMatrix(out, cols=cols)

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
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self._data],
            cols=other.cols,
        )

    def apply(self, vec):
        """Matrix times column vector; works for int and Fraction entries."""
        if len(vec) != self.cols:
            raise ValueError(f"vector of dim {len(vec)} against {self.shape()}")
        return tuple(sum(a * x for a, x in zip(row, vec)) for row in self._data)

    def __sub__(self, other: IntMatrix) -> IntMatrix:
        if self.shape() != other.shape():
            raise ValueError("shape mismatch")
        return IntMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self._data, other._data)],
            cols=self.cols,
        )

    def __add__(self, other: IntMatrix) -> IntMatrix:
        if self.shape() != other.shape():
            raise ValueError("shape mismatch")
        return IntMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._data, other._data)],
            cols=self.cols,
        )

    def transpose(self) -> IntMatrix:
        return IntMatrix(
            [[self._data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def shape(self):
        return (self.rows, self.cols)

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            x == int(i == j) for i, row in enumerate(self._data) for j, x in enumerate(row)
        )

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
    """U * M * V = D with U, V unimodular and D in Smith normal form."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    divisors: tuple[int, ...]


@dataclass(frozen=True)
class HermiteForm:
    """U * M = H with U unimodular and H the canonical row Hermite form."""

    H: IntMatrix
    U: IntMatrix


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Smith normal form over the integers.

    Divisors come out nonnegative, each dividing the next, zeros
    trailing.  Pivoting picks the smallest nonzero entry of the working
    submatrix, which keeps intermediate growth tame for the small
    matrices this package deals in.
    """
    r, c = m.rows, m.cols
    a = [list(row) for row in m]
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    v = [[int(i == j) for j in range(c)] for i in range(c)]

    def row_sub(i, k, q):  # row_i -= q * row_k
        a[i] = [x - q * y for x, y in zip(a[i], a[k])]
        u[i] = [x - q * y for x, y in zip(u[i], u[k])]

    def row_add(i, k):
        a[i] = [x + y for x, y in zip(a[i], a[k])]
        u[i] = [x + y for x, y in zip(u[i], u[k])]

    def row_swap(i, k):
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def col_sub(j, k, q):  # col_j -= q * col_k
        for row in a:
            row[j] -= q * row[k]
        for row in v:
            row[j] -= q * row[k]

    def col_swap(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    t = 0
    while t < min(r, c):
        piv = None
        best = None
        for i in range(t, r):
            for j in range(t, c):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        while True:
            # clear below the pivot (Euclid on the column)
            while any(a[i][t] for i in range(t + 1, r)):
                imin = min(
                    (i for i in range(t, r) if a[i][t] != 0), key=lambda i: abs(a[i][t])
                )
                if imin != t:
                    row_swap(t, imin)
                for i in range(t + 1, r):
                    if a[i][t]:
                        row_sub(i, t, a[i][t] // a[t][t])
            # clear right of the pivot (Euclid on the row)
            while any(a[t][j] for j in range(t + 1, c)):
                jmin = min(
                    (j for j in range(t, c) if a[t][j] != 0), key=lambda j: abs(a[t][j])
                )
                if jmin != t:
                    col_swap(t, jmin)
                for j in range(t + 1, c):
                    if a[t][j]:
                        col_sub(j, t, a[t][j] // a[t][t])
            if any(a[i][t] for i in range(t + 1, r)):
                continue  # column swaps dirtied the pivot column
            # force the pivot to divide the remaining submatrix
            witness = None
            for i in range(t + 1, r):
                if any(x % a[t][t] for x in a[i][t + 1 :]):
                    witness = i
                    break
            if witness is None:
                break
            row_add(t, witness)
        if a[t][t] < 0:
            row_neg(t)
        t += 1

    divisors = tuple(a[i][i] for i in range(min(r, c)))
    return SmithForm(
        U=IntMatrix(u, cols=r),
        D=IntMatrix(a, cols=c),
        V=IntMatrix(v, cols=c),
        divisors=divisors,
    )


def hermite_normal_form(m: IntMatrix) -> HermiteForm:
    """Canonical row Hermite form: positive pivots, entries above each
    pivot reduced into [0, pivot), zero rows at the bottom."""
    r, c = m.rows, m.cols
    h = [list(row) for row in m]
    u = [[int(i == j) for j in range(r)] for i in range(r)]

    def row_sub(i, k, q):
        h[i] = [x - q * y for x, y in zip(h[i], h[k])]
        u[i] = [x - q * y for x, y in zip(u[i], u[k])]

    def row_swap(i, k):
        h[i], h[k] = h[k], h[i]
        u[i], u[k] = u[k], u[i]

    def row_neg(i):
        h[i] = [-x for x in h[i]]
        u[i] = [-x for x in u[i]]

    p = 0
    for col in range(c):
        if p >= r:
            break
        while True:
            below = [i for i in range(p, r) if h[i][col] != 0]
            if not below:
                break
            imin = min(below, key=lambda i: abs(h[i][col]))
            if imin != p:
                row_swap(p, imin)
            done = True
            for i in range(p + 1, r):
                if h[i][col]:
                    row_sub(i, p, h[i][col] // h[p][col])
                    if h[i][col]:
                        done = False
            if done:
                break
        if p < r and h[p][col] != 0:
            if h[p][col] < 0:
                row_neg(p)
            for i in range(p):
                q = h[i][col] // h[p][col]
                if q:
                    row_sub(i, p, q)
            p += 1

    return HermiteForm(H=IntMatrix(h, cols=c), U=IntMatrix(u, cols=r))


def integer_kernel(m: IntMatrix) -> list[tuple[int, ...]]:
    """Z-basis of {x in Z^cols : M x = 0}.

    The basis is saturated (it spans the full rational kernel), with
    cols - rank(M) vectors.
    """
    snf = smith_normal_form(m)
    nnz = sum(1 for d in snf.divisors if d != 0)
    return [snf.V.column(j) for j in range(nnz, m.cols)]


def solve_integer_linear(m: IntMatrix, b) -> tuple[tuple[int, ...], list[tuple[int, ...]]] | None:
    """Solve M x = b over the integers.

    Returns (particular solution, kernel basis), or None when the
    system has no integer solution.
    """
    if len(b) != m.rows:
        raise ValueError(f"rhs of dim {len(b)} against {m.shape()}")
    snf = smith_normal_form(m)
    ub = snf.U.apply(tuple(_as_int(x) for x in b))
    y = [0] * m.cols
    for i in range(m.rows):
        d = snf.divisors[i] if i < len(snf.divisors) else 0
        if d == 0:
            if ub[i] != 0:
                return None
        else:
            q, rem = divmod(ub[i], d)
            if rem:
                return None
            if i < m.cols:
                y[i] = q
    x0 = snf.V.apply(tuple(y))
    nnz = sum(1 for d in snf.divisors if d != 0)
    kernel = [snf.V.column(j) for j in range(nnz, m.cols)]
    return x0, kernel


def rational_rank(m: IntMatrix) -> int:
    """Rank over Q, by fraction-exact Gaussian elimination.

    Deliberately independent of the Smith form so the two can
    cross-check each other.
    """
    rows = [[Fraction(x) for x in row] for row in m]
    rank = 0
    for col in range(m.cols):
        piv = next((i for i in range(rank, m.rows) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        for i in range(rank + 1, m.rows):
            if rows[i][col]:
                f = rows[i][col] / prow[col]
                rows[i] = [x - f * y for x, y in zip(rows[i], prow)]
        rank += 1
        if rank == m.rows:
            break
    return rank


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


def rational_solve(rows, rhs) -> tuple[Fraction, ...] | None:
    """One exact solution of (rows) x = rhs over Q, free variables
    pinned to 0; None when inconsistent.  `rows` may be an IntMatrix or
    any nested sequence of ints/Fractions."""
    mat = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(rows, rhs)]
    nrows = len(mat)
    ncols = (len(mat[0]) - 1) if mat else (len(list(rows[0])) if nrows else 0)
    if nrows == 0:
        return tuple()
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        inv = 1 / prow[col]
        mat[rank] = [x * inv for x in prow]
        for i in range(nrows):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, nrows):
        if mat[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        x[col] = mat[i][ncols]
    return tuple(x)


def invert_unimodular(m: IntMatrix) -> IntMatrix:
    """Inverse of a matrix in GL_n(Z), in integers only; raises
    ValueError if det is not +-1.

    The row Hermite form of a unimodular matrix is the identity: its
    pivots are positive units, so every entry above them reduces to 0.
    Then U M = I, and the transform U is the inverse.  Any other Hermite
    form means det M is not +-1 (a singular M leaves a zero row)."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    hnf = hermite_normal_form(m)
    if not hnf.H.is_identity():
        raise ValueError("matrix is not unimodular (det is not +-1)")
    return hnf.U


def gcd_all(values) -> int:
    g = 0
    for x in values:
        g = gcd(g, int(x))
    return g


def frac_vector(entries) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in entries)


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_mod1(vec) -> tuple[Fraction, ...]:
    """Reduce a rational vector into [0, 1)^k."""
    return tuple(Fraction(x) % 1 for x in vec)
