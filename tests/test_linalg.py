import itertools
import random
from fractions import Fraction

import pytest

from bieberbach.crystal import AffineGen
from bieberbach.linalg import (
    IntMatrix, determinant, integer_kernel, smith_columns, smith_divisors,
    smith_normal_form, solve_mod_p
)
from oracles import (
    from_columns, hermite_normal_form, invert_unimodular, minor_gcd_divisors, rational_solve,
    smith_diagonal, solve_integer_linear, vec_mod1
)


# ---------------------------------------------------------------- oracles

def gauss_rank(rows_of_ints) -> int:
    rows = [[Fraction(x) for x in row] for row in rows_of_ints]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def in_integer_span(basis, vec) -> bool:
    """Membership of vec in the Z-span of basis vectors, decided by an
    exact rational solve plus an integrality check."""
    if not basis:
        return all(x == 0 for x in vec)
    cols = from_columns(basis)
    sol = rational_solve(cols, vec)
    return sol is not None and all(x.denominator == 1 for x in sol)


def random_matrix(rng, rows, cols, lo=-5, hi=5) -> IntMatrix:
    return IntMatrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


# ---------------------------------------------------------------- SNF

def test_the_identity_is_made_once_per_size():
    """`IntMatrix.identity` is immutable and cached: one object per size,
    equal to the checked constructor's identity."""
    for n in range(9):
        assert IntMatrix.identity(n) is IntMatrix.identity(n)
        assert IntMatrix.identity(n) == IntMatrix(
            [[int(i == j) for j in range(n)] for i in range(n)], cols=n
        )


def test_snf_identity():
    snf = smith_normal_form(IntMatrix.identity(2))
    assert snf.divisors == (1, 1)


def test_snf_zero():
    snf = smith_normal_form(IntMatrix.zeros(2, 2))
    assert snf.divisors == (0, 0)
    assert snf.U * IntMatrix.zeros(2, 2) * snf.V == IntMatrix.zeros(2, 2)


def test_snf_worked_example():
    # oracle: d1 = gcd of entries = 2, d1*d2 = |det| = |8-24| = 16
    m = IntMatrix([[2, 4], [6, 8]])
    snf = smith_normal_form(m)
    assert snf.divisors == (2, 4)
    assert snf.U * m * snf.V == IntMatrix([[2, 0], [0, 4]])


def check_snf_contract(m: IntMatrix):
    snf = smith_normal_form(m)
    assert snf.U * m * snf.V == smith_diagonal(m, snf.divisors)  # diagonal, of m's shape
    assert abs(determinant(snf.U)) == 1
    assert abs(determinant(snf.V)) == 1
    divisors = snf.divisors
    assert all(d >= 0 for d in divisors)
    nz = [d for d in divisors if d != 0]
    assert list(divisors[: len(nz)]) == nz, "zeros must trail"
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    return snf


def test_snf_random_contract_and_rank():
    rng = random.Random(1)
    for _ in range(120):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        snf = check_snf_contract(m)
        nnz = sum(1 for d in snf.divisors if d != 0)
        assert gauss_rank(m.entries) == nnz


def assert_smith_forms_agree(m: IntMatrix) -> None:
    """`smith_divisors` and `smith_columns` run the elimination of
    `smith_normal_form` with fewer transforms: the same divisors and V."""
    snf = smith_normal_form(m)
    columns = smith_columns(m)
    assert smith_divisors(m) == snf.divisors
    assert columns.divisors == snf.divisors
    assert columns.V == snf.V and columns.V.cols == snf.V.cols


def test_smith_divisors_and_columns_match_the_full_form_on_random_matrices():
    rng = random.Random(17)
    for _ in range(5000):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        entries = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        if rows and rng.random() < 0.3:
            entries[rng.randrange(rows)] = [0] * cols
        if cols and rng.random() < 0.3:
            j = rng.randrange(cols)
            for row in entries:
                row[j] = 0
        assert_smith_forms_agree(IntMatrix(entries, cols=cols))


def test_snf_against_minor_gcd_oracle():
    rng = random.Random(2)
    for _ in range(50):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = random_matrix(rng, rows, cols)
        assert smith_normal_form(m).divisors == minor_gcd_divisors(m)


# ---------------------------------------------------------------- HNF

def test_hnf_identity():
    hf = hermite_normal_form(IntMatrix.identity(3))
    assert hf.H == IntMatrix.identity(3)
    assert hf.U * IntMatrix.identity(3) == hf.H


def test_hnf_zero():
    hf = hermite_normal_form(IntMatrix.zeros(2, 2))
    assert hf.H == IntMatrix.zeros(2, 2)


def test_hnf_row_lattice_preserved():
    # oracle: enumerate small integer combinations of the rows on both
    # sides and compare the resulting lattice point sets
    m = IntMatrix([[2, 1], [4, 3]])
    hf = hermite_normal_form(m)
    assert hf.U * m == hf.H

    def span_points(rows):
        # coefficient range wide enough to hit every lattice point of
        # the comparison box below, for either generating set
        pts = set()
        for a in range(-12, 13):
            for b in range(-12, 13):
                pts.add(tuple(a * x + b * y for x, y in zip(rows[0], rows[1])))
        return pts

    box = {p for p in span_points(list(m)) if all(abs(x) <= 3 for x in p)}
    hbox = {p for p in span_points(list(hf.H)) if all(abs(x) <= 3 for x in p)}
    assert box == hbox


def test_hnf_canonical_shape():
    rng = random.Random(3)
    for _ in range(80):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        hf = hermite_normal_form(m)
        assert hf.U * m == hf.H
        assert abs(determinant(hf.U)) == 1
        pivots = []
        for i in range(hf.H.rows):
            row = hf.H.row(i)
            nz = next((j for j, x in enumerate(row) if x != 0), None)
            if nz is None:
                # all rows below must be zero too
                assert all(x == 0 for r in hf.H.entries[i:] for x in r)
                break
            assert row[nz] > 0
            if pivots:
                assert nz > pivots[-1]
            for k in range(i):
                assert 0 <= hf.H[k, nz] < row[nz]
            pivots.append(nz)


# ---------------------------------------------------------------- kernels

def test_kernel_identity_and_zero():
    assert integer_kernel(IntMatrix.identity(3)) == []
    basis = integer_kernel(IntMatrix.zeros(2, 2))
    assert len(basis) == 2
    assert in_integer_span(basis, (1, 0)) and in_integer_span(basis, (0, 1))


def test_kernel_hantzsche_wendt_stack():
    # stacked A(s) - I for the two diagonal involutions: trivial kernel
    a1 = IntMatrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    a2 = IntMatrix([[-1, 0, 0], [0, 1, 0], [0, 0, -1]])
    stack = IntMatrix.vstack([a1 - IntMatrix.identity(3), a2 - IntMatrix.identity(3)])
    assert integer_kernel(stack) == []


def test_kernel_random_properties():
    rng = random.Random(4)
    for _ in range(80):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        basis = integer_kernel(m)
        assert len(basis) == m.cols - gauss_rank(m.entries)
        for vec in basis:
            assert all(x == 0 for x in m.apply(vec))
        if basis:
            assert gauss_rank(basis) == len(basis)


def test_kernel_saturated_against_box_oracle():
    rng = random.Random(5)
    for _ in range(25):
        m = random_matrix(rng, 2, 3, lo=-3, hi=3)
        basis = integer_kernel(m)
        for vec in itertools.product(range(-4, 5), repeat=3):
            if all(x == 0 for x in m.apply(vec)):
                assert in_integer_span(basis, vec)


# ---------------------------------------------------------------- solve

def test_solve_identity():
    got = solve_integer_linear(IntMatrix.identity(3), (5, -2, 7))
    assert got is not None
    x0, kernel = got
    assert x0 == (5, -2, 7)
    assert kernel == []


def test_solve_parity_obstruction():
    assert solve_integer_linear(IntMatrix([[2]]), (1,)) is None


def test_solve_hw_generator_torsion_equation():
    # diag(2,0,0) x = (-1,0,0) has no integer solution; the exhaustive
    # box oracle agrees
    m = IntMatrix([[2, 0, 0], [0, 0, 0], [0, 0, 0]])
    b = (-1, 0, 0)
    assert solve_integer_linear(m, b) is None
    for lam in itertools.product(range(-3, 4), repeat=3):
        assert m.apply(lam) != b


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_integer_linear(IntMatrix.identity(2), (1, 2, 3))


def test_solve_agrees_with_box_search():
    rng = random.Random(6)
    for _ in range(50):
        m = random_matrix(rng, 3, 3, lo=-3, hi=3)
        if rng.random() < 0.5:
            x = tuple(rng.randint(-3, 3) for _ in range(3))
            b = m.apply(x)
        else:
            b = tuple(rng.randint(-6, 6) for _ in range(3))
        got = solve_integer_linear(m, b)
        brute = None
        for lam in itertools.product(range(-10, 11), repeat=3):
            if m.apply(lam) == tuple(b):
                brute = lam
                break
        if brute is not None:
            assert got is not None
        if got is not None:
            x0, kernel = got
            assert m.apply(x0) == tuple(b)
            for vec in kernel:
                assert all(x == 0 for x in m.apply(vec))


def test_solve_mod_p_agrees_with_brute_force():
    rng = random.Random(8)
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7))
        rows, cols = rng.randint(0, 3), rng.randint(0, 3)
        m = random_matrix(rng, rows, cols, lo=-9, hi=9) if rows else IntMatrix.zeros(0, cols)
        b = tuple(rng.randint(-9, 9) for _ in range(rows))
        solutions = [
            x
            for x in itertools.product(range(p), repeat=cols)
            if all((y - z) % p == 0 for y, z in zip(m.apply(x), b))
        ]
        x = solve_mod_p(m, b, p)
        assert (x is None) == (not solutions)
        if x is not None:
            assert x in solutions


def test_solve_mod_p_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_mod_p(IntMatrix.identity(2), (1, 2, 3), 2)


# ---------------------------------------------------------------- misc

def test_determinant_small():
    assert determinant(IntMatrix([[2, 4], [6, 8]])) == -8
    assert determinant(IntMatrix.identity(5)) == 1
    assert determinant(IntMatrix([[0]], cols=1)) == 0


def test_invert_unimodular():
    m = IntMatrix([[2, 1], [1, 1]])
    inv = invert_unimodular(m)
    assert m * inv == IntMatrix.identity(2)
    with pytest.raises(ValueError):
        invert_unimodular(IntMatrix([[2, 0], [0, 1]]))


def rational_inverse(m: IntMatrix) -> IntMatrix:
    """Oracle: the earlier `invert_unimodular`, one `rational_solve` per
    column of the identity."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    cols = []
    for j in range(n):
        e = [Fraction(int(i == j)) for i in range(n)]
        sol = rational_solve(m, e)
        if sol is None:
            raise ValueError("matrix is singular")
        cols.append(sol)
    if any(x.denominator != 1 for col in cols for x in col):
        raise ValueError("matrix is not unimodular")
    return from_columns([[int(x) for x in col] for col in cols], rows=n)


def random_unimodular(rng: random.Random, n: int, steps: int = 15) -> IntMatrix:
    """A product of elementary matrices: row additions, row swaps and
    row negations, so an element of GL_n(Z)."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3) if n > 1 else 2
        i = rng.randrange(n)
        if kind == 2:
            rows[i] = [-x for x in rows[i]]
            continue
        j = rng.choice([x for x in range(n) if x != i])
        if kind == 0:
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        else:
            rows[i], rows[j] = rows[j], rows[i]
    return IntMatrix(rows, cols=n)


def test_invert_unimodular_matches_rational_inverse():
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randint(1, 6)
        m = random_unimodular(rng, n)
        inv = invert_unimodular(m)
        assert m * inv == IntMatrix.identity(n) == inv * m
        assert inv == rational_inverse(m)
    empty = IntMatrix([], cols=0)
    assert invert_unimodular(empty) == rational_inverse(empty) == empty


def test_invert_unimodular_rejects_non_units():
    rng = random.Random(32)
    for _ in range(40):
        n = rng.randint(1, 6)
        rows = [list(r) for r in random_unimodular(rng, n)]
        # one row doubled: det = +-2
        doubled = IntMatrix([[2 * x for x in rows[0]]] + rows[1:], cols=n)
        assert abs(determinant(doubled)) == 2
        # one row a multiple of another, or a zero row in dim 1: det = 0
        singular = IntMatrix(rows[:-1] + [[3 * x for x in rows[0]] if n > 1 else [0]], cols=n)
        assert determinant(singular) == 0
        for bad in (doubled, singular):
            with pytest.raises(ValueError):
                invert_unimodular(bad)
            with pytest.raises(ValueError):
                rational_inverse(bad)
    for shape in ((2, 3), (3, 2), (1, 0)):
        with pytest.raises(ValueError):
            invert_unimodular(IntMatrix.zeros(*shape))


def test_vec_mod1():
    assert vec_mod1((Fraction(3, 2), Fraction(-1, 4), 2)) == (
        Fraction(1, 2),
        Fraction(3, 4),
        Fraction(0),
    )


def test_matrix_basics():
    m = IntMatrix([[1, 2], [3, 4]])
    assert m.transpose() == IntMatrix([[1, 3], [2, 4]])
    assert m.apply((1, 1)) == (3, 7)
    assert (m * IntMatrix.identity(2)) == m
    with pytest.raises(TypeError):
        IntMatrix([[Fraction(1, 2)]])
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])


# ---------------------------------------------------------------- trusted results

def assert_well_formed(m: IntMatrix):
    """What the public constructor would check: int entries, rectangular
    rows of width `cols`, and the same matrix when rebuilt through it."""
    assert isinstance(m.entries, tuple) and len(m.entries) == m.rows
    for row in m.entries:
        assert isinstance(row, tuple) and len(row) == m.cols
        assert all(type(x) is int for x in row)
    assert IntMatrix(m.entries, cols=m.cols) == m


def test_linalg_results_are_well_formed_int_matrices():
    rng = random.Random(2027)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4)]
    shapes += [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(30)]
    for rows, cols in shapes:
        a = IntMatrix(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)], cols=cols
        )
        b = IntMatrix(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)], cols=cols
        )
        inner = rng.randint(0, 5)
        c = IntMatrix(
            [[rng.randint(-9, 9) for _ in range(inner)] for _ in range(cols)], cols=inner
        )
        snf = smith_normal_form(a)
        hnf = hermite_normal_form(a)
        results = [
            smith_columns(a).V,
            a * c,
            a + b,
            a - b,
            a.transpose(),
            IntMatrix.vstack([a, b, IntMatrix.zeros(2, cols)]),
            IntMatrix.identity(rows),
            IntMatrix.zeros(rows, cols),
            snf.U,
            snf.V,
            hnf.H,
            hnf.U,
        ]
        for m in results:
            assert_well_formed(m)
        assert (a * c).shape() == (rows, inner)
        assert a.transpose().shape() == (cols, rows)
        assert a.transpose().transpose() == a
        assert snf.U * a * snf.V == smith_diagonal(a, snf.divisors)
        assert hnf.U * a == hnf.H


def test_public_constructor_still_validates():
    with pytest.raises(TypeError):
        IntMatrix([[Fraction(1, 2)]])
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]], cols=3)
    assert type(IntMatrix([[Fraction(4, 2), True]]).entries[0][0]) is int


def test_float_entries_are_rejected():
    """A float is never read as an integer, not even an integral one: its
    value may already be rounded (1e16 + 1 is 10**16), and nan or inf has
    none.  The same holds for an affine element's matrix."""
    for x in (1.0, -0.0, 1e16 + 1, float("nan"), float("inf")):
        with pytest.raises(TypeError, match="float"):
            IntMatrix([[x]])
        with pytest.raises(TypeError, match="float"):
            IntMatrix([[1, 0], [0, x]])
        with pytest.raises(TypeError, match="float"):
            AffineGen.of([[x]], (0,))
