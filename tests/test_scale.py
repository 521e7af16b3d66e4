"""Invariants at scale: real Bott groups of holonomy order 512 and 2048.

A real Bott group (Kamishima-Masuda, "Cohomological rigidity of real
Bott manifolds", AGT 2009) is built in closed form from an n x n
strictly upper-triangular binary matrix A with A[i][i+1] = 1: generator
s_i adds 1/2 to x_i and negates each x_j with j > i and A[i][j] = 1.
The last coordinate is scaled by 2, so s_n is the unit translation.  The
holonomy is (Z/2)^(n-1) and faithful, the group is an iterated circle
bundle, so it is torsion free, and every s_j with j > 1 is inverted by
s_(j-1): H1 = Z + (Z/2)^(n-1).
"""

import random
import time
from fractions import Fraction

from bieberbach.calabi import is_connective
from bieberbach.crystal import AffineGen, build_group, torsion_witness
from bieberbach.invariants import abelianization, relation_matrix


def real_bott_group(n, seed=7):
    """The entries of A above its superdiagonal are drawn row by row,
    each 1 with probability 1/2."""
    rng = random.Random(seed)
    a = [[j == i + 1 or (j > i + 1 and rng.random() < 0.5) for j in range(n)] for i in range(n)]
    gens = []
    for i in range(n):
        matrix = [[(-1 if a[i][r] else 1) * int(r == c) for c in range(n)] for r in range(n)]
        shift = [Fraction(int(r == i), 2 if i < n - 1 else 1) for r in range(n)]
        gens.append(AffineGen.of(matrix, shift))
    return build_group(n, gens, name=f"real_bott_{n}")


def test_h1_of_the_order_2048_real_bott_group():
    """H1 reads Smith divisors only.  With the column transform of the
    23 x 3042 relation matrix it took 8.2 s (2 CPUs, CPython 3.11); it
    takes about 0.3 s without."""
    group = real_bott_group(12)
    assert group.holonomy_order == 2048
    assert relation_matrix(group).shape() == (23, 3042)
    start = time.perf_counter()
    h1 = abelianization(group)
    elapsed = time.perf_counter() - start
    assert (h1.rank, h1.torsion) == (1, (2,) * 11)
    assert elapsed < 2.0


def test_the_order_2048_real_bott_group_is_torsion_free():
    """One elimination over F_2 per element: 2047 of them took 1.06 s as
    Smith solves (2 CPUs, CPython 3.11), and take about 0.24 s."""
    group = real_bott_group(12)
    start = time.perf_counter()
    witness = torsion_witness(group)
    elapsed = time.perf_counter() - start
    assert witness is None
    assert elapsed < 2.0


def test_the_order_512_real_bott_group_is_connective_with_chain_length_10():
    """An iterated circle bundle is poly-Z, so the Calabi chain peels all
    10 dimensions.  Each peel checks its surjection by reading each
    element once; with the check on the n x (n - 1) Cayley graph of each
    kernel stage this took about 0.56 s (2 CPUs, CPython 3.11), and it
    takes about 0.47 s without."""
    group = real_bott_group(10)
    assert group.holonomy_order == 512
    start = time.perf_counter()
    report = is_connective(group)
    elapsed = time.perf_counter() - start
    assert report.connective and len(report.chain) == 10
    assert elapsed < 2.0
