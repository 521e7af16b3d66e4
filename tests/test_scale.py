"""Invariants at scale: real Bott groups of holonomy order 512 to 8192,
and Hantzsche-Wendt x Bott(n), of order 2048 and 8192.

A real Bott group (Kamishima-Masuda, "Cohomological rigidity of real
Bott manifolds", AGT 2009) is built in closed form from an n x n
strictly upper-triangular binary matrix A with A[i][i+1] = 1: generator
s_i adds 1/2 to x_i and negates each x_j with j > i and A[i][j] = 1.
The last coordinate is scaled by 2, so s_n is the unit translation.  The
holonomy is (Z/2)^(n-1) and faithful, the group is an iterated circle
bundle, so it is torsion free, and every s_j with j > 1 is inverted by
s_(j-1): H1 = Z + (Z/2)^(n-1).

The block-diagonal product of the Hantzsche-Wendt group with a real Bott
group is torsion free and has the Bott group's centre, so the Calabi
chain peels the n Bott coordinates and stalls at the Hantzsche-Wendt
core, whose H1 is finite: it is not connective.
"""

import functools
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from bieberbach.calabi import is_connective
from bieberbach.catalog import catalog_get
from bieberbach.cli import AnalysisReport
from bieberbach.crystal import AffineGen, build_group, torsion_witness
from bieberbach.invariants import abelianization, relation_matrix
from oracles import translation_of


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


def block_diagonal(g, before, after):
    """The affine element g acting on the coordinates after the first
    `before`, with `after` more coordinates fixed."""
    k = g.matrix.rows
    dim = before + k + after
    rows = [[int(r == c) for c in range(dim)] for r in range(dim)]
    for r, row in enumerate(g.matrix.entries):
        rows[before + r][before : before + k] = row
    return AffineGen.of(rows, (0,) * before + translation_of(g) + (0,) * after)


def hw_times_bott(n, seed=7):
    """The catalog's Hantzsche-Wendt group times `real_bott_group(n)`,
    on the first 3 and the last n coordinates."""
    hw, bott = catalog_get("hw").group, real_bott_group(n, seed)
    gens = [block_diagonal(g, 0, n) for g in hw.generators]
    gens += [block_diagonal(g, 3, 0) for g in bott.generators]
    return build_group(3 + n, gens, name=f"hw_x_real_bott_{n}")


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


def test_the_order_2048_real_bott_group_is_connective_with_chain_length_12():
    """Each kernel is handed the corrected lifts of a greedy generating
    set of its holonomy, at most log2 |H| of them.  With one generator
    per kernel element every stage closed an n x (n - 1) Cayley graph, and
    this took 7.95 s (2 CPUs, CPython 3.11); it takes about 0.3 s."""
    group = real_bott_group(12)
    assert group.holonomy_order == 2048
    start = time.perf_counter()
    report = is_connective(group)
    elapsed = time.perf_counter() - start
    assert report.connective and len(report.chain) == 12
    assert elapsed < 2.0


def test_hw_times_bott_10_stalls_at_the_hantzsche_wendt_core():
    """Not connective after 10 peels, at a dim-3 core with finite H1.
    With one kernel generator per kernel element this took 8.48 s (2 CPUs,
    CPython 3.11); it takes about 0.4 s."""
    group = hw_times_bott(10)
    assert group.holonomy_order == 2048
    start = time.perf_counter()
    report = is_connective(group)
    elapsed = time.perf_counter() - start
    assert not report.connective and len(report.chain) == 10
    assert report.core.dim == 3 and abelianization(report.core).rank == 0
    assert elapsed < 2.0


@pytest.mark.parametrize("make_group", [lambda: real_bott_group(12), lambda: hw_times_bott(10)],
                         ids=["real_bott_12", "hw_x_real_bott_10"])
def test_analysis_at_order_2048(make_group):
    """The whole `analyze` report: 7.3 s and 9.8 s (2 CPUs, CPython 3.11)
    with one kernel generator per kernel element, about 0.5 s each now."""
    group = make_group()
    assert group.holonomy_order == 2048
    start = time.perf_counter()
    report = AnalysisReport.compute(group)
    report.to_document()
    elapsed = time.perf_counter() - start
    assert report.torsion_free and report.connectivity.connective == (group.dim == 12)
    assert elapsed < 2.0


@functools.cache
def order_8192_group(family):
    """Each order-8192 group is built once per module (`hw_times_bott(12)`
    alone takes about 0.7 s); a test reads a fresh copy, `replace(...)`,
    which shares the elements but nothing computed on them."""
    return real_bott_group(14) if family == "real_bott_14" else hw_times_bott(12)


@pytest.mark.parametrize("family", ["real_bott_14", "hw_x_real_bott_12"])
def test_analysis_at_order_8192(family):
    """The whole `analyze` report reads torsion off the Calabi chain.
    With its own torsion test of the input first, and the chain testing
    the input again at a stall, it took 1.60-1.64 s (real_bott_14) and
    1.58-1.60 s (hw_x_real_bott_12) on 2 CPUs, CPython 3.11; testing the
    core alone, 1.09-1.22 s and 1.02-1.10 s."""
    group = replace(order_8192_group(family))
    assert group.holonomy_order == 8192
    start = time.perf_counter()
    report = AnalysisReport.compute(group)
    report.to_document()
    elapsed = time.perf_counter() - start
    assert report.torsion_free and report.connectivity.connective == (group.dim == 14)
    assert elapsed < 2.0


def test_hw_times_bott_12_stalls_at_the_hantzsche_wendt_core():
    """Not connective after 12 peels.  Testing the order-8192 input for
    torsion at the stall took the chain to 1.07-1.09 s (2 CPUs, CPython
    3.11); testing the order-4 core, 0.52-0.54 s."""
    group = replace(order_8192_group("hw_x_real_bott_12"))
    start = time.perf_counter()
    report = is_connective(group)
    elapsed = time.perf_counter() - start
    assert not report.connective and len(report.chain) == 12
    assert report.core.dim == 3 and report.core.holonomy_order == 4
    assert elapsed < 2.0


def test_the_order_46080_signed_permutations_close_without_translation_work():
    """With every translation integral the closure computes no shift and
    no cocycle: B6 closed in 1.31-1.37 s when every edge reduced its
    translation sum, and closes in 0.45-0.47 s without (fresh processes,
    interleaved, 2 CPUs, CPython 3.11, on a busy shared host)."""
    unit = [[int(r == c) for c in range(6)] for r in range(6)]
    cycle, swap = unit[-1:] + unit[:-1], [unit[1], unit[0], *unit[2:]]
    flip = [[-1, *unit[0][1:]], *unit[1:]]
    gens = [AffineGen.of(m, (0,) * 6) for m in (cycle, swap, flip)]
    start = time.perf_counter()
    group = build_group(6, gens, closure_budget=50_000)
    elapsed = time.perf_counter() - start
    assert group.holonomy_order == 46_080
    assert {c for row in group.edge_cocycle for c in row} == {(0,) * 6}
    assert elapsed < 2.0
