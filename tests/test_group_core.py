"""The orbit-row closure against the matrix-product closure it replaced,
and the commands that never build the n x n table.

`matrix_build_group` is the earlier `build_group`, kept as an oracle:
it multiplies full matrices on every Cayley-graph edge, and reads the
n x n multiplication table, the inverses and the element orders off
that table eagerly.  The library holds each matrix as its rows' indices
in the orbit of the unit rows and keeps only the Cayley graph; the test
oracle reads the table off it (`oracles.mult_table`).  Both close
breadth first in the same order, so every field must agree index for
index, and both must reject the same inputs with the same error and
message.
"""

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

import pytest

from bieberbach.catalog import catalog_get, catalog_list
from bieberbach.cli import main
from bieberbach.crystal import (
    AffineGen,
    ClosureBudgetExceeded,
    CrystalError,
    HolonomyNotFaithful,
    build_group,
)
from bieberbach.finite import FiniteGroup, finite_group_from_holonomy
from bieberbach.groupfile import document_to_group, group_to_document
from bieberbach.linalg import IntMatrix
from oracles import corpus_items, inverses, mult_table, translation_of
from test_build_oracle import diagonal_z2_7, random_rotation_generator, s5_group
from test_crystal import oracle_corpus, rank_duality_draws


F = Fraction


@dataclass(frozen=True)
class MatrixGroup:
    matrices: tuple[IntMatrix, ...]
    shifts: tuple[tuple[int, ...], ...]
    denominator: int
    mult: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    orders: tuple[int, ...]
    edge_cocycle: tuple[tuple[tuple[int, ...], ...], ...]
    generator_images: tuple[int, ...]


def matrix_build_group(dim, gens, closure_budget=10_000) -> MatrixGroup:
    """The earlier `build_group`: row tuples times each generator's
    columns on every edge, and the table, inverses and orders eagerly."""
    gens = tuple(gens)
    for g in gens:
        if not isinstance(g, AffineGen):
            raise TypeError("generators must be AffineGen")
        if g.matrix.rows != dim:
            raise ValueError(f"generator of dim {g.matrix.rows} in a dim-{dim} group")

    q = lcm(*(x.denominator for g in gens for x in translation_of(g)))
    gen_pairs = [  # each generator's columns, and its translation times q
        (
            tuple(zip(*g.matrix.entries)),
            tuple(x.numerator * (q // x.denominator) % q for x in translation_of(g)),
        )
        for g in gens
    ]

    matrices = [IntMatrix.identity(dim)]
    shifts = [(0,) * dim]
    index_of = {matrices[0].entries: 0}  # keyed on the rows
    parent = [(0, -1)]  # (element, generator) that first reached it
    right = []  # right[i][g]: element i times generator g
    defects = []  # defects[i][g]: the cocycle of that edge
    for i, (m, t) in enumerate(zip(matrices, shifts)):  # both lists grow as we go
        a = m.entries
        row, defect_row = [], []
        for pos, (b_cols, u) in enumerate(gen_pairs):
            mat = tuple(tuple(sum(map(mul, r, col)) for col in b_cols) for r in a)
            total = [sum(map(mul, r, u)) + x for r, x in zip(a, t)]
            shift = tuple(x % q for x in total)
            idx = index_of.get(mat)
            if idx is None:
                idx = index_of[mat] = len(matrices)
                matrices.append(IntMatrix(mat, cols=dim))
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
            defect_row.append(tuple(x // q for x in total))
        right.append(row)
        defects.append(defect_row)

    n = len(matrices)
    mult_rows = []
    for i in range(n):
        # element j is parent(j) * g, so i * j = (i * parent(j)) * g
        row = [i]
        for p, pos in parent[1:]:
            row.append(right[row[p]][pos])
        mult_rows.append(tuple(row))
    mult = tuple(mult_rows)
    # the first input generator with each holonomy generator's matrix
    positions = [right[0].index(g) for g in dict.fromkeys(right[0]) if g != 0]

    inverse = tuple(row.index(0) for row in mult)
    orders = [0] * n
    for i in range(n):
        power, order = i, 1
        while power != 0:
            power = mult[power][i]
            order += 1
        orders[i] = order

    return MatrixGroup(
        matrices=tuple(matrices),
        shifts=tuple(shifts),
        denominator=q,
        mult=mult,
        inverse=inverse,
        orders=tuple(orders),
        edge_cocycle=tuple(tuple(row[pos] for pos in positions) for row in defects),
        generator_images=tuple(right[0]),
    )


def assert_same_fields(old: MatrixGroup, new):
    assert tuple(e.matrix for e in new.elements) == old.matrices
    assert tuple(e.shift for e in new.elements) == old.shifts
    assert new.denominator == old.denominator
    index = {e.matrix: i for i, e in enumerate(new.elements)}
    assert tuple(index[g.matrix] for g in new.generators) == old.generator_images
    gens = new.holonomy_generator_indices()
    assert gens == tuple(x for x in dict.fromkeys(old.generator_images) if x)
    assert new.edges == tuple(tuple(row[g] for g in gens) for row in old.mult)
    assert new.edge_cocycle == old.edge_cocycle
    assert new.holonomy.orders == old.orders
    assert mult_table(new.holonomy) == old.mult
    assert inverses(new.holonomy) == old.inverse


def assert_builds_alike(dim, gens, closure_budget=10_000, name=""):
    """Both builds give the same fields, or raise the same error.
    Returns the group, or None when rejected."""
    try:
        old = matrix_build_group(dim, gens, closure_budget=closure_budget)
    except CrystalError as exc:
        with pytest.raises(type(exc)) as caught:
            build_group(dim, gens, name=name, closure_budget=closure_budget)
        assert type(caught.value) is type(exc) and str(caught.value) == str(exc)
        return None
    new = build_group(dim, gens, name=name, closure_budget=closure_budget)
    assert_same_fields(old, new)
    return new


def rebuilt(group, closure_budget=10_000):
    return assert_builds_alike(group.dim, group.generators, closure_budget, group.name)


# ---------------------------------------------------------------- same fields

@pytest.mark.parametrize("key", catalog_list())
def test_catalog_matches_the_matrix_build(key):
    assert rebuilt(catalog_get(key).group) is not None


@pytest.mark.parametrize("workload", ["analyze", "connective", "lattice"])
def test_seed1_corpus_matches_the_matrix_build(workload):
    for item in corpus_items(workload):
        assert rebuilt(document_to_group(item.doc)) is not None, item.name


def test_rank_duality_and_torsion_families_match_the_matrix_build():
    for group in rank_duality_draws():
        assert rebuilt(group, closure_budget=48) is not None
    for groups, _ in oracle_corpus().values():
        for group in groups:
            assert rebuilt(group) is not None, group.name


@pytest.mark.parametrize("make_group", [s5_group, diagonal_z2_7], ids=["s5", "diag7"])
def test_large_groups_match_the_matrix_build(make_group):
    assert rebuilt(make_group()) is not None


@pytest.mark.parametrize(
    "dim, rows, shift",
    [
        (1, [[-1]], (F(1, 10**12),)),
        (2, [[-1, 0], [0, 1]], (F(3, 10**12 + 1), F(1, 2))),
        (2, [[0, 1], [1, 0]], (F(1, 7 * 10**15), F(-1, 7 * 10**15))),
    ],
)
def test_huge_denominators_match_the_matrix_build(dim, rows, shift):
    assert assert_builds_alike(dim, [AffineGen.of(rows, shift)], closure_budget=8) is not None


HEX_ROTATION = [[1, -1], [1, 0]]  # order 6
HEX_REFLECTION = [[0, 1], [1, 0]]


@pytest.mark.parametrize(
    "dim, gens",
    [
        (2, [AffineGen.of(HEX_ROTATION, (0, 0)), AffineGen.of(HEX_REFLECTION, (0, 0))]),
        (
            3,
            [
                AffineGen.of([[1, -1, 0], [1, 0, 0], [0, 0, 1]], (0, 0, F(1, 6))),
                AffineGen.of([[0, 1, 0], [1, 0, 0], [0, 0, -1]], (0, 0, 0)),
            ],
        ),
    ],
    ids=["point_group", "sixfold_screw"],
)
def test_hexagonal_holonomy_matches_the_matrix_build(dim, gens):
    """The order-12 hexagonal holonomy is not orthogonal: its matrices
    have more distinct rows than the 2k signed unit rows."""
    group = assert_builds_alike(dim, gens)
    assert group is not None and group.holonomy_order == 12
    rows = {row for e in group.elements for row in e.matrix.entries}
    assert len(rows) > 2 * dim


# ---------------------------------------------------------------- same errors

def test_shear_exceeds_the_budget_like_the_matrix_build():
    shear = AffineGen.of([[1, 1], [0, 1]], (0, 0))
    assert assert_builds_alike(2, [shear], closure_budget=50) is None
    with pytest.raises(ClosureBudgetExceeded):
        build_group(2, [shear], closure_budget=50)


def test_unfaithful_inputs_raise_like_the_matrix_build():
    half = AffineGen.of([[1, 0], [0, 1]], (F(1, 2), 0))
    third_screw = AffineGen.of([[-1, 0], [0, 1]], (0, F(1, 3)))
    flip = AffineGen.of([[0, 1], [1, 0]], (0, 0))
    for gens in ([half], [third_screw], [flip, half]):
        assert assert_builds_alike(2, gens) is None
        with pytest.raises(HolonomyNotFaithful):
            build_group(2, gens)


@pytest.mark.parametrize("q", [3, 4, 6])
def test_random_rotations_build_or_fail_like_the_matrix_build(q):
    """The draws of tests/test_build_oracle.py (same seed), of which some
    are not faithful and some run out of budget."""
    rng = random.Random(q)
    outcomes = set()
    for _ in range(60):
        dim = rng.randint(2, 4)
        gens = [random_rotation_generator(rng, dim, q) for _ in range(rng.randint(1, 2))]
        try:
            matrix_build_group(dim, gens, closure_budget=24)
        except CrystalError as exc:
            outcomes.add(type(exc))
        else:
            outcomes.add(None)
        assert_builds_alike(dim, gens, closure_budget=24)
    assert None in outcomes and HolonomyNotFaithful in outcomes


# ---------------------------------------------------------------- repeated and identity generators

def moved(g, vector):
    """g with `vector` added to its translation."""
    return AffineGen(g.matrix, tuple(x + v for x, v in zip(translation_of(g), vector)))


def test_a_repeat_moved_by_a_lattice_vector_builds_like_the_matrix_build():
    x, y = catalog_get("hw").group.generators
    for gens in ([x, y, moved(x, (1, -2, 3))], [x, moved(y, (0, 0, -1)), y]):
        group = assert_builds_alike(3, gens)
        assert group is not None and group.holonomy_order == 4
        assert len(group.holonomy_generator_indices()) == 2


def test_a_repeat_moved_by_a_half_is_not_faithful_like_the_matrix_build():
    x, y = catalog_get("hw").group.generators
    gens = [x, y, moved(x, (F(1, 2), 0, 0))]
    assert assert_builds_alike(3, gens) is None
    with pytest.raises(HolonomyNotFaithful) as caught:
        build_group(3, gens)
    assert str(caught.value) == (
        "element 1 and element 0 times generator 2 share a holonomy matrix; "
        "the lattice is not maximal abelian"
    )


def lattice_translation(vector):
    k = len(vector)
    return AffineGen.of([[int(r == c) for c in range(k)] for r in range(k)], vector)


def integral_b3():
    """The dim-3 signed permutations (order 48), on generators with
    nonzero integral translations, so q = 1."""
    return [
        AffineGen.of([[0, 0, 1], [1, 0, 0], [0, 1, 0]], (1, -2, 0)),
        AffineGen.of([[-1, 0, 0], [0, 1, 0], [0, 0, 1]], (3, 0, 7)),
        AffineGen.of([[0, 1, 0], [1, 0, 0], [0, 0, 1]], (0, 0, -1)),
    ]


@pytest.mark.parametrize("q", [1, 2])
def test_identity_matrix_generators_build_like_the_matrix_build(q):
    """Lattice translations before, between and after the other
    generators of `integral_b3` (q = 1) or of the Hantzsche-Wendt group
    (q = 2) change nothing."""
    others = integral_b3() if q == 1 else list(catalog_get("hw").group.generators)
    e1, e2, e3 = (lattice_translation(v) for v in [(1, 0, 0), (0, -2, 5), (0, 0, 0)])
    plain = build_group(3, others)
    a, b = others[0], others[1:]
    for gens in ([e1, *others], [a, e2, *b], [*others, e3], [e1, a, e2, *b, e3]):
        group = assert_builds_alike(3, gens)
        assert group is not None and group.denominator == q
        assert group.elements == plain.elements and group.edges == plain.edges


def test_integral_translations_give_zero_shifts_and_cocycles_like_the_matrix_build():
    group = assert_builds_alike(3, integral_b3())
    assert group is not None and group.holonomy_order == 48 and group.denominator == 1
    assert all(e.shift == (0, 0, 0) for e in group.elements)
    assert {c for row in group.edge_cocycle for c in row} == {(0, 0, 0)}


# ---------------------------------------------------------------- no n x n table

def signed_permutations_4():
    """The dim-4 signed permutations (holonomy order 384)."""
    cycle = [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    swap = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    flip = [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    return build_group(4, [AffineGen.of(m, (0,) * 4) for m in (cycle, swap, flip)], name="b4")


def record_finite_groups(monkeypatch) -> list:
    """Records each `FiniteGroup` made from here on."""
    made = []
    init = FiniteGroup.__init__

    def recording_init(group, *args, **kwargs):
        init(group, *args, **kwargs)
        made.append(group)

    monkeypatch.setattr(FiniteGroup, "__init__", recording_init)
    return made


def tables_held(groups) -> list:
    """The n x n tables, n rows of n entries, among the values each group
    of order n >= 2 stores or has cached.  Its Cayley graph has fewer
    than n generators, so `edges` is no such table."""
    return [
        value
        for group in groups
        if group.order > 1
        for value in vars(group).values()
        if isinstance(value, tuple)
        and len(value) == group.order
        and all(isinstance(row, tuple) and len(row) == group.order for row in value)
    ]


def table_free_inputs():
    """(group document, character) for the catalog, the seed-1 corpora
    and the order-384 signed permutations."""
    inputs = [
        (group_to_document(catalog_get(key).group), None) for key in catalog_list()
    ]
    for workload in ("analyze", "connective", "lattice"):
        inputs.extend((item.doc, item.expect.get("char")) for item in corpus_items(workload))
    inputs.append((group_to_document(signed_permutations_4()), None))
    return inputs


def test_group_commands_build_no_multiplication_table(monkeypatch, tmp_path, capsys):
    """Every command, the finite layer's `validate`, `analyze`,
    `decompose` and `holonomy --primitivity --coprime-class` included,
    reads the Cayley graph, its spanning tree, the orders walked along it
    and G/G' off one Smith form; none leaves an n x n table on a group."""
    made, recorded = record_finite_groups(monkeypatch), 0
    inputs = table_free_inputs()
    for pos, (doc, char) in enumerate(inputs):
        path = tmp_path / f"{pos}.json"
        path.write_text(json.dumps(doc))
        char = char or ",".join(["1/2"] + ["0"] * (doc["dimension"] - 1))
        for argv in (
            ["h1"],
            ["center"],
            ["fixed-torus"],
            ["orbits", "--char", char],
            ["connective"],
            ["connective", "--certificate"],
            ["validate"],
            ["analyze"],
            ["decompose"],
            ["holonomy", "--primitivity", "--coprime-class"],
        ):
            for fmt in ("text", "json"):
                code = main([argv[0], str(path), *argv[1:], "--format", fmt])
                assert code in (0, 2), (doc["name"], argv, fmt)
                assert not tables_held(made), (doc["name"], argv, fmt)
                recorded += len(made)
                made.clear()
    capsys.readouterr()
    assert len(inputs) > 300 and recorded > len(inputs)


def test_tables_are_built_once_on_demand():
    """The library keeps no n x n table; the test oracle builds one on
    demand, once per group object, and stores it on the group, where
    `tables_held` finds it."""
    group = signed_permutations_4()
    finite = finite_group_from_holonomy(group)
    assert finite is group.holonomy and finite.edges is group.edges
    assert finite.orders.count(1) == 1 and not tables_held([finite])
    table = mult_table(finite)
    assert tables_held([finite]) == [table]
    n, inverse = group.holonomy_order, inverses(finite)
    for s, t in itertools.product(range(0, n, 7), range(0, n, 11)):
        assert mult_table(finite)[s][t] == finite.times(s, t)
        assert table[s][inverse[s]] == 0
    assert mult_table(finite) is table
