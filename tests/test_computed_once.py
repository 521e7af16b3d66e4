"""H1, the torsion witness and the subgroup lattice are computed once per
group object and shared by every caller."""

import gc
import sys
import threading
import weakref
from collections import defaultdict

import pytest

import bieberbach.crystal as crystal
import bieberbach.finite as finite
import bieberbach.invariants as invariants
from bieberbach.catalog import catalog_get
from bieberbach.cli import AnalysisReport
from bieberbach.crystal import AffineGen, build_group, torsion_witness
from bieberbach.finite import all_subgroups, finite_group_from_holonomy


def fresh_catalog_group(key):
    """A new group object for a catalog entry; catalog groups are shared
    and may already hold computed values."""
    g = catalog_get(key).group
    return build_group(g.dim, g.generators, name=g.name)


def cube_rotations():
    """Signed-permutation holonomy of order 24 (rotations of the cube)."""
    quarter = AffineGen.of([[0, -1, 0], [1, 0, 0], [0, 0, 1]], (0, 0, 0))
    cycle = AffineGen.of([[0, 0, 1], [1, 0, 0], [0, 1, 0]], (0, 0, 0))
    return build_group(3, [quarter, cycle], name="cube_rotations")


class CallCounter:
    """Counts calls per first argument, keeping each argument alive so
    that no two of them can share an id."""

    def __init__(self):
        self.counts = defaultdict(int)
        self.seen = []

    def hit(self, obj):
        self.counts[id(obj)] += 1
        self.seen.append(obj)


@pytest.mark.parametrize(
    "make_group",
    [
        lambda: fresh_catalog_group("hw"),
        lambda: fresh_catalog_group("dim3_c6"),
        cube_rotations,
    ],
    ids=["hw", "dim3_c6", "order24_signed_permutations"],
)
def test_analysis_computes_each_invariant_once(monkeypatch, make_group):
    relations = CallCounter()
    lattices = CallCounter()
    real_relation_matrix = invariants.relation_matrix
    real_closure = finite._closure

    def counting_relation_matrix(group, *args, **kwargs):
        relations.hit(group)
        return real_relation_matrix(group, *args, **kwargs)

    def counting_closure(group, seed):
        # every subgroup enumeration starts from the trivial subgroup
        if set(seed) == {0}:
            lattices.hit(group)
        return real_closure(group, seed)

    monkeypatch.setattr(invariants, "relation_matrix", counting_relation_matrix)
    monkeypatch.setattr(finite, "_closure", counting_closure)

    group = make_group()
    report = AnalysisReport.compute(group)
    report.to_text()
    report.to_document()

    assert relations.counts[id(group)] == 1
    assert all(n == 1 for n in relations.counts.values()), dict(relations.counts)
    holonomy = [g for g in lattices.seen if g.order == group.holonomy_order]
    assert len(holonomy) == 1
    assert all(n == 1 for n in lattices.counts.values()), dict(lattices.counts)


def test_torsion_free_verdict_is_computed_once(monkeypatch):
    calls = []
    real_solve = crystal.solve_integer_linear

    def counting_solve(*args):
        calls.append(args)
        return real_solve(*args)

    monkeypatch.setattr(crystal, "solve_integer_linear", counting_solve)
    group = fresh_catalog_group("hw")
    assert torsion_witness(group) is None
    assert calls
    first = len(calls)
    assert torsion_witness(group) is None  # a stored None counts as computed
    assert len(calls) == first


def test_torsion_witness_is_shared():
    flip = AffineGen.of([[1, 0], [0, -1]], (0, 0))
    group = build_group(2, [flip])
    witness = torsion_witness(group)
    assert witness is not None and witness.order == 2
    assert torsion_witness(group) is witness


def test_subgroup_lattice_is_an_immutable_shared_tuple():
    g = finite_group_from_holonomy(cube_rotations())
    lattice = all_subgroups(g)
    assert isinstance(lattice, tuple)
    assert all_subgroups(g) is lattice


def test_computed_values_die_with_the_group():
    group = fresh_catalog_group("klein_bottle")
    invariants.abelianization(group)
    torsion_witness(group)
    holonomy = finite_group_from_holonomy(group)
    all_subgroups(holonomy)
    refs = [weakref.ref(group), weakref.ref(holonomy)]
    del group, holonomy
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_racing_first_calls_share_one_value():
    group = fresh_catalog_group("hw")
    workers = 8
    start = threading.Barrier(workers)
    results = []

    def work():
        start.wait()
        results.append(invariants.abelianization(group))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == workers
    assert all(r is invariants.abelianization(group) for r in results)
