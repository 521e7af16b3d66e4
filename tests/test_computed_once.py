"""H1, the dual-action Smith form, the torsion witness and the subgroup
lattice are computed once per group object and shared by every caller;
the connectivity commands never build H1's relation matrix."""

import gc
import io
import json
import sys
import threading
import weakref
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout

import pytest

import bieberbach.crystal as crystal
import bieberbach.finite as finite
import bieberbach.invariants as invariants
import bieberbach.linalg as linalg
from bieberbach.catalog import catalog_get
from bieberbach.catalog import catalog_list
from bieberbach.cli import AnalysisReport, main
from bieberbach.crystal import AffineGen, build_group, torsion_witness
from bieberbach.finite import all_subgroups, finite_group_from_holonomy
from bieberbach.groupfile import group_to_document
from bieberbach.linalg import IntMatrix
from oracles import corpus_items, semidirect_cyclic
from test_calabi import seeded_chain_groups
from test_corpus_outputs import DIGESTS, argv_for
from test_linalg import assert_smith_forms_agree


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


def count_lattice_enumerations(monkeypatch) -> CallCounter:
    """Counts real subgroup-lattice enumerations, not reads of a lattice
    already computed for the same group object."""
    lattices = CallCounter()
    enumerate_lattice = finite.all_subgroups.__wrapped__

    def counting_enumeration(group):
        lattices.hit(group)
        return enumerate_lattice(group)

    monkeypatch.setattr(finite, "all_subgroups", crystal.computed_once(counting_enumeration))
    return lattices


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
    """H1's relation matrix is built once per group, and none of these
    holonomies needs the subgroup lattice at all: Z/6 is cyclic, and
    Z/2 + Z/2 and the order-24 rotations have a non-cyclic Sylow
    2-subgroup."""
    relations = CallCounter()
    lattices = count_lattice_enumerations(monkeypatch)
    real_relation_matrix = invariants.relation_matrix

    def counting_relation_matrix(group, *args, **kwargs):
        relations.hit(group)
        return real_relation_matrix(group, *args, **kwargs)

    monkeypatch.setattr(invariants, "relation_matrix", counting_relation_matrix)

    group = make_group()
    report = AnalysisReport.compute(group)
    report.to_text()
    report.to_document()

    assert relations.counts[id(group)] == 1
    assert all(n == 1 for n in relations.counts.values()), dict(relations.counts)
    assert not lattices.seen


def test_coprime_class_enumerates_no_lattice(monkeypatch):
    """A holonomy that is not cyclic but has only cyclic Sylow subgroups
    (S3) reads its tree off element orders, without the lattice."""
    lattices = count_lattice_enumerations(monkeypatch)
    s3 = semidirect_cyclic(3, 2, 2)
    assert finite.in_coprime_class(s3) == (3, 2)
    assert not lattices.seen


def test_connectivity_commands_build_no_relation_matrix(monkeypatch, tmp_path, capsys):
    """`connective --certificate` and `decompose` in JSON read each stage's
    surjection off the fixed dual lattice and never build the text form,
    so no first homology is computed anywhere along the chain."""
    relations = CallCounter()
    real_relation_matrix = invariants.relation_matrix

    def counting_relation_matrix(group, *args, **kwargs):
        relations.hit(group)
        return real_relation_matrix(group, *args, **kwargs)

    monkeypatch.setattr(invariants, "relation_matrix", counting_relation_matrix)
    groups = [fresh_catalog_group(key) for key in catalog_list()] + seeded_chain_groups()
    for pos, group in enumerate(groups):
        path = tmp_path / f"{pos}.json"
        path.write_text(json.dumps(group_to_document(group)))
        for argv in (["connective", "--certificate"], ["decompose"]):
            assert main([argv[0], str(path), *argv[1:], "--format", "json"]) == 0
    capsys.readouterr()
    assert not relations.seen



def count_calls_everywhere(monkeypatch, func) -> list[tuple]:
    """Replace `func` in every `bieberbach` module that holds it by a
    wrapper that records the arguments of each call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "bieberbach" or name.startswith("bieberbach."):
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def test_the_calabi_peel_runs_no_hermite_form_and_no_one_row_smith_form(
    monkeypatch, tmp_path, capsys
):
    """Each peel's basis and its inverse come from one elimination on the
    row f (`row_smith_basis`): over the seed-1 `connective` corpus, no
    Smith form is taken of a one-row matrix.  No Hermite form can run: the
    library holds none (`test_surface.py`)."""
    smith = count_calls_everywhere(monkeypatch, linalg.smith_columns)
    for pos, doc in enumerate(item.doc for item in corpus_items("connective")):
        path = tmp_path / f"{pos}.json"
        path.write_text(json.dumps(doc))
        assert main(["connective", str(path), "--certificate", "--format", "json"]) == 0
    capsys.readouterr()
    assert smith  # each stage's surjection takes one Smith form
    assert all(m.rows != 1 for m, *_ in smith)

@pytest.fixture(scope="module")
def seed1_smith_calls(tmp_path_factory):
    """The arguments of every call to each Smith entry point while the
    benchmark's seed-1 `analyze` (the catalog included), `connective` and
    `lattice` ops run through `cli.main`."""
    tmp = tmp_path_factory.mktemp("seed1")
    runs = [
        (command, item, item.doc)
        for command, (workload, _) in DIGESTS.items()
        for item in corpus_items(workload)
    ]
    catalog = [group_to_document(fresh_catalog_group(key)) for key in catalog_list()]
    runs += [("analyze --format json", None, doc) for doc in catalog]
    funcs = (linalg.smith_normal_form, linalg.smith_columns, linalg.smith_divisors)
    with pytest.MonkeyPatch.context() as mp:
        calls = {func.__name__: count_calls_everywhere(mp, func) for func in funcs}
        for pos, (command, item, doc) in enumerate(runs):
            path = tmp / f"{pos}.json"
            path.write_text(json.dumps(doc))
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                main(argv_for(command, item, path))
    return calls


def test_no_cli_command_builds_a_row_transform(seed1_smith_calls):
    """H1 and G/G' take divisors only, kernels and the fixed dual lattice
    take V only: no benchmark op builds the row transform U.  The Smith
    solve, which builds U, is a test oracle outside the library
    (`test_surface.py`)."""
    assert not seed1_smith_calls["smith_normal_form"]
    assert seed1_smith_calls["smith_columns"] and seed1_smith_calls["smith_divisors"]


def test_seed1_smith_inputs_match_the_full_form(seed1_smith_calls):
    calls = seed1_smith_calls["smith_columns"] + seed1_smith_calls["smith_divisors"]
    for m in {m for m, in calls}:
        assert_smith_forms_agree(m)


def dual_action_matrix(group):
    """The stacked A(g)^T - I over the holonomy generators."""
    k = group.dim
    mats = [
        group.elements[g].matrix.transpose() - IntMatrix.identity(k)
        for g in group.holonomy_generator_indices()
    ]
    return IntMatrix.vstack(mats) if mats else IntMatrix.zeros(0, k)


@pytest.mark.parametrize("key", catalog_list())
def test_analysis_computes_the_dual_action_smith_form_once_per_group(monkeypatch, key):
    """`fixed_torus` and every stage's surjection share one Smith form of
    the stacked A(g)^T - I per group object: one for the input and one
    for each later stage with holonomy, and none for a lattice stage,
    whose peels are written in closed form."""
    calls = []
    real_smith = invariants.smith_columns

    def counting_smith(matrix):
        calls.append(matrix)
        return real_smith(matrix)

    monkeypatch.setattr(invariants, "smith_columns", counting_smith)
    group = fresh_catalog_group(key)
    report = AnalysisReport.compute(group)
    report.to_document()
    # the input's Smith form serves `fixed_torus`; below it, only the
    # stages with holonomy, down to the core, ask for a surjection
    chain = [] if report.connectivity is None else report.connectivity.chain
    stages = [group] + [s.kernel_group for s in chain if s.kernel_group.holonomy_order > 1]
    assert Counter(calls) == Counter(dual_action_matrix(stage) for stage in stages)


def test_torsion_free_verdict_is_computed_once(monkeypatch):
    calls = []
    real_solve = crystal.norm_solution

    def counting_solve(*args):
        calls.append(args)
        return real_solve(*args)

    monkeypatch.setattr(crystal, "norm_solution", counting_solve)
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
