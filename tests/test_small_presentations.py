"""H1 on the spanning-tree presentation, primitivity from Tate's
criterion and the cocycle kept on the Cayley-graph edges, against the
whole-group computations they replaced: the Cayley-graph relations on
k + n variables, Sylow subgroups and normal complements looked up in the
subgroup lattice, and the cocycle on every pair of elements.  The
corpora are the catalog, the rank-duality draws, the seed-1 and seed-2
perfbench `analyze` and `connective` corpora, and small finite groups."""

from functools import cache

from bieberbach.catalog import catalog_get, catalog_list
from bieberbach.finite import (
    cyclic_group,
    direct_product,
    finite_group_from_holonomy,
    in_coprime_class,
    is_primitive,
    semidirect_cyclic,
    subgroup_as_group,
    sylow_subgroup,
)
from bieberbach.groupfile import document_to_group
from bieberbach.invariants import abelianization, relation_matrix
from bieberbach.linalg import smith_normal_form
from test_build_oracle import assert_edge_cocycle_is_full
from test_calabi import perfbench_corpus
from test_crystal import rank_duality_draws
from test_finite import (
    coprime_class_corpus,
    lattice_in_coprime_class,
    lattice_is_primitive,
    prime_factors,
    split_corpus,
)
from test_invariants import assert_presentation_kills, cayley_graph_relation_matrix


@cache
def crystal_corpus():
    groups = [catalog_get(key).group for key in catalog_list()] + rank_duality_draws()
    for workload in ("analyze", "connective"):
        for seed in (1, 2):
            groups += [document_to_group(doc) for doc in perfbench_corpus(workload, seed)]
    return tuple(groups)


def small_finite_groups():
    """Cyclic, dihedral, Frobenius and direct-product groups, and the
    corpora of `tests/test_finite.py`."""
    s3 = semidirect_cyclic(3, 2, 2)
    groups = coprime_class_corpus() + split_corpus()
    groups += [cyclic_group(n) for n in (1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 30)]
    groups += [semidirect_cyclic(n, 2, n - 1) for n in (3, 4, 5, 6, 8, 12)]
    groups += [
        semidirect_cyclic(p, m, unit)
        for p, m, unit in ((5, 4, 2), (7, 3, 2), (7, 6, 3), (11, 5, 3), (13, 4, 5))
    ]
    groups += [
        direct_product(s3, cyclic_group(2)),
        direct_product(s3, cyclic_group(3)),
        direct_product(s3, cyclic_group(5)),
        direct_product(s3, s3),
        direct_product(semidirect_cyclic(4, 2, 3), cyclic_group(2)),
        direct_product(semidirect_cyclic(5, 2, 4), cyclic_group(3)),
        direct_product(semidirect_cyclic(3, 4, 2), cyclic_group(2)),
        direct_product(semidirect_cyclic(5, 4, 2), cyclic_group(2)),
        direct_product(direct_product(cyclic_group(2), cyclic_group(2)), cyclic_group(2)),
        direct_product(cyclic_group(4), cyclic_group(2)),
        direct_product(cyclic_group(3), cyclic_group(3)),
        direct_product(direct_product(cyclic_group(2), cyclic_group(2)), cyclic_group(3)),
    ]
    return groups


def test_edge_cocycle_is_the_full_cocycle_at_the_generators():
    for g in crystal_corpus():
        assert_edge_cocycle_is_full(g)


def test_h1_matches_the_cayley_graph_presentation():
    groups = crystal_corpus()
    assert len(groups) >= 11 + 100 + 350
    for g in groups:
        ab = abelianization(g)
        cayley = cayley_graph_relation_matrix(g)
        divisors = smith_normal_form(cayley).divisors
        rank = cayley.rows - sum(1 for d in divisors if d != 0)
        assert (ab.rank, ab.torsion) == (rank, tuple(d for d in divisors if d >= 2)), g.name
        assert_presentation_kills(g, cayley)
        assert relation_matrix(g).rows == g.dim + len(g.holonomy_generator_indices())


def all_sylows_cyclic(d):
    return all(
        subgroup_as_group(d, sylow_subgroup(d, p).elements).is_cyclic()
        for p in prime_factors(d.order)
    )


def test_primitivity_and_coprime_class_match_the_subgroup_lattice():
    groups = [finite_group_from_holonomy(g) for g in crystal_corpus()] + small_finite_groups()
    searched = rejected = 0
    for d in groups:
        assert is_primitive(d) == lattice_is_primitive(d), d.order
        assert in_coprime_class(d) == lattice_in_coprime_class(d), d.order
        if not d.is_cyclic():
            cyclic_sylows = all_sylows_cyclic(d)
            searched += cyclic_sylows
            rejected += not cyclic_sylows
    # both branches of `in_coprime_class` past the cyclic leaf are covered
    assert searched >= 10 and rejected >= 100


def test_coprime_class_matches_the_subgroup_lattice_on_cyclic_extensions():
    """Every Z/n x| Z/m with nm <= 64 and every Z/a + Z/b with ab <= 64."""
    groups = [
        semidirect_cyclic(n, m, unit)
        for n in range(1, 65)
        for m in range(1, 64 // n + 1)
        for unit in range(n)
        if pow(unit, m, n) == 1 % n
    ]
    groups += [
        direct_product(cyclic_group(a), cyclic_group(b))
        for a in range(2, 9)
        for b in range(a, 64 // a + 1)
    ]
    split = 0
    for d in groups:
        tree = in_coprime_class(d)
        assert tree == lattice_in_coprime_class(d), d.order
        split += tree is not None and tree.normal_part is not None
    assert len(groups) >= 500 and split >= 60
