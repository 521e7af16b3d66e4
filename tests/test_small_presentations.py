"""H1 on the spanning-tree presentation, primitivity from Tate's
criterion, G/G' from the holonomy's Cayley graph and the cocycle kept on
the Cayley-graph edges, against the whole-group computations they
replaced: the Cayley-graph relations on k + n variables, Sylow subgroups
and normal complements looked up in the subgroup lattice, the closure of
all n^2 commutators and quotient tables, and the cocycle on every pair of
elements.  The corpora are the catalog, the rank-duality draws, the
seed-1 and seed-2 perfbench `analyze` and `connective` corpora, and small
finite groups."""

from functools import cache
from math import gcd, prod
from operator import sub

from bieberbach.catalog import catalog_get, catalog_list
from bieberbach.finite import (
    finite_group_from_holonomy, in_coprime_class, is_primitive, structure_name
)
from bieberbach.groupfile import document_to_group
from bieberbach.invariants import abelianization, relation_matrix
from bieberbach.linalg import IntMatrix, smith_normal_form
from oracles import (
    corpus_items, cyclic_group, direct_product, from_columns, inverses, is_cyclic, mult_table,
    quotient_group, semidirect_cyclic, subgroup_as_group, sylow_subgroup
)
from test_build_oracle import assert_edge_cocycle_is_full, diagonal_z2_7, s5_group
from test_cli import large_holonomy_documents
from test_crystal import rank_duality_draws
from test_finite import (
    all_products_closure,
    coprime_class_corpus,
    lattice_in_coprime_class,
    lattice_is_primitive,
    prime_factors,
    split_corpus,
)
from test_group_core import signed_permutations_4
from test_invariants import assert_presentation_kills, cayley_graph_relation_matrix


@cache
def crystal_corpus():
    groups = [catalog_get(key).group for key in catalog_list()] + rank_duality_draws()
    for workload in ("analyze", "connective"):
        for seed in (1, 2):
            groups += [document_to_group(item.doc) for item in corpus_items(workload, seed)]
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
        is_cyclic(subgroup_as_group(d, sylow_subgroup(d, p).elements))
        for p in prime_factors(d.order)
    )


def test_primitivity_and_coprime_class_match_the_subgroup_lattice():
    groups = [finite_group_from_holonomy(g) for g in crystal_corpus()] + small_finite_groups()
    searched = rejected = 0
    for d in groups:
        assert is_primitive(d) == lattice_is_primitive(d), d.order
        assert in_coprime_class(d) == lattice_in_coprime_class(d), d.order
        if not is_cyclic(d):
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
        orders = in_coprime_class(d)
        assert orders == lattice_in_coprime_class(d), d.order
        split += orders is not None and len(orders) > 1
    assert len(groups) >= 500 and split >= 60



def all_products_is_subgroup(d, elems):
    """`_coprime_tree`'s subgroup test before the closure from a greedy
    generating set: all |S|^2 products stay in S."""
    members = set(elems)
    return all(d.times(a, b) in members for a in elems for b in elems)


def test_subgroup_closure_matches_all_products_on_the_coprime_candidates():
    """`_coprime_tree` takes the elements of order dividing e, for e | n
    prime to n/e, for a subgroup exactly when there are e of them (Hall's
    theorem).  At every such e of each group of the 547-group corpus
    whose Sylow subgroups are all cyclic, the count agrees with all
    products staying in the set."""
    groups = [finite_group_from_holonomy(g) for g in crystal_corpus()] + small_finite_groups()
    assert len(groups) == 547
    outcomes = {True: 0, False: 0}
    for d in groups:
        n = d.order
        if any(sylow_order(n, p) not in d.orders for p in prime_factors(n)):
            continue  # a noncyclic Sylow subgroup
        for e in (e for e in range(1, n + 1) if n % e == 0 and gcd(e, n // e) == 1):
            candidate = [x for x in range(n) if e % d.orders[x] == 0]
            verdict = all_products_is_subgroup(d, candidate)
            assert len(candidate) >= e  # it holds a Hall subgroup of order e
            assert (len(candidate) == e) == verdict, (n, e)
            outcomes[verdict] += 1
    assert outcomes[True] >= 800 and outcomes[False] >= 20


def test_coprime_class_of_agl_1_61_past_the_order_budget():
    """AGL(1, 61) = Z/61 x| Z/60, of order 3660: its normal Hall subgroups
    are found by counting elements, not by all |S|^2 products."""
    assert in_coprime_class(semidirect_cyclic(61, 60, 2)) == (61, 5, 4, 3)


# ------------------------------------------------ G/G' off the Cayley graph

def larger_holonomies():
    """S5, diagonal (Z/2)^7 and the dim-4 signed permutations: holonomy
    orders 120, 128 and 384."""
    return (s5_group(), diagonal_z2_7(), signed_permutations_4())


def commutator_closure_index(d):
    """|G/G'| as `is_primitive` computed it before G/G' came off the
    Cayley graph: the closure of all n^2 commutators."""
    t, inv, n = mult_table(d), inverses(d), d.order
    commutators = {t[t[inv[a]][inv[b]]][t[a][b]] for a in range(n) for b in range(n)}
    return n // len(all_products_closure(d, commutators))


def quotient_loop_factors(d):
    """`abelian_invariant_factors` before the Smith form: None after an
    n^2 commutativity scan; else split off the cyclic subgroup of an
    element of largest order and repeat on the verified quotient table."""
    n, t = d.order, mult_table(d)
    if any(t[i][j] != t[j][i] for i in range(n) for j in range(n)):
        return None
    factors = []
    while d.order > 1:
        g = max(range(d.order), key=lambda i: d.orders[i])
        factors.append(d.orders[g])
        d, _ = quotient_group(d, all_products_closure(d, {g}))
    return tuple(factors)


def sylow_order(n, p):
    """The largest power of the prime p dividing n."""
    q = p
    while n % (q * p) == 0:
        q *= p
    return q


def tate_is_primitive(d, index):
    """Tate's criterion on |G/G'| = index, as `is_primitive` reads it."""
    if d.order == 1:
        return False
    sylow_orders = [sylow_order(d.order, p) for p in prime_factors(d.order)]
    return not any(q in d.orders and index % q == 0 for q in sylow_orders)


def test_abelian_quotient_matches_the_commutator_closure_and_the_quotient_loop():
    groups = [finite_group_from_holonomy(g) for g in crystal_corpus() + larger_holonomies()]
    groups += small_finite_groups()
    assert len(groups) == 547 + 3
    abelian = primitive = 0
    for d in groups:
        index = commutator_closure_index(d)
        factors = quotient_loop_factors(d)
        assert prod(d.abelian_quotient) == index, d.order
        assert (factors is not None) == (index == d.order), d.order
        if factors is not None:
            assert d.abelian_quotient[::-1] == factors, d.order
        if d.order == 1:
            name = "trivial"
        elif factors is None:
            name = f"nonabelian of order {d.order}"
        else:
            name = " + ".join(f"Z/{q}" for q in factors)
        assert structure_name(d) == name
        assert is_primitive(d) == tate_is_primitive(d, index), d.order
        abelian += factors is not None
        primitive += tate_is_primitive(d, index)
    # both sides of each answer are covered (473 abelian, 198 primitive)
    assert 400 <= abelian <= len(groups) - 50 and 150 <= primitive <= len(groups) - 150


def test_holonomy_abelian_quotient_is_h1_modulo_the_lattice():
    """Gamma / (Gamma' Z^k) is G/G': its relations are the y-rows of the
    H1 relation matrix, with the lattice variables e dropped."""
    for g in crystal_corpus() + larger_holonomies():
        rel = relation_matrix(g)
        y_rows = IntMatrix(rel.entries[g.dim :], cols=rel.cols)
        divisors = smith_normal_form(y_rows).divisors
        assert sum(1 for q in divisors if q) == y_rows.rows, g.name  # finite
        assert g.holonomy.abelian_quotient == tuple(q for q in divisors if q >= 2), g.name


# ------------------------------------- one spanning-tree presentation


@cache
def large_holonomy_groups():
    """B4, B5, S7 and B5 x {+-1}: holonomy orders 384 to 7680."""
    return tuple(document_to_group(doc) for doc in large_holonomy_documents().values())


def edge_loop_tree_lifts(g):
    """The lift variables x_s over (e_1..e_k, then y_g per holonomy
    generator) as `relation_matrix` computed them before the holonomy
    presented itself: x_e = 0 and x_{sg} = x_s + y_g - tau(s,g).e on the
    spanning tree."""
    k = g.dim
    pad = (0,) * len(g.holonomy_generator_indices())
    lifts = [(0,) * (k + len(pad))] * g.holonomy_order
    for s, pos, t in g.holonomy.spanning_tree:
        x = [a - b for a, b in zip(lifts[s], g.edge_cocycle[s][pos] + pad)]
        x[k + pos] += 1
        lifts[t] = tuple(x)
    return tuple(lifts)


def edge_loop_relation_matrix(g):
    """`relation_matrix` before the holonomy presented itself: the
    A(g) - I columns, then one relation per edge on `edge_loop_tree_lifts`,
    deduplicated and validated entry by entry."""
    k = g.dim
    gens = g.holonomy_generator_indices()
    lifts = edge_loop_tree_lifts(g)
    pad = (0,) * len(gens)
    columns = [
        tuple(row[j] - (i == j) for i, row in enumerate(g.elements[idx].matrix)) + pad
        for idx in gens
        for j in range(k)
    ]
    for xs, row, taus in zip(lifts, g.edges, g.edge_cocycle):
        for pos, t in enumerate(row):
            col = [a - b - c for a, b, c in zip(xs, lifts[t], taus[pos] + pad)]
            col[k + pos] += 1
            columns.append(tuple(col))
    unique = [col for col in dict.fromkeys(columns) if any(col)]
    return from_columns(unique, rows=k + len(gens))


def word_count_abelian_quotient(d):
    """G/G' as `abelian_quotient` read it before the holonomy presented
    itself: the generator counts x_s of each element's word, and the
    relation x_s + e_j - x_{s g_j} of each edge."""
    gens = range(len(d.edges[0]))
    counts = [tuple(map(word.count, gens)) for word in d.words]
    columns = []
    for xs, row in zip(counts, d.edges):
        for j, t in enumerate(row):
            col = list(map(sub, xs, counts[t]))
            col[j] += 1
            columns.append(tuple(col))
    unique = [col for col in dict.fromkeys(columns) if any(col)]
    rel = from_columns(unique, rows=len(gens))
    return tuple(q for q in smith_normal_form(rel).divisors if q >= 2)


def test_tree_relations_match_the_edge_loop_and_the_word_counts():
    """H1's relation matrix is the edge loop's, column for column in the
    same order, and G/G' the word counts', on the catalog, the perfbench
    corpora and holonomy orders up to 7680; the torus keeps its k rows
    with no column."""
    groups = crystal_corpus() + larger_holonomies() + large_holonomy_groups()
    for g in groups:
        new, old = relation_matrix(g), edge_loop_relation_matrix(g)
        assert (new.rows, new.cols, new.entries) == (old.rows, old.cols, old.entries), g.name
        lifts = g.holonomy.tree_lifts(g.edge_cocycle, g.dim)
        assert lifts == edge_loop_tree_lifts(g), g.name
        assert g.holonomy.abelian_quotient == word_count_abelian_quotient(g.holonomy), g.name
    torus = relation_matrix(catalog_get("torus_3").group)
    assert (torus.rows, torus.cols) == (3, 0)


# ------------------------------------------------- primitivity past order 64


def generated(d, gens):
    """The subgroup generated by `gens`: everything reached from the
    identity by right multiplication with them."""
    out, frontier = {0}, [0]
    while frontier:
        new = []
        for x in frontier:
            for s in gens:
                y = d.times(x, s)
                if y not in out:
                    out.add(y)
                    new.append(y)
        frontier = new
    return out


def p_prime_elements_form_a_subgroup(d, p):
    """Whether the elements of order prime to p are closed under
    products: add them as generators one at a time, and stop as soon as
    what they generate leaves them."""
    elems = {x for x in range(d.order) if d.orders[x] % p}
    gens, reached = [], {0}
    for x in sorted(elems):
        if x not in reached:
            gens.append(x)
            reached = generated(d, gens)
            if not reached <= elems:
                return False
    return True


def p_complement_is_primitive(d):
    """Hiller-Sah primitivity with no G/G': G has a normal p-complement
    iff its elements of order prime to p form a subgroup, so d is
    primitive iff that fails for every p whose Sylow subgroup is cyclic."""
    if d.order == 1:
        return False
    sylow_orders = {}
    for p in prime_factors(d.order):
        sylow_orders[p] = p
        while d.order % (sylow_orders[p] * p) == 0:
            sylow_orders[p] *= p
    return not any(
        q in d.orders and p_prime_elements_form_a_subgroup(d, p) for p, q in sylow_orders.items()
    )


def test_primitivity_matches_the_p_prime_elements_past_order_64():
    groups = [finite_group_from_holonomy(g) for g in crystal_corpus()] + small_finite_groups()
    assert len(groups) == 547
    groups += [g.holonomy for g in large_holonomy_groups()] + [semidirect_cyclic(61, 60, 2)]
    verdicts = [is_primitive(d) for d in groups]
    assert verdicts == [p_complement_is_primitive(d) for d in groups]
    assert verdicts[-5:] == [True, True, True, True, False]
    assert 150 <= sum(verdicts) <= len(groups) - 150
