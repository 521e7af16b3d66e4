"""An independent check of `connective --certificate` documents.

`verify_certificate` rebuilds every stage of the chain from the group
documents in the certificate and checks each peel with `linalg`,
`build_group` and the subgroup closure over the holonomy's table only;
it never calls the code that produced the certificate.  A kernel's
generators are the corrected lifts of a subset of the kernel holonomy
that generates it, one generator per element of the subset.  A negative
verdict is checked by the core's first homology over all pairs of
holonomy elements (the Smith form of the full-element relation matrix),
a path the producer, which reads the fixed dual lattice, does not take.
"""

import copy
import json
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest

from bieberbach.calabi import NotTorsionFree, connectivity_document, is_connective
from bieberbach.catalog import catalog_get, catalog_list
from bieberbach.cli import main
from bieberbach.crystal import AffineGen, build_group
from bieberbach.groupfile import document_to_group, group_to_document
from bieberbach.linalg import IntMatrix, smith_normal_form
from test_build_oracle import full_cocycle
from oracles import (
    _closure, corpus_items, from_columns, mult_table, rational_solve, translation_of, vec_add
)
from test_calabi import seeded_chain_groups
from test_invariants import full_element_h1


class CertificateError(Exception):
    """The certificate does not prove its verdict."""


def check(condition, message):
    if not condition:
        raise CertificateError(message)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def generator_data(doc):
    """(dimension, name, generators as (matrix rows, rational translation))."""
    return (
        doc["dimension"],
        doc["name"],
        [
            (g["matrix"], tuple(Fraction(x) for x in g["translation"]))
            for g in doc["generators"]
        ],
    )


def group_of(doc):
    """The group a document describes, closed by `build_group` alone."""
    return _group_of(json.dumps(doc, sort_keys=True))


@lru_cache(maxsize=64)  # a tampered certificate repeats most stages of the valid one
def _group_of(text):
    dim, name, gens = generator_data(json.loads(text))
    return build_group(dim, [AffineGen(IntMatrix(m, cols=dim), t) for m, t in gens], name=name)


def verify_step(stage, step):
    """One peel: a surjection from `stage` onto Z and its kernel."""
    k, n = stage.dim, stage.holonomy_order
    f, phi, d = step["lattice_map"], step["lift_values"], step["lattice_index"]
    check(k > 0, "a dimension-0 stage was peeled")
    check(len(f) == k and len(phi) == n, "surjection has the wrong shape")
    check(d == gcd(*f) and d > 0, "lattice index is not the gcd of the lattice map")
    row = IntMatrix([f], cols=k)
    check(all(row * g.matrix == row for g in stage.generators), "lattice map is not invariant")
    check(phi[0] == 0, "lift value of the identity is not 0")
    check(gcd(*f, *phi) == 1, "values are not coprime; the map is not onto Z")
    cocycle = full_cocycle(stage)
    check(
        all(
            phi[s] + phi[t] - phi[mult_table(stage.holonomy)[s][t]] == dot(f, cocycle[s][t])
            for s in range(n)
            for t in range(n)
        ),
        "lift values break the homomorphism identity",
    )

    basis = step["sublattice_basis"]
    check(
        len(basis) == k - 1 and all(len(v) == k and dot(f, v) == 0 for v in basis),
        "sublattice basis is not k - 1 vectors in ker f",
    )
    # k - 1 vectors of ker f with unit Smith divisors span all of ker f
    bmat = from_columns(basis, rows=k)
    check(
        all(x == 1 for x in smith_normal_form(bmat).divisors),
        "sublattice basis does not span ker f",
    )

    kernel_holonomy = step["kernel_holonomy"]
    check(kernel_holonomy == [s for s in range(n) if phi[s] % d == 0], "wrong kernel holonomy")
    corrections = step["lift_corrections"]
    check(
        len(corrections) == len(kernel_holonomy)
        and not any(corrections[0])  # the identity needs no correction
        and all(
            len(lam) == k and dot(f, lam) == -phi[s]
            for s, lam in zip(kernel_holonomy, corrections)
        ),
        "lift corrections do not move the lifts into ker f",
    )
    # and they are -phi(s)/d times one vector w with f . w = d: a lift
    # valued 0 is not moved, and the others move along one line
    valued = [(phi[s], lam) for s, lam in zip(kernel_holonomy, corrections) if phi[s]]
    phi0, lam0 = valued[0] if valued else (1, [0] * k)
    check(
        all(
            [phi0 * x for x in lam] == [phi[s] * y for y in lam0]
            for s, lam in zip(kernel_holonomy, corrections)
        ),
        "lift corrections are not multiples of one vector",
    )
    check(step["vasquez_applied"] is False, "a Vasquez pass is never needed")

    # the kernel is generated by ker f and the corrected lifts of a
    # generating subset of the kernel holonomy, written in the sublattice
    # basis; the holonomy is faithful, so a generator's matrix names its
    # element
    dim, _, gens = generator_data(step["kernel"])
    check(
        dim == k - 1
        and all(len(t) == dim and len(rows) == dim for rows, t in gens)
        and all(len(r) == dim for rows, _ in gens for r in rows),
        "kernel has the wrong shape",
    )
    lifted = []
    for rows, t in gens:
        matrix = IntMatrix(rows, cols=dim)
        found = [
            pos
            for pos, s in enumerate(kernel_holonomy)
            if stage.elements[s].matrix * bmat == bmat * matrix
        ]
        check(len(found) == 1, "kernel matrix is not the restriction of one kernel element")
        s, lam = kernel_holonomy[found[0]], corrections[found[0]]
        check(
            bmat.apply(t) == vec_add(translation_of(stage.elements[s]), lam),
            "kernel translation is not the corrected lift",
        )
        lifted.append(s)
    check(len(set(lifted)) == len(lifted), "two kernel generators lift one element")
    check(
        _closure(mult_table(stage.holonomy), lifted) == set(kernel_holonomy),
        "kernel generators do not generate the kernel holonomy",
    )


def verify_certificate(group_doc, cert):
    """Raise CertificateError unless `cert` proves its verdict for the
    group `group_doc` describes: a chain of checked peels that ends at
    dimension 0 (connective), or at a core with finite first homology
    (not connective)."""
    stage_doc = group_doc
    for step in cert["chain"]:
        verify_step(group_of(stage_doc), step)
        stage_doc = step["kernel"]
    if cert["connective"]:
        check(cert["core"] is None, "a connective chain has no core")
        check(stage_doc["dimension"] == 0, "connective chain stops above dimension 0")
        return
    check(cert["core"] is not None, "a negative verdict needs a core")
    check(generator_data(cert["core"]) == generator_data(stage_doc), "core is not the last stage")
    check(stage_doc["dimension"] > 0, "the chain reached dimension 0")
    rank, _ = full_element_h1(group_of(stage_doc))
    check(rank == 0, "the core has infinite first homology")


# ---------------------------------------------------------------- corpora

def corpus_documents():
    """Group documents of the catalog, the seeded chain groups and the
    seed-1 and seed-2 perfbench `analyze` and `connective` corpora."""
    docs = [group_to_document(catalog_get(key).group) for key in catalog_list()]
    docs += [group_to_document(g) for g in seeded_chain_groups()]
    for workload in ("analyze", "connective"):
        for seed in (1, 2):
            docs += [item.doc for item in corpus_items(workload, seed)]
    return docs


def certified(docs):
    """(group document, certificate) for each torsion-free group."""
    for doc in docs:
        try:
            report = is_connective(document_to_group(doc))
        except NotTorsionFree:  # groups with torsion have no certificate
            continue
        yield doc, connectivity_document(report)


def test_every_certificate_verifies():
    count = positive = 0
    for doc, cert in certified(corpus_documents()):
        verify_certificate(doc, cert)
        count += 1
        positive += cert["connective"]
    assert count >= 400
    assert 0 < positive < count


def test_cli_certificates_verify(tmp_path, capsys):
    for key in catalog_list():
        doc = group_to_document(catalog_get(key).group)
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(doc))
        assert main(["connective", str(path), "--certificate", "--format", "json"]) == 0
        verify_certificate(doc, json.loads(capsys.readouterr().out)["certificate"])


def test_a_core_with_infinite_h1_is_rejected():
    """A connective group claimed not connective, with the chain cut
    short at any stage: each stage has infinite first homology."""
    for key in ("klein_bottle", "dim3_c4", "torus_3", "dim3_c2c2_connective"):
        doc = group_to_document(catalog_get(key).group)
        cert = connectivity_document(is_connective(document_to_group(doc)))
        stages = [doc] + [step["kernel"] for step in cert["chain"]]
        for cut in range(len(cert["chain"])):
            forged = {"connective": False, "chain": cert["chain"][:cut], "core": stages[cut]}
            with pytest.raises(CertificateError, match="infinite first homology"):
                verify_certificate(doc, forged)


# ---------------------------------------------------------------- tampering

def bumped(value):
    """Every way this test moves one leaf: integers by one, booleans
    flipped, rationals by one half."""
    if isinstance(value, bool):
        yield not value
    elif isinstance(value, int):
        yield value + 1
        yield value - 1
    elif isinstance(value, str):
        yield str(Fraction(value) + Fraction(1, 2))


def paths(node, path=()):
    """Paths to every list and leaf under `node`, group names excluded
    (they are labels, not data)."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            if key != "name":
                yield from paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from paths(value, path + (i,))


def at(node, path):
    for key in path:
        node = node[key]
    return node


def edited(cert, path, value):
    """A copy of `cert` with the entry at `path` replaced by `value`."""
    bad = copy.deepcopy(cert)
    at(bad, path[:-1])[path[-1]] = value
    return bad


def tampered(cert):
    """(path, copy of `cert` with that one field changed): each leaf
    moved, each nonempty list shortened by its last entry, and the core
    swapped for the last kernel or for nothing.  Another basis of ker f
    would still be a valid certificate, so a sublattice basis vector is
    instead doubled or moved out of ker f."""
    for path in paths(cert):
        value = at(cert, path)
        if "sublattice_basis" in path and len(path) == 4:  # a basis vector
            f = cert["chain"][path[1]]["lattice_map"]
            off = [int(x != 0) for x in f]  # f . off > 0
            yield path + ("double",), edited(cert, path, [2 * x for x in value])
            yield path + ("off",), edited(cert, path, [x + y for x, y in zip(value, off)])
        if isinstance(value, list) and value and path:
            yield path + ("pop",), edited(cert, path, value[:-1])
        elif "sublattice_basis" not in path:
            for moved in bumped(value):
                yield path, edited(cert, path, moved)
    if cert["core"] is None:
        yield ("core",), edited(cert, ("core",), cert["chain"][-1]["kernel"])
    else:
        yield ("core",), edited(cert, ("core",), None)


def rejects(doc, cert) -> bool:
    try:
        verify_certificate(doc, cert)
    except CertificateError:
        return True
    return False


@pytest.mark.parametrize("key", ["klein_bottle", "dim3_c4", "dim3_c2c2_connective", "hw", "torus_3"])
def test_tampering_any_field_breaks_the_certificate(key):
    doc = group_to_document(catalog_get(key).group)
    cert = connectivity_document(is_connective(document_to_group(doc)))
    verify_certificate(doc, cert)
    count = 0
    for path, bad in tampered(cert):
        assert rejects(doc, bad), path
        count += 1
    assert count >= 5


def test_tampering_breaks_chains_with_lift_values_and_late_cores():
    """The first four chains of the seed-1 `analyze` corpus whose
    surjections have nonzero lift values, and every negative verdict
    there that is reached after a peel."""
    lifts = cores = 0
    for doc, cert in certified(item.doc for item in corpus_items("analyze")):
        late_core = not cert["connective"] and bool(cert["chain"])
        has_lifts = any(any(step["lift_values"]) for step in cert["chain"])
        if not (late_core or (has_lifts and lifts < 4)):
            continue
        for path, bad in tampered(cert):
            assert rejects(doc, bad), (doc["name"], path)
        cores += late_core
        lifts += has_lifts
    assert lifts >= 4 and cores >= 1


def kernel_generator(stage, step, s, lam):
    """The lift of element s of `stage`, moved by lam and written in the
    step's sublattice basis, as a generator entry of a group document;
    translation 0 when the moved lift leaves ker f."""
    basis = step["sublattice_basis"]
    bmat = from_columns(basis, rows=stage.dim)
    elem = stage.elements[s]
    cols = [rational_solve(bmat, elem.matrix.apply(v)) for v in basis]
    t = rational_solve(bmat, vec_add(translation_of(elem), lam)) or (0,) * len(basis)
    return {
        "matrix": [[int(col[i]) for col in cols] for i in range(len(basis))],
        "translation": [str(x) for x in t],
    }


def peels(doc, cert):
    """(position, stage group, step) along the certificate's chain."""
    stage_doc = doc
    for pos, step in enumerate(cert["chain"]):
        yield pos, group_of(stage_doc), step
        stage_doc = step["kernel"]


def catalog_and_corpus_certificates():
    docs = [group_to_document(catalog_get(key).group) for key in catalog_list()]
    docs += [item.doc for item in corpus_items("connective")]
    return list(certified(docs))


def test_a_kernel_generator_off_the_kernel_holonomy_is_rejected():
    """A generator that restricts an element outside the kernel holonomy
    to ker f (it keeps ker f, since f A = f) names no kernel element."""
    count = 0
    for doc, cert in catalog_and_corpus_certificates():
        for pos, stage, step in peels(doc, cert):
            outside = sorted(set(range(stage.holonomy_order)) - set(step["kernel_holonomy"]))
            if not outside:
                continue
            gen = kernel_generator(stage, step, outside[-1], [0] * stage.dim)
            bad = edited(cert, ("chain", pos, "kernel", "generators"),
                         step["kernel"]["generators"] + [gen])
            with pytest.raises(CertificateError, match="restriction of one kernel element"):
                verify_certificate(doc, bad)
            count += 1
    assert count >= 100


def test_kernel_generators_that_miss_part_of_the_kernel_holonomy_are_rejected():
    """The last generator swapped for the corrected lift of an element
    the others already generate (the identity at least): every generator
    is still the corrected lift of its own kernel element, but together
    they no longer generate the kernel holonomy."""
    count = nonidentity = 0
    for doc, cert in catalog_and_corpus_certificates():
        for pos, stage, step in peels(doc, cert):
            gens = step["kernel"]["generators"]
            if not gens:
                continue
            kernel_holonomy = step["kernel_holonomy"]
            lifted = [
                kernel_holonomy[pos_s]
                for g in gens
                for pos_s, s in enumerate(kernel_holonomy)
                if kernel_generator(stage, step, s, step["lift_corrections"][pos_s]) == g
            ]
            assert len(lifted) == len(gens)
            spare = max(_closure(mult_table(stage.holonomy), lifted[:-1]) - set(lifted[:-1]))
            lam = step["lift_corrections"][kernel_holonomy.index(spare)]
            swapped = gens[:-1] + [kernel_generator(stage, step, spare, lam)]
            bad = edited(cert, ("chain", pos, "kernel", "generators"), swapped)
            with pytest.raises(CertificateError, match="do not generate the kernel holonomy"):
                verify_certificate(doc, bad)
            count += 1
            nonidentity += spare != 0
    assert count >= 40 and nonidentity >= 1
