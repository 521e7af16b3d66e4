from fractions import Fraction

import pytest

from bieberbach import catalog
from bieberbach.calabi import is_connective
from bieberbach.catalog import UnknownKey, catalog_get, catalog_list
from bieberbach.crystal import is_torsion_free
from bieberbach.finite import finite_group_from_holonomy, structure_name
from bieberbach.groupfile import group_to_document
from bieberbach.invariants import abelianization, fixed_torus
from oracles import affine_product, is_cyclic, search_connective_c2c2


EXPECTED_KEYS = {
    "torus_1",
    "torus_2",
    "torus_3",
    "torus_4",
    "klein_bottle",
    "hw",
    "dim3_c2",
    "dim3_c3",
    "dim3_c4",
    "dim3_c6",
    "dim3_c2c2_connective",
}


def test_catalog_keys():
    assert set(catalog_list()) == EXPECTED_KEYS


def test_unknown_key():
    with pytest.raises(UnknownKey):
        catalog_get("nope")


def test_every_entry_matches_expected_record():
    for key in catalog_list():
        entry = catalog_get(key)
        g = entry.group
        exp = entry.expected
        assert is_torsion_free(g), key
        ab = abelianization(g)
        assert (ab.rank, ab.torsion) == (exp.h1_rank, exp.h1_torsion), key
        ft = fixed_torus(g)
        assert (ft.rank, ft.component_orders) == (
            exp.torus_rank,
            exp.torus_components,
        ), key
        d = finite_group_from_holonomy(g)
        assert d.order == exp.holonomy_order, key
        assert structure_name(d) == exp.holonomy_id, key
        assert is_connective(g).connective == exp.connective, key


def test_hw_generators_satisfy_their_defining_relations():
    """The Hantzsche-Wendt screw generators x, y of the catalog entry
    satisfy x^2 y x^2 = y and y^2 x y^2 = x."""
    x, y = catalog_get("hw").group.generators
    x2, y2 = affine_product(x, x), affine_product(y, y)
    assert affine_product(affine_product(x2, y), x2) == y
    assert affine_product(affine_product(y2, x), y2) == x


def test_hw_is_the_only_finite_h1_dim3_entry():
    finite_keys = {
        key
        for key in catalog_list()
        if catalog_get(key).group.dim == 3
        and abelianization(catalog_get(key).group).order() is not None
    }
    assert finite_keys == {"hw"}


def test_cyclic_holonomy_entries_connective():
    for key in catalog_list():
        entry = catalog_get(key)
        d = finite_group_from_holonomy(entry.group)
        if is_cyclic(d):
            assert entry.expected.connective


def test_c2c2_connective_entry():
    entry = catalog_get("dim3_c2c2_connective")
    report = is_connective(entry.group)
    assert report.connective
    assert report.certificate.length == 3
    assert entry.group.holonomy_order == 4


def test_c2c2_search_reproduces_frozen_entry():
    g1, g2 = search_connective_c2c2()
    frozen = catalog_get("dim3_c2c2_connective").group.generators
    assert (g1, g2) == frozen


def test_building_the_catalog_builds_no_fraction(monkeypatch):
    """Every entry is read from its document in integers: building the
    catalog constructs no `Fraction`, counted at `Fraction.__new__`."""
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    catalog._entries.cache_clear()
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    keys = catalog_list()
    monkeypatch.undo()
    assert len(keys) == 11
    assert made == []


def test_each_stored_document_is_the_exported_document():
    """The catalog's table holds each group's document as
    `group_to_document` writes it, so `catalog export` prints it verbatim."""
    docs = [doc for doc, _ in catalog._TABLE]
    assert [doc["name"] for doc in docs] == catalog_list()
    for doc in docs:
        assert doc == group_to_document(catalog_get(doc["name"]).group), doc["name"]
