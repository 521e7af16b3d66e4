import itertools
import json
import random
from fractions import Fraction
from math import prod

import pytest

from bieberbach.catalog import catalog_get, catalog_list
from bieberbach.cli import main
from bieberbach.crystal import AffineGen, build_group
from bieberbach.groupfile import load_group
from bieberbach.invariants import fixed_torus
from bieberbach.orbits import StabilizerRecord, orbit_data
from oracles import (
    character,
    fraction_stabilizer_classes,
    hw_group,
    mult_table,
    torus,
    vec_mod1,
)
from test_crystal import rank_duality_draws


F = Fraction


def test_trivial_character_fixed():
    g = hw_group()
    rec = orbit_data((0, 0, 0), g)
    assert rec.orbit == ((F(0), F(0), F(0)),)
    assert len(rec.stabilizer) == 4


def test_hw_half_character_fixed():
    rec = orbit_data((F(1, 2), 0, 0), hw_group())
    assert rec.index == 1
    assert rec.stabilizer == (0, 1, 2, 3)


def test_hw_quarter_character():
    rec = orbit_data((F(1, 4), 0, 0), hw_group())
    assert set(rec.orbit) == {
        (F(1, 4), F(0), F(0)),
        (F(3, 4), F(0), F(0)),
    }
    assert rec.index == 2
    assert len(rec.stabilizer) == 2


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        orbit_data((0, 0), hw_group())


def test_orbit_stabilizer_random():
    rng = random.Random(10)
    g = hw_group()
    for _ in range(200):
        chi = tuple(F(rng.randint(0, 11), rng.randint(1, 12)) for _ in range(3))
        rec = orbit_data(chi, g)
        assert rec.index * len(rec.stabilizer) == g.holonomy_order


def test_orbits_partition():
    rng = random.Random(11)
    g = hw_group()
    for _ in range(25):
        chi = tuple(F(rng.randint(0, 7), rng.randint(1, 8)) for _ in range(3))
        rec = orbit_data(chi, g)
        for other in rec.orbit:
            assert set(orbit_data(other, g).orbit) == set(rec.orbit)


def test_stabilizers_are_subgroups():
    rng = random.Random(12)
    g = hw_group()
    for _ in range(30):
        chi = tuple(F(rng.randint(0, 5), rng.randint(1, 6)) for _ in range(3))
        rec = orbit_data(chi, g)
        stab = set(rec.stabilizer)
        assert 0 in stab
        for i in stab:
            for j in stab:
                assert mult_table(g.holonomy)[i][j] in stab


# the stabilizer classes over a denominator bound, from the test oracle
# that the acceptance suite's orbit-stabilizer check reads

def test_stabilizer_classes_torus():
    g = torus(2)
    assert fraction_stabilizer_classes(g, 5) == {frozenset({0})}


def test_stabilizer_classes_hw_q2():
    g = hw_group()
    assert fraction_stabilizer_classes(g, 2) == {frozenset({0, 1, 2, 3})}


def test_stabilizer_classes_hw_q4():
    g = hw_group()
    classes = fraction_stabilizer_classes(g, 4)
    orders = {len(c) for c in classes}
    assert frozenset({0, 1, 2, 3}) in classes
    assert 2 in orders


def test_fixed_torus_points_are_the_fully_stabilized_characters():
    g = hw_group()
    ft = fixed_torus(g)
    q = prod(ft.component_orders)
    full = frozenset(range(g.holonomy_order))
    import itertools

    fixed_chars = set()
    for combo in itertools.product(range(q), repeat=3):
        chi = tuple(F(c, q) for c in combo)
        rec = orbit_data(chi, g)
        if frozenset(rec.stabilizer) == full:
            fixed_chars.add(chi)
    assert fixed_chars == set(ft.points)


def test_character_normalization():
    assert character((F(5, 4), F(-1, 3), 2)) == (F(1, 4), F(2, 3), F(0))


def test_character_rejects_entries_that_are_not_exact():
    """A float is not read as its binary fraction (0.1 as
    3602879701896397/36028797018963968), nor a string parsed: only ints
    and Fractions are characters' entries."""
    for entries in ((0.1,), ("1/3",), (F(1, 2), 0.5), (0, None)):
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            character(entries)
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        orbit_data((0.5, 0, 0), hw_group())


def test_orbit_points_are_sorted():
    rec = orbit_data((F(1, 5), F(2, 7), F(3, 11)), hw_group())
    assert rec.index == 4
    assert list(rec.orbit) == sorted(rec.orbit)


def test_orbits_output_does_not_depend_on_generator_order(tmp_path, capsys):
    """Each order of the generators labels the holonomy elements
    differently.  The printed orbit must not change.  Stabilizer element
    indices are labels, so the whole output is compared where the
    stabilizer is trivial or the whole holonomy, and otherwise the
    stabilizer is compared by its matrices."""
    gens = [
        {"matrix": [[0, 0, 1], [1, 0, 0], [0, 1, 0]], "translation": ["0", "0", "0"]},
        {"matrix": [[-1, 0, 0], [0, -1, 0], [0, 0, 1]], "translation": ["0", "0", "0"]},
        {"matrix": [[0, 1, 0], [1, 0, 0], [0, 0, -1]], "translation": ["0", "0", "0"]},
    ]
    paths = []
    for n, order in enumerate(itertools.permutations(gens)):
        path = tmp_path / f"g{n}.json"
        path.write_text(json.dumps({"name": "g", "dimension": 3, "generators": list(order)}))
        paths.append(str(path))
    labels = [[e.matrix for e in load_group(path).elements] for path in paths]
    assert len({tuple(m) for m in labels}) > 1  # the labellings differ
    for chi in ("1/5,2/7,3/11", "1/4,0,0", "1/2,1/3,0", "1/3,1/3,1/3", "0,0,0"):
        outs = []
        for path, matrices in zip(paths, labels):
            assert main(["orbits", path, "--char", chi, "--format", "json"]) == 0
            doc = json.loads(json_out := capsys.readouterr().out)
            assert main(["orbits", path, "--char", chi]) == 0
            text = capsys.readouterr().out
            stabilizer = {matrices[i] for i in doc.pop("stabilizer_elements")}
            orbit_lines = [line for line in text.splitlines() if "orbit point" in line]
            outs.append((json_out, text, doc, stabilizer, orbit_lines))
        json_out, text, doc, stabilizer, orbit_lines = outs[0]
        assert doc["orbit_size"] > 1 or chi == "0,0,0"
        for other in outs[1:]:
            assert other[2:] == (doc, stabilizer, orbit_lines), chi
            if doc["stabilizer_order"] in (1, len(labels[0])):
                assert other[:2] == (json_out, text), chi


# ------------------------------------------------- Fraction oracles


def fraction_orbit_data(chi, group):
    """The dual action in `Fraction` arithmetic: each element's transpose
    applied to the character, reduced mod 1 (the library works in
    integers over one common denominator).  Returns the character, the
    sorted orbit and the stabilizer, as a record's `character`, `orbit`
    and `stabilizer` read them."""
    chi = character(chi)
    if len(chi) != group.dim:
        raise ValueError(f"character of dim {len(chi)} against a dim-{group.dim} group")
    orbit = set()
    stabilizer = []
    for s, elem in enumerate(group.elements):
        moved = vec_mod1(elem.matrix.transpose().apply(chi))
        if moved == chi:
            stabilizer.append(s)
        orbit.add(moved)
    return chi, tuple(sorted(orbit)), tuple(stabilizer)


def fraction_views(record):
    return record.character, record.orbit, record.stabilizer


def oracle_characters(rng, dim):
    """The zero character, one character over each of the denominators
    2, 3, 4 and 6 with entries in [-2, 2], negative and >= 1 included,
    and one with mixed denominators."""
    chars = [(0,) * dim]
    for d in (2, 3, 4, 6):
        chars.append(tuple(F(rng.randint(-2 * d, 2 * d), d) for _ in range(dim)))
    chars.append(tuple(F(rng.randint(-12, 12), rng.choice((2, 3, 4, 6))) for _ in range(dim)))
    return chars


def hexagonal_d6():
    """The order-12 point group of the hexagonal lattice: A^T is not A^-1,
    so the dual action is not the action itself."""
    rotation = AffineGen.of([[0, -1], [1, 1]], (0, 0))
    reflection = AffineGen.of([[0, 1], [1, 0]], (0, 0))
    return build_group(2, [rotation, reflection], name="hexagonal_d6")


def test_orbit_data_matches_the_fraction_oracle():
    rng = random.Random(2025)
    catalog = [catalog_get(key).group for key in catalog_list()]
    groups = rank_duality_draws() + catalog + [hexagonal_d6()]
    assert hexagonal_d6().holonomy_order == 12
    indices = []
    for g in groups:
        for chi in oracle_characters(rng, g.dim):
            record = orbit_data(chi, g)
            assert fraction_views(record) == fraction_orbit_data(chi, g), (g.name, chi)
            indices.append((record.index, g.holonomy_order))
    assert any(1 < index < order for index, order in indices)  # proper, nontrivial orbits


def test_orbit_data_in_dimension_zero():
    g = build_group(0, [], name="point")
    assert fraction_views(orbit_data((), g)) == fraction_orbit_data((), g)
    assert orbit_data((), g) == StabilizerRecord(
        shift=(), denominator=1, orbit_shifts=((),), stabilizer=(0,)
    )


