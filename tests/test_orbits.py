import itertools
import json
import random
from fractions import Fraction

import pytest

from bieberbach.cli import main
from bieberbach.crystal import AffineGen, build_group
from bieberbach.groupfile import load_group
from bieberbach.invariants import fixed_torus
from bieberbach.linalg import IntMatrix
from bieberbach.orbits import (
    character,
    induced_dimension,
    orbit_data,
    stabilizer_classes,
)


F = Fraction


def hw_group():
    x = AffineGen.of([[1, 0, 0], [0, -1, 0], [0, 0, -1]], (F(1, 2), F(1, 2), 0))
    y = AffineGen.of([[-1, 0, 0], [0, 1, 0], [0, 0, -1]], (0, F(1, 2), F(1, 2)))
    return build_group(3, [x, y], name="hw")


def torus(k):
    gens = [
        AffineGen(IntMatrix.identity(k), tuple(F(int(i == j)) for j in range(k)))
        for i in range(k)
    ]
    return build_group(k, gens, name=f"torus_{k}")


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
                assert g.mult[i][j] in stab


def test_stabilizer_classes_torus():
    g = torus(2)
    assert stabilizer_classes(g, 5) == {frozenset({0})}


def test_stabilizer_classes_hw_q2():
    g = hw_group()
    assert stabilizer_classes(g, 2) == {frozenset({0, 1, 2, 3})}


def test_stabilizer_classes_hw_q4():
    g = hw_group()
    classes = stabilizer_classes(g, 4)
    orders = {len(c) for c in classes}
    assert frozenset({0, 1, 2, 3}) in classes
    assert 2 in orders


def test_fixed_torus_points_are_the_fully_stabilized_characters():
    g = hw_group()
    ft = fixed_torus(g)
    q = ft.component_count()
    full = frozenset(range(g.holonomy_order))
    import itertools

    fixed_chars = set()
    for combo in itertools.product(range(q), repeat=3):
        chi = tuple(F(c, q) for c in combo)
        rec = orbit_data(chi, g)
        if frozenset(rec.stabilizer) == full:
            fixed_chars.add(chi)
    assert fixed_chars == set(ft.points)


def test_induced_dimension():
    g = hw_group()
    assert induced_dimension(orbit_data((0, 0, 0), g), 1) == 1
    assert induced_dimension(orbit_data((F(1, 4), 0, 0), g), 1) == 2
    free = orbit_data((F(1, 8), F(1, 3), F(1, 5)), g)
    assert induced_dimension(free, 1) == g.holonomy_order
    with pytest.raises(ValueError):
        induced_dimension(free, 0)


def test_character_normalization():
    assert character((F(5, 4), F(-1, 3), 2)) == (F(1, 4), F(2, 3), F(0))


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
