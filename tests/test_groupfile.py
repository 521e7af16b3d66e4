"""Group files are read straight into integers: each generator equals the
one `AffineGen.of` makes from the `Fraction`s of `parse_rational`, in
lowest terms, every rejection keeps its message, and reading builds no
`Fraction`."""

import json
from fractions import Fraction
from math import gcd

import pytest

from bieberbach.catalog import catalog_get, catalog_list
from bieberbach.cli import main
from bieberbach.crystal import AffineGen
from bieberbach.groupfile import (
    GroupFileError, document_to_group, group_to_document, parse_ratio, parse_rational
)
from oracles import corpus_items

SPELLINGS = {"2/4": (1, 2), "-3/6": (-1, 2), " +1/2 ": (1, 2), 7: (7, 1), "0/5": (0, 1)}


def assert_read_as_the_constructor_writes(doc):
    group = document_to_group(doc)
    expected = [
        AffineGen.of(gen["matrix"], [parse_rational(x) for x in gen["translation"]])
        for gen in doc["generators"]
    ]
    assert len(group.generators) == len(expected)
    for gen, oracle in zip(group.generators, expected):
        assert gen.matrix == oracle.matrix
        assert gen.shift == oracle.shift
        assert gen.denominator == oracle.denominator
        assert gcd(gen.denominator, *gen.shift) == 1  # lowest terms
        assert all(type(x) is int for row in gen.matrix for x in row)
        assert all(type(x) is int for x in gen.shift) and type(gen.denominator) is int


def test_corpus_and_catalog_documents_read_as_the_constructor_writes():
    docs = [
        item.doc
        for workload in ("analyze", "lattice", "connective")
        for seed in (1, 2)
        for item in corpus_items(workload, seed)
    ]
    docs += [group_to_document(catalog_get(key).group) for key in catalog_list()]
    for doc in docs:
        assert_read_as_the_constructor_writes(doc)
    assert len(docs) > 500


def test_each_spelling_is_read_in_lowest_terms():
    assert {text: parse_ratio(text) for text in SPELLINGS} == SPELLINGS
    assert {text: parse_rational(text) for text in SPELLINGS} == {
        text: Fraction(*ratio) for text, ratio in SPELLINGS.items()
    }
    dim = len(SPELLINGS)
    minus_identity = [[-int(i == j) for j in range(dim)] for i in range(dim)]
    doc = {
        "dimension": dim,
        "generators": [{"matrix": minus_identity, "translation": list(SPELLINGS)}],
    }
    assert_read_as_the_constructor_writes(doc)
    (gen,) = document_to_group(doc).generators
    assert (gen.shift, gen.denominator) == ((1, -1, 1, 14, 0), 2)
    for text in SPELLINGS:  # one entry alone: "2/4" is over 2, not 4
        (gen,) = document_to_group(
            {"dimension": 1, "generators": [{"matrix": [[-1]], "translation": [text]}]}
        ).generators
        assert (gen.shift[0], gen.denominator) == SPELLINGS[text]


REJECTIONS = [
    ([[1]], [0.5], 'decimal notation rejected (0.5); write an exact rational like "1/2"'),
    ([[1]], [True], "not a rational: True"),
    ([[1]], [None], "not a rational: None"),
    ([[1]], ["1e-5"], "not an exact rational: '1e-5'"),
    ([[1]], ["1/0"], "not an exact rational: '1/0'"),
    ([[2]], [0], "generator 0: matrix is not invertible over Z (|det| != 1)"),
    ([[1, 1], [1, -1]], [0, 0], "generator 0: matrix is not invertible over Z (|det| != 1)"),
    ([[1, 0], [0]], [0, 0], "generator 0: 'matrix' must be 2x2"),
    ([[1, 0], [0, 1.0]], [0, 0], "generator 0: matrix entries must be integers"),
    ([[1, 0], [0, True]], [0, 0], "generator 0: matrix entries must be integers"),
    ([[1]], [0, 0], "generator 0: 'translation' must have 1 entries"),
]


@pytest.mark.parametrize("matrix, translation, message", REJECTIONS)
def test_every_rejection_keeps_its_message(tmp_path, capsys, matrix, translation, message):
    generator = {"matrix": matrix, "translation": translation}
    doc = {"name": "bad", "dimension": len(matrix), "generators": [generator]}
    with pytest.raises(GroupFileError) as info:
        document_to_group(doc)
    assert str(info.value) == message
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: GroupFileError: {message}\n"


def test_a_seed1_connective_pass_builds_no_fraction(monkeypatch, tmp_path, capsys):
    """Reading, peeling and printing the seed-1 `connective` corpus builds
    no `Fraction`, counted at `Fraction.__new__`."""
    paths = []
    for pos, item in enumerate(corpus_items("connective")):
        paths.append(tmp_path / f"{pos}.json")
        paths[-1].write_text(json.dumps(item.doc))
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    codes = [main(["connective", str(p), "--certificate", "--format", "json"]) for p in paths]
    monkeypatch.undo()
    capsys.readouterr()
    assert codes == [0] * len(paths) and len(paths) == 102
    assert made == []
