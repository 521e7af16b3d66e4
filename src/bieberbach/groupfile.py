"""JSON group file format.

A group document looks like:

    {
      "name": "klein_bottle",
      "dimension": 2,
      "generators": [
        {"matrix": [[1, 0], [0, -1]], "translation": ["1/2", "0"]}
      ]
    }

Matrix entries are JSON integers; translation entries are exact
rationals written as strings "p/q" or "n": an optional sign, ASCII
digits and an optional "/digits", with surrounding whitespace allowed
(JSON integers are also accepted).  Decimal and exponent notation are
rejected: this tool never touches floats.  A dimension above
MAX_DIMENSION is rejected.

A document is read straight into integers: each matrix entry is checked
once, each translation entry is parsed to a (numerator, denominator)
pair in lowest terms, and each generator is written over the lcm of its
denominators, with no `Fraction` built.  `parse_rational` gives the same
parse as a `Fraction`, for characters.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, lcm

from .crystal import AffineGen, CrystalGroup, build_group, check_unimodular
from .linalg import IntMatrix


MAX_DIMENSION = 64  # a group starts from a dim x dim matrix: bound the memory
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


class GroupFileError(ValueError):
    """Malformed group document."""


def parse_ratio(value) -> tuple[int, int]:
    """An exact rational entry as (numerator, denominator) in lowest
    terms, the denominator >= 1, with no `Fraction` built."""
    if isinstance(value, bool):
        raise GroupFileError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, float):
        raise GroupFileError(
            f"decimal notation rejected ({value!r}); write an exact rational like \"1/2\""
        )
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL.fullmatch(text):
            raise GroupFileError(f"not an exact rational: {value!r}")
        numerator, _, denominator = text.partition("/")
        x, q = int(numerator), int(denominator or 1)
        if q == 0:
            raise GroupFileError(f"not an exact rational: {value!r}")
        g = gcd(x, q)
        return x // g, q // g
    raise GroupFileError(f"not a rational: {value!r}")


def parse_rational(value) -> Fraction:
    """`parse_ratio`'s value as a `Fraction`, for characters."""
    return Fraction(*parse_ratio(value))


def format_rational(value: Fraction) -> str:
    return str(value)


def _format_ratio(x: int, q: int) -> str:
    """x/q as `format_rational` writes it, with no `Fraction` built."""
    g = gcd(x, q)
    return str(x // g) if g == q else f"{x // g}/{q // g}"


def document_to_group(doc) -> CrystalGroup:
    if not isinstance(doc, dict):
        raise GroupFileError("group document must be a JSON object")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise GroupFileError("'name' must be a string")
    dim = doc.get("dimension")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise GroupFileError("'dimension' must be a nonnegative integer")
    if dim > MAX_DIMENSION:
        raise GroupFileError(f"'dimension' {dim} exceeds the limit {MAX_DIMENSION}")
    raw_gens = doc.get("generators")
    if not isinstance(raw_gens, list):
        raise GroupFileError("'generators' must be a list")
    gens = []
    for pos, raw in enumerate(raw_gens):
        if not isinstance(raw, dict):
            raise GroupFileError(f"generator {pos} must be an object")
        matrix = raw.get("matrix")
        translation = raw.get("translation")
        if (
            not isinstance(matrix, list)
            or len(matrix) != dim
            or any(not isinstance(row, list) or len(row) != dim for row in matrix)
        ):
            raise GroupFileError(f"generator {pos}: 'matrix' must be {dim}x{dim}")
        for row in matrix:
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise GroupFileError(
                        f"generator {pos}: matrix entries must be integers"
                    )
        if not isinstance(translation, list) or len(translation) != dim:
            raise GroupFileError(
                f"generator {pos}: 'translation' must have {dim} entries"
            )
        ratios = [parse_ratio(x) for x in translation]
        checked = IntMatrix._trusted(tuple(map(tuple, matrix)), dim)
        try:
            check_unimodular(checked)
        except ValueError as exc:
            raise GroupFileError(f"generator {pos}: {exc}") from exc
        # over the lcm of denominators in lowest terms, as `AffineGen` writes it
        q = lcm(*(d for _, d in ratios))
        gens.append(AffineGen._trusted(checked, tuple(x * (q // d) for x, d in ratios), q))
    return build_group(dim, gens, name=name)


def group_to_document(group: CrystalGroup) -> dict:
    return {
        "name": group.name,
        "dimension": group.dim,
        "generators": [
            {
                "matrix": [list(row) for row in g.matrix],
                "translation": [_format_ratio(x, g.denominator) for x in g.shift],
            }
            for g in group.generators
        ],
    }


def load_group(path) -> CrystalGroup:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            # a RecursionError means the document nests too deeply to parse
            raise GroupFileError(f"invalid JSON: {exc}") from exc
    return document_to_group(doc)
