"""Loaders for the reference data files shipped with the package.

The JSON files hold the operator coefficient tables, the degree-2 and
degree-3 characters, the quadratic and cubic decomposition series and the
candidate table for the (l3, l4) product.  They are the fixed points the
verification suites compare freshly computed results against.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

from .lattice import Vec, conjugate, read_keyed
from .ring import SparsePolynomial
from .tensor import CGSeries


def _read(name: str) -> object:
    return json.loads((Path(__file__).with_name("data") / name).read_text(encoding="utf-8"))


def _characters(name: str) -> dict[Vec, SparsePolynomial]:
    return read_keyed(_read(name), "weight",
                      lambda rec: SparsePolynomial.from_records(rec["terms"]))


@lru_cache(maxsize=None)
def characters_degree2() -> dict[Vec, SparsePolynomial]:
    return _characters("characters_degree2.json")


@lru_cache(maxsize=None)
def characters_degree3() -> dict[Vec, SparsePolynomial]:
    return _characters("characters_degree3.json")


@lru_cache(maxsize=None)
def series_quadratic() -> list[CGSeries]:
    return [CGSeries.from_json(rec) for rec in _read("series_quadratic.json")]


@lru_cache(maxsize=None)
def series_cubic() -> dict[Vec, CGSeries]:
    """The series of each monomial, in file order."""
    return read_keyed(_read("series_cubic.json"), "monomial", CGSeries.from_json)


def _dimension(rec: dict) -> int:
    if type(rec["dim"]) is not int:
        raise ValueError(f"dimension must be an int: {rec}")
    return rec["dim"]


@lru_cache(maxsize=None)
def tensor_candidates_l3_l4() -> dict[Vec, int]:
    """The dimension of each candidate weight, in file order."""
    return read_keyed(_read("tensor_candidates_l3_l4.json"), "weight", _dimension)


@lru_cache(maxsize=None)
def all_characters() -> dict[Vec, SparsePolynomial]:
    """Degree <= 3 characters, completed with conjugates of the degree-3 list."""
    out = dict(characters_degree2())
    for w, poly in characters_degree3().items():
        out[w] = poly
        out.setdefault(conjugate(w), poly.conjugate_variables())
    return out
