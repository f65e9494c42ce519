"""Loaders for the reference data files shipped with the package.

The JSON files hold the degree-2 and degree-3 characters, the quadratic
and cubic decomposition series and the candidate table for the (l3, l4)
product.  They are the fixed points the verification suites compare freshly
computed results against.  Each is read through lattice.read_shipped, so a
corrupt file raises InternalInconsistencyError naming it.
"""

from __future__ import annotations

from functools import lru_cache

from .lattice import Vec, conjugate, read_keyed, read_shipped
from .ring import SparsePolynomial
from .tensor import CGSeries


def _keyed(name: str, key: str, read) -> dict:
    """read_keyed over the records of the shipped file name."""
    return read_shipped(name, lambda records: read_keyed(records, key, read))


def _characters(name: str) -> dict[Vec, SparsePolynomial]:
    return _keyed(name, "weight", lambda rec: SparsePolynomial.from_records(rec["terms"]))


@lru_cache(maxsize=None)
def characters_degree2() -> dict[Vec, SparsePolynomial]:
    return _characters("characters_degree2.json")


@lru_cache(maxsize=None)
def characters_degree3() -> dict[Vec, SparsePolynomial]:
    return _characters("characters_degree3.json")


@lru_cache(maxsize=None)
def series_quadratic() -> list[CGSeries]:
    return read_shipped("series_quadratic.json", _distinct_series)


def _distinct_series(records: list) -> list[CGSeries]:
    """The series of records, in file order, each of z_i * z_j: ValueError
    unless the factors are two fundamental weights, and on a repeated factor
    pair, in either order, which the suites would check twice."""
    out = {}
    for series in map(CGSeries.from_json, records):
        if len(series.factors) != 2 or any(sum(f) != 1 for f in series.factors):
            raise ValueError(f"factors {series.factors} are not two fundamental weights")
        if out.setdefault(pair := tuple(sorted(series.factors)), series) is not series:
            raise ValueError(f"repeated factors {pair}")
    return list(out.values())


@lru_cache(maxsize=None)
def series_cubic() -> dict[Vec, CGSeries]:
    """The series of each monomial, in file order."""
    return _keyed("series_cubic.json", "monomial", CGSeries.from_json)


def _dimension(rec: dict) -> int:
    if type(rec["dim"]) is not int:
        raise ValueError(f"dimension must be an int: {rec}")
    return rec["dim"]


@lru_cache(maxsize=None)
def tensor_candidates_l3_l4() -> dict[Vec, int]:
    """The dimension of each candidate weight, in file order."""
    return _keyed("tensor_candidates_l3_l4.json", "weight", _dimension)


@lru_cache(maxsize=None)
def all_characters() -> dict[Vec, SparsePolynomial]:
    """Degree <= 3 characters, completed with conjugates of the degree-3 list."""
    out = dict(characters_degree2())
    for w, poly in characters_degree3().items():
        out[w] = poly
        out.setdefault(conjugate(w), poly.conjugate_variables())
    return out
