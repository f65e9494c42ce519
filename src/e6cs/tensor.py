"""Clebsch-Gordan decomposition by coefficient peeling.

A product of characters is supported on dominant exponents below its top
weight, so walking the candidate list in increasing height of the drop from
the top guarantees that, when a candidate is reached, its residual coefficient
is exactly its multiplicity.  Subtracting that multiple of the candidate's
character and finishing with a zero residual is a complete correctness proof
for the series, which is why peeling failures are raised as hard errors.
The characters a peel reads from the cache prove their eigenfunction
identity together, in one packed pass (characters.pay_owed) that runs when
the peel ends, however it ends, or earlier, before a miss computes.
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple, Sequence

from . import lattice
from .characters import character, owing
from .errors import (InternalInconsistencyError, NegativeMultiplicityError,
                     NonzeroResidualError)
from .ring import SparsePolynomial, _check_budget


def _top(factors: Sequence[Sequence[int]]) -> lattice.Vec:
    """Highest weight of a product of irreducibles: the sum of the factors."""
    return tuple(sum(f[i] for f in factors) for i in range(6))


class CGSeries(NamedTuple):
    """A tensor-product decomposition: factor weights and term multiplicities."""

    factors: tuple[lattice.Vec, ...]
    terms: dict[lattice.Vec, int]

    @property
    def top(self) -> lattice.Vec:
        return _top(self.factors)

    def sorted_terms(self) -> list[tuple[lattice.Vec, int]]:
        return sorted(self.terms.items(),
                      key=lambda item: (-lattice.weight_height(item[0]), item[0]))

    def multiplicity(self, w: Sequence[int]) -> int:
        return self.terms.get(tuple(w), 0)

    def total_dimension(self) -> int:
        return sum(mult * lattice.weyl_dimension(w) for w, mult in self.terms.items())

    def to_json(self) -> dict:
        return {
            "factors": [list(f) for f in self.factors],
            "terms": [{"weight": list(w), "mult": m} for w, m in self.sorted_terms()],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CGSeries":
        factors = tuple(lattice._check_dominant(f) for f in obj["factors"])
        for rec in obj["terms"]:
            if type(rec["mult"]) is not int or rec["mult"] < 1:
                raise ValueError(f"multiplicity must be a positive int: {rec}")
        return cls(factors, lattice.read_keyed(obj["terms"], "weight", lambda rec: rec["mult"]))


def _peel(product: SparsePolynomial, factors: tuple[lattice.Vec, ...]) -> CGSeries:
    """Peel product into the characters of the dominant weights below the
    top of factors, then prove the series.  The eigenfunction proofs of the
    cache hits are owed to one ledger (characters.owing), paid when the
    loop ends, however it ends."""
    top = _top(factors)
    residual = dict(product.terms)
    out: dict[lattice.Vec, int] = {}
    # the proofs this peel owes; character pays them before a miss computes
    with owing() as owed:
        for mu in lattice.dominant_weights_below(top):
            c = residual.get(mu, 0)
            if not c:
                continue
            if not isinstance(c, int) or c < 0:
                raise NegativeMultiplicityError(
                    f"coefficient {c} at {mu} while peeling {' x '.join(map(str, factors))}")
            out[mu] = c
            for e, v in character(mu, owed).poly.terms.items():
                s = residual.get(e, 0) - c * v
                if s:
                    residual[e] = s
                else:
                    residual.pop(e, None)
    if residual:
        raise NonzeroResidualError(
            f"residual has {len(residual)} terms after peeling {' x '.join(map(str, factors))}")
    series = CGSeries(factors, out)
    _check_series(series)
    return series


def _check_series(series: CGSeries) -> None:
    """The proof obligations of a series besides its zero residual: top
    multiplicity 1, dimension balance, and the Casimir sum rule.  The second
    order index dim(V) (V, V + 2 rho) is additive over a tensor product, so
    sum of mult dim(nu) eps3(nu) over the terms equals the product of the
    factor dimensions times the sum of their eps3; eps3 comes from the
    lattice's bilinear form, not from the operator tables."""
    factors = " x ".join(map(str, series.factors))
    if series.terms.get(series.top) != 1:
        raise InternalInconsistencyError(
            f"top weight {series.top} does not appear with multiplicity 1")
    expected = prod(lattice.weyl_dimension(f) for f in series.factors)
    if series.total_dimension() != expected:
        raise InternalInconsistencyError(f"dimension balance fails for {factors}")
    casimir = sum(mult * lattice.weyl_dimension(w) * lattice.eps3(w)
                  for w, mult in series.terms.items())
    expected_casimir = expected * sum(lattice.eps3(f) for f in series.factors)
    if casimir != expected_casimir:
        raise InternalInconsistencyError(
            f"Casimir sum rule fails for {factors}: the terms give sum mult*dim*eps3 = "
            f"{casimir}, the factors give dim product * sum eps3 = {expected_casimir}")


def tensor_decompose(m: Sequence[int], n: Sequence[int]) -> CGSeries:
    """Decompose the product of the irreducibles labelled m and n."""
    m, n = lattice._check_dominant(m), lattice._check_dominant(n)
    product = character(m).poly * character(n).poly
    return _peel(product, (m, n))


def monomial_decompose(exp: Sequence[int]) -> CGSeries:
    """Decompose the bare monomial z^exp, read as a product of fundamentals."""
    exp = lattice._check_dominant(exp)
    _check_budget("a monomial", sum(exp), "factors")  # before the factors are listed
    factors: list[lattice.Vec] = []
    for idx, p in enumerate(exp):
        factors.extend([lattice.fundamental_weight(idx + 1)] * p)
    if not factors:
        factors = [(0, 0, 0, 0, 0, 0)]
    return _peel(SparsePolynomial.monomial(exp), tuple(factors))

